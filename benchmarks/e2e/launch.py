"""Traced-pass launcher: runs the CLI in this process with timing wrappers.

Usage (from the repository root, ``src`` on ``PYTHONPATH``)::

    python -X importtime benchmarks/e2e/launch.py LAYERS.json TRACE.jsonl -- blif IN -o OUT

It times ``import repro.cli``, wraps a few public functions to count
and time the calls into the network, matching and parallel-runner
layers, then calls ``repro.cli.main`` with ``--trace TRACE.jsonl`` so
the program's own spans and perf counters land next to these numbers.
The wrapper totals are written to LAYERS.json.  The program itself is
not modified; only module attributes are rebound in this process.
"""

import sys
import time

if __name__ == "__main__":
    # The script's own directory must not shadow the program's imports.
    del sys.path[0]
    layers_path, trace_path = sys.argv[1], sys.argv[2]
    cli_argv = sys.argv[sys.argv.index("--") + 1:]

    start = time.perf_counter()
    import repro.cli as cli

    import_s = time.perf_counter() - start

    import json

    import repro.decompose.encoding as encoding
    import repro.mapping.hyde as hyde

    totals = {
        "read_blif_s": 0.0, "write_blif_s": 0.0,
        "b_calls": 0, "b_edges": 0, "b_clone_edges": 0, "b_s": 0.0,
        "row_calls": 0, "row_s": 0.0, "networkx_import_s": 0.0,
        "parallel_run_s": 0.0, "parallel_tasks": 0, "parallel_attempts": 0,
        "parallel_groups": 0, "parallel_useful": 0, "parallel_degraded": 0,
    }

    def import_networkx_first():
        if "networkx" not in sys.modules:
            t0 = time.perf_counter()
            import networkx  # noqa: F401

            totals["networkx_import_s"] += time.perf_counter() - t0

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[key] += time.perf_counter() - t0
        return wrapper

    b_timed = timed(encoding.max_weight_b_matching, "b_s")
    row_timed = timed(encoding.max_weight_matching, "row_s")

    def b_matching(edges, capacity):
        import_networkx_first()
        totals["b_calls"] += 1
        totals["b_edges"] += len(edges)
        # The solver clones a capacity-b vertex b times, so each edge
        # becomes cap(u) * cap(v) edges in the graph it actually solves.
        totals["b_clone_edges"] += sum(
            capacity.get(e.u, 1) * capacity.get(e.v, 1) for e in edges
        )
        return b_timed(edges, capacity)

    def row_matching(edges, *args, **kwargs):
        import_networkx_first()
        totals["row_calls"] += 1
        return row_timed(edges, *args, **kwargs)

    def run_group_tasks(tasks, *args, _fn=hyde.run_group_tasks, **kwargs):
        tasks = list(tasks)
        t0 = time.perf_counter()
        results, report = _fn(tasks, *args, **kwargs)
        totals["parallel_run_s"] += time.perf_counter() - t0
        totals["parallel_tasks"] += len(tasks)
        totals["parallel_degraded"] += len(report.degraded)
        for decision in report.details.get("portfolio") or []:
            board = decision["candidates"]
            totals["parallel_groups"] += 1
            totals["parallel_attempts"] += len(board)
            hyper = board.get("hyper")
            won = board.get(decision["winner"])
            if isinstance(hyper, dict) and isinstance(won, dict):
                totals["parallel_useful"] += won["luts"] < hyper["luts"]
        return results, report

    cli.read_blif = timed(cli.read_blif, "read_blif_s")
    cli.write_blif = timed(cli.write_blif, "write_blif_s")
    encoding.max_weight_b_matching = b_matching
    encoding.max_weight_matching = row_matching
    hyde.run_group_tasks = run_group_tasks

    code = cli.main(cli_argv + ["--trace", trace_path])
    totals["import_s"] = import_s
    with open(layers_path, "w") as handle:
        json.dump(totals, handle)
    sys.exit(code)
