"""End-to-end benchmark of the HYDE mapper: entry point.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1                # every workload + traced pass
    python3 benchmarks/e2e/run.py --seed 1 --out A.json   # ... and append the record
    python3 benchmarks/e2e/run.py --smoke                 # quick sanity run
    python3 benchmarks/e2e/run.py --workload cli-medium --seed 3 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --report A.json         # re-render recorded runs
    python3 benchmarks/e2e/run.py compare A.json B.json   # judge B against A

``python -m benchmarks.e2e`` is the same command.  With ``--workload``
one workload runs for ``--seconds`` and the last line of standard
output is one JSON object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import time
from pathlib import Path
from typing import List

import metrics
import procs
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _run_workload(ctx, name: str, seed: int, seconds: float, traced: bool, smoke: bool):
    if name == "service-mixed":
        return workloads.run_service(ctx, seed, seconds, smoke=smoke)
    return workloads.run_cli(ctx, workloads.WORKLOADS[name], seed, seconds, traced, smoke=smoke)


def _finish(spec: dict, outcome) -> tuple:
    """``(end_to_end, per_layer)`` in BENCHMARK.json order.

    Either dict is empty when the run did not measure that kind.  A
    layer the workload never reaches reads 0.
    """
    e2e = {}
    if outcome.end_to_end:
        metrics.check_names(spec, "end_to_end", outcome.end_to_end)
        e2e = {m["name"]: outcome.end_to_end[m["name"]] for m in spec["end_to_end"]}
    layer = {}
    if outcome.per_layer:
        names = [m["name"] for m in spec["per_layer"]]
        unknown = sorted(set(outcome.per_layer) - set(names))
        if unknown:
            raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: {unknown}")
        layer = {n: outcome.per_layer.get(n, 0) for n in names}
    return e2e, layer


def single(ctx, spec: dict, args) -> int:
    """One workload, one kind of metric, one JSON line."""
    traced = args.trace == 1
    outcome = _run_workload(ctx, args.workload, args.seed, args.seconds, traced, args.smoke)
    e2e, layer = _finish(spec, outcome)
    values = layer if traced else e2e
    unit_of = metrics.units(spec)
    for problem in outcome.problems[:20]:
        print(f"FAILED: {problem}")
    for name, value in values.items():
        print(f"{args.workload:14s} {name:40s} {value!r} {unit_of[name]}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": unit_of[n]} for n, v in values.items()},
    }), flush=True)
    return 0


def full(ctx, spec: dict, args) -> int:
    """Every workload untraced, then the traced pass; print and record."""
    started = time.time()
    record = {
        "seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.localtime(started)),
        "host": {"cpus": os.cpu_count(), "python": platform.python_version()},
        "workloads": {},
    }
    names = [w["name"] for w in spec["workloads"]]
    for name in names:
        print(f"[{name}] timed run ...", flush=True)
        outcome = _run_workload(ctx, name, args.seed, args.seconds, False, args.smoke)
        e2e, layer = _finish(spec, outcome)
        record["workloads"][name] = {
            "end_to_end": e2e, "per_layer": layer, "inputs": outcome.inputs,
            "attempted": outcome.attempted, "failed": outcome.failed,
            "problems": outcome.problems,
        }
    if not args.smoke:
        for name in names:
            if workloads.WORKLOADS[name].inputs:
                print(f"[{name}] traced pass ...", flush=True)
                outcome = _run_workload(ctx, name, args.seed, 0, True, False)
                entry = record["workloads"][name]
                entry["per_layer"] = _finish(spec, outcome)[1]
                entry["attempted"] += outcome.attempted
                entry["failed"] += outcome.failed
                entry["problems"] += outcome.problems
    record["wall_seconds"] = time.time() - started
    print(metrics.render_record(spec, record))
    if args.out:
        out = Path(args.out)
        runs = metrics.load_records(out) if out.exists() else []
        out.write_text(json.dumps(runs + [record], indent=1) + "\n")
        print(f"appended this run to {out} ({len(runs) + 1} run(s))")
    return 0 if all(w["failed"] == 0 for w in record["workloads"].values()) else 1


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="compare",
        description="Judge each later set of runs against the first, per "
        "workload and end-to-end metric, by the bounds in BENCHMARK.json.",
    )
    parser.add_argument("files", nargs="+", help="run records written by --out")
    args = parser.parse_args(argv)
    if len(args.files) < 2:
        parser.error("compare needs a base file and at least one other")
    spec = metrics.load_spec(ROOT)
    sides = [metrics.load_records(Path(f)) for f in args.files]
    ok = True
    for path, other in zip(args.files[1:], sides[1:]):
        lines, passed = metrics.compare(spec, sides[0], other)
        print(f"{path} ({len(other)} run(s)) against {args.files[0]} ({len(sides[0])} run(s))")
        print("\n".join(lines))
        ok = ok and passed
    return 0 if ok else 1


def main(argv: List[str]) -> int:
    if argv and argv[0] == "compare":
        return compare_main(argv[1:])
    spec = metrics.load_spec(ROOT)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run only this workload and print one JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload (the first pass always completes)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="with --workload: 0 prints end-to-end, 1 per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="1 pass over 2 inputs per CLI workload, 40 service requests, no traced pass")
    parser.add_argument("--out", help="append the run record to this JSON file")
    parser.add_argument("--report", metavar="RUN.json",
                        help="re-render recorded runs without running anything")
    args = parser.parse_args(argv)
    if args.trace is not None and not args.workload:
        parser.error("--trace needs --workload; a full run always ends with its traced pass")

    if args.report:
        for record in metrics.load_records(Path(args.report)):
            print(metrics.render_record(spec, record), end="\n\n")
        return 0
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src/repro/cli.py'} is missing", file=sys.stderr)
        return 2

    def terminate(signum, frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    work = ROOT / ".e2e_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = procs.Context(root=ROOT, work=work)
    try:
        if args.workload:
            return single(ctx, spec, args)
        return full(ctx, spec, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
