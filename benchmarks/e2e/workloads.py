"""The four workloads: three CLI tiers in fresh processes and the service mix.

Why these workloads, and which layer each one exercises, is recorded in
``BENCHMARK.json`` and README.md.  A CLI sample is one
``python -m repro.cli blif IN -o OUT`` from spawn to exit, because a
user pays for a fresh process on every run and because repeats inside
one process would warm the program's process-wide memos.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import check
import procs
import traffic
from metrics import percentile

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"
K = 5


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Tuple[str, ...] = ()  # empty for the service workload
    flags: Tuple[str, ...] = ()


SMALL = ("5xp1", "9sym", "alu2", "b9", "clip", "f51m", "misex1", "rd73",
         "rd84", "sao2", "vg2", "z4ml")
MEDIUM = ("count", "misex2", "duke2", "apex7")
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-small", SMALL),
        Workload("cli-medium", MEDIUM),
        Workload("portfolio", MEDIUM, ("--portfolio",)),
        Workload("service-mixed"),
    )
}


@dataclass
class Outcome:
    """What one workload run measured and what its check found."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    # CLI only: one row per input program (median wall, samples, LUTs, depth).
    inputs: Dict[str, dict] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


# --------------------------------------------------------------------- #
# CLI workloads
# --------------------------------------------------------------------- #

_ROW = re.compile(r"^hyde\s+(\d+)\s+(\d+)\s", re.M)
_NUMPY = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s+numpy$", re.M)
_HYDE_PHASES = ("bdd_build", "cluster", "decompose", "splice", "cleanup", "verify", "cost")
_STEPS = ("varpart", "classes", "encode")
_ENCODE = ("draft", "varpart", "column_sets", "row_sets", "chart", "image_rebuild")
_COUNTERS = {
    "fastpath.selects": "fastpath_selects",
    "fastpath.conversions": "fastpath_conversions",
    "fastpath.global_hits": "fastpath_global_hits",
    "fastpath.global_misses": "fastpath_global_misses",
    "decompose.oracle.hits": "oracle_hits",
    "decompose.oracle.misses": "oracle_misses",
    "decompose.oracle.bypasses": "oracle_bypasses",
    "bdd.apply_calls": "apply_calls",
    "bdd.cofactor_calls": "cofactor_calls",
    "bdd.cofactor_enumerations": "cofactor_enumerations",
}
_WRAPPED = {
    "network.read_blif_s": "read_blif_s",
    "network.write_blif_s": "write_blif_s",
    "decompose.matching.b_calls": "b_calls",
    "decompose.matching.b_edges": "b_edges",
    "decompose.matching.b_clone_edges": "b_clone_edges",
    "decompose.matching.b_s": "b_s",
    "decompose.matching.row_calls": "row_calls",
    "decompose.matching.row_s": "row_s",
    "decompose.matching.networkx_import_s": "networkx_import_s",
    "mapping.parallel.run_s": "parallel_run_s",
    "mapping.parallel.tasks": "parallel_tasks",
    "mapping.parallel.attempts": "parallel_attempts",
    "mapping.parallel.degraded": "parallel_degraded",
}


def spawn_setup(ctx: procs.Context, spawns: int) -> float:
    """Median time of ``python -m repro.cli circuits``: start-up plus import."""
    walls = []
    for _ in range(spawns):
        sample = procs.run_sample(ctx, ["-m", "repro.cli", "circuits"])
        if sample.returncode != 0:
            raise RuntimeError(f"repro.cli circuits exited {sample.returncode}: {sample.stderr[-500:]}")
        walls.append(sample.wall)
    return statistics.median(walls)


def _layer_values(sample: procs.Sample, layers: dict, trace_path: Path) -> Dict[str, float]:
    """Per-layer numbers of one traced sample, before summing over inputs."""
    records = [json.loads(line) for line in trace_path.read_text().splitlines() if line]
    meta = next(r for r in records if r.get("type") == "meta")
    perf = meta["perf"]
    phases = perf.get("phase_seconds", {})
    flow_s = sum(
        r["t1"] - r["t0"] for r in records
        if r.get("type") == "span" and r.get("parent") is None and str(r["name"]).startswith("flow:")
    )
    numpy = _NUMPY.search(sample.stderr)
    v: Dict[str, float] = {
        "cli.import_s": layers["import_s"],
        "cli.import_numpy_s": int(numpy.group(1)) / 1e6 if numpy else 0.0,
        "cli.unattributed_s": sample.wall - layers["import_s"] - layers["read_blif_s"]
        - flow_s - layers["write_blif_s"],
        "mapping.hyde.flow_s": flow_s,
        "mapping.hyde.unattributed_s": flow_s - sum(phases.get(p, 0.0) for p in _HYDE_PHASES),
        "decompose.unattributed_s": phases.get("decompose", 0.0)
        - sum(phases.get(f"step.{s}", 0.0) for s in _STEPS),
        "parallel_groups": layers["parallel_groups"],
        "parallel_useful": layers["parallel_useful"],
    }
    for p in _HYDE_PHASES:
        v[f"mapping.hyde.{p}_s"] = phases.get(p, 0.0)
    for s in _STEPS:
        v[f"decompose.step.{s}_s"] = phases.get(f"step.{s}", 0.0)
    for e in _ENCODE:
        v[f"decompose.encoding.{e}_s"] = phases.get(f"encode.{e}", 0.0)
    for name, slot in _COUNTERS.items():
        v[name] = int(perf.get(slot, 0))
    for name, key in _WRAPPED.items():
        v[name] = layers[key]
    return v


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def _sum_of_medians(per_input: Dict[str, List]) -> float:
    return sum(statistics.median(values) for values in per_input.values())


class _CliChecker:
    """Checks each emitted network once, and every sample's reported row."""

    def __init__(self, sources: Dict[str, str], seed: int):
        self.sources = sources
        self.seed = seed
        self.first: Dict[str, str] = {}  # input -> digest of its first output
        self.recount: Dict[str, Tuple[int, int]] = {}
        self._verdicts: Dict[Tuple[str, str], check.Verdict] = {}

    def judge(self, name: str, sample: procs.Sample, out_path: Path) -> Optional[str]:
        """``None`` when the sample is correct, else why it is not."""
        if sample.returncode != 0:
            return f"{name}: exit code {sample.returncode}: {sample.stderr.strip()[-300:]}"
        row = _ROW.search(sample.stdout)
        if row is None or not out_path.exists():
            return f"{name}: no result row or no output file"
        text = out_path.read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        key = (name, digest)
        if key not in self._verdicts:
            self._verdicts[key] = check.check_mapping(self.sources[name], text, K, self.seed)
        verdict = self._verdicts[key]
        if not verdict.ok:
            return f"{name}: " + "; ".join(verdict.problems)
        reported = (int(row.group(1)), int(row.group(2)))
        if reported != (verdict.luts, verdict.depth):
            return (f"{name}: reported {reported[0]} LUTs / depth {reported[1]}, "
                    f"recounted {verdict.luts} / {verdict.depth}")
        if self.first.setdefault(name, digest) != digest:
            return f"{name}: emitted BLIF differs from an earlier run of the same input"
        self.recount[name] = (verdict.luts, verdict.depth)
        return None


def run_cli(
    ctx: procs.Context, wl: Workload, seed: int, seconds: float, traced: bool,
    smoke: bool = False,
) -> Outcome:
    """Fresh-process samples in seeded order until ``seconds`` have passed.

    The first pass always completes; later samples start only while the
    input's previous time still fits before the deadline.  Traced runs
    pair each untraced sample with one through ``launch.py``.
    """
    names = wl.inputs[:2] if smoke else wl.inputs
    sources = {n: (INPUTS / f"{n}.blif").read_text() for n in names}
    checker = _CliChecker(sources, seed)
    outcome = Outcome()
    if not traced:
        outcome.end_to_end["setup_s"] = spawn_setup(ctx, 3 if smoke else 11)

    out_path = ctx.work / "out.blif"
    layers_path, trace_path = ctx.work / "layers.json", ctx.work / "trace.jsonl"
    walls: Dict[str, List[float]] = defaultdict(list)
    traced_walls: Dict[str, List[float]] = defaultdict(list)
    layer_samples: Dict[str, List[Dict[str, float]]] = defaultdict(list)
    rss: List[float] = []
    cost: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    pass_no, done = 0, False
    while not done:
        order = list(names)
        random.Random(f"{seed}:{wl.name}:{pass_no}").shuffle(order)
        for name in order:
            now = time.perf_counter()
            if pass_no and now + cost[name] > deadline:
                done = True
                break
            if now > deadline + traffic.GRACE:  # only a stalling program gets here
                outcome.attempted += 1
                outcome.fail(f"{name}: not run, the first pass overran the time budget")
                done = True
                continue
            started = time.perf_counter()
            argv = ["blif", str(INPUTS / f"{name}.blif"), "-o", str(out_path), *wl.flags]
            out_path.unlink(missing_ok=True)
            sample = procs.run_sample(ctx, ["-m", "repro.cli", *argv])
            outcome.attempted += 1
            problem = checker.judge(name, sample, out_path)
            if problem:
                outcome.fail(problem)
            else:
                walls[name].append(sample.wall)
                rss.append(sample.rss_mb)
            if traced:
                out_path.unlink(missing_ok=True)
                trace_path.unlink(missing_ok=True)
                sample = procs.run_sample(
                    ctx, [str(HERE / "launch.py"), str(layers_path), str(trace_path), "--", *argv],
                    python_flags=["-X", "importtime"],
                )
                outcome.attempted += 1
                problem = checker.judge(name, sample, out_path)
                if problem:
                    outcome.fail(f"traced {problem}")
                else:
                    traced_walls[name].append(sample.wall)
                    layers = json.loads(layers_path.read_text())
                    layer_samples[name].append(_layer_values(sample, layers, trace_path))
            cost[name] = time.perf_counter() - started
        pass_no += 1
        done = done or smoke

    if not traced:
        for n in names:
            if walls[n]:
                luts, depth = checker.recount[n]
                outcome.inputs[n] = {"wall_s": statistics.median(walls[n]),
                                     "samples": len(walls[n]), "luts": luts, "depth": depth}
        # An input with no passing sample reads +inf rather than dropping
        # out of the sums, so a failure can never make a total look better.
        medians = [outcome.inputs[n]["wall_s"] if n in outcome.inputs else math.inf
                   for n in names]
        recounts = [checker.recount.get(n, (math.inf, math.inf)) for n in names]
        tier = sum(medians)
        outcome.end_to_end.update({
            "tier_wall_s": tier,
            "latency_p50_s": statistics.median(medians),
            "latency_p98_s": percentile(medians, 98),
            "throughput_rps": len(medians) / tier,
            "peak_rss_mb": max(rss, default=0.0),
            "luts_total": sum(luts for luts, _ in recounts),
            "depth_total": sum(depth for _, depth in recounts),
        })
        return outcome

    summed: Dict[str, float] = defaultdict(int)
    for samples in layer_samples.values():
        for key, first in samples[0].items():
            pick = statistics.median_low if isinstance(first, int) else statistics.median
            summed[key] += pick([s[key] for s in samples])
    layer = {k: v for k, v in summed.items() if not k.startswith("parallel_")}
    layer["cli.trace_overhead_s"] = _sum_of_medians(traced_walls) - _sum_of_medians(
        {n: walls[n] for n in traced_walls if walls[n]})
    layer["fastpath.global_hit_rate"] = _ratio(
        summed["fastpath.global_hits"], summed["fastpath.global_hits"] + summed["fastpath.global_misses"])
    layer["decompose.oracle.hit_rate"] = _ratio(
        summed["decompose.oracle.hits"], summed["decompose.oracle.hits"] + summed["decompose.oracle.misses"])
    layer["mapping.parallel.useful_ratio"] = _ratio(summed["parallel_useful"], summed["parallel_groups"])
    outcome.per_layer = layer
    return outcome


# --------------------------------------------------------------------- #
# The service workload
# --------------------------------------------------------------------- #


def run_service(
    ctx: procs.Context, seed: int, seconds: float, smoke: bool = False,
) -> Outcome:
    """One daemon on a fresh store; a closed loop of two connections."""
    warmup = (INPUTS / "z4ml.blif").read_text()
    connections = 2
    min_blocks, max_blocks = (2, 2) if smoke else (5, None)
    outcome = Outcome()
    setup: List[float] = []
    daemon: Optional[procs.Daemon] = None
    try:
        # The last daemon started serves the timed loop; the earlier
        # ones only add set-up samples.
        for i in range(1 if smoke else 5):
            if daemon is not None:
                daemon.stop()
            started = time.perf_counter()
            daemon = procs.Daemon(ctx, str(i))
            daemon.wait_ready(warmup)
            setup.append(time.perf_counter() - started)
        before = daemon.call({"op": "stats"})
        loop = traffic.closed_loop(
            daemon.host, daemon.port, seed, connections=connections, seconds=seconds,
            min_blocks=min_blocks, max_blocks=max_blocks,
        )
        after = daemon.call({"op": "stats"})
        peak_rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()

    first_reply: Dict[Tuple[int, int], str] = {}
    recount: Dict[Tuple[int, int], Tuple[int, int]] = {}
    rtts: List[float] = []
    for reply in loop.replies:
        outcome.attempted += 1
        key = (reply.conn, reply.index)
        record = reply.record
        problem = None
        if not reply.ok:
            problem = f"error reply {record.get('code')}: {record.get('error')}"
        elif key not in first_reply:
            first_reply[key] = record["blif"]
            verdict = check.check_mapping(
                loop.sources[key], record["blif"], K, seed,
                reported=(record.get("luts"), record.get("depth")),
            )
            if verdict.ok:
                recount[key] = (verdict.luts, verdict.depth)
            else:
                problem = "; ".join(verdict.problems)
        elif record["blif"] != first_reply[key]:
            problem = "repeat reply is not byte-identical to the first reply"
        if problem:
            outcome.fail(f"network c{key[0]}/n{key[1]}: {problem}")
        rtts.append(reply.rtt if problem is None else float("inf"))

    ok = [r for r in loop.replies if r.ok]
    # The networks every run reaches; one without a checked reply reads +inf.
    prefix = [recount.get((c, i), (math.inf, math.inf))
              for c in range(connections) for i in range(min_blocks * traffic.NEW_PER_BLOCK)]
    outcome.end_to_end = {
        "setup_s": statistics.median(setup),
        "tier_wall_s": statistics.median(loop.block_walls),
        "latency_p50_s": statistics.median(rtts),
        "latency_p98_s": percentile(rtts, 98),
        "throughput_rps": len(ok) / loop.wall,
        "peak_rss_mb": peak_rss,
        "luts_total": sum(luts for luts, _ in prefix),
        "depth_total": sum(depth for _, depth in prefix),
    }

    def delta(*path: str) -> int:
        a, b = before, after
        for step in path:
            a, b = a[step], b[step]
        return int(b) - int(a)

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    outcome.per_layer = {
        "service.rtt_p50_s": statistics.median(r.rtt for r in ok) if ok else 0.0,
        "service.server_p50_s": statistics.median(r.record["service_seconds"] for r in ok) if ok else 0.0,
        "service.wire_p50_s": statistics.median(r.rtt - r.record["service_seconds"] for r in ok) if ok else 0.0,
        "service.hit_rtt_p50_s": statistics.median([r.rtt for r in ok if not r.store_miss] or [0.0]),
        "service.miss_rtt_p50_s": statistics.median([r.rtt for r in ok if r.store_miss] or [0.0]),
        "service.store_hits": hits,
        "service.store_misses": misses,
        "service.store_rejected": delta("cache", "rejected"),
        "service.group_hit_rate": _ratio(hits, hits + misses),
        "service.sheds": delta("resilience", "sheds"),
        "service.errors": delta("errors"),
    }
    return outcome
