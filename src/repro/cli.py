"""Command-line interface for the HYDE reproduction.

Usage examples::

    python -m repro.cli circuits                 # list benchmark circuits
    python -m repro.cli map 9sym --flow hyde     # map one circuit
    python -m repro.cli map rd84 --flow all      # compare every flow
    python -m repro.cli map duke2 --jobs 4        # parallel group mapping
    python -m repro.cli stats 9sym --flow hyde    # perf-counter report
    python -m repro.cli table1 --classes small   # regenerate Table 1
    python -m repro.cli table2 --classes small
    python -m repro.cli blif my_circuit.blif --flow hyde -o mapped.blif
    python -m repro.cli serve --store cache.db --info svc.json &
    python -m repro.cli submit misex1 --info svc.json --times 2
    python -m repro.cli cache cache.db --check
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import time
from importlib import import_module
from typing import (
    TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple,
)

from . import obs
from .network.blif import read_blif, write_blif

if TYPE_CHECKING:
    from .mapping import MapResult

#: Exit code of an interrupted (but journaled and resumable) run —
#: EX_TEMPFAIL, the sysexits convention for "try again later".
EXIT_INTERRUPTED = 75


class CliError(Exception):
    """An error :func:`main` reports in one ``error:`` line, exiting with
    ``status``: 2 (bad usage) unless the run itself failed."""

    def __init__(self, message: str, status: int = 2):
        super().__init__(message)
        self.status = status


class InputFileError(CliError):
    """A file named on the command line is missing, unreadable or
    malformed, or cannot be written."""


def _read_input(path: str, parse: Optional[Callable] = None):
    """``parse(path)`` (default: the module's ``read_blif``, looked up at
    call time), with read and parse failures as InputFileError.

    Parse failures are ``ValueError`` (``BlifError``, undecodable text,
    malformed JSON and trace or info records)."""
    try:
        return (parse or read_blif)(path)
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise InputFileError(f"{path}: {exc}") from None


def _check_outputs(*paths: Optional[str]) -> None:
    """Refuse, before any work, an output file whose directory is missing
    or read-only; nothing is created."""
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        elif not os.access(parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise InputFileError(f"{path}: {os.strerror(code)}")


def _write_output(path: str, write: Callable[[str], object]):
    """``write(path)``, with a failed write as InputFileError."""
    try:
        return write(path)
    except OSError as exc:
        raise InputFileError(f"{path}: {exc.strerror or exc}") from None


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


#: Flow label -> (module of :mod:`repro.mapping`, entry point, keyword
#: arguments the label fixes).  :func:`_load_flow` imports a flow's
#: module only when a command runs it.
FLOWS: Dict[str, Tuple[str, str, Dict[str, object]]] = {
    "hyde": ("hyde", "hyde_map", {}),
    "per-output": ("baselines", "map_per_output", {"encoding_policy": "chart"}),
    "random": ("baselines", "map_per_output", {"encoding_policy": "random"}),
    "resub": ("baselines", "map_per_output_resub", {}),
    "column": ("baselines", "map_column_encoding", {}),
    "shannon": ("baselines", "map_shannon", {}),
    "structural": ("structural", "map_structural", {}),
}

#: Flows that accept ``journal=`` (checkpoint/resume) and ``cache=`` (the
#: content-addressed result store) kwargs.
JOURNALED_FLOWS = {"hyde", "per-output", "random", "resub", "column"}

#: Flows that accept a ``portfolio=`` kwarg (strategy racing).
PORTFOLIO_FLOWS = {"hyde"}

#: Flow keyword arguments that route a run through the governed task
#: runner (:mod:`repro.mapping.parallel`), as ``jobs > 1`` does.
GOVERNED_KWARGS = {"policy", "faults", "journal", "cache", "portfolio"}

#: The run flags only :data:`JOURNALED_FLOWS` take, as (flag, argument
#: name, default): the other flows map serially and ignore them.
RUN_FLAGS = (
    ("--cost", "cost", None),
    ("--jobs", "jobs", 1),
    ("--timeout", "timeout", None),
    ("--retries", "retries", None),
    ("--max-bdd-nodes", "max_bdd_nodes", None),
    ("--inject-faults", "inject_faults", None),
    ("--checkpoint", "checkpoint", None),
    ("--cache", "cache", None),
)


def _load_flow(label: str, jobs: int = 1, kwargs=()) -> Callable:
    """Import flow ``label`` and return it as
    ``fn(net, k, verify=, jobs=, **governance)``.

    Callers load a flow before opening its span, so a trace times the
    mapping, not the imports.  ``jobs`` and the keyword arguments the
    flow will get say whether that includes the task runner.
    """
    module, name, fixed = FLOWS[label]
    flow = getattr(import_module(f".mapping.{module}", __package__), name)
    if label not in JOURNALED_FLOWS:
        # No group-level parallelism (and hence no fault tolerance or
        # checkpointing): ``jobs`` and the governance kwargs are accepted
        # (so ``--flow all --jobs N`` works) and ignored.
        return lambda net, k, verify="bdd", jobs=1, **kw: flow(
            net, k, verify=verify
        )
    if jobs > 1 or GOVERNED_KWARGS.intersection(kwargs):
        import_module(".mapping.parallel", __package__)
    return functools.partial(flow, **fixed)


def _open_flow_journal(args, circuit: str, label: str):
    """Open the checkpoint journal for one (circuit, flow) run, or None."""
    directory = getattr(args, "checkpoint", None)
    if directory is None:
        return None
    from .runstate.journal import open_journal

    return _write_output(directory, lambda path: open_journal(
        path, circuit, label, args.k, resume=getattr(args, "resume", False),
    ))


def _open_result_cache(args, labels: Sequence[str]):
    """Open the ``--cache`` result store for a run of flows ``labels``,
    or None when it is not requested or none of them takes it."""
    path = getattr(args, "cache", None)
    if path is None or JOURNALED_FLOWS.isdisjoint(labels):
        return None
    from .service import ResultStore

    return ResultStore(path)


def _print_cache_summary(result: MapResult) -> None:
    cache = result.details.get("cache")
    if cache:
        print(
            f"  [cache: {cache['hits']} hit(s), {cache['misses']} miss(es)"
            + (
                f", {cache['rejected']} rejected"
                if cache.get("rejected")
                else ""
            )
            + "]"
        )


def _governance_kwargs(args) -> Dict[str, object]:
    """Map the fault-tolerance CLI flags to flow keyword arguments."""
    kw: Dict[str, object] = {}
    if getattr(args, "max_bdd_nodes", None) is not None:
        kw["max_bdd_nodes"] = args.max_bdd_nodes
    timeout = getattr(args, "timeout", None)
    retries = getattr(args, "retries", None)
    if timeout is not None or retries is not None:
        from .mapping.parallel import TaskPolicy

        kw["policy"] = TaskPolicy(
            timeout_seconds=timeout,
            retries=retries if retries is not None else 1,
        )
    # Both specs are parsed here, not by argparse: the flows that
    # ignore the flags load neither parser.
    if getattr(args, "inject_faults", None):
        from .testing import FaultPlan

        try:
            kw["faults"] = FaultPlan.parse(args.inject_faults)
        except ValueError as exc:
            raise CliError(f"--inject-faults: {exc}") from None
    cost = getattr(args, "cost", None)
    if cost is not None:
        from .decompose import parse_cost_model

        try:
            parse_cost_model(cost)  # fail fast on a bad spec
        except ValueError as exc:
            raise CliError(f"--cost: {exc}") from None
        kw["cost_model"] = cost
    return kw


def _flow_kwargs(args, label: str, circuit: str, cache) -> Dict[str, object]:
    """Flow ``label``'s keyword arguments from the command line: the
    governance flags, ``--portfolio``, its ``--checkpoint`` journal and
    the shared ``--cache`` store.  A flow outside
    :data:`JOURNALED_FLOWS` gets none of them, so nothing is built for
    it (no task policy, fault plan or journal)."""
    portfolio = getattr(args, "portfolio", False)
    if portfolio and label not in PORTFOLIO_FLOWS and args.flow != "all":
        print(
            f"  [--portfolio only applies to {sorted(PORTFOLIO_FLOWS)}; "
            f"ignored for {label}]"
        )
    if label not in JOURNALED_FLOWS:
        ignored = [
            flag for flag, name, default in RUN_FLAGS
            if getattr(args, name, default) != default
        ]
        if ignored and args.flow != "all":
            print(
                f"  [{', '.join(ignored)} only apply to "
                f"{sorted(JOURNALED_FLOWS)}; ignored for {label}]"
            )
        return {}
    kw = _governance_kwargs(args)
    if portfolio and label in PORTFOLIO_FLOWS:
        kw["portfolio"] = True
    journal = _open_flow_journal(args, circuit, label)
    if journal is not None:
        kw["journal"] = journal
    if cache is not None:
        kw["cache"] = cache
    return kw


def _call_flow(
    flow: Callable, label: str, net, args, jobs: int, kwargs
) -> Optional[MapResult]:
    """Run a loaded flow under its ``flow:`` span.  An interrupted run
    prints how far its checkpoint got and returns ``None``; a node or
    time budget that trips with no policy to degrade under is a
    :class:`CliError`."""
    from .bdd import BddBudgetExceeded  # loaded with the flow
    from .runstate.shutdown import RunInterrupted

    try:
        with obs.span(
            f"flow:{label}", circuit=net.name, k=args.k, jobs=jobs
        ):
            return flow(net, args.k, verify=args.verify, jobs=jobs, **kwargs)
    except BddBudgetExceeded as exc:
        raise CliError(
            f"{label}: {exc}; add --retries N (or --timeout S) to degrade "
            "the failing group instead of stopping",
            status=1,
        ) from None
    except RunInterrupted as exc:
        print(
            f"interrupted ({exc.reason}): {exc.completed}/{exc.total} "
            "groups journaled"
            + (f" in {exc.journal_path}" if exc.journal_path else "")
        )
        print("re-run with --resume to pick up where this left off")
        return None


def _print_degradation(result: MapResult) -> None:
    """Surface what the fault-tolerance layer had to recover from."""
    fallback = result.details.get("pool_fallback")
    if fallback:
        print(f"  [pool fallback to serial: {fallback}]")
    for entry in result.details.get("degraded") or []:
        outs = ", ".join(entry["group"])
        causes = "; ".join(entry["causes"])
        print(
            f"  [group {entry['gi']} ({outs}) recovered via "
            f"{entry['resolution']} after: {causes}]"
        )


def _print_portfolio(result: MapResult) -> None:
    """Show which strategy won each group of a portfolio run."""
    for entry in result.details.get("portfolio") or []:
        board = ", ".join(
            # A dropped advisory candidate (the exact rung past its
            # budget) is a bare string, not a {luts, depth} dict.
            f"{name}={c['luts']}/{c['depth']}"
            if isinstance(c, dict)
            else f"{name}={c}"
            for name, c in sorted(entry["candidates"].items())
        )
        print(
            f"  [portfolio group {entry['gi']} "
            f"({', '.join(entry['group'])}): {entry['winner']} wins "
            f"under {entry['cost_model']} — {board}]"
        )


def _cmd_circuits(args: argparse.Namespace) -> int:
    from .circuits import CIRCUITS
    from .harness.report import render_table

    rows = [
        [spec.name, spec.num_inputs, spec.num_outputs,
         "exact" if spec.exact else "stand-in", spec.size_class]
        for spec in sorted(CIRCUITS.values(), key=lambda s: s.name)
    ]
    print(render_table(
        "registered benchmark circuits",
        ["name", "PI", "PO", "provenance", "class"],
        rows,
    ))
    return 0


def _write_trace_file(
    path: str,
    recorder: "obs.TraceRecorder",
    results: List[MapResult],
    flow: str,
    circuit: str,
    k: int,
    jobs: int,
    wall_seconds: float,
) -> str:
    """Dump a run's trace as JSONL with a merged-perf meta header and
    return the line that reports it; the perf block's ``phase_seconds``
    is derived from the spans, its ``peak_nodes`` is the largest engine
    peak of the results, and its ``peak_rss_mb`` is this process's peak
    so far."""
    from .perf import PerfCounters, peak_rss_mb

    merged = PerfCounters()
    peaks = []
    for result in results:
        perf = result.details.get("perf")
        if perf:
            merged.merge_dict(perf)
            peaks.append(perf.get("engine", {}).get("peak_nodes", 0))
    perf = merged.snapshot()
    if peaks:
        perf["peak_nodes"] = max(peaks)
    perf["phase_seconds"] = obs.phase_seconds(recorder.to_dicts())
    perf["peak_rss_mb"] = peak_rss_mb()
    meta = {
        "flow": flow,
        "circuit": circuit,
        "k": k,
        "jobs": jobs,
        "wall_seconds": round(wall_seconds, 6),
        "perf": perf,
    }
    count = _write_output(
        path, lambda target: obs.write_trace(target, recorder, meta)
    )
    return f"wrote {count} trace records to {path}"


def _run_flows(net, args) -> int:
    from .harness.report import render_table

    _check_outputs(args.output, args.trace, args.cache)
    labels = list(FLOWS) if args.flow == "all" else [args.flow]
    jobs = getattr(args, "jobs", 1)
    trace_path: Optional[str] = getattr(args, "trace", None)
    recorder = obs.TraceRecorder() if trace_path else None
    rows = []
    results: List[MapResult] = []
    wall_start = time.time()
    cache = _open_result_cache(args, labels)
    try:
        with obs.installed(recorder):
            for label in labels:
                flow_kwargs = _flow_kwargs(args, label, net.name, cache)
                flow = _load_flow(label, jobs, flow_kwargs)
                result = _call_flow(
                    flow, label, net.copy(), args, jobs, flow_kwargs
                )
                if result is None:
                    return EXIT_INTERRUPTED
                info = result.details.get("journal") or {}
                if info.get("replayed"):
                    print(
                        f"  [resumed: {info['replayed']} group(s) "
                        f"replayed from journal, {info['executed']} "
                        "executed; equivalence gate passed]"
                    )
                _print_degradation(result)
                _print_portfolio(result)
                _print_cache_summary(result)
                rows.append(
                    [label, result.lut_count, result.depth,
                     result.clb_count, round(result.seconds, 2)]
                )
                results.append(result)
    finally:
        if cache is not None:
            cache.close()
    # Files before the table: a reader that closes stdout early
    # (``| head -1``) must not cost the run its outputs.
    notes = []
    if recorder is not None:
        notes.append(_write_trace_file(
            trace_path, recorder, results, args.flow, net.name, args.k,
            jobs, time.time() - wall_start,
        ))
    if args.output and results:
        _write_output(
            args.output, lambda path: write_blif(results[-1].network, path)
        )
        notes.append(f"wrote {args.output}")
    print(render_table(
        f"mapping {net.name} (k={args.k})",
        ["flow", "LUTs", "depth", "CLBs", "seconds"],
        rows,
    ))
    for note in notes:
        print(note)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Run one flow and print its perf-counter report.  Spans are
    always recorded: the report's phase times are derived from them."""
    from .circuits import build
    from .perf import format_perf_report, peak_rss_mb

    _check_outputs(args.trace, args.cache)
    net = build(args.circuit)
    trace_path: Optional[str] = getattr(args, "trace", None)
    recorder = obs.TraceRecorder()
    cache = _open_result_cache(args, [args.flow])
    try:
        flow_kwargs = _flow_kwargs(args, args.flow, net.name, cache)
        flow = _load_flow(args.flow, args.jobs, flow_kwargs)
        wall_start = time.time()
        with obs.installed(recorder):
            result = _call_flow(
                flow, args.flow, net, args, args.jobs, flow_kwargs
            )
    finally:
        if cache is not None:
            cache.close()
    if result is None:
        return EXIT_INTERRUPTED
    if trace_path:
        print(_write_trace_file(
            trace_path, recorder, [result], args.flow, net.name, args.k,
            args.jobs, time.time() - wall_start,
        ))
    _print_degradation(result)
    _print_portfolio(result)
    _print_cache_summary(result)
    print(
        f"{args.flow} on {net.name}: {result.lut_count} LUTs "
        f"(depth {result.depth}), {result.seconds:.2f}s total"
    )
    perf = result.details.get("perf")
    if not perf:
        print("(flow reports no perf counters)")
        return 0
    print(format_perf_report(
        dict(perf, peak_rss_mb=peak_rss_mb()),
        obs.phase_seconds(recorder.to_dicts()),
    ))
    if perf.get("jobs_requested") is not None:
        print(
            f"jobs: requested {perf['jobs_requested']}, "
            f"used {perf['jobs_used']}"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Render (or, with --check, gate on) a JSONL trace file."""
    records = _read_input(args.path, obs.read_trace)
    problems = obs.validate_trace(records)
    if not args.check:
        print(obs.render_trace_summary(records))
        if problems:
            print(
                f"\n[{len(problems)} schema problem(s); "
                "run with --check for details]"
            )
        return 0

    failed = False
    for problem in problems:
        print(f"schema: {problem}")
        failed = True
    cov = obs.coverage(records)
    if args.min_coverage is not None:
        if cov is None:
            print("coverage: no root span with positive duration")
            failed = True
        elif cov < args.min_coverage:
            print(
                f"coverage: {cov:.1%} below required "
                f"{args.min_coverage:.1%}"
            )
            failed = True
    has_tasks = any(
        str(r.get("proc", "")).startswith("task:")
        for r in records
        if r.get("type") in ("span", "event")
    )
    if has_tasks:
        totals = obs.worker_perf_totals(records)
        if totals.get("apply_calls", 0) <= 0:
            print(
                "worker counters: task spans present but merged "
                "apply_calls is zero"
            )
            failed = True
    if failed:
        return 1
    cov_text = f"{cov:.1%}" if cov is not None else "n/a"
    spans = sum(1 for r in records if r.get("type") in ("span", "event"))
    print(
        f"trace ok: {spans} spans, coverage {cov_text}, "
        f"task trees {'present' if has_tasks else 'absent'}"
    )
    return 0


def _cmd_journal(args: argparse.Namespace) -> int:
    """Render (or, with --check, gate on) a checkpoint journal file."""
    from .runstate.journal import load_journal, validate_journal

    records, problems = _read_input(args.path, load_journal)
    problems = list(problems) + validate_journal(records)
    if args.check:
        for problem in problems:
            print(f"journal: {problem}")
        if problems:
            return 1
        groups = sum(1 for r in records if r.get("type") == "group")
        verdicts = [r for r in records if r.get("type") == "verdict"]
        if verdicts and verdicts[-1].get("equivalent") is False:
            print("journal: last equivalence verdict is negative")
            return 1
        if verdicts and verdicts[-1].get("equivalent") is None:
            print("journal: last verdict is unchecked (no equivalence check ran)")
        done = any(r.get("type") == "done" for r in records)
        print(
            f"journal ok: {groups} group(s), {len(verdicts)} verdict(s), "
            f"run {'complete' if done else 'incomplete'}"
        )
        return 0

    meta = records[0] if records and records[0].get("type") == "meta" else {}
    print(
        f"journal {args.path}: circuit={meta.get('circuit')} "
        f"flow={meta.get('flow')} k={meta.get('k')} "
        f"version={meta.get('version')}"
    )
    for record in records:
        kind = record.get("type")
        if kind == "group":
            outs = ",".join(record.get("group", []))
            print(
                f"  group {record.get('gi'):>3} [{record.get('key')}] "
                f"({outs}) {record.get('mode')} "
                f"{record.get('seconds', 0):.3f}s"
                + (
                    f" via {record['resolution']}"
                    if record.get("resolution")
                    else ""
                )
            )
        elif kind == "event":
            if record.get("kind") == "interrupted":
                print(
                    f"  interrupted ({record.get('reason')}): "
                    f"{record.get('completed')}/{record.get('total')} groups"
                )
            elif record.get("kind") == "failing_cone":
                print(
                    f"  failing cone: output {record.get('output')!r} at "
                    f"{record.get('root')!r} "
                    f"({len(record.get('cone_nodes') or [])} node(s), "
                    f"{'confirmed' if record.get('confirmed') else 'unconfirmed'})"
                )
            else:
                print(f"  event: {record.get('kind')}")
        elif kind == "verdict":
            status = {True: "equivalent", None: "unchecked"}.get(
                record.get("equivalent"), "DIFFERS"
            )
            print(
                f"  verdict: {status} (replayed {record.get('replayed')}, "
                f"executed {record.get('executed')}, "
                f"engine {record.get('engine')})"
            )
        elif kind == "done":
            print(
                f"  done: flow={record.get('flow')} "
                f"luts={record.get('lut_count')} "
                f"clbs={record.get('clb_count')} "
                f"seconds={record.get('seconds')}"
            )
    if problems:
        print(
            f"\n[{len(problems)} problem(s); "
            "run with --check for a non-zero exit]"
        )
        for problem in problems:
            print(f"  {problem}")
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    """Exact k-LUT mapping of every output cone of a small BLIF.

    Each cone is flattened to its truth table and handed to the
    :mod:`repro.exact` oracle; the answer per output is a *proven*
    minimum LUT count (and, under ``--cost delay``, the minimum depth at
    that count).  Cones wider than the oracle's input cap, or whose
    search exhausts ``--budget-seconds``, are reported as such — the
    command never prints an unproven number as exact.
    """
    from .exact import ExactBudgetExceeded, ExactCache, cone_spec, exact_map
    from .harness.report import render_table
    from .mapping.parallel import _splice_witness
    from .network import Network, verdict

    net = _read_input(args.path)
    _check_outputs(args.output, args.trace, args.cache)
    trace_path: Optional[str] = getattr(args, "trace", None)
    recorder = obs.TraceRecorder() if trace_path else None
    cache = ExactCache(args.cache) if args.cache else None
    witness = Network(f"{net.name}_exact")
    for pi in net.inputs:
        witness.add_input(pi)
    rows = []
    cache_note = None
    unproven = 0
    wall_start = time.time()
    try:
        with obs.installed(recorder):
            with obs.span("flow:exact", circuit=net.name, k=args.k):
                for out in net.output_names:
                    try:
                        spec, support = cone_spec(net, out)
                    except ValueError as exc:
                        rows.append([out, "-", "-", "-", "-", str(exc)])
                        unproven += 1
                        continue
                    try:
                        with obs.span(
                            "exact_cone", output=out, n=spec.num_inputs
                        ):
                            res = exact_map(
                                spec,
                                args.k,
                                cost=args.cost,
                                budget_seconds=args.budget_seconds,
                                cache=cache,
                                input_names=support,
                                output_name=out,
                                name=f"{net.name}_exact",
                            )
                    except ExactBudgetExceeded as exc:
                        rows.append(
                            [out, spec.num_inputs, "-", "-", "-", str(exc)]
                        )
                        unproven += 1
                        continue
                    _splice_witness(witness, res.network, out)
                    rows.append(
                        [
                            out,
                            spec.num_inputs,
                            res.luts,
                            res.depth,
                            res.source + (" (cache)" if res.cache_hit else ""),
                            f"{res.seconds:.3f}s",
                        ]
                    )
    finally:
        if cache is not None:
            stats = cache.stats()
            cache.close()
            cache_note = (
                f"  [exact cache: {stats['rows']} row(s), "
                f"{stats['hits']} hit(s), {stats['misses']} miss(es)]"
            )
    # Files before the table, as in _run_flows.
    notes = []
    if recorder is not None:
        notes.append(_write_trace_file(
            trace_path, recorder, [], "exact", net.name, args.k, 1,
            time.time() - wall_start,
        ))
    if args.output and unproven:
        notes.append(
            f"not writing {args.output}: {unproven} cone(s) have no "
            "exact witness"
        )
    elif args.output:
        bad = verdict(net, witness).failing
        if bad is not None:
            raise RuntimeError(
                f"exact witness differs from the spec on output {bad!r}"
            )
        _write_output(args.output, lambda path: write_blif(witness, path))
        notes.append(f"wrote {args.output} (verified equivalent)")
    if cache_note is not None:
        print(cache_note)
    print(render_table(
        f"exact mapping {net.name} (k={args.k}, cost={args.cost})",
        ["output", "n", "LUTs", "depth", "source", "detail"],
        rows,
    ))
    for note in notes:
        print(note)
    return 1 if unproven else 0


def _cmd_map(args: argparse.Namespace) -> int:
    from .circuits import build

    return _run_flows(build(args.circuit), args)


def _cmd_blif(args: argparse.Namespace) -> int:
    return _run_flows(_read_input(args.path), args)


def _cmd_table(args: argparse.Namespace, table: int) -> int:
    from .circuits import CIRCUITS
    from .harness import (
        TABLE1_CLB,
        TABLE2_LUT,
        render_comparison,
        run_experiment,
    )

    classes = {"small": ["small"], "medium": ["small", "medium"],
               "all": ["small", "medium", "large"]}[args.classes]
    if table == 1:
        paper, metric = TABLE1_CLB, "clb_count"
        flows = {
            "imodec-like": _load_flow("random"),
            "fgsyn-like": _load_flow("column"),
            "hyde": _load_flow("hyde"),
        }
        columns = {"imodec-like": "imodec", "fgsyn-like": "fgsyn",
                   "hyde": "hyde"}
    else:
        paper, metric = TABLE2_LUT, "lut_count"
        flows = {
            "no-resub": _load_flow("random"),
            "resub": _load_flow("resub"),
            "hyde": _load_flow("hyde"),
        }
        columns = {"no-resub": "no_resub", "resub": "resub", "hyde": "hyde"}

    selected = [
        n for n in sorted(paper)
        if n in CIRCUITS and CIRCUITS[n].size_class in classes
    ]
    record = run_experiment(
        f"table{table}", flows, selected, metric=metric, verbose=args.verbose
    )
    print(render_comparison(
        record, list(flows), paper, columns,
        f"Table {table} (measured vs paper)",
    ))
    return 0


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--cost", default=None, metavar="MODEL",
        help="cost model steering decomposition and strategy choice: "
        "'area' (LUT count; the historical default), 'delay' (LUT "
        "depth first, LUTs as tie-break), or 'weighted[:AW,DW]'",
    )
    p.add_argument(
        "--portfolio", action="store_true",
        help="race hyper / per-output / column / structural per output "
        "group and keep the winner under the active cost model "
        "(hyde flow only)",
    )


def _add_governance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--timeout", type=_seconds, default=None, metavar="SECONDS",
        help="per-group wall-clock timeout; failures walk the "
        "degradation ladder (retry, per-output, structural)",
    )
    p.add_argument(
        "--retries", type=_at_least(0), default=None, metavar="N",
        help="in-process retries (with decaying budgets) per failed group",
    )
    p.add_argument(
        "--max-bdd-nodes", type=_at_least(1), default=None, metavar="N",
        help="BDD node budget per decomposition manager",
    )
    p.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection, e.g. 'crash@0,hang@1:2' "
        "(kind@group[:times]; kinds: crash, hang, oversized_bdd, "
        "corrupt_blif; parent_kill@N stops the run after N groups)",
    )
    p.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal each completed group to DIR so an interrupted run "
        "can be resumed (one journal file per circuit/flow/k)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint: replay completed groups from the "
        "journal instead of re-executing them (the spliced network is "
        "equivalence-checked against the source before the run counts "
        "as complete)",
    )
    p.add_argument(
        "--cache", default=None, metavar="FILE",
        help="serve repeat group tasks from a content-addressed SQLite "
        "result store (created on first use; fragments are "
        "equivalence-revalidated before first reuse)",
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    """Check a mapped BLIF against its golden source.

    Default engine is the exact whole-network check (exhaustive packed
    truth tables up to 20 inputs, global BDDs above); ``--finegrain``
    localizes any mismatch to the smallest wrong cone with a
    simulation-confirmed counterexample, and ``--repro-dir``
    additionally shrinks each failing output's XOR miter into a minimal
    self-contained witness BLIF.
    ``--mutants N`` instead self-validates the checker: N single-point
    faults are injected into the mapped network and every one must be
    caught, localized and confirmed (or proven masked).
    """
    from .network import verdict
    from .verify import (
        build_miter,
        miter_satisfiable,
        mutation_failures,
        self_validate,
    )

    golden = _read_input(args.golden)
    mapped = _read_input(args.mapped)

    if args.mutants:
        report = self_validate(
            mapped,
            num_mutants=args.mutants,
            seed=args.seed,
            num_vectors=args.vectors,
        )
        print(report.summary())
        for problem in mutation_failures(report):
            print(f"  {problem}")
        return 0 if report.ok else 1

    # Every engine raises ValueError when the networks' inputs or
    # outputs differ; that is a verdict, not a crash.
    try:
        check = verdict(
            golden, mapped, "finegrain" if args.finegrain else "bdd",
            seed=args.seed, num_vectors=args.vectors,
        )
    except ValueError as exc:
        print(f"NOT equivalent: {exc}")
        return 1
    report = check.report
    if report is not None:
        print(report.summary())
    elif check.failing is None:
        print(f"equivalent: {args.mapped} matches {args.golden}")
    else:
        print(f"NOT equivalent: output {check.failing!r} differs")
    if check.failing is None:
        return 0
    if report is not None and args.repro_dir:
        from .testing import save_repro, shrink_network

        for cone in report.failing_cones:
            miter = build_miter(golden, mapped, cone.output)
            shrunk = shrink_network(miter, miter_satisfiable)
            note = (
                f"XOR miter of output {cone.output!r}: {args.mapped} vs "
                f"{args.golden}; satisfiable assignments are "
                "counterexamples.\n" + cone.describe()
            )
            path = _write_output(args.repro_dir, lambda directory: save_repro(
                shrunk, directory, f"{golden.name}_{cone.output}_miter",
                note=note,
            ))
            print(f"shrunk witness for {cone.output!r}: {path}")
    return 1


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the mapping daemon until dismissed (exit 0) or drained (75)."""
    _check_outputs(args.store, args.info)
    if args.supervise:
        # Watchdog mode: re-exec ourselves without --supervise as the
        # child and restart it on crashes with crash-loop backoff.
        from .service import build_child_argv, run_supervised

        serve_args = [
            "--store", args.store,
            "--jobs", str(args.jobs),
            "--host", args.host,
            "--port", str(args.port),
            "--max-concurrent", str(args.max_concurrent),
            "--max-queue", str(args.max_queue),
            "--queue-timeout", str(args.queue_timeout),
            "--request-timeout", str(args.request_timeout),
            "--breaker-threshold", str(args.breaker_threshold),
            "--breaker-cooldown", str(args.breaker_cooldown),
        ]
        if args.info:
            serve_args += ["--info", args.info]
        if args.max_rows is not None:
            serve_args += ["--max-rows", str(args.max_rows)]
        if args.quiet:
            serve_args += ["--quiet"]
        return run_supervised(
            build_child_argv(serve_args),
            max_restarts=args.max_restarts,
            quiet=args.quiet,
        )

    from .service import MappingDaemon

    daemon = MappingDaemon(
        args.store,
        jobs=args.jobs,
        host=args.host,
        port=args.port,
        max_concurrent=args.max_concurrent,
        info_path=args.info,
        max_rows=args.max_rows,
        max_queue=args.max_queue,
        queue_timeout=args.queue_timeout,
        request_timeout=(
            args.request_timeout if args.request_timeout > 0 else None
        ),
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    return daemon.serve(quiet=args.quiet)


def _cmd_health(args: argparse.Namespace) -> int:
    """Probe a daemon: exit 0 healthy, 1 degraded/draining, 2 unreachable."""
    from .service import ServiceClient, ServiceError

    try:
        if args.info:
            client = _client_from_info(args.info, args.timeout)
        elif args.port:
            client = ServiceClient(args.host, args.port, timeout=args.timeout)
        else:
            print("health needs --info FILE or --port N", file=sys.stderr)
            return 2
        record = client.health()
    except ServiceError as exc:
        print(f"unreachable ({exc.code}): {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        queue = record.get("queue") or {}
        breaker = record.get("breaker") or {}
        pool = record.get("pool") or {}
        print(
            f"status {record.get('status')} "
            f"(pid {record.get('pid')}, up {record.get('uptime_seconds')}s)"
        )
        print(
            f"  queue    {queue.get('active')} active, "
            f"{queue.get('queued')} queued "
            f"(cap {queue.get('max_concurrent')}+{queue.get('max_queue')}), "
            f"{queue.get('sheds')} shed"
        )
        if breaker:
            print(
                f"  breaker  {breaker.get('state')} "
                f"({breaker.get('consecutive_failures')} consecutive "
                f"failure(s), {breaker.get('trips')} trip(s), "
                f"{breaker.get('recoveries')} recover(ies))"
            )
        if pool:
            print(
                f"  pool     alive={pool.get('alive')} "
                f"recycles={pool.get('recycles')} "
                f"forced={pool.get('forced_recycles')}"
            )
    return 0 if record.get("ok") else 1


def _client_from_info(path: str, timeout: Optional[float]):
    """A client for the daemon a ``--info`` file names; an unreadable or
    malformed file is an InputFileError (an unreachable daemon is not)."""
    from .service import ServiceClient

    return _read_input(
        path, lambda p: ServiceClient.from_info(p, timeout=timeout)
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    """Submit a circuit to a running daemon (possibly repeatedly)."""
    from .network import to_blif
    from .service import ServiceClient, ServiceError

    _check_outputs(args.output)
    if args.info:
        client = _client_from_info(args.info, args.timeout)
    elif args.port:
        client = ServiceClient(args.host, args.port, timeout=args.timeout)
    else:
        print("submit needs --info FILE or --port N", file=sys.stderr)
        return 2
    if args.blif:
        blif_text = _read_input(args.blif, _read_text)
    else:
        from .circuits import build

        blif_text = to_blif(build(args.circuit))
    knobs: Dict[str, object] = {"k": args.k}
    if args.verify is not None:
        knobs["verify"] = args.verify
    if getattr(args, "cost", None):
        knobs["cost_model"] = args.cost
    if getattr(args, "portfolio", False):
        knobs["portfolio"] = True
    last = None
    try:
        for i in range(args.times):
            result = client.submit_with_retry(
                blif_text,
                flow=args.flow,
                retries=args.retries,
                deadline=args.deadline,
                **knobs,
            )
            cache = result.get("cache") or {}
            depth = result.get("depth")
            attempts = result.get("client_attempts", 1)
            print(
                f"pass {i + 1}/{args.times}: {result['luts']} LUTs"
                + (f" (depth {depth})" if depth is not None else "")
                + f", {result['service_seconds']:.3f}s service time, "
                f"cache {cache.get('hits', 0)} hit(s) / "
                f"{cache.get('misses', 0)} miss(es)"
                + (f", {attempts} attempt(s)" if attempts > 1 else "")
            )
            if last is not None and last["blif"] != result["blif"]:
                print("ERROR: repeat submission produced different BLIF",
                      file=sys.stderr)
                return 1
            last = result
        if args.shutdown:
            client.shutdown()
            print("daemon dismissed")
    except ServiceError as exc:
        print(f"service error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    if args.output and last is not None:
        _write_output(args.output, lambda path: _write_text(path, last["blif"]))
        print(f"wrote {args.output}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect (or, with --check, gate on) a result-store file."""
    import sqlite3

    from .service import ResultStore

    # Opening a store creates it: a mistyped path must not pass --check
    # as a fresh empty store.
    if not os.path.isfile(args.path):
        raise InputFileError(f"{args.path}: no such result store")
    try:
        store = ResultStore(args.path)
    except sqlite3.DatabaseError as exc:
        raise InputFileError(f"{args.path}: {exc}") from None
    with store:
        if args.prune:
            pruned = store.prune_stale()
            print(f"pruned {pruned} stale row(s)")
        stats = store.stats()
        if args.check:
            problems = store.validate()
            for problem in problems:
                print(f"store: {problem}")
            if problems:
                return 1
            print(
                f"store ok: {stats['current_rows']} row(s) at schema "
                f"{stats['schema']}, {stats['verified_rows']} verified, "
                f"{stats['stale_rows']} stale"
            )
            return 0
        print(f"result store {stats['path']}")
        print(f"  schema          {stats['schema']}")
        print(f"  rows            {stats['rows']}")
        print(f"  current rows    {stats['current_rows']}")
        print(f"  stale rows      {stats['stale_rows']}")
        print(f"  verified rows   {stats['verified_rows']}")
        print(f"  stored hits     {stats['stored_hits']}")
        print(f"  max rows        {stats['max_rows']}")
    return 0


def _at_least(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``minimum``."""

    def at_least(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as invalid
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}"
            )
        return value

    return at_least


def _seconds(text: str) -> float:
    """The argparse type of every ``--timeout``: seconds above 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be above 0, got {text}")
    return value


#: ``-k`` of the mapping commands: a Shannon split's mux and the
#: structural flow's remap need 3-input LUTs.
MIN_MAP_K = 3


def _circuit_name(name: str) -> str:
    """The argparse type of a circuit argument: the circuit registry is
    loaded only by the commands that name a circuit."""
    from .circuits import CIRCUITS

    if name not in CIRCUITS:
        choices = ", ".join(map(repr, sorted(CIRCUITS)))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {choices})"
        )
    return name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="HYDE (DAC 1998) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("circuits", help="list benchmark circuits")

    for name, help_text in [
        ("map", "map a registered benchmark circuit"),
        ("blif", "map a BLIF file"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "map":
            p.add_argument("circuit", type=_circuit_name,
                           help="registered benchmark circuit (see "
                           "'repro circuits')")
        else:
            p.add_argument("path")
        p.add_argument("--flow", default="hyde",
                       choices=list(FLOWS) + ["all"])
        p.add_argument("-k", type=_at_least(MIN_MAP_K), default=5,
                       help="LUT input count (at least 3)")
        p.add_argument("--verify", default="bdd",
                       choices=["bdd", "sim", "none", "finegrain"])
        p.add_argument("--jobs", type=_at_least(1), default=1,
                       help="decompose ingredient groups in N processes")
        _add_cost_flags(p)
        _add_governance_flags(p)
        p.add_argument("--trace", default=None, metavar="FILE",
                       help="write a JSONL span trace of the run here")
        p.add_argument("-o", "--output", help="write mapped BLIF here")

    p = sub.add_parser(
        "exact",
        help="exact (provably minimal) k-LUT mapping of a small BLIF's "
        "output cones — the optimality oracle",
    )
    p.add_argument("path", help="BLIF file; every output cone must have "
                   "at most 10 inputs to be scored")
    p.add_argument("-k", type=_at_least(2), default=5,
                   help="LUT input count (at least 2)")
    p.add_argument("--cost", default="area", choices=["area", "delay"],
                   help="'area': minimum LUT count; 'delay': minimum "
                   "depth at that LUT count")
    p.add_argument("--budget-seconds", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget per cone (default 5); an "
                   "exhausted search reports 'budget exceeded', never "
                   "an unproven number")
    p.add_argument("--cache", default=None, metavar="FILE",
                   help="NPN-canonical SQLite result memo (created on "
                   "first use; shared across runs)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSONL span trace of the run here")
    p.add_argument("-o", "--output",
                   help="write the spliced exact witness BLIF here "
                   "(verified equivalent first)")

    p = sub.add_parser(
        "stats", help="run a flow and print its perf-counter report"
    )
    p.add_argument("circuit", type=_circuit_name,
                   help="registered benchmark circuit (see 'repro circuits')")
    p.add_argument("--flow", default="hyde", choices=list(FLOWS))
    p.add_argument("-k", type=_at_least(MIN_MAP_K), default=5,
                   help="LUT input count (at least 3)")
    p.add_argument("--verify", default="bdd",
                   choices=["bdd", "sim", "none", "finegrain"])
    p.add_argument("--jobs", type=_at_least(1), default=1,
                   help="decompose ingredient groups in N processes")
    _add_cost_flags(p)
    _add_governance_flags(p)
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a JSONL span trace of the run here")

    p = sub.add_parser(
        "trace", help="render a JSONL trace file as a flame-style summary"
    )
    p.add_argument("path", help="trace file written by --trace")
    p.add_argument(
        "--check", action="store_true",
        help="validate instead of render: schema, coverage floor and "
        "merged worker counters; non-zero exit on failure",
    )
    p.add_argument(
        "--min-coverage", type=float, default=None, metavar="FRACTION",
        help="with --check: require children of each root span to cover "
        "at least this fraction of its wall time (e.g. 0.9)",
    )

    p = sub.add_parser(
        "verify",
        help="check a mapped BLIF against its golden source "
        "(fine-grained localization, mutation self-validation)",
    )
    p.add_argument("golden", help="golden (source) BLIF file")
    p.add_argument("mapped", help="mapped BLIF file to verify")
    p.add_argument(
        "--finegrain", action="store_true",
        help="localize any mismatch to the smallest wrong cone with a "
        "simulation-confirmed counterexample",
    )
    p.add_argument(
        "--mutants", type=int, default=0, metavar="N",
        help="instead of verifying, self-validate the checker on N "
        "single-point faults injected into the mapped network",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="seed for simulation vectors / mutant sampling")
    p.add_argument("--vectors", type=int, default=64,
                   help="random simulation width for signature pairing")
    p.add_argument(
        "--repro-dir", default=None, metavar="DIR",
        help="with --finegrain: shrink each failing output's XOR miter "
        "and save it here as a standalone witness BLIF",
    )

    p = sub.add_parser(
        "journal", help="render a checkpoint journal written by --checkpoint"
    )
    p.add_argument("path", help="journal file written by --checkpoint")
    p.add_argument(
        "--check", action="store_true",
        help="validate instead of render: schema, record hashes, "
        "fragment parses and the final equivalence verdict; non-zero "
        "exit on failure",
    )

    p = sub.add_parser(
        "serve",
        help="run the mapping daemon (warm worker pool + result cache)",
    )
    p.add_argument("--store", required=True, metavar="FILE",
                   help="SQLite result-store path (created on first use)")
    p.add_argument("--jobs", type=_at_least(1), default=2,
                   help="warm worker-pool size (1 = in-process, no pool)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = let the OS pick; see --info)")
    p.add_argument("--max-concurrent", type=int, default=4,
                   help="map requests served at once; extras queue")
    p.add_argument("--info", default=None, metavar="FILE",
                   help="write the bound endpoint here (atomic JSON) "
                   "for client discovery")
    p.add_argument("--max-rows", type=int, default=None,
                   help="LRU capacity of the result store")
    p.add_argument("--max-queue", type=int, default=16,
                   help="map requests allowed to wait for a slot; "
                   "anyone past that is shed with a typed 'busy' error "
                   "and a retry-after hint")
    p.add_argument("--queue-timeout", type=float, default=30.0,
                   help="longest a queued map request waits for a slot "
                   "before being shed")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="seconds a connection may take to deliver its "
                   "request line before being dropped (slow-loris "
                   "defense; 0 disables)")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive pool recycles that trip the "
                   "circuit breaker into cache-only serial mapping")
    p.add_argument("--breaker-cooldown", type=float, default=5.0,
                   help="seconds the breaker stays open before probing "
                   "the pool again")
    p.add_argument("--supervise", action="store_true",
                   help="run the daemon as a supervised child and "
                   "restart it on crashes with crash-loop backoff "
                   "(clean exits 0/75 stop the watchdog)")
    p.add_argument("--max-restarts", type=int, default=None, metavar="N",
                   help="give up after N crash restarts (default: "
                   "restart forever)")
    p.add_argument("--quiet", action="store_true")

    p = sub.add_parser(
        "submit", help="submit a circuit to a running mapping daemon"
    )
    p.add_argument("circuit", nargs="?", type=_circuit_name,
                   help="registered benchmark circuit (or use --blif)")
    p.add_argument("--blif", default=None, metavar="FILE",
                   help="submit this BLIF file instead of a circuit")
    p.add_argument("--info", default=None, metavar="FILE",
                   help="endpoint file written by serve --info")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--flow", default="hyde", choices=["hyde", "per-output"])
    p.add_argument("-k", type=_at_least(MIN_MAP_K), default=5,
                   help="LUT input count (at least 3)")
    p.add_argument("--verify", default=None,
                   choices=["bdd", "sim", "none", "finegrain"],
                   help="whole-network verify (service default: none; "
                   "fragments are validated regardless)")
    _add_cost_flags(p)
    p.add_argument("--times", type=int, default=1, metavar="N",
                   help="submit N times (repeats should hit the cache)")
    p.add_argument("--timeout", type=_seconds, default=300.0,
                   help="client socket timeout in seconds")
    p.add_argument("--retries", type=int, default=4,
                   help="retry budget for retryable service errors "
                   "(busy/draining/torn stream/unreachable)")
    p.add_argument("--deadline", type=float, default=None, metavar="SEC",
                   help="end-to-end deadline per submission; also "
                   "propagated into the daemon's task budget")
    p.add_argument("--shutdown", action="store_true",
                   help="dismiss the daemon after the last submission")
    p.add_argument("-o", "--output", help="write the mapped BLIF here")

    p = sub.add_parser(
        "health", help="probe a running daemon's health endpoint"
    )
    p.add_argument("--info", default=None, metavar="FILE",
                   help="endpoint file written by serve --info")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--timeout", type=_seconds, default=10.0)
    p.add_argument("--json", action="store_true",
                   help="print the raw health record")

    p = sub.add_parser(
        "cache", help="inspect or validate a result-store file"
    )
    p.add_argument("path", help="SQLite store written by serve/--cache")
    p.add_argument(
        "--check", action="store_true",
        help="validate instead of render: row hashes, key shapes and "
        "fragment parses; non-zero exit on failure",
    )
    p.add_argument(
        "--prune", action="store_true",
        help="delete rows stamped with a stale schema version first",
    )

    for table in (1, 2):
        p = sub.add_parser(f"table{table}",
                           help=f"regenerate the paper's Table {table}")
        p.add_argument("--classes", default="medium",
                       choices=["small", "medium", "all"])
        p.add_argument("--verbose", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "submit" and not args.circuit and not args.blif:
        parser.error("submit needs a circuit name or --blif FILE")
    commands: Dict[str, Callable[[argparse.Namespace], int]] = {
        "circuits": _cmd_circuits,
        "map": _cmd_map,
        "blif": _cmd_blif,
        "exact": _cmd_exact,
        "stats": _cmd_stats,
        "trace": _cmd_trace,
        "verify": _cmd_verify,
        "journal": _cmd_journal,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "health": _cmd_health,
        "cache": _cmd_cache,
        "table1": lambda a: _cmd_table(a, 1),
        "table2": lambda a: _cmd_table(a, 2),
    }
    try:
        status = commands[args.command](args)
        # Flushed here, a reader that closed early fails inside the
        # guard below rather than in the interpreter's exit flush.
        sys.stdout.flush()
        return status
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    except BrokenPipeError:
        # ``repro stats ... | head``: the reader is gone.  Point stdout at
        # devnull so the exit flush of whatever is still buffered stays
        # quiet, and stop without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
