"""Combinational equivalence checking between networks.

Every place that accepts a result asks one question, :func:`verdict`:
the mapping flows' finish step, the task runner's fragment validator,
``repro verify``, ``repro exact -o`` and the extraction pass.  It
dispatches to one of three engines:

* ``"bdd"`` — exact (:func:`check_equivalence`; the default).  Up to
  :data:`~repro.fastpath.bitops.DEFAULT_MAX_WIDTH` golden inputs it
  compares exhaustive packed truth tables
  (:mod:`repro.network.exhaustive`, imported on first use); wider
  interfaces build both networks' global BDDs in one manager.
  :func:`exact_path` is where that choice is made.
* ``"sim"`` — a bit-parallel random-simulation screen, sound for
  *dis*proving equivalence only (:func:`simulate_equivalence`).
* ``"finegrain"`` — exact as well, and a failure is localized to the
  smallest divergent cone with a confirmed counterexample
  (:func:`repro.verify.finegrain.finegrain_check`, imported on first
  use).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from ..fastpath import bitops
from .globalbdd import GlobalBdds
from .netlist import Network
from .simulate import random_vectors, simulate_vectors

if TYPE_CHECKING:
    from ..verify.finegrain import FailingCone, FinegrainReport

__all__ = [
    "check_equivalence",
    "exact_path",
    "simulate_equivalence",
    "pad_inputs",
    "verdict",
    "Verdict",
    "EquivalenceError",
]


class EquivalenceError(AssertionError):
    """A mapping flow's result failed its equivalence check."""


def _common_io(a: Network, b: Network) -> Tuple[List[str], List[str]]:
    if sorted(a.inputs) != sorted(b.inputs):
        raise ValueError(
            f"input mismatch: {sorted(a.inputs)} vs {sorted(b.inputs)}"
        )
    if sorted(a.output_names) != sorted(b.output_names):
        raise ValueError(
            f"output mismatch: {sorted(a.output_names)} vs {sorted(b.output_names)}"
        )
    return a.inputs, a.output_names


def exact_path(golden: Network) -> str:
    """How the exact check compares against ``golden``: ``"packed"``
    (exhaustive truth tables) up to
    :data:`~repro.fastpath.bitops.DEFAULT_MAX_WIDTH` inputs, else
    ``"bdd"`` (global BDDs)."""
    if len(golden.inputs) <= bitops.DEFAULT_MAX_WIDTH:
        return "packed"
    return "bdd"


def check_equivalence(
    a: Network, b: Network, path: Optional[str] = None
) -> Optional[str]:
    """Exact equivalence check of ``b`` against ``a``.

    Returns ``None`` when all outputs match, otherwise the name of the
    first differing output in ``a``'s order.  ``path`` (``None``: the
    one :func:`exact_path` picks for ``a``) forces ``"packed"`` (up to
    :data:`~repro.fastpath.bitops.HARD_MAX_WIDTH` inputs) or ``"bdd"``;
    it is the seam the differential tests use to compare the two.
    """
    _, outputs = _common_io(a, b)
    if path is None:
        path = exact_path(a)
    if path == "packed":
        if len(a.inputs) > bitops.HARD_MAX_WIDTH:
            raise ValueError(
                f"{len(a.inputs)} inputs is too many for the packed check"
            )
        from .exhaustive import packed_failing

        return packed_failing(a, b)
    if path != "bdd":
        raise ValueError(f"unknown exact path {path!r}")
    pi_order = a.inputs
    ga = GlobalBdds(a, pi_order)
    # Both sides must live in ONE manager: node ids are only canonical
    # within a single unique table.
    gb = GlobalBdds(b, pi_order, manager=ga.manager)
    for out in outputs:
        if ga.of_output(out) != gb.of_output(out):
            return out
    return None


def simulate_equivalence(
    a: Network, b: Network, num_vectors: int = 1024, seed: int = 0
) -> Optional[str]:
    """Random-simulation screen (sound for *dis*proving equivalence only).

    Returns ``None`` when no difference was observed, else the name of the
    first differing output.
    """
    _, outputs = _common_io(a, b)
    patterns = random_vectors(a, num_vectors, seed)
    ra = simulate_vectors(a, patterns, num_vectors)
    rb = simulate_vectors(b, patterns, num_vectors)
    for out in outputs:
        if ra[out] != rb[out]:
            return out
    return None


def pad_inputs(mapped: Network, golden: Network) -> Network:
    """``mapped``, or a copy of it carrying every golden input it lacks.

    Mapping drops inputs no output depends on; the copy adds them back
    as vacuous inputs so both networks have one interface.
    """
    extra = [pi for pi in golden.inputs if not mapped.has_signal(pi)]
    if not extra:
        return mapped
    padded = mapped.copy()
    for pi in extra:
        padded.add_input(pi)
    return padded


class Verdict(NamedTuple):
    """One check's answer.

    ``failing`` is the first output, in the golden network's order, that
    differs (``None`` when none does); ``report`` is the
    :class:`~repro.verify.FinegrainReport` under the ``finegrain``
    engine; ``path`` is the :func:`exact_path` the ``bdd`` engine took.
    """

    failing: Optional[str]
    report: Optional["FinegrainReport"] = None
    path: Optional[str] = None

    @property
    def cone(self) -> Optional["FailingCone"]:
        """The failing output's localized cone (``finegrain`` only)."""
        if self.failing is None or self.report is None:
            return None
        return self.report.failing_cones[0]

    def describe(self) -> str:
        """What differs: the output, with its cone when one is localized."""
        cone = self.cone
        if cone is not None:
            return cone.describe()
        return f"output {self.failing!r} differs"


def verdict(
    golden: Network,
    mapped: Network,
    engine: str = "bdd",
    seed: int = 0,
    num_vectors: Optional[int] = None,
) -> Verdict:
    """Check ``mapped`` against ``golden`` with ``engine``: ``"bdd"``,
    ``"sim"`` or ``"finegrain"``.

    Inputs of ``golden`` that ``mapped`` lacks are added to a copy as
    vacuous inputs.  ``seed`` and ``num_vectors`` (``None``: the
    engine's default) set the random vectors of ``sim`` and of
    ``finegrain``'s signature pairing; ``bdd`` uses neither.  Raises
    ``ValueError`` when the interfaces still differ, or for an unknown
    engine.
    """
    mapped = pad_inputs(mapped, golden)
    if engine == "bdd":
        return Verdict(
            check_equivalence(golden, mapped), path=exact_path(golden)
        )
    if engine == "sim":
        return Verdict(simulate_equivalence(
            golden, mapped, num_vectors=num_vectors or 1024, seed=seed
        ))
    if engine == "finegrain":
        from ..verify.finegrain import DEFAULT_VECTORS, finegrain_check

        report = finegrain_check(
            golden, mapped, num_vectors=num_vectors or DEFAULT_VECTORS,
            seed=seed,
        )
        failing = report.failing_outputs[0] if report.failing_outputs else None
        return Verdict(failing, report)
    raise ValueError(f"unknown equivalence engine {engine!r}")
