"""One disjoint Roth-Karp decomposition step: f(X, Y) = g(alpha(X), Y).

Combines bound-set selection, compatible class computation, don't-care
assignment and the chart encoder into a single step that returns the α
truth tables and the image function (with its don't cares from unused
codes) ready for recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..bdd import FALSE, BddManager
from ..boolfunc import TruthTable
from .compatible import Column, CompatibleClasses, compute_classes
from .cost import CostModel, parse_cost_model
from .encoding import (
    EncodingResult,
    build_image_function,
    canonical_codes,
    encode_classes,
)
from .varpart import select_bound_set

__all__ = ["DecompositionStep", "decompose_step", "DecompositionOptions"]


@dataclass
class DecompositionOptions:
    """Tuning knobs of a decomposition step.

    Attributes
    ----------
    k:
        LUT input count; also the default bound-set size.
    encoding_policy:
        ``"chart"`` — the paper's compatible class encoding;
        ``"random"`` — the strict rigid canonical draft (IMODEC-like
        baseline); ``"cubes"`` — minimise the image function's ISOP cube
        count (the symbolic-input-encoding objective of Murgai et al.,
        the paper's reference [3], which Section 3.2 argues is the wrong
        cost function for LUTs); ``"worst"`` — adversarial encoding for
        ablations (maximises the image's class count among a sample).
    use_dontcares:
        Enable the clique-partitioning don't-care assignment (Section 3.1).
    forbidden_bound_levels:
        Levels that must never enter a bound set (column-encoding baseline
        pins pseudo primary inputs with this).
    preferred_free_levels:
        Levels kept free on cost ties (HYDE's PPI placement preference).
    fast_path:
        Class-counting backend policy: ``"auto"`` (packed truth tables
        for supports up to
        :data:`repro.fastpath.bitops.DEFAULT_MAX_WIDTH` variables, BDD
        walk beyond), ``"bitpack"`` (force packed up to the kernel's
        hard cap) or ``"bdd"`` (never packed).  All modes produce
        bit-identical results; see :mod:`repro.fastpath.bitops`.
    max_bdd_nodes / max_seconds:
        Resource budget for one governed decomposition: callers that own
        the manager (the group workers, the fault-tolerant flows) arm it
        via :meth:`~repro.bdd.BddManager.set_budget` before decomposing,
        and a blow-up then raises a catchable
        :class:`~repro.bdd.BddBudgetExceeded` instead of grinding.  Both
        ``None`` (the default) keeps every path byte-for-byte identical
        to the unbudgeted flow.
    cost_model:
        The mapping objective: ``"area"`` (LUT count, the historical
        default — byte-for-byte identical to pre-cost-model flows),
        ``"delay"`` (logic levels first) or ``"weighted[:AW,DW]"``.
        See :mod:`repro.decompose.cost`.
    exact_budget_seconds:
        Wall-clock budget for one :func:`repro.exact.exact_map` search
        when the ``"exact"`` portfolio strategy races (``None`` uses
        :data:`repro.exact.DEFAULT_BUDGET_SECONDS`; the governed flow
        additionally clamps it to ``max_seconds``).  Only the exact rung
        reads it — heuristic paths are byte-for-byte unaffected.
    """

    k: int = 5
    encoding_policy: str = "chart"
    use_dontcares: bool = True
    forbidden_bound_levels: Tuple[int, ...] = ()
    preferred_free_levels: Tuple[int, ...] = ()
    fast_path: str = "auto"
    max_bdd_nodes: Optional[int] = None
    max_seconds: Optional[float] = None
    cost_model: str = "area"
    exact_budget_seconds: Optional[float] = None

    @property
    def cost(self) -> CostModel:
        """The parsed :class:`~repro.decompose.cost.CostModel`."""
        return parse_cost_model(self.cost_model)

    @property
    def has_budget(self) -> bool:
        """True when either resource limit is set."""
        return self.max_bdd_nodes is not None or self.max_seconds is not None

    def arm_budget(self, manager: BddManager) -> None:
        """Arm this options' budget on ``manager`` (no-op without one)."""
        if self.has_budget:
            manager.set_budget(self.max_bdd_nodes, self.max_seconds)

    def decayed(self, factor: float) -> "DecompositionOptions":
        """A copy with both budgets scaled by ``factor`` (retry decay)."""
        return replace(
            self,
            max_bdd_nodes=(
                max(8, int(self.max_bdd_nodes * factor))
                if self.max_bdd_nodes is not None
                else None
            ),
            max_seconds=(
                self.max_seconds * factor
                if self.max_seconds is not None
                else None
            ),
        )


@dataclass
class DecompositionStep:
    """Result of one decomposition step.

    ``alpha_tables[j]`` is the j-th decomposition function as a truth
    table over ``bound_levels`` (position bit j of the row index is
    ``bound_levels[j]``).  ``image`` is g over ``alpha_levels`` + the free
    variables; its don't cares cover the unused codes.
    """

    bound_levels: Tuple[int, ...]
    free_levels: Tuple[int, ...]
    alpha_levels: Tuple[int, ...]
    alpha_tables: List[TruthTable]
    image: Column
    classes: CompatibleClasses
    encoding: Optional[EncodingResult]
    num_classes: int


def decompose_step(
    manager: BddManager,
    on: int,
    support: Sequence[int],
    options: DecompositionOptions,
    dc: int = FALSE,
    bound_levels: Optional[Sequence[int]] = None,
    level_depths: Optional[Dict[int, int]] = None,
) -> DecompositionStep:
    """Perform one disjoint decomposition of ``(on, dc)``.

    ``support`` is the variable universe of f (its true support).  When
    ``bound_levels`` is given the bound set is forced; otherwise it is
    selected by :func:`repro.decompose.varpart.select_bound_set`.
    ``level_depths`` maps variable levels to the logic depth of the
    signal behind each level; delay-aware cost models use it to keep
    bound sets over shallow signals (ignored in area mode).
    """
    k = options.k
    if len(support) <= k:
        raise ValueError("function is already k-feasible; nothing to do")
    manager.check_budget()

    perf = manager.perf
    cost = options.cost
    if bound_levels is None:
        with perf.phase("step.varpart"), obs.span(
            "step.varpart", manager=manager, support=len(support)
        ):
            bound = select_bound_set(
                manager,
                on,
                support,
                min(k, len(support) - 1),
                dc=dc,
                use_dontcares=options.use_dontcares,
                forbidden=options.forbidden_bound_levels,
                preferred_free=options.preferred_free_levels,
                fast_path=options.fast_path,
                cost=cost,
                level_depths=level_depths,
            ).bound_levels
    else:
        bound = tuple(sorted(bound_levels))
    free = tuple(lv for lv in support if lv not in set(bound))

    with perf.phase("step.classes"), obs.span(
        "step.classes", manager=manager
    ):
        classes = compute_classes(
            manager,
            on,
            list(bound),
            dc,
            options.use_dontcares,
            fast_path=options.fast_path,
        )
    n = classes.num_classes
    if n < 2:
        # f does not depend on the bound set (possible only via don't
        # cares); the caller should simply drop those variables.
        return DecompositionStep(
            bound_levels=bound,
            free_levels=free,
            alpha_levels=(),
            alpha_tables=[],
            image=classes.class_functions[0],
            classes=classes,
            encoding=None,
            num_classes=n,
        )

    t = max(1, math.ceil(math.log2(n)))
    alpha_levels = tuple(_fresh_levels(manager, t))

    with perf.phase("step.encode"), obs.span(
        "step.encode", manager=manager, classes=n
    ):
        if options.encoding_policy == "worst":
            encoding = _worst_encoding(
                manager, classes.class_functions, alpha_levels, options
            )
        elif options.encoding_policy == "cubes":
            encoding = _cube_minimizing_encoding(
                manager, classes.class_functions, alpha_levels
            )
        else:
            encoding = encode_classes(
                manager,
                classes.class_functions,
                alpha_levels,
                k,
                use_dontcares=options.use_dontcares,
                policy=(
                    "random"
                    if options.encoding_policy == "random"
                    else "chart"
                ),
                forbidden_bound_levels=options.forbidden_bound_levels,
                preferred_free_levels=options.preferred_free_levels,
                fast_path=options.fast_path,
                benefit_weights=cost.encoder_weights(),
            )

    alpha_tables = _alpha_tables(
        len(bound), classes.class_of_position, encoding.codes, t
    )
    return DecompositionStep(
        bound_levels=bound,
        free_levels=free,
        alpha_levels=alpha_levels,
        alpha_tables=alpha_tables,
        image=encoding.image,
        classes=classes,
        encoding=encoding,
        num_classes=n,
    )


def _fresh_levels(manager: BddManager, count: int) -> List[int]:
    levels = []
    for _ in range(count):
        base = f"_a{manager.num_vars}"
        name = base
        suffix = 0
        while True:
            try:
                manager.add_var(name)
                break
            except ValueError:
                suffix += 1
                name = f"{base}_{suffix}"
        levels.append(manager.num_vars - 1)
    return levels


def _alpha_tables(
    bound_width: int,
    class_of_position: Sequence[int],
    codes: Sequence[Dict[int, int]],
    num_alpha: int,
) -> List[TruthTable]:
    tables = []
    for a in range(num_alpha):
        mask = 0
        for position, cls in enumerate(class_of_position):
            if codes[cls][a]:
                mask |= 1 << position
        tables.append(TruthTable(bound_width, mask))
    return tables


def _cube_minimizing_encoding(
    manager: BddManager,
    class_functions: Sequence[Column],
    alpha_levels: Sequence[int],
) -> EncodingResult:
    """Reference [3]'s objective: fewest ISOP cubes in the image function.

    A greedy code-swap search from the canonical draft: repeatedly swap
    the codes of two classes (or move a class to an unused code) while
    the ISOP cube count of g improves.  This models Murgai et al.'s
    symbolic-input encoding at the fidelity the comparison needs — the
    paper's point is that this *objective*, however well optimised,
    targets two-level cost rather than LUT decomposability.
    """
    from ..bdd.isop import isop

    n = len(class_functions)
    t = len(alpha_levels)
    code_space = 1 << t

    def cubes_of(assignment: Sequence[int]) -> int:
        codes = [
            {a: (code >> a) & 1 for a in range(t)} for code in assignment
        ]
        image = build_image_function(
            manager, alpha_levels, codes, class_functions
        )
        upper = manager.apply_or(image.on, image.dc)
        return len(isop(manager, image.on, upper))

    assignment = list(range(n))
    best_cost = cubes_of(assignment)
    improved = True
    rounds = 0
    while improved and rounds < 8:
        improved = False
        rounds += 1
        # Swap pairs of used codes.
        for i in range(n):
            for j in range(i + 1, n):
                trial = list(assignment)
                trial[i], trial[j] = trial[j], trial[i]
                cost = cubes_of(trial)
                if cost < best_cost:
                    best_cost = cost
                    assignment = trial
                    improved = True
        # Move one class to an unused code.
        unused = [c for c in range(code_space) if c not in assignment]
        for i in range(n):
            for code in unused:
                trial = list(assignment)
                trial[i] = code
                cost = cubes_of(trial)
                if cost < best_cost:
                    best_cost = cost
                    assignment = trial
                    improved = True
                    unused = [
                        c for c in range(code_space) if c not in assignment
                    ]
                    break

    codes = [
        {a: (code >> a) & 1 for a in range(t)} for code in assignment
    ]
    image = build_image_function(manager, alpha_levels, codes, class_functions)
    result = EncodingResult(
        codes=codes, num_alpha=t, policy_used="cubes", image=image
    )
    result.trace["image_cubes"] = best_cost
    return result


def _worst_encoding(
    manager: BddManager,
    class_functions: Sequence[Column],
    alpha_levels: Sequence[int],
    options: DecompositionOptions,
) -> EncodingResult:
    """Adversarial baseline: sample permuted codes, keep the worst.

    Used only by the ablation benches to bracket the encoding's impact.
    """
    import itertools

    from .compatible import count_classes
    from .varpart import select_bound_set

    n = len(class_functions)
    t = len(alpha_levels)
    base = canonical_codes(n, t)
    draft = build_image_function(manager, alpha_levels, base, class_functions)
    support = sorted(
        set(manager.support(draft.on)) | set(manager.support(draft.dc))
    )
    if len(support) <= options.k:
        return EncodingResult(
            codes=base, num_alpha=t, policy_used="trivial", image=draft
        )
    vp = select_bound_set(
        manager,
        draft.on,
        support,
        min(options.k, len(support) - 1),
        dc=draft.dc,
        use_dontcares=options.use_dontcares,
        fast_path=options.fast_path,
    )
    worst_codes = base
    worst_image = draft
    worst_count = -1
    permutations = itertools.islice(
        itertools.permutations(range(1 << t), n), 64
    )
    for assignment in permutations:
        codes = [
            {a: (code >> a) & 1 for a in range(t)} for code in assignment
        ]
        image = build_image_function(
            manager, alpha_levels, codes, class_functions
        )
        count = count_classes(
            manager,
            image.on,
            list(vp.bound_levels),
            image.dc,
            options.use_dontcares,
            fast_path=options.fast_path,
        )
        if count > worst_count:
            worst_count = count
            worst_codes = codes
            worst_image = image
    result = EncodingResult(
        codes=worst_codes,
        num_alpha=t,
        policy_used="worst",
        image=worst_image,
        suggested_bound=vp.bound_levels,
    )
    result.image_classes_chart = worst_count
    return result
