"""Hyper-function construction (paper Definition 4.1 and Section 4.1).

A set of distinct single-output functions ("ingredients") is folded into
one single-output *hyper-function* by ⌈log₂ n⌉ fresh **pseudo primary
inputs** (PPIs): assigning an ingredient's code to the PPIs makes the
hyper-function compute that ingredient.  Choosing the codes is exactly the
compatible class encoding problem with the ingredients as class functions
(Theorems 4.1/4.2), so the chart encoder of Section 3 is reused verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bdd import FALSE, BddManager, build_cube
from ..decompose import Column, EncodingResult, encode_classes
from ..decompose.encoding import build_image_function, canonical_codes

__all__ = ["HyperFunction", "build_hyper_function"]


@dataclass
class HyperFunction:
    """A hyper-function over original variables plus PPIs.

    Attributes
    ----------
    manager / on / dc:
        The hyper-function H itself; the dc-set covers unused PPI codes.
    ppi_levels:
        Manager levels of the pseudo primary inputs (η0, η1, ...).
    ingredient_names:
        The folded output names, index-aligned with ``codes``.
    codes:
        Per-ingredient PPI codes (ppi index -> bit), strict encoding.
    encoding:
        The chart-encoder result used to pick the codes (None when the
        construction was trivial — a single ingredient).
    """

    manager: BddManager
    on: int
    dc: int
    ppi_levels: Tuple[int, ...]
    ingredient_names: List[str]
    codes: List[Dict[int, int]]
    encoding: Optional[EncodingResult] = None

    @property
    def num_ingredients(self) -> int:
        return len(self.ingredient_names)

    @property
    def num_ppis(self) -> int:
        return len(self.ppi_levels)

    def code_assignment(self, ingredient_index: int) -> Dict[int, int]:
        """PPI level -> bit for one ingredient."""
        return {
            self.ppi_levels[a]: bit
            for a, bit in self.codes[ingredient_index].items()
        }

    def recover_ingredient(self, ingredient_index: int) -> Column:
        """Cofactor H by an ingredient's code — must equal the ingredient."""
        assignment = self.code_assignment(ingredient_index)
        return Column(
            self.manager.restrict(self.on, assignment),
            self.manager.restrict(self.dc, assignment),
        )


def build_hyper_function(
    manager: BddManager,
    ingredients: Sequence[Tuple[str, int]],
    k: int,
    dcs: Optional[Sequence[int]] = None,
    policy: str = "chart",
    ppi_prefix: str = "_eta",
    preferred_free_ppis: bool = True,
    fast_path: str = "auto",
    benefit_weights: Tuple[float, float] = (1.0, 1.0),
) -> HyperFunction:
    """Fold ``ingredients`` (name, on-BDD pairs) into a hyper-function.

    ``policy`` selects the ingredient encoding: ``"chart"`` (the paper's
    encoder) or ``"random"`` (canonical codes, the ablation baseline).
    ``preferred_free_ppis`` passes the PPIs as preferred-free variables to
    the encoder's internal variable partitioning, reflecting Section 4.3's
    advice to keep PPIs close to the output.  ``fast_path`` and
    ``benefit_weights`` reach the encoder as in
    :func:`~repro.decompose.encoding.encode_classes`.
    """
    if not ingredients:
        raise ValueError("need at least one ingredient")
    names = [name for name, _ in ingredients]
    if len(set(names)) != len(names):
        raise ValueError("duplicate ingredient names")
    if dcs is None:
        dcs = [FALSE] * len(ingredients)

    n = len(ingredients)
    if n == 1:
        name, on = ingredients[0]
        return HyperFunction(
            manager=manager,
            on=on,
            dc=dcs[0],
            ppi_levels=(),
            ingredient_names=[name],
            codes=[{}],
        )

    num_ppis = max(1, math.ceil(math.log2(n)))
    ppi_levels = []
    for _ in range(num_ppis):
        base = f"{ppi_prefix}{manager.num_vars}"
        name = base
        suffix = 0
        while True:
            try:
                manager.add_var(name)
                break
            except ValueError:
                suffix += 1
                name = f"{base}_{suffix}"
        ppi_levels.append(manager.num_vars - 1)

    class_functions = [
        Column(on, dc) for (_, on), dc in zip(ingredients, dcs)
    ]
    if policy == "random":
        codes = canonical_codes(n, num_ppis)
        image = build_image_function(
            manager, ppi_levels, codes, class_functions
        )
        return HyperFunction(
            manager=manager,
            on=image.on,
            dc=image.dc,
            ppi_levels=tuple(ppi_levels),
            ingredient_names=names,
            codes=codes,
        )

    encoding = encode_classes(
        manager,
        class_functions,
        ppi_levels,
        k,
        policy="chart",
        preferred_free_levels=(
            tuple(ppi_levels) if preferred_free_ppis else ()
        ),
        fast_path=fast_path,
        benefit_weights=benefit_weights,
    )
    return HyperFunction(
        manager=manager,
        on=encoding.image.on,
        dc=encoding.image.dc,
        ppi_levels=tuple(ppi_levels),
        ingredient_names=names,
        codes=encoding.codes,
        encoding=encoding,
    )
