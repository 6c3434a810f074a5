"""Cross-manager BDD transfer and order-change by rebuild.

The bound-set selection of the paper's reference [2] examines many variable
orders.  Rather than implementing in-place sifting (fragile without garbage
collection), functions are *transferred* into a manager with the desired
order: a memoised Shannon-expansion rebuild.  For the problem sizes of this
reproduction (decomposition windows of at most ~24 variables) this is both
simple and fast enough.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .manager import FALSE, TRUE, BddManager

__all__ = ["transfer", "reorder", "copy_into"]


def transfer(
    src: BddManager,
    dst: BddManager,
    f: int,
    level_map: Optional[Dict[int, int]] = None,
) -> int:
    """Copy BDD ``f`` from ``src`` into ``dst``.

    ``level_map`` maps source levels to destination levels (identity when
    omitted).  The rebuild uses ITE at each source node, so the destination
    order may be arbitrary.
    """
    if level_map is None:
        level_map = {lv: lv for lv in src.support(f)}
    return _copy(src, dst, f, level_map, {FALSE: FALSE, TRUE: TRUE})


def copy_into(src: BddManager, dst: BddManager, nodes: Sequence[int]) -> List[int]:
    """Transfer several functions sharing one memo table."""
    level_map = {lv: lv for lv in range(src.num_vars)}
    cache: Dict[int, int] = {FALSE: FALSE, TRUE: TRUE}
    return [_copy(src, dst, node, level_map, cache) for node in nodes]


def _copy(
    src: BddManager,
    dst: BddManager,
    node: int,
    level_map: Dict[int, int],
    cache: Dict[int, int],
) -> int:
    cached = cache.get(node)
    if cached is not None:
        return cached
    level = level_map[src.level(node)]
    result = dst.ite(
        dst.var_at_level(level),
        _copy(src, dst, src.high(node), level_map, cache),
        _copy(src, dst, src.low(node), level_map, cache),
    )
    cache[node] = result
    return result


def reorder(
    src: BddManager, f: int, new_order: Sequence[int]
) -> tuple[BddManager, int]:
    """Rebuild ``f`` in a fresh manager whose order is ``new_order``.

    ``new_order[i]`` is the source level placed at destination level ``i``.
    Returns ``(new_manager, new_root)``.
    """
    dst = BddManager()
    for src_level in new_order:
        dst.add_var(src.name_of(src_level))
    level_map = {src_level: i for i, src_level in enumerate(new_order)}
    return dst, transfer(src, dst, f, level_map)
