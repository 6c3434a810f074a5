"""Exhaustive equivalence checking over packed truth tables.

The ``packed`` path of :func:`repro.network.check_equivalence`, taken
when the golden network has at most
:data:`~repro.fastpath.bitops.DEFAULT_MAX_WIDTH` inputs.  Every signal's
value over all ``2**n`` input assignments is one ``2**n``-bit int (bit
``m`` is the value at the assignment whose input ``j`` is bit ``j`` of
``m``, inputs in the golden network's order), so comparing two outputs'
ints compares them on every assignment: the check is as exact as the
global-BDD one.  A LUT's int is a mux tree over its fanins' ints.  Each
int is dropped after its last fanout has read it, so memory is bounded
by the live ints times ``2**n`` bits; no manager and no module-level
cache is involved.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..fastpath import bitops
from .netlist import Network

__all__ = ["packed_failing"]


def packed_failing(golden: Network, mapped: Network) -> Optional[str]:
    """The first output, in ``golden``'s order, whose exhaustive tables
    differ between ``golden`` and ``mapped``, or ``None``; both networks
    read the golden network's inputs and drive its outputs."""
    n = len(golden.inputs)
    index = {pi: j for j, pi in enumerate(golden.inputs)}
    ones = (1 << (1 << n)) - 1

    def input_word(pi: str) -> int:
        # Uncached: bitops.var_masks would keep every input's table.
        return bitops.index_masks(n, index[pi])[1]

    expected: Dict[str, int] = {}
    for outs, word in _output_words(golden, input_word, ones):
        for out in outs:
            expected[out] = word
    failing = set()
    for outs, word in _output_words(mapped, input_word, ones):
        for out in outs:
            if expected.pop(out) != word:
                failing.add(out)
    for out in golden.output_names:
        if out in failing:
            return out
    return None


def _output_words(
    net: Network, input_word: Callable[[str], int], ones: int
) -> Iterator[Tuple[List[str], int]]:
    """``(outputs, table)`` for every distinct output driver of ``net``:
    the outputs it drives and its table.

    Only the outputs' cone is evaluated, in topological order, and each
    table is dropped once its last fanout has read it.
    """
    drivers: Dict[str, List[str]] = {}
    for out, driver in net.outputs:
        drivers.setdefault(driver, []).append(out)
    cone = net.transitive_fanin(drivers)
    order = [name for name in net.topological_order() if name in cone]
    uses: Dict[str, int] = {}
    for name in order:
        for fi in net.node(name).fanins:
            uses[fi] = uses.get(fi, 0) + 1
    for driver, outs in drivers.items():
        if net.is_input(driver):
            yield outs, input_word(driver)
    words: Dict[str, int] = {}
    for name in order:
        node = net.node(name)
        fanin_words = []
        for fi in node.fanins:
            word = words[fi] if fi in words else input_word(fi)
            left = uses[fi] - 1
            uses[fi] = left
            if left:
                words[fi] = word
            else:
                words.pop(fi, None)
            fanin_words.append(word)
        table = node.table
        word = _mux_tree(table.mask, table.num_inputs, fanin_words, ones)
        if uses.get(name):
            words[name] = word
        if name in drivers:
            yield drivers[name], word


def _mux_tree(mask: int, k: int, fanin_words: List[int], ones: int) -> int:
    """The table of a ``k``-input LUT with truth table ``mask``.

    Shannon expansion on the last fanin: a constant sub-table ends the
    recursion and equal halves skip the fanin, so each split costs one
    mux of at most three operations on the tables.
    """
    if mask == 0:
        return 0
    if mask == (1 << (1 << k)) - 1:
        return ones
    half = 1 << (k - 1)
    lo_mask = mask & ((1 << half) - 1)
    hi_mask = mask >> half
    if lo_mask == hi_mask:
        return _mux_tree(lo_mask, k - 1, fanin_words, ones)
    select = fanin_words[k - 1]
    lo = _mux_tree(lo_mask, k - 1, fanin_words, ones)
    hi = _mux_tree(hi_mask, k - 1, fanin_words, ones)
    if lo == 0:
        return select & hi
    if hi == 0:
        return lo ^ (select & lo)
    return lo ^ (select & (lo ^ hi))
