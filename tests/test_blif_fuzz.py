"""Fuzz round-trips: random networks through BLIF serialisation.

Plus structured-error tests: :class:`~repro.network.BlifError` must
carry the offending line number for every malformed-input class, and the
checkpoint journal's replay validation must reject corrupt fragments
built from those same malformed shapes.
"""

from __future__ import annotations

import random

import pytest

from repro.boolfunc import TruthTable
from repro.network import (
    BlifError,
    Network,
    check_equivalence,
    parse_blif,
    to_blif,
)


def random_network(seed: int) -> Network:
    rng = random.Random(seed)
    net = Network(f"fuzz{seed}")
    signals = [net.add_input(f"in{j}") for j in range(rng.randint(2, 6))]
    for n in range(rng.randint(1, 12)):
        arity = rng.randint(1, min(4, len(signals)))
        fanins = rng.sample(signals, arity)
        mask = rng.getrandbits(1 << arity)
        net.add_node(f"node{n}", fanins, TruthTable(arity, mask))
        signals.append(f"node{n}")
    candidates = [s for s in signals if not net.is_input(s)]
    for i, driver in enumerate(
        rng.sample(candidates, min(3, len(candidates)))
    ):
        net.add_output(driver, f"out{i}")
    return net


@pytest.mark.parametrize("seed", range(25))
def test_blif_round_trip_fuzz(seed):
    net = random_network(seed)
    again = parse_blif(to_blif(net))
    assert check_equivalence(net, again) is None


class TestBlifErrors:
    """Malformed BLIF raises BlifError with the offending line number."""

    def parse_error(self, text: str) -> BlifError:
        with pytest.raises(BlifError) as err:
            parse_blif(text)
        return err.value

    def test_undefined_signal_cites_the_names_line(self):
        error = self.parse_error(
            ".model m\n.inputs a\n.outputs f\n"
            ".names a ghost f\n11 1\n.end\n"
        )
        assert error.line == 4
        assert "ghost" in error.reason
        assert str(error).startswith("line 4:")

    def test_duplicate_model_cites_both_lines(self):
        error = self.parse_error(
            ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n"
            ".model again\n.end\n"
        )
        assert error.line == 6
        assert "line 1" in error.reason  # points back at the first .model

    def test_duplicate_outputs_directive(self):
        error = self.parse_error(
            ".model m\n.inputs a\n.outputs f\n.outputs g\n"
            ".names a f\n1 1\n.end\n"
        )
        assert error.line == 4

    def test_missing_end_is_truncation(self):
        error = self.parse_error(
            ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n"
        )
        assert error.line is None
        assert "no .end" in error.reason

    def test_malformed_cube_cites_its_line(self):
        error = self.parse_error(
            ".model m\n.inputs a b\n.outputs f\n.names a b f\n1 1\n.end\n"
        )
        assert error.line == 5

    def test_cube_outside_names_cites_its_line(self):
        error = self.parse_error(".model m\n.inputs a\n.outputs a\n1 1\n.end\n")
        assert error.line == 4

    def test_undriven_output_cites_the_outputs_line(self):
        error = self.parse_error(".model m\n.inputs a\n.outputs f\n.end\n")
        assert error.line == 3
        assert "f" in error.reason

    def test_blif_error_is_a_value_error(self):
        # Existing recovery paths catch ValueError; the structured
        # subclass must keep flowing through them.
        assert issubclass(BlifError, ValueError)


class TestJournalRejectsCorruptFragments:
    """A journaled fragment with any malformed shape is never replayed."""

    FRAGMENT = ".model frag\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n"

    CORRUPTIONS = {
        "truncated_no_end": FRAGMENT.replace(".end\n", ""),
        "undefined_signal": FRAGMENT.replace(".names a b f", ".names a ghost f"),
        "unsupported_construct": FRAGMENT.replace(
            ".names", ".latch torn q 0\n.names"
        ),
        "torn_mid_cube": FRAGMENT[: FRAGMENT.index("11 1") + 2],
    }

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_replay_rejects(self, name):
        from repro.decompose import DecompositionOptions
        from repro.mapping.parallel import GroupTask, check_fragment

        task = GroupTask(
            blif_text=self.FRAGMENT,
            group=["f"],
            gi=0,
            options=DecompositionOptions(),
        )
        assert check_fragment(task, self.CORRUPTIONS[name]) is not None
        # The intact fragment, by contrast, replays fine.
        assert check_fragment(task, self.FRAGMENT) is None


def test_manager_stats():
    from repro.bdd import BddManager

    m = BddManager(4)
    f = m.apply_and(m.var_at_level(0), m.var_at_level(1))
    m.cofactor(f, 0, 1)
    stats = m.stats()
    assert stats["num_vars"] == 4
    assert stats["num_nodes"] >= 4
    assert stats["apply_cache"] >= 1
    m.clear_caches()
    assert m.stats()["apply_cache"] == 0
