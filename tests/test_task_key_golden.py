"""Golden pins for the content-addressed task-key schema.

The journal's ``task_key`` is load-bearing far beyond the journal now:
the service's SQLite result store keys rows by it, so a *silent* change
to the key recipe (hashing a new field, dropping one, reordering the
payload) would strand every persisted cache row — or worse, alias two
different tasks onto one row.  These tests pin the current key bytes
for fixed inputs so any schema drift fails a test instead of shipping
quietly; an intentional change must update the pins *and* bump the
store's schema story (see ``repro.service.store.schema_version``).
"""

from __future__ import annotations

from dataclasses import replace

from repro.circuits import example_4_1_ingredients
from repro.decompose import DecompositionOptions
from repro.mapping.hyde import cluster_outputs
from repro.mapping.parallel import GroupTask
from repro.network import to_blif
from repro.network.globalbdd import GlobalBdds
from repro.network.transform import extract_cone
from repro.runstate.journal import KEY_HEX_LEN, task_key
from repro.service import schema_version
from repro.testing import FaultSpec

# A hand-written cone: nothing upstream (netlist builders, BLIF
# emission) can drift under this pin, so a failure here isolates the
# key *recipe* itself.
LITERAL_CONE = """.model golden_cone
.inputs a b c d
.outputs f g
.names a b c ab
110 1
001 1
.names ab d f
11 1
.names a d g
01 1
10 1
.end
"""

GOLDEN_LITERAL = "de86bd225e99a1b75eb36535ab148839"
GOLDEN_LITERAL_K4 = "caca14a8c42ce8ecf8118c8b90a41c7c"
GOLDEN_LITERAL_PER_OUTPUT = "cf8381ce1f1503c01eb3fb971d1ae7c4"
GOLDEN_LITERAL_EXACT = "89b29ab33b1bff7898a3824b0061bf7c"

# The paper-example network's single ingredient-group cone, extracted
# exactly as hyde_map does it.  This pin *does* ride on the netlist
# builder and BLIF emitter — deliberately: those are part of the de
# facto key contract for persisted stores.
GOLDEN_EX41 = "d9dae1430df88b81ffe8b0b9467f386b"

#: Digest of the store's key/row schema; drifts when the key recipe,
#: the options dataclass shape, the store format or the exact oracle's
#: payload version changes.
GOLDEN_SCHEMA = "3c40c435a364"


def _literal_task(**overrides) -> GroupTask:
    base = dict(
        blif_text=LITERAL_CONE,
        group=["f", "g"],
        gi=0,
        options=DecompositionOptions(),
    )
    base.update(overrides)
    return GroupTask(**base)


def test_literal_cone_keys_are_pinned():
    assert task_key(_literal_task()) == GOLDEN_LITERAL
    assert (
        task_key(_literal_task(options=DecompositionOptions(k=4)))
        == GOLDEN_LITERAL_K4
    )
    assert (
        task_key(_literal_task(mode="per_output"))
        == GOLDEN_LITERAL_PER_OUTPUT
    )
    assert task_key(_literal_task(mode="exact")) == GOLDEN_LITERAL_EXACT


def test_exact_mode_and_budget_are_content():
    """The exact rung must never share rows with heuristic strategies.

    ``mode="exact"`` and the ``exact_budget_seconds`` option both join
    the key: a fragment computed by the oracle under one budget is not
    the same contract as a heuristic fragment (or an exact one whose
    search had a different time box to prove optimality in).
    """
    base = task_key(_literal_task())
    exact = task_key(_literal_task(mode="exact"))
    assert exact != base
    assert task_key(
        _literal_task(
            mode="exact",
            options=DecompositionOptions(exact_budget_seconds=2.0),
        )
    ) not in (base, exact)


def test_exact_schema_version_feeds_store_digest(monkeypatch):
    """Bumping the NPN-cache payload version must strand service rows.

    ``schema_version`` reads ``EXACT_SCHEMA_VERSION`` at call time, so a
    bump changes the digest and every stored row stamped with the old
    one silently misses (see ``ResultStore.prune_stale``).
    """
    from repro.exact import cache as exact_cache

    assert schema_version() == GOLDEN_SCHEMA
    monkeypatch.setattr(
        exact_cache, "EXACT_SCHEMA_VERSION",
        exact_cache.EXACT_SCHEMA_VERSION + 1,
    )
    assert schema_version() != GOLDEN_SCHEMA


def test_paper_example_cone_key_is_pinned():
    net, k = example_4_1_ingredients()
    gb = GlobalBdds(net)
    manager = gb.manager
    supports = {
        out: [
            manager.name_of(lv)
            for lv in manager.support(gb.of_output(out))
        ]
        for out in net.output_names
    }
    groups = cluster_outputs(supports, 4)
    assert groups == [["f0", "f2", "f3", "f1"]]
    cone = extract_cone(net, groups[0], name=f"{net.name}_g0_cone")
    task = GroupTask(
        blif_text=to_blif(cone),
        group=list(groups[0]),
        gi=0,
        options=DecompositionOptions(k=k),
        base_name=f"{net.name}_g0",
    )
    assert task_key(task) == GOLDEN_EX41


def test_store_schema_version_is_pinned():
    assert schema_version() == GOLDEN_SCHEMA


def test_key_shape():
    key = task_key(_literal_task())
    assert len(key) == KEY_HEX_LEN
    int(key, 16)  # pure hex


def test_key_ignores_run_local_fields():
    """gi / attempt / fault injection / tracing are run-local, not content."""
    base = task_key(_literal_task())
    assert task_key(_literal_task(gi=7)) == base
    assert task_key(_literal_task(attempt=3)) == base
    assert task_key(_literal_task(trace=True)) == base
    assert (
        task_key(_literal_task(inject=FaultSpec(kind="crash"))) == base
    )


def test_key_tracks_content_fields():
    base = task_key(_literal_task())
    assert task_key(_literal_task(group=["g", "f"])) != base
    assert task_key(_literal_task(base_name="other")) != base
    assert task_key(_literal_task(ingredient_policy="greedy")) != base
    assert (
        task_key(
            _literal_task(options=DecompositionOptions(use_dontcares=False))
        )
        != base
    )
    assert (
        task_key(_literal_task(blif_text=LITERAL_CONE + "\n")) != base
    )


def test_every_options_field_feeds_the_key():
    """A new DecompositionOptions field must not silently bypass the key.

    ``task_key`` hashes ``dataclasses.asdict(options)``, so this holds by
    construction today; the test is the tripwire for a refactor that
    switches to an explicit field list and then forgets to extend it.
    """
    import dataclasses

    base = task_key(_literal_task())
    for field in dataclasses.fields(DecompositionOptions):
        current = getattr(DecompositionOptions(), field.name)
        if isinstance(current, bool):
            probe = not current
        elif isinstance(current, (int, float)):
            probe = (current or 0) + 17
        elif isinstance(current, str):
            probe = current + "-probe"
        elif isinstance(current, (tuple, list)):
            probe = type(current)([*current, 3])
        elif current is None:
            probe = 41  # Optional[int]/Optional[float] knobs
        else:  # pragma: no cover - new field type needs a probe
            raise AssertionError(
                f"add a probe for options field {field.name!r} "
                f"({type(current).__name__})"
            )
        options = replace(DecompositionOptions(), **{field.name: probe})
        assert task_key(_literal_task(options=options)) != base, (
            f"options field {field.name!r} does not influence task_key"
        )
