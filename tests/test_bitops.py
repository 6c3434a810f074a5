"""Differential suite for the packed truth-table kernels.

The bit-parallel fast path of :mod:`repro.fastpath.bitops` must be a
*drop-in* for the BDD path: every count, every bound-set selection and
every merged-class cover has to be bit-identical across
``fast_path="bdd" | "bitpack" | "auto"``.  These tests pin that contract
on seed-stamped random networks (via :mod:`repro.verify.generators`, so
a failure header carries the one seed needed to replay it) plus direct
kernel unit tests.
"""

import random

import pytest

from repro.bdd import FALSE, BddManager
from repro.decompose.compatible import compute_classes
from repro.decompose.varpart import count_classes, select_bound_set
from repro.fastpath import bitops
from repro.network import GlobalBdds
from repro.verify.generators import random_network, resolve_seed


def _random_pair(rng, manager, n):
    """A random incompletely specified (on, dc) over all n inputs."""
    nbits = 1 << n
    on_tt = rng.getrandbits(nbits)
    dc_tt = rng.getrandbits(nbits) & ~on_tt
    on = manager.from_truth_table(on_tt, list(range(n)))
    dc = manager.from_truth_table(dc_tt, list(range(n)))
    return on, dc, on_tt, dc_tt


class TestKernelPrimitives:
    def test_var_masks_partition(self):
        for n in range(1, 8):
            full = (1 << (1 << n)) - 1
            for p in range(n):
                m0, m1 = bitops.var_masks(n, p)
                assert m0 ^ m1 == full and m0 & m1 == 0
                for i in range(1 << n):
                    assert ((m1 >> i) & 1) == ((i >> p) & 1)

    def test_swap_bits_permutes_the_index(self):
        def reference(bits, n, j, k):
            out = 0
            for i in range(1 << n):
                if (bits >> i) & 1:
                    flip = ((i >> j) ^ (i >> k)) & 1
                    out |= 1 << (i ^ (flip << j) ^ (flip << k))
            return out

        rng = random.Random(resolve_seed(1105, "bitops_swap"))
        for n in range(2, 10):
            full = (1 << (1 << n)) - 1
            tables = [0, full] + [rng.getrandbits(1 << n) for _ in range(3)]
            for j in range(n):
                for k in range(j + 1, n):
                    for bits in tables:
                        assert bitops._swap_bits(bits, n, j, k) == reference(
                            bits, n, j, k
                        ), (n, j, k, bits)

    def test_swaps_keep_no_table_per_pair(self):
        # Every pair at one width adds at most one entry per index bit to
        # any module-level cache: the masks of var_masks, nothing else.
        n = 14
        caches = {
            name: value for name, value in vars(bitops).items()
            if isinstance(value, dict) and not name.startswith("__")
        }
        before = {name: len(cache) for name, cache in caches.items()}
        bits = random.Random(1106).getrandbits(1 << n)
        for j in range(n):
            for k in range(j + 1, n):
                swapped = bitops._swap_bits(bits, n, j, k)
                assert bitops._swap_bits(swapped, n, j, k) == bits
        grown = {
            name: len(cache) - before[name] for name, cache in caches.items()
        }
        assert all(count <= n for count in grown.values()), grown
        assert sum(1 for key in bitops._MASKS if key[0] == n) <= n

    def test_split_chunks_orders_low_first(self):
        assert bitops._split_chunks(0b11100100, 8, 2) == [0b00, 0b01, 0b10, 0b11]
        assert bitops._split_chunks(5, 4, 4) == [5]

    def test_conversion_round_trip(self):
        seed = resolve_seed(1101, "bitops_round_trip")
        rng = random.Random(seed)
        for _ in range(50):
            n = rng.randint(1, 8)
            m = BddManager(n)
            tt = rng.getrandbits(1 << n)
            f = m.from_truth_table(tt, list(range(n)))
            levels = list(range(n))
            packed = bitops.bdd_to_packed(m, f, levels)
            # Kernel convention: levels[j] is index bit n-1-j.
            assert packed == m.to_truth_table(f, list(reversed(levels)))

    def test_conversion_superset_levels(self):
        seed = resolve_seed(1102, "bitops_superset")
        rng = random.Random(seed)
        for _ in range(30):
            n = rng.randint(2, 6)
            m = BddManager(n + 2)
            tt = rng.getrandbits(1 << n)
            f = m.from_truth_table(tt, list(range(n)))
            levels = list(range(n + 2))  # two vacuous variables on top
            packed = bitops.bdd_to_packed(m, f, levels)
            assert packed == m.to_truth_table(f, list(reversed(levels)))

    def test_conversion_rejects_missing_support(self):
        m = BddManager(3)
        f = m.apply_and(m.var_at_level(0), m.var_at_level(2))
        with pytest.raises(KeyError):
            bitops.bdd_to_packed(m, f, [0, 1])

    def test_chunk_order_matches_cofactor_enumerate(self):
        seed = resolve_seed(1103, "bitops_chunk_order")
        rng = random.Random(seed)
        for _ in range(40):
            n = rng.randint(2, 7)
            m = BddManager(n)
            on, dc, _, _ = _random_pair(rng, m, n)
            b = rng.randint(1, n)
            bound = rng.sample(range(n), b)
            pair = bitops.pack_pair(m, on, dc, list(range(n)))
            chunks, width = bitops.enumerate_chunk_pairs(pair, bound)
            on_parts = m.cofactor_enumerate(on, list(bound))
            dc_parts = m.cofactor_enumerate(dc, list(bound))
            assert len(chunks) == len(on_parts) == 1 << b
            # Chunk i corresponds to cofactor i: the free-variable bits
            # inside a chunk are permuted (consistently across chunks) by
            # the lifting swaps, so compare equality *patterns*, which is
            # the property class counting and clique tie-breaking rely on.
            bdd_pairs = list(zip(on_parts, dc_parts))
            first_chunk = {}
            first_bdd = {}
            for i in range(1 << b):
                a = first_chunk.setdefault(chunks[i], i)
                r = first_bdd.setdefault(bdd_pairs[i], i)
                assert a == r, f"chunk/cofactor dedup order diverges at {i}"


class TestCountParity:
    def test_syntactic_count_matches_bdd(self):
        seed = resolve_seed(1104, "bitops_syntactic")
        rng = random.Random(seed)
        for _ in range(120):
            n = rng.randint(2, 8)
            m = BddManager(n)
            on, dc, _, _ = _random_pair(rng, m, n)
            bound = rng.sample(range(n), rng.randint(1, n - 1)) if n > 1 else [0]
            selects = m.perf.fastpath_selects
            got = count_classes(m, on, bound, dc, use_dontcares=False)
            assert m.perf.fastpath_selects == selects + 1  # packed
            on_parts = m.cofactor_enumerate(on, list(bound))
            dc_parts = m.cofactor_enumerate(dc, list(bound))
            assert got == len(set(zip(on_parts, dc_parts)))

    def test_merged_count_matches_compute_classes(self):
        seed = resolve_seed(1105, "bitops_merged")
        rng = random.Random(seed)
        for _ in range(120):
            n = rng.randint(3, 8)
            m = BddManager(n)
            on, dc, _, _ = _random_pair(rng, m, n)
            if dc == FALSE:
                continue
            bound = rng.sample(range(n), rng.randint(1, n - 1))
            ref = compute_classes(
                m, on, list(bound), dc, True, fast_path="bdd"
            ).num_classes
            selects = m.perf.fastpath_selects
            assert count_classes(m, on, bound, dc) == ref
            assert m.perf.fastpath_selects == selects + 1  # packed

    def test_assign_dontcares_identical_across_modes(self):
        seed = resolve_seed(1106, "bitops_dontcares")
        rng = random.Random(seed)
        for _ in range(60):
            n = rng.randint(3, 7)
            bound = rng.sample(range(n), rng.randint(1, n - 1))
            nbits = 1 << n
            on_tt = rng.getrandbits(nbits)
            dc_tt = rng.getrandbits(nbits) & ~on_tt
            shaped = {}
            for mode in ("bdd", "auto", "bitpack"):
                m = BddManager(n)
                on = m.from_truth_table(on_tt, list(range(n)))
                dc = m.from_truth_table(dc_tt, list(range(n)))
                c = compute_classes(m, on, list(bound), dc, True, fast_path=mode)
                shaped[mode] = (
                    c.num_classes,
                    tuple(c.class_of_position),
                    tuple(
                        (
                            m.to_truth_table(f.on, list(range(n))),
                            m.to_truth_table(f.dc, list(range(n))),
                        )
                        for f in c.class_functions
                    ),
                )
            assert shaped["bdd"] == shaped["auto"] == shaped["bitpack"]

    def test_wide_support_falls_back(self):
        n = bitops.DEFAULT_MAX_WIDTH + 1
        m = BddManager(n)
        f = m.var_at_level(0)
        for lv in range(1, n):
            f = m.apply_xor(f, m.var_at_level(lv))
        before = m.perf.fastpath_fallbacks
        enumerations = m.perf.cofactor_enumerations
        # Too wide to pack: count_classes answers through the BDD path.
        assert count_classes(m, f, [0, 1], FALSE) == 2
        assert m.perf.fastpath_fallbacks == before + 1
        assert m.perf.cofactor_enumerations == enumerations + 1

    def test_global_memo_survives_managers(self):
        bitops.clear_global_memo()
        tt = 0b1011010011001010
        counts = []
        for _ in range(2):
            m = BddManager(4)
            f = m.from_truth_table(tt, [0, 1, 2, 3])
            pair = bitops.pack_pair(m, f, FALSE, [0, 1, 2, 3])
            search = bitops.PackedSearch(pair, m.perf)
            counts.append(search.count_bound([0, 1]))
        assert counts[0] == counts[1]
        stats = bitops.global_memo_stats()
        assert stats["hits"] >= 1  # second manager reused the first's count

    def test_pairs_key_the_memo_by_their_bits(self):
        pair = bitops.PackedPair(0b1011, 0, (0, 1))
        same_bits = bitops.PackedPair(0b1011, 0, (4, 9))
        other = bitops.PackedPair(0b0111, 0, (0, 1))
        assert pair == same_bits and hash(pair) == hash(same_bits)
        assert pair != other
        other._hash = pair._hash  # a matching hash alone is not equality
        assert pair != other
        assert len({(pair, (1,)), (same_bits, (1,)), (other, (1,))}) == 2


class TestDifferentialNetworks:
    """Packed vs BDD across >= 200 seed-stamped random networks."""

    @pytest.mark.parametrize("seed_base", [2000, 2050, 2100, 2150])
    def test_select_bound_set_identical_across_modes(self, seed_base):
        for seed in range(seed_base, seed_base + 50):
            net = random_network(seed)
            gb = GlobalBdds(net)
            manager = gb.manager
            rng = random.Random(seed)
            for out in net.output_names[:2]:
                on = gb.of_output(out)
                support = sorted(manager.support(on))
                if len(support) < 3:
                    continue
                bound_size = rng.randint(2, len(support) - 1)
                picks = {}
                for mode in ("bdd", "auto", "bitpack"):
                    vp = select_bound_set(
                        manager, on, support, bound_size, fast_path=mode
                    )
                    picks[mode] = (
                        vp.bound_levels,
                        vp.free_levels,
                        vp.num_classes,
                    )
                assert len(set(picks.values())) == 1, (
                    f"seed {seed} output {out}: modes disagree: {picks}"
                )


class TestAutoSerial:
    def test_small_batch_goes_serial(self):
        from repro.circuits import build
        from repro.network.transform import extract_cone
        from repro.decompose import DecompositionOptions
        from repro.mapping.parallel import (
            GroupTask,
            run_context,
            run_group_tasks,
        )
        from repro.network import to_blif

        net = build("misex1")
        tasks = []
        for gi, out in enumerate(net.output_names[:3]):
            cone = extract_cone(net, [out])
            tasks.append(
                GroupTask(
                    blif_text=to_blif(cone),
                    group=[out],
                    gi=gi,
                    options=DecompositionOptions(k=5),
                    base_name=f"as{gi}",
                )
            )
        results, report = run_group_tasks(tasks, run_context(jobs=2))
        assert len(results) == 3
        assert report.jobs_used == 1
        assert report.pool_fallback is not None
        assert report.pool_fallback.startswith("auto_serial")
        decision = report.details["auto_serial"]
        assert decision["serial"] is True
        assert decision["estimated_savings"] < decision["pool_setup_seconds"]

    def test_estimator_scales_with_width(self):
        from repro.decompose import DecompositionOptions
        from repro.mapping.parallel import (
            GroupTask,
            _auto_serial_decision,
            _estimate_task_seconds,
        )

        def task(inputs, nodes):
            lines = [".model t", ".inputs " + " ".join(
                f"i{j}" for j in range(inputs)
            ), ".outputs o"]
            for j in range(nodes):
                lines.append(f".names i0 i1 n{j}")
                lines.append("11 1")
            return GroupTask(
                blif_text="\n".join(lines),
                group=["o"],
                gi=0,
                options=DecompositionOptions(k=5),
            )

        narrow = _estimate_task_seconds(task(6, 20))
        wide = _estimate_task_seconds(task(20, 20))
        assert wide > narrow * 10
        serial, record = _auto_serial_decision([task(6, 5)] * 2, jobs=2)
        assert serial and record["serial"]
        big, record = _auto_serial_decision([task(22, 60)] * 4, jobs=4)
        assert not big and not record["serial"]
