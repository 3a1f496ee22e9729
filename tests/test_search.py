"""Exhaustive plan search: referee parity, ordering, ties, and comparisons."""

import dataclasses
import random
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import tsoplan.search
from tsoplan.cli import main
from tsoplan.configs import INT_MAX, ConfigError, ConvLayerSpec, ModelSpec, nmp_profile
from tsoplan.costmodel import calc_time, move_times, remodel
from tsoplan.search import (
    COMPARE_COLUMNS,
    PARTITION_ORDER,
    SCHEDULE_ORDER,
    PlanError,
    compare_strategies,
    plan_layer,
    tso,
)
from tsoplan.slicing import (
    Infeasible,
    ScheduleKind,
    TileConfig,
    TlePartitionKind,
    filter_count,
    gen_tile,
    get_filters,
    tile_footprint,
    tle_slicing,
)

from _models import RANDOM_FABRICS, arch_for, conv_for, random_toy_model, sample_model


def brute_plan_layer(conv, arch, model, partitions=PARTITION_ORDER, schedules=SCHEDULE_ORDER):
    """Plain-loop referee for the vectorized search: same traversal order,
    same strict-< winner, tile filter count derived rather than enumerated."""
    best = None
    for p in partitions:
        try:
            slice_ = tle_slicing(p, conv, arch.n_tle)
        except Infeasible:
            continue
        for q in schedules:
            for t_r in range(1, slice_.tle_r + 1):
                for t_c in range(1, conv.c + 1):
                    for t_n in range(1, conv.n + 1):
                        try:
                            t_m = get_filters(
                                t_r, t_c, q, slice_.tle_w, arch.n_tlt, t_n, conv, arch
                            )
                            tile = gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_)
                        except Infeasible:
                            continue
                        cost = calc_time(tile, q, conv, slice_, arch, model)
                        if best is None or cost.t_total < best[0]:
                            best = (cost.t_total, p, q, tile, cost)
    return best


REFEREE_CASES = [
    # (conv kwargs, n_tle, n_tlt, mb, model)
    (dict(n=3, h=10, l=10, m=8, k=3), 4, 2, 1024, "burst"),
    (dict(n=4, h=12, l=9, m=6, k=3, p=1), 2, 2, 512, "burst"),
    (dict(n=6, h=8, l=8, m=10, k=1), 4, 1, 512, "burst"),
    (dict(n=2, h=11, l=11, m=4, k=5, p=2), 2, 1, 768, "burst"),
    (dict(n=5, h=9, l=12, m=8, k=3, s=2), 4, 2, 640, "burst"),
    (dict(n=3, h=10, l=10, m=8, k=3), 4, 2, 1024, "noburst"),
    (dict(n=6, h=8, l=8, m=10, k=1, e=1), 4, 1, 512, "noburst"),
    (dict(n=4, h=12, l=9, m=6, k=3, p=1), 2, 2, 512, "noburst"),
    (dict(n=2, h=7, l=13, m=12, k=3), 1, 2, 896, "burst"),
    (dict(n=8, h=6, l=6, m=16, k=3, p=1), 4, 4, 1024, "burst"),
    (dict(n=3, h=14, l=5, m=7, k=3, s=2, p=1), 2, 2, 700, "burst"),
    (dict(n=4, h=8, l=8, m=8, k=3, e=1), 4, 2, 384, "noburst"),
]


class TestRefereeParity:
    @pytest.mark.parametrize("kwargs,n_tle,n_tlt,mb,model", REFEREE_CASES)
    def test_planner_matches_plain_loop(self, kwargs, n_tle, n_tlt, mb, model):
        conv = conv_for(**kwargs)
        arch = arch_for(mb=mb, n_tle=n_tle, n_tlt=n_tlt)
        ref = brute_plan_layer(conv, arch, model)
        if ref is None:
            with pytest.raises(PlanError):
                plan_layer(conv, arch, model)
            return
        total, p, q, tile, cost = ref
        entry = plan_layer(conv, arch, model)
        assert entry.slice.kind is p
        assert entry.schedule is q
        assert (entry.tile.t_m, entry.tile.t_n, entry.tile.t_r, entry.tile.t_c) == (
            tile.t_m, tile.t_n, tile.t_r, tile.t_c,
        )
        assert entry.cost.t_total == total

    def test_single_pair_matches_plain_loop(self):
        conv = conv_for(n=3, h=10, l=10, m=8, k=3)
        arch = arch_for(mb=1024, n_tle=4, n_tlt=2)
        ref = brute_plan_layer(
            conv, arch, "burst",
            partitions=(TlePartitionKind.KS_OFM,), schedules=(ScheduleKind.OS,),
        )
        got = plan_layer(
            conv, arch, "burst", fixed_tle=TlePartitionKind.KS_OFM, fixed_tlt=ScheduleKind.OS
        )
        assert ref is not None
        tile, cost = got.tile, got.cost
        assert cost.t_total == ref[0]
        assert (tile.t_m, tile.t_n, tile.t_r, tile.t_c) == (
            ref[3].t_m, ref[3].t_n, ref[3].t_r, ref[3].t_c,
        )

    def test_infeasible_pair_raises_plan_error(self):
        conv = conv_for(n=8, h=6, l=6, m=8, k=3)
        arch = arch_for(mb=128, n_tle=2, n_tlt=1)  # one full-depth filter needs 144 B
        with pytest.raises(PlanError):
            plan_layer(
                conv, arch, "burst", fixed_tle=TlePartitionKind.KS, fixed_tlt=ScheduleKind.WS
            )


def _cost_row(cost, i=None):
    values = (
        cost.t_total, cost.t_mac, cost.t_dram, cost.t_sw,
        cost.bursts_in, cost.bursts_w, cost.bursts_out,
        cost.alphas.a_in, cost.alphas.a_w, cost.alphas.a_out,
    )
    if i is None:
        return values
    return tuple(np.asarray(v).flat[i if np.ndim(v) else 0].item() for v in values)


class TestArrayPricing:
    """The search prices tile grids through the scalar cost functions with
    arrays in place of ints; every feasible cell must price identically."""

    @pytest.mark.parametrize("kwargs,n_tle,n_tlt,mb,_model", REFEREE_CASES)
    def test_array_calc_time_equals_scalar_bit_for_bit(self, kwargs, n_tle, n_tlt, mb, _model):
        conv = conv_for(**kwargs)
        arch = arch_for(mb=mb, n_tle=n_tle, n_tlt=n_tlt)
        priced = 0
        for p in PARTITION_ORDER:
            try:
                slice_ = tle_slicing(p, conv, n_tle)
            except Infeasible:
                continue
            for q in SCHEDULE_ORDER:
                tiles = []
                for t_r in range(1, slice_.tle_r + 1):
                    for t_c in range(1, conv.c + 1):
                        for t_n in range(1, conv.n + 1):
                            try:
                                t_m = get_filters(t_r, t_c, q, slice_.tle_w, n_tlt, t_n, conv, arch)
                                tiles.append(gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_))
                            except Infeasible:
                                continue
                if not tiles:
                    continue
                side = {
                    name: np.array([getattr(t, name) for t in tiles], dtype=np.int64)
                    for name in ("t_m", "t_n", "t_r", "t_c")
                }
                counts = filter_count(side["t_n"], q, slice_.tle_w, n_tlt, conv, arch)
                assert np.array_equal(np.broadcast_to(counts, side["t_m"].shape), side["t_m"])
                grid = tile_footprint(side["t_m"], side["t_n"], side["t_r"], side["t_c"], q, conv)
                for field in dataclasses.fields(TileConfig):
                    expected = [getattr(t, field.name) for t in tiles]
                    assert getattr(grid, field.name).tolist() == expected
                for mode in ("burst", "noburst"):
                    costs = calc_time(grid, q, conv, slice_, arch, mode)
                    for i, tile in enumerate(tiles):
                        ref = calc_time(tile, q, conv, slice_, arch, mode)
                        assert all(type(v) in (int, float) for v in _cost_row(ref))
                        assert _cost_row(costs, i) == _cost_row(ref)
                priced += len(tiles)
        assert priced > 0

    @pytest.mark.parametrize("kwargs,n_tle,n_tlt,mb,_model", REFEREE_CASES)
    def test_remodelled_grid_equals_scalar_bit_for_bit(self, kwargs, n_tle, n_tlt, mb, _model):
        # A grid priced once under one model and remodelled to the other
        # prices every feasible cell as scalar calc_time does under both.
        conv = conv_for(**kwargs)
        arch = arch_for(mb=mb, n_tle=n_tle, n_tlt=n_tlt)
        priced = 0
        for p in PARTITION_ORDER:
            try:
                slice_ = tle_slicing(p, conv, n_tle)
            except Infeasible:
                continue
            for q in SCHEDULE_ORDER:
                tiles = []
                for t_r in range(1, slice_.tle_r + 1):
                    for t_c in range(1, conv.c + 1):
                        for t_n in range(1, conv.n + 1):
                            try:
                                t_m = get_filters(t_r, t_c, q, slice_.tle_w, n_tlt, t_n, conv, arch)
                                tiles.append(gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_))
                            except Infeasible:
                                continue
                if not tiles:
                    continue
                side = {
                    name: np.array([getattr(t, name) for t in tiles], dtype=np.int64)
                    for name in ("t_m", "t_n", "t_r", "t_c")
                }
                grid = tile_footprint(side["t_m"], side["t_n"], side["t_r"], side["t_c"], q, conv)
                for first, other in (("burst", "noburst"), ("noburst", "burst")):
                    once = calc_time(grid, q, conv, slice_, arch, first)
                    for mode, costs in ((first, once), (other, remodel(once, grid, arch, other))):
                        moved = sum(move_times(once, grid, arch, mode))
                        assert moved.tobytes() == costs.t_dram.tobytes()
                        for i, tile in enumerate(tiles):
                            ref = calc_time(tile, q, conv, slice_, arch, mode)
                            assert _cost_row(costs, i) == _cost_row(ref)
                priced += len(tiles)
        assert priced > 0

    def test_winner_rebuild_checks_burst_counts(self, monkeypatch):
        # The winner's closed-form burst counts are re-counted over its byte
        # runs; a disagreement is an internal error, never a silent plan.
        conv = conv_for(n=3, h=10, l=10, m=8, k=3)
        arch = arch_for(mb=1024, n_tle=4, n_tlt=2)
        real = tsoplan.search.calc_burst_count
        monkeypatch.setattr(
            tsoplan.search, "calc_burst_count", lambda *args: real(*args) + 1
        )
        with pytest.raises(RuntimeError, match="disagree"):
            plan_layer(conv, arch, "burst")

    def test_winner_check_names_the_remodelled_time_model(self, monkeypatch):
        # A shared pass whose noburst totals drift from calc_time's is an
        # internal error naming the noburst model, never a silent table.
        conv = conv_for(n=3, h=10, l=10, m=8, k=3)
        arch = arch_for(mb=1024, n_tle=4, n_tlt=2)
        real = tsoplan.search.remodel

        def drifted(cost, tile, arch, model):
            out = real(cost, tile, arch, model)
            return dataclasses.replace(out, t_total=out.t_total * 1.5)

        monkeypatch.setattr(tsoplan.search, "remodel", drifted)
        with pytest.raises(RuntimeError, match="run-enumerated noburst costs disagree"):
            compare_strategies(ModelSpec(name="m", layers=(conv,)), arch, workers=1)


class TestWholeLayerResidency:
    def test_small_layer_is_kept_resident(self):
        # Everything fits one 8 KB scratchpad set, so any split only adds
        # CAS events and operand reloads.
        conv = conv_for(n=2, h=8, l=8, m=2, k=3)  # r = c = 6
        arch = arch_for(n_tle=1, n_tlt=1)
        entry = plan_layer(conv, arch, "burst")
        tile = entry.tile
        assert (tile.t_m, tile.t_n, tile.t_r, tile.t_c) == (2, 2, 6, 6)
        a = entry.cost.alphas
        assert (a.a_in, a.a_w, a.a_out) == (1, 1, 1)


class TestPlanErrors:
    def test_odd_cluster_count_cannot_pair_split(self):
        conv = conv_for()
        arch = arch_for(n_tle=3)
        with pytest.raises(PlanError) as err:
            plan_layer(conv, arch, "burst", fixed_tle=TlePartitionKind.KS_OFM)
        assert err.value.failures[0][0] == conv.name
        assert err.value.failures[0][1]  # the attempted pair is recorded

    def test_unsplittable_partition_is_reported_once(self):
        # One reason per partition that cannot split the layer, however
        # many schedules the restriction leaves; the compare column keeps it.
        conv = conv_for(name="a")
        arch = arch_for(n_tle=3)
        reason = "ksofm: ksofm partitioning needs an even TLE count, got 3"
        with pytest.raises(PlanError) as err:
            plan_layer(conv, arch, "burst", fixed_tle=TlePartitionKind.KS_OFM)
        assert err.value.failures == [("a", [reason])]
        cmp_ = compare_strategies(ModelSpec(name="m", layers=(conv,)), arch, workers=1)
        assert cmp_.reasons == {("a", "fixed_ksofm"): reason}

    def test_ws_with_tiny_weight_buffer(self):
        conv = conv_for(n=8, h=6, l=6, m=8, k=3)
        arch = arch_for(mb=128, n_tle=2, n_tlt=1)
        with pytest.raises(PlanError):
            plan_layer(conv, arch, "burst", fixed_tlt=ScheduleKind.WS)

    def test_message_groups_layers_by_reason(self):
        failures = [(name, ["ks: a"]) for name in "abcde"] + [("f", ["ks: b"]), ("g", [])]
        err = PlanError(failures)
        assert err.failures == failures
        assert str(err) == (
            "no feasible plan: layers 'a', 'b', 'c' and 2 more: ks: a"
            " | layer 'f': ks: b | layer 'g': nothing applicable"
        )

    def test_whole_model_failure_lists_every_layer(self):
        model = ModelSpec(name="m", layers=(conv_for(name="a"), conv_for(name="b")))
        arch = arch_for(n_tle=3)
        with pytest.raises(PlanError) as err:
            tso(model, arch, fixed_tle=TlePartitionKind.KS_OFM)
        assert [f[0] for f in err.value.failures] == ["a", "b"]


class TestDeterminismAndOrdering:
    def test_workers_do_not_change_the_plan(self):
        model = random_toy_model(7, n_layers=4)
        arch = arch_for(n_tle=2, n_tlt=2)
        sequential = tso(model, arch, workers=1)
        threaded = tso(model, arch, workers=4)
        assert sequential.entries == threaded.entries
        assert sequential.stats.candidates_evaluated == threaded.stats.candidates_evaluated

    def test_no_thread_is_started_for_any_worker_count(self, monkeypatch, write_configs, tmp_path):
        model = random_toy_model(7, n_layers=4)
        arch = arch_for(n_tle=2, n_tlt=2)
        assert len({dataclasses.replace(conv, name="") for conv in model.layers}) >= 2
        model_path, arch_path = write_configs(model, arch)

        def refuse(thread):
            raise AssertionError(f"the search started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        tso(model, arch, workers=4)
        compare_strategies(model, arch, workers=4)
        out = tmp_path / "plan.json"
        argv = ["--model", model_path, "--arch", arch_path, "--threads", "8", "--out", str(out)]
        assert main(["plan", *argv]) == 0
        assert out.read_bytes()

    def test_single_cluster_ties_are_flagged_and_first_wins(self):
        # With one TLE the KS and OFM slices are the same shape, so their
        # best candidates tie exactly; the earlier partition must win.
        model = ModelSpec(name="m", layers=(conv_for(n=2, h=8, l=8, m=2, k=3),))
        arch = arch_for(n_tle=1, n_tlt=1)
        plan = tso(model, arch)
        assert plan.stats.tie_layers == ("t",)
        assert plan.entries["t"].slice.kind is TlePartitionKind.KS

    def test_a_tie_broken_by_a_later_cheaper_pair_is_not_flagged(self):
        # ks/is and ks/os tie exactly, but ofm/ws is strictly cheaper and
        # wins alone, so the layer has no tie.
        conv = ConvLayerSpec(
            name="d122", n=59, h=31, l=31, m=1, k=5, s=1, p=0, r=27, c=27, elem_bytes=2
        )
        arch = nmp_profile()
        (table,) = tsoplan.search._table(conv, arch, ("burst",))
        totals = {(c.partition, c.schedule): c.entry.cost.t_total for c in table}
        assert totals[(TlePartitionKind.KS, ScheduleKind.IS)] == totals[
            (TlePartitionKind.KS, ScheduleKind.OS)
        ]
        assert min(totals.values()) == totals[(TlePartitionKind.OFM, ScheduleKind.WS)]
        assert list(totals.values()).count(min(totals.values())) == 1
        plan = tso(ModelSpec(name="m", layers=(conv,)), arch)
        assert plan.stats.tie_layers == ()
        assert plan.entries["d122"].slice.kind is TlePartitionKind.OFM
        assert plan.entries["d122"].schedule is ScheduleKind.WS

    def test_restrictions_never_beat_the_free_search(self):
        arch = nmp_profile()
        for seed in range(4):
            model = random_toy_model(seed)
            free = tso(model, arch)
            free_total = sum(e.cost.t_total for e in free.entries.values())
            for fixed_tle in PARTITION_ORDER:
                try:
                    fixed = tso(model, arch, fixed_tle=fixed_tle)
                except PlanError:
                    continue
                assert sum(e.cost.t_total for e in fixed.entries.values()) >= free_total
            for fixed_tlt in SCHEDULE_ORDER:
                try:
                    fixed = tso(model, arch, fixed_tlt=fixed_tlt)
                except PlanError:
                    continue
                assert sum(e.cost.t_total for e in fixed.entries.values()) >= free_total


class TestCompareStrategies:
    def test_free_search_wins_every_row(self):
        arch = nmp_profile()
        for seed in (11, 12):
            model = random_toy_model(seed)
            cmp_ = compare_strategies(model, arch)
            for layer in cmp_.layers:
                row = cmp_.cells[layer]
                best = row["tso_burst"]
                assert best is not None
                for column, value in row.items():
                    if value is not None:
                        assert value >= best

    def test_totals_and_speedups(self):
        model = ModelSpec(name="m", layers=(conv_for(name="a"), conv_for(name="b", m=16)))
        cmp_ = compare_strategies(model, nmp_profile())
        for column in COMPARE_COLUMNS:
            cells = [cmp_.cells[layer][column] for layer in cmp_.layers]
            if any(v is None for v in cells):
                assert cmp_.totals[column] is None
                assert cmp_.speedups[column] is None
            else:
                assert cmp_.totals[column] == sum(cells)
                assert cmp_.speedups[column] == cmp_.totals[column] / cmp_.totals["tso_burst"]

    def test_infeasible_column_keeps_a_reason(self):
        model = ModelSpec(name="m", layers=(conv_for(name="a"),))
        cmp_ = compare_strategies(model, arch_for(n_tle=3))
        assert cmp_.cells["a"]["fixed_ksofm"] is None
        assert cmp_.totals["fixed_ksofm"] is None
        assert cmp_.reasons[("a", "fixed_ksofm")]
        assert cmp_.cells["a"]["tso_burst"] is not None

    def test_partition_preference_flips_with_depth(self):
        # Shallow wide layers spread output rows; deep narrow layers spread
        # filters. Both orderings must show up in the comparison table.
        early = conv_for(name="early", n=3, h=128, l=128, m=8, k=3)
        late = conv_for(name="late", n=256, h=6, l=6, m=512, k=3)
        cmp_ = compare_strategies(ModelSpec(name="m", layers=(early, late)), nmp_profile())
        assert cmp_.cells["early"]["fixed_ofm"] < cmp_.cells["early"]["fixed_ks"]
        assert cmp_.cells["late"]["fixed_ks"] < cmp_.cells["late"]["fixed_ofm"]

    def test_noburst_winner_is_recosted_under_burst(self):
        # The noburst column must be priced with burst overheads so the two
        # search modes are comparable; it can therefore never beat the
        # burst-aware winner.
        model = random_toy_model(3)
        cmp_ = compare_strategies(model, nmp_profile())
        for layer in cmp_.layers:
            assert cmp_.cells[layer]["tso_noburst"] >= cmp_.cells[layer]["tso_burst"]


class TestDominanceOnRandomModels:
    def test_plan_beats_every_enumerated_alternative(self):
        # Spot-check optimality against the plain-loop referee on random
        # layers small enough to enumerate.
        rng = random.Random(99)
        arch = arch_for(n_tle=2, n_tlt=2, mb=2048)
        for _ in range(6):
            conv = conv_for(
                n=rng.randint(1, 5),
                h=rng.randint(4, 12),
                l=rng.randint(4, 12),
                m=rng.randint(1, 8),
                k=rng.choice([1, 3]),
                s=rng.choice([1, 2]),
                p=rng.choice([0, 1]),
                e=rng.choice([1, 2]),
            )
            if conv.r < 1 or conv.c < 1:
                continue
            ref = brute_plan_layer(conv, arch, "burst")
            if ref is None:
                with pytest.raises(PlanError):
                    plan_layer(conv, arch, "burst")
                continue
            entry = plan_layer(conv, arch, "burst")
            assert entry.cost.t_total == ref[0]


class TestSweepCounts:
    """Each distinct layer geometry is swept once per pair a call needs."""

    @pytest.fixture()
    def sweeps(self, monkeypatch):
        calls = []
        real = tsoplan.search._grid_search

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tsoplan.search, "_grid_search", counted)
        return calls

    # Two geometries, each under two names.
    MODEL = ModelSpec(
        name="m",
        layers=(
            conv_for(name="a"),
            conv_for(name="b", m=16),
            conv_for(name="a2"),
            conv_for(name="b2", m=16),
        ),
    )

    def test_compare_sweeps_9_per_geometry(self, sweeps):
        # One sweep of each pair prices both time models.
        compare_strategies(self.MODEL, arch_for(n_tle=4), workers=1)
        assert len(sweeps) == 9 * 2

    def test_compare_skips_the_unsplittable_partition(self, sweeps):
        # KS_OFM needs an even TLE count: 6 pairs remain.
        compare_strategies(self.MODEL, arch_for(n_tle=3), workers=1)
        assert len(sweeps) == 6 * 2

    def test_tso_sweeps_9_per_geometry(self, sweeps):
        tso(self.MODEL, arch_for(n_tle=4), workers=2)
        assert len(sweeps) == 9 * 2

    def test_single_pair_sweeps_once_per_geometry(self, sweeps):
        tso(
            self.MODEL, arch_for(n_tle=4), workers=1,
            fixed_tle=TlePartitionKind.OFM, fixed_tlt=ScheduleKind.WS,
        )
        assert len(sweeps) == 2

    def test_plan_layer_with_fixed_partition_sweeps_3(self, sweeps):
        plan_layer(conv_for(), arch_for(n_tle=4), "burst", fixed_tle=TlePartitionKind.KS)
        assert len(sweeps) == 3


class TestOncePerFixedKey:
    """Each axis's classes are listed once where its key is fixed (t_c per
    geometry, t_r per partition, t_n per pair), and each distinct winning
    tile of a pair has its byte runs counted once, whatever the time models."""

    # r = c = 32 and n = 64 on 4 TLEs: every partition's capped box, 8 to 32
    # rows by 32 columns by 64 channels, is priced one tile per class.
    MODEL = ModelSpec(name="m", layers=(conv_for(n=64, h=34, l=34, m=64),))

    @staticmethod
    def count(monkeypatch, name):
        calls = []
        real = getattr(tsoplan.search, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tsoplan.search, name, counted)
        return calls

    def test_compare_lists_t_c_once_t_r_per_partition_t_n_per_pair(self, monkeypatch):
        listings = self.count(monkeypatch, "_steps")
        compare_strategies(self.MODEL, arch_for())
        assert len(listings) == 1 + 3 + 9

    def test_a_fixed_schedule_lists_t_n_once_per_partition(self, monkeypatch):
        listings = self.count(monkeypatch, "_steps")
        tso(self.MODEL, arch_for(), fixed_tlt=ScheduleKind.OS)
        assert len(listings) == 1 + 3 + 3

    def test_a_winner_shared_by_both_models_is_recounted_once(self, monkeypatch):
        recounts = self.count(monkeypatch, "calc_burst_count")
        (burst,), (noburst,) = tsoplan.search._table(
            self.MODEL.layers[0], arch_for(), BOTH_MODELS,
            fixed_tle=TlePartitionKind.OFM, fixed_tlt=ScheduleKind.WS,
        )
        assert burst.entry.tile == noburst.entry.tile
        assert len(recounts) == 3  # one per tile kind


class TestCompareColumnReferee:
    """Every compare column equals the plain-loop search under its restriction."""

    @pytest.mark.parametrize("kwargs,n_tle,n_tlt,mb,_model", REFEREE_CASES)
    def test_columns_match_plain_loop(self, kwargs, n_tle, n_tlt, mb, _model):
        conv = conv_for(**kwargs)
        arch = arch_for(mb=mb, n_tle=n_tle, n_tlt=n_tlt)
        cmp_ = compare_strategies(ModelSpec(name="m", layers=(conv,)), arch, workers=1)
        expected = {
            "tso_burst": brute_plan_layer(conv, arch, "burst"),
            "tso_noburst": brute_plan_layer(conv, arch, "noburst"),
        }
        for p in PARTITION_ORDER:
            expected[f"fixed_{p.value}"] = brute_plan_layer(conv, arch, "burst", partitions=(p,))
        for q in SCHEDULE_ORDER:
            expected[f"fixed_{q.value}"] = brute_plan_layer(conv, arch, "burst", schedules=(q,))
        assert tuple(expected) == COMPARE_COLUMNS
        for column, ref in expected.items():
            got = cmp_.cells[conv.name][column]
            if ref is None:
                assert got is None
                assert cmp_.reasons[(conv.name, column)]
                continue
            total, p, q, tile, _ = ref
            if column == "tso_noburst":
                slice_ = tle_slicing(p, conv, arch.n_tle)
                total = calc_time(tile, q, conv, slice_, arch, "burst").t_total
            assert got == total, column
            assert (conv.name, column) not in cmp_.reasons


class TestDuplicateGeometries:
    """Renamed copies of a layer share its search and get the same plan."""

    ARCH = arch_for(n_tle=2, n_tlt=2)

    @pytest.fixture(scope="class")
    def model(self):
        # Seed 6 on this fabric has one tied layer (l0) and two untied ones.
        base = random_toy_model(6).layers
        layers = []
        for conv in base:
            layers += [conv, dataclasses.replace(conv, name=conv.name + "_dup")]
        layers.append(dataclasses.replace(base[0], name="l0_again"))
        return ModelSpec(name="dups", layers=tuple(layers))

    def test_duplicates_get_equal_entries_and_tie_flags(self, model):
        plan = tso(model, self.ARCH, workers=1)
        ties = set(plan.stats.tie_layers)
        assert ties == {"l0", "l0_dup", "l0_again"}
        for name, entry in plan.entries.items():
            original = name.split("_")[0]
            assert entry is plan.entries[original]
            assert (name in ties) == (original in ties)

    def test_stats_count_every_layer(self, model):
        plan = tso(model, self.ARCH, workers=1)
        singles = [
            tso(ModelSpec(name="one", layers=(conv,)), self.ARCH, workers=1).stats
            for conv in model.layers
        ]
        assert plan.stats.candidates_evaluated == sum(s.candidates_evaluated for s in singles)
        assert plan.stats.candidates_infeasible == sum(s.candidates_infeasible for s in singles)

    def test_worker_count_does_not_change_entries(self, model):
        sequential = tso(model, self.ARCH, workers=1)
        threaded = tso(model, self.ARCH, workers=4)
        assert sequential.entries == threaded.entries
        assert sequential.stats.tie_layers == threaded.stats.tie_layers
        assert compare_strategies(model, self.ARCH, workers=1) == compare_strategies(
            model, self.ARCH, workers=4
        )


def plain_grid(conv, arch, slice_, q, model):
    """Plain loop over the whole (t_r, t_c, t_n) box of one pair: the winner
    (t_r, t_c, t_n, t_m), its total, the feasible and the total cell counts,
    plus every feasible cell's total (for the coverage checks)."""
    best, best_total, totals = None, np.inf, {}
    for t_r in range(1, slice_.tle_r + 1):
        for t_c in range(1, conv.c + 1):
            for t_n in range(1, conv.n + 1):
                try:
                    t_m = get_filters(t_r, t_c, q, slice_.tle_w, arch.n_tlt, t_n, conv, arch)
                    tile = gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_)
                except Infeasible:
                    continue
                total = calc_time(tile, q, conv, slice_, arch, model).t_total
                totals[(t_r, t_c, t_n)] = total
                if total < best_total:
                    best, best_total = (t_r, t_c, t_n, t_m), total
    n_candidates = slice_.tle_r * conv.c * conv.n
    return (best, best_total, len(totals), n_candidates), totals


# The search as built, with chunks so small that every grid of more than
# 64 or 3 cells prices only the cells the walk finds fit, and pricing one
# tile per class on every grid, as one box or as the walked classes that
# fit, counting the feasible cells by a walk of 3-pair chunks.
SEARCH_PATHS = {
    "as_built": {},
    "walk": {"_CHUNK_CELLS": 64},
    "small_chunks": {"_CHUNK_CELLS": 3},
    "classes": {"_SMALL_BOX_CELLS": 0},
    "class_walk": {"_SMALL_BOX_CELLS": 0, "_CHUNK_CELLS": 3},
}


BOTH_MODELS = ("burst", "noburst")


def grid_row(cell):
    """A table cell as plain_grid's (winner, total, feasible, candidates)."""
    if cell.entry is None:
        return None, np.inf, cell.n_feasible, cell.n_candidates
    tile = cell.entry.tile
    winner = (tile.t_r, tile.t_c, tile.t_n, tile.t_m)
    return winner, cell.entry.cost.t_total, cell.n_feasible, cell.n_candidates


def grid_results(conv, arch, slice_, q, model):
    """The pair's _table cell for ``model`` on every search path, alone and
    from one pass shared by both time models.  The shared pass's result for
    the other model must be the plain loop's for that model."""
    mine = BOTH_MODELS.index(model)
    other, _ = plain_grid(conv, arch, slice_, q, BOTH_MODELS[1 - mine])
    results = {}
    for name, constants in SEARCH_PATHS.items():
        with pytest.MonkeyPatch.context() as mp:
            for constant, value in constants.items():
                mp.setattr(tsoplan.search, constant, value)
            pair = dict(fixed_tle=slice_.kind, fixed_tlt=q)
            ((alone,),) = tsoplan.search._table(conv, arch, (model,), **pair)
            shared = tsoplan.search._table(conv, arch, BOTH_MODELS, **pair)
        rows = [grid_row(cell) for (cell,) in shared]
        assert rows[1 - mine] == other, name
        results[name] = grid_row(alone)
        results[name + "/shared"] = rows[mine]
    return results


def arch_with(mb0, mb1, mb2, n_tle=1, n_tlt=1, cas_ns=14.0, sw_ns=0.0):
    return dataclasses.replace(
        arch_for(n_tle=n_tle, n_tlt=n_tlt, cas_ns=cas_ns, sw_ns=sw_ns),
        mb0_bytes=mb0, mb1_bytes=mb1, mb2_bytes=mb2,
    )


# Named grids for what the drawn ones may miss: (conv, arch, partition, schedule, model).
FEATURE_CASES = {
    # mb1 holds all 32 filters up to depth 16, but mb2 holds only 16
    # one-pixel outputs, which mb1 brings t_m down to from depth 31 on.
    "os_mb2_binds": (
        conv_for(n=40, h=4, l=4, m=32, k=1), arch_with(8192, 1024, 32),
        TlePartitionKind.KS, ScheduleKind.OS, "burst",
    ),
    # Two cells tie exactly: (11, 4, 2) and (11, 6, 1).  The first in
    # (t_r, t_c, t_n) order wins, not the first in (t_r, t_n, t_c) order.
    "exact_tie": (
        conv_for(n=2, h=9, l=10, m=2, k=1, p=1), arch_with(256, 256, 256, n_tle=2, sw_ns=100.0),
        TlePartitionKind.KS, ScheduleKind.WS, "noburst",
    ),
    "strided_padded_bytes": (
        conv_for(n=5, h=13, l=11, m=6, k=3, s=2, p=1, e=1),
        arch_with(300, 200, 96, n_tle=2, n_tlt=2),
        TlePartitionKind.OFM, ScheduleKind.IS, "burst",
    ),
    "nothing_fits": (
        conv_for(n=4, h=6, l=6, m=4, k=3), arch_with(8192, 64, 8192),
        TlePartitionKind.KS, ScheduleKind.WS, "burst",
    ),
}


class TestEnumerationReferee:
    """_grid_search returns what a plain loop over the whole tile box returns:
    the winner, its total and the feasible and total cell counts."""

    @pytest.mark.parametrize("kwargs,n_tle,n_tlt,mb,model", REFEREE_CASES)
    def test_referee_cases(self, kwargs, n_tle, n_tlt, mb, model):
        conv = conv_for(**kwargs)
        arch = arch_for(mb=mb, n_tle=n_tle, n_tlt=n_tlt)
        for p in PARTITION_ORDER:
            try:
                slice_ = tle_slicing(p, conv, n_tle)
            except Infeasible:
                continue
            for q in SCHEDULE_ORDER:
                expected, _ = plain_grid(conv, arch, slice_, q, model)
                for path, got in grid_results(conv, arch, slice_, q, model).items():
                    assert got == expected, (p, q, path)

    @pytest.mark.parametrize("name", FEATURE_CASES)
    def test_feature_cases(self, name):
        conv, arch, p, q, model = FEATURE_CASES[name]
        slice_ = tle_slicing(p, conv, arch.n_tle)
        expected, totals = plain_grid(conv, arch, slice_, q, model)
        for path, got in grid_results(conv, arch, slice_, q, model).items():
            assert got == expected, path
        if name == "os_mb2_binds":
            assert min(t_n for _, _, t_n in totals) == 31
        if name == "exact_tie":
            tied = sorted(cell for cell, total in totals.items() if total == expected[1])
            assert tied == [(11, 4, 2), (11, 6, 1)]
            assert expected[0][:3] == (11, 4, 2)
        if name == "strided_padded_bytes":
            assert 0 < expected[2] < expected[3]
        if name == "nothing_fits":
            assert expected == (None, np.inf, 0, expected[3])

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(
            st.integers(1, 10), st.integers(1, 12), st.integers(1, 12), st.integers(1, 40),
            st.sampled_from([1, 2, 3, 5]), st.integers(1, 3), st.integers(0, 2),
            st.sampled_from([1, 2]),
        ),
        fabric=st.tuples(st.sampled_from([1, 2, 3, 4]), st.sampled_from([1, 2, 4])),
        mbs=st.tuples(*[st.sampled_from([16, 48, 100, 256, 700, 2048])] * 3),
        p=st.sampled_from(PARTITION_ORDER),
        q=st.sampled_from(SCHEDULE_ORDER),
        model=st.sampled_from(["burst", "noburst"]),
        times=st.tuples(st.sampled_from([0.0, 14.0]), st.sampled_from([0.0, 100.0])),
    )
    # Always drawn: an OS grid whose feasible depths start at 22 (mb2 binds),
    # and the exact tie of FEATURE_CASES.
    @example(
        dims=(40, 4, 4, 32, 1, 1, 0, 2), fabric=(1, 1), mbs=(2048, 1024, 48),
        p=TlePartitionKind.KS, q=ScheduleKind.OS, model="burst", times=(14.0, 0.0),
    )
    @example(
        dims=(2, 9, 10, 2, 1, 1, 1, 2), fabric=(2, 1), mbs=(256, 256, 256),
        p=TlePartitionKind.KS, q=ScheduleKind.WS, model="noburst", times=(14.0, 100.0),
    )
    def test_drawn_grids(self, dims, fabric, mbs, p, q, model, times):
        n, h, l, m, k, s, pad, e = dims
        if h + 2 * pad < k or l + 2 * pad < k:
            return
        conv = conv_for(n=n, h=h, l=l, m=m, k=k, s=s, p=pad, e=e)
        arch = arch_with(*mbs, n_tle=fabric[0], n_tlt=fabric[1], cas_ns=times[0], sw_ns=times[1])
        try:
            slice_ = tle_slicing(p, conv, arch.n_tle)
        except Infeasible:
            return
        expected, _ = plain_grid(conv, arch, slice_, q, model)
        for path, got in grid_results(conv, arch, slice_, q, model).items():
            assert got == expected, path


class TestPricedCells:
    """The search prices one tile per class, not the whole tile box."""

    def test_inception_prices_at_most_0_15x_the_feasible_cells(self, monkeypatch):
        # One tile per class: about 0.12x the feasible cells here, which
        # would be 5.2x had the whole box been priced.
        priced, feasible = [], []
        real_calc, real_grid = tsoplan.search.calc_time, tsoplan.search._grid_search

        def counted_calc(tile, *args):
            sides = (tile.t_m, tile.t_n, tile.t_r, tile.t_c)
            if any(np.ndim(side) for side in sides):  # a grid, not a winner's rebuild
                priced.append(int(np.prod(np.broadcast_shapes(*map(np.shape, sides)))))
            return real_calc(tile, *args)

        def counted_grid(*args):
            n_feasible, winners = real_grid(*args)
            feasible.append(n_feasible)
            return n_feasible, winners

        monkeypatch.setattr(tsoplan.search, "calc_time", counted_calc)
        monkeypatch.setattr(tsoplan.search, "_grid_search", counted_grid)
        tso(sample_model("inceptionv3"), nmp_profile(), workers=1)
        assert sum(feasible) > 6_000_000
        assert sum(priced) <= 0.15 * sum(feasible)


class TestClassPricingAtModelScale:
    """Pricing one tile per class gives every cell of a layer geometry's
    table exactly as pricing every scratchpad-capped box whole does: the
    same winner, cost, reason and feasible and candidate counts."""

    CASES = {
        "inceptionv3_nmp": ("inceptionv3", "nmp"),
        "random7_nmp": (7, "nmp"),
        "random7_2x2_1k": (7, "2x2_1k"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_class_cells_equal_whole_box_cells(self, case, monkeypatch):
        source, fabric = self.CASES[case]
        model = sample_model(source) if isinstance(source, str) else random_toy_model(
            source, n_layers=60
        )
        arch = RANDOM_FABRICS[fabric]
        geometries = {dataclasses.replace(conv, name=""): conv for conv in model.layers}
        listings = TestOncePerFixedKey.count(monkeypatch, "_steps")
        by_class = [
            tsoplan.search._table(conv, arch, BOTH_MODELS) for conv in geometries.values()
        ]
        assert listings  # some box of the model is priced one tile per class
        monkeypatch.setattr(tsoplan.search, "_SMALL_BOX_CELLS", 1 << 62)
        whole = [tsoplan.search._table(conv, arch, BOTH_MODELS) for conv in geometries.values()]
        assert by_class == whole


class TestChunks:
    """_chunks enumerates (row, rank) in row-major order, at most
    _CHUNK_CELLS pairs per chunk."""

    @pytest.mark.parametrize(
        "counts",
        [[], [0, 0], [3], [0, 2, 0, 0, 1, 0], [0, 200, 5, 0], [64, 64], [1] * 130],
    )
    def test_chunks_enumerate_rows_in_order(self, monkeypatch, counts):
        monkeypatch.setattr(tsoplan.search, "_CHUNK_CELLS", 64)
        chunks = list(tsoplan.search._chunks(np.array(counts, dtype=np.int64)))
        assert all(0 < rows.size == ranks.size <= 64 for rows, ranks in chunks)
        got = [(int(row), int(rank)) for rows, ranks in chunks for row, rank in zip(rows, ranks)]
        assert got == [(row, rank) for row, count in enumerate(counts) for rank in range(count)]


STEP_CONV = conv_for(n=40, h=9, l=7, m=32, k=3, s=2)
STEP_ARCH = arch_with(8192, 1024, 32)


def depth_key(q):
    """ceil(n/t) and filter_count's t_m, as _class_keys keys t_n."""
    conv, arch = STEP_CONV, STEP_ARCH
    return lambda t: (-(-conv.n // t), filter_count(t, q, conv.m, 1, conv, arch))


# Keys built the way _class_keys builds them: ceil(N/t) trip counts,
# window-coverage flags and filter_count's t_m, each monotone in t.
STEP_KEYS = {
    "ceil_37": lambda t: (-(-37 // t),),
    "ceil_10**6": lambda t: (-(-10**6 // t),),
    "covers_50": lambda t: ((t - 1) * 2 + 3 >= 50,),
    "rows": lambda t: (-(-13 // t), -(-25 // t), (t - 1) * 2 + 3 >= 50),
    "depth_is": depth_key(ScheduleKind.IS),
    "depth_os": depth_key(ScheduleKind.OS),
    "depth_ws": depth_key(ScheduleKind.WS),
}


class TestSteps:
    """_steps lists side 1 and every side where a monotone key changes,
    as a plain scan over every side does, both when its first pass reads
    every side and when it bisects past _CHUNK_CELLS."""

    def test_ws_depth_key_has_a_scalar_filter_count(self):
        assert np.ndim(STEP_KEYS["depth_ws"](np.arange(1, 9))[1]) == 0

    @pytest.mark.parametrize(
        "hi,chunk", [(1, 1 << 16), (2, 1 << 16), (300, 1 << 16), (70_000, 1 << 16),
                     (1, 1), (2, 1), (300, 1), (300, 8)],
    )
    @pytest.mark.parametrize("name", STEP_KEYS)
    def test_steps_match_a_plain_scan(self, monkeypatch, name, hi, chunk):
        monkeypatch.setattr(tsoplan.search, "_CHUNK_CELLS", chunk)
        key = STEP_KEYS[name]
        keys = [key(t) for t in range(1, hi + 1)]
        expected = [1] + [t for t in range(2, hi + 1) if keys[t - 1] != keys[t - 2]]
        got = tsoplan.search._steps(key, hi)
        assert got[0] == 1 and (np.diff(got) > 0).all()
        assert got.tolist() == expected


class TestCountMemory:
    """A class-priced grid's feasible tiles are counted over every side in
    blocks, so no array of the count holds every t_r or every t_c."""

    @pytest.mark.parametrize("tall", [True, False])
    def test_count_holds_no_array_of_every_side(self, tall):
        side = 2**22
        conv = conv_for(n=1, h=side if tall else 1, l=1 if tall else side, m=1, k=1)
        big = 2**31 - 1
        arch = arch_with(big, big, big, n_tle=1, n_tlt=1)
        tracemalloc.start()
        try:
            ((cell,),) = tsoplan.search._table(
                conv, arch, ("burst",), fixed_tle=TlePartitionKind.KS, fixed_tlt=ScheduleKind.OS
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Every one-channel tile of one row or column fits.
        tile = cell.entry.tile
        assert (tile.t_r, tile.t_c, tile.t_n) == ((side, 1, 1) if tall else (1, side, 1))
        assert cell.n_feasible == side
        assert peak < 8 * side  # smaller than one int64 array of every side


class TestClassLemma:
    """No tile of the whole box costs less than the first tile of its class,
    or fits where that tile does not: the two share t_m, move counts and
    software time, and the first tile's bursts and MAC time are no larger."""

    @staticmethod
    def price(conv, arch, slice_, q, model, sides):
        """The tile's t_m, and its cost or None if it does not fit."""
        t_r, t_c, t_n = sides
        t_m = filter_count(t_n, q, slice_.tle_w, arch.n_tlt, conv, arch)
        try:
            tile = gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_) if t_m else None
        except Infeasible:
            tile = None
        return t_m, None if tile is None else calc_time(tile, q, conv, slice_, arch, model)

    @settings(max_examples=150, deadline=None)
    @given(
        dims=st.tuples(
            st.integers(1, 16), st.integers(1, 14), st.integers(1, 14), st.integers(1, 40),
            st.sampled_from([1, 2, 3, 5]), st.integers(1, 3), st.integers(0, 2),
            st.sampled_from([1, 2]),
        ),
        fabric=st.tuples(st.sampled_from([1, 2, 3, 4]), st.sampled_from([1, 2, 4])),
        mbs=st.tuples(*[st.sampled_from([16, 48, 100, 256, 700, 2048])] * 3),
        p=st.sampled_from(PARTITION_ORDER),
        q=st.sampled_from(SCHEDULE_ORDER),
        model=st.sampled_from(["burst", "noburst"]),
        times=st.tuples(st.sampled_from([0.0, 14.0]), st.sampled_from([0.0, 100.0])),
    )
    # Always drawn: a padded map whose windows cover all rows and columns
    # from side 8 on, inside the ceil(10/t) class 5..9.
    @example(
        dims=(4, 10, 10, 4, 3, 1, 1, 2), fabric=(1, 1), mbs=(2048, 2048, 2048),
        p=TlePartitionKind.KS, q=ScheduleKind.OS, model="burst", times=(14.0, 0.0),
    )
    def test_no_tile_beats_its_class_first(self, dims, fabric, mbs, p, q, model, times):
        n, h, l, m, k, s, pad, e = dims
        if h + 2 * pad < k or l + 2 * pad < k:
            return
        conv = conv_for(n=n, h=h, l=l, m=m, k=k, s=s, p=pad, e=e)
        arch = arch_with(*mbs, n_tle=fabric[0], n_tlt=fabric[1], cas_ns=times[0], sw_ns=times[1])
        try:
            slice_ = tle_slicing(p, conv, arch.n_tle)
        except Infeasible:
            return
        grid = (slice_.tle_r, conv.c, conv.n)
        keys = tsoplan.search._class_keys(conv, arch, slice_, q)
        firsts = [tsoplan.search._steps(key, hi) for key, hi in zip(keys, grid)]
        priced = {}
        for cell in np.ndindex(*grid):
            cell = tuple(side + 1 for side in cell)
            first = tuple(
                int(sides[np.searchsorted(sides, side, side="right") - 1])
                for sides, side in zip(firsts, cell)
            )
            for key in (cell, first):
                if key not in priced:
                    priced[key] = self.price(conv, arch, slice_, q, model, key)
            (m_cell, cost), (m_first, first_cost) = priced[cell], priced[first]
            assert m_cell == m_first, (cell, first)
            if cost is None:
                continue
            assert first_cost is not None, (cell, first)
            assert (first_cost.alphas, first_cost.t_sw) == (cost.alphas, cost.t_sw), (cell, first)
            for field in ("bursts_in", "bursts_w", "bursts_out", "t_mac", "t_total"):
                assert getattr(first_cost, field) <= getattr(cost, field), (field, cell, first)


class TestInt64Bound:
    """A layer is priced exactly up to n_tle*m*n*r*c*k*k = 2**61 and
    n*(h+2p)*(l+2p) = 2**61; one more output row past either is refused."""

    BOUND = 2**61

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_layers_just_inside_the_bound_plan(self, data):
        n_tle = data.draw(st.sampled_from([1, 2, 4]))
        k = data.draw(st.integers(1, 3))
        s = data.draw(st.integers(1, 3))
        p = data.draw(st.integers(0, (k - 1) // 2))  # keeps h and l >= 1 at r = c = 1
        e = data.draw(st.sampled_from([1, 2]))
        side_max = (INT_MAX + 2 * p - k) // s + 1  # largest r or c with h or l <= INT_MAX
        per_cell = n_tle * k * k
        n = data.draw(st.integers(1, min(INT_MAX, self.BOUND // per_cell)))
        m = data.draw(st.integers(1, min(INT_MAX, self.BOUND // (per_cell * n))))
        # c is large enough that the row count reaching the bound is below side_max.
        c_lo = -(-self.BOUND // (per_cell * n * m * side_max))
        assume(c_lo <= min(side_max, self.BOUND // (per_cell * n * m)))
        c = data.draw(st.integers(c_lo, min(side_max, self.BOUND // (per_cell * n * m))))
        l_pad = (c - 1) * s + k
        h_pad_max = self.BOUND // (n * l_pad)
        assume(h_pad_max >= k)
        r = min(self.BOUND // (per_cell * n * m * c), (h_pad_max - k) // s + 1)
        assume(r < side_max)

        def layer(rows):
            h = (rows - 1) * s + k - 2 * p
            return conv_for(name="big", n=n, h=h, l=l_pad - 2 * p, m=m, k=k, s=s, p=p, e=e)

        inside, outside = layer(r), layer(r + 1)
        assert (inside.r, inside.c, outside.r) == (r, c, r + 1)
        arch = arch_for(mb=1024, n_tle=n_tle, n_tlt=2, sw_ns=1.0)
        model = data.draw(st.sampled_from(["burst", "noburst"]))
        entry = plan_layer(inside, arch, model)  # build_entry re-prices every pair's winner
        assert entry.cost.alphas.a_in >= 1
        with pytest.raises(ConfigError, match="^layer 'big': "):
            plan_layer(outside, arch, model)
