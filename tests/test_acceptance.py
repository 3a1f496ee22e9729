"""Acceptance gate: one test per headline claim the package must uphold.

Each test is self-contained, pins its tolerance (exact unless stated), and
asserts its own runtime budget.  The terminal summary prints one line per
criterion.
"""

import json
import time

from tsoplan.cli import main
from tsoplan.configs import ArchConfig, ConvLayerSpec, ModelSpec, nmp_profile
from tsoplan.costmodel import (
    TileKind,
    calc_burst_count,
    calc_data_transfer,
    calc_time,
    compute_alphas,
    tile_mac_time,
)
from tsoplan.search import (
    PARTITION_ORDER,
    SCHEDULE_ORDER,
    PlanError,
    plan_layer,
    tso,
)
from tsoplan.simulator import simulate_schedule
from tsoplan.slicing import (
    Infeasible,
    ScheduleKind,
    TleSlice,
    TlePartitionKind,
    gen_tile,
    get_filters,
    ifm_tile_dims,
    tle_slicing,
)
from tsoplan.report import roofline_points
from tsoplan.util import ceil_div

from _models import random_toy_model, sample_model

LAYER5 = ConvLayerSpec(
    name="l5", n=80, h=73, l=73, m=192, k=3, s=1, p=0, r=71, c=71, elem_bytes=2
)

FIG1_MAP = ConvLayerSpec(
    name="map", n=1, h=128, l=128, m=1, k=1, s=1, p=0, r=128, c=128, elem_bytes=2
)


def arch_for(n_tle=4, n_tlt=8, burst=128):
    return ArchConfig(
        n_tle=n_tle, n_tlt=n_tlt, mb0_bytes=8192, mb1_bytes=8192, mb2_bytes=8192,
        datapath_bits=128, freq_hz=1e9, cas_ns=14.0, bw_bytes_per_s=17e9,
        burst_bytes=burst, sw_overhead_ns=0.0,
    )


def _fig1_tiling(t_r, t_c):
    arch = arch_for()
    tile = gen_tile(1, 1, t_r, t_c, ScheduleKind.IS, FIG1_MAP, arch, None)
    n_tiles = (FIG1_MAP.h // t_r) * (FIG1_MAP.l // t_c)
    per_tile = calc_burst_count(TileKind.IN, tile, FIG1_MAP, arch, "aligned")
    seconds = n_tiles * calc_data_transfer(TileKind.IN, tile, FIG1_MAP, arch, "burst")
    return n_tiles * per_tile, seconds


def test_criterion_1_map_slicing_burst_counts():
    # 1x128x128 16-bit map, 128 B bursts: three slicings, exact totals.
    start = time.monotonic()
    bursts_16, _ = _fig1_tiling(128, 16)
    bursts_32, _ = _fig1_tiling(128, 32)
    bursts_64, _ = _fig1_tiling(64, 64)
    assert bursts_16 == 1024
    assert bursts_32 == 512
    assert bursts_64 == 256
    assert time.monotonic() - start < 1.0


def test_criterion_2_layer5_tile_burst_counts():
    # 80x73x73 16-bit input: a 14x4x73 tile moves in 70 bursts, 16x11x20 in 176.
    start = time.monotonic()
    arch = arch_for()
    wide = gen_tile(1, 14, 2, 71, ScheduleKind.IS, LAYER5, arch, None)
    assert (wide.t_n, wide.t_h, wide.t_l) == (14, 4, 73)
    assert calc_burst_count(TileKind.IN, wide, LAYER5, arch, "aligned") == 70
    square = gen_tile(1, 16, 9, 18, ScheduleKind.IS, LAYER5, arch, None)
    assert (square.t_n, square.t_h, square.t_l) == (16, 11, 20)
    assert calc_burst_count(TileKind.IN, square, LAYER5, arch, "aligned") == 176
    assert time.monotonic() - start < 1.0


def test_criterion_3_burst_model_prefers_wide_tiles():
    # Fewer, longer runs win on DRAM time; the planner picks full-width tiles.
    # Absolute hardware timings are not reproduced, ordering only.
    start = time.monotonic()
    _, t_16 = _fig1_tiling(128, 16)
    _, t_32 = _fig1_tiling(128, 32)
    _, t_64 = _fig1_tiling(64, 64)
    assert t_64 < t_32 < t_16
    nmp = nmp_profile()
    assert plan_layer(LAYER5, nmp, "burst").tile.t_l == LAYER5.l
    assert plan_layer(FIG1_MAP, nmp, "burst").tile.t_l == FIG1_MAP.l
    assert time.monotonic() - start < 60.0


def test_criterion_4_analytic_model_matches_simulator():
    # Exhaustive toy grid: every feasible tile's move counts equal the
    # replayed schedule's totals, and the closed-form burst counting path
    # (runs -> ceil / block-span) matches per-byte enumeration on a strided
    # sample of traces.  Simulator totals depend only on the count key, so
    # memoizing on it is lossless.
    start = time.monotonic()
    sample_every = 211
    alpha_checks = 0
    burst_checks = 0
    sim_cache = {}
    for n_tle in (1, 2, 4):
        for n_tlt in (1, 2):
            arch = arch_for(n_tle=n_tle, n_tlt=n_tlt, burst=32)
            for h in range(1, 9):
                for width in range(1, 9):
                    for k in (1, 2, 3):
                        if k > h or k > width:
                            continue
                        for s in (1, 2):
                            r = (h - k) // s + 1
                            c = (width - k) // s + 1
                            for n in range(1, 5):
                                for m in range(1, 5):
                                    conv = ConvLayerSpec(
                                        name="g", n=n, h=h, l=width, m=m, k=k,
                                        s=s, p=0, r=r, c=c, elem_bytes=2,
                                    )
                                    for p_kind in PARTITION_ORDER:
                                        try:
                                            slice_ = tle_slicing(p_kind, conv, n_tle)
                                        except Infeasible:
                                            continue
                                        for q in SCHEDULE_ORDER:
                                            for t_r in range(1, slice_.tle_r + 1):
                                                for t_c in range(1, c + 1):
                                                    for t_n in range(1, n + 1):
                                                        try:
                                                            t_m = get_filters(
                                                                t_r, t_c, q, slice_.tle_w,
                                                                n_tlt, t_n, conv, arch,
                                                            )
                                                            tile = gen_tile(
                                                                t_m, t_n, t_r, t_c, q,
                                                                conv, arch, slice_,
                                                            )
                                                        except Infeasible:
                                                            continue
                                                        a = compute_alphas(
                                                            q, conv, slice_, tile, n_tle
                                                        )
                                                        key = (
                                                            n_tle, slice_.tle_r, slice_.tle_w,
                                                            r, c, n, m, q,
                                                            t_r, t_c, t_n, t_m,
                                                        )
                                                        totals = sim_cache.get(key)
                                                        if totals is None:
                                                            trace = simulate_schedule(
                                                                q, conv, slice_, tile, arch,
                                                                keep_events=False,
                                                            )
                                                            totals = (
                                                                trace.loads_in,
                                                                trace.loads_w,
                                                                trace.stores_out,
                                                            )
                                                            sim_cache[key] = totals
                                                        assert totals == (a.a_in, a.a_w, a.a_out)
                                                        alpha_checks += 1
                                                        if alpha_checks % sample_every:
                                                            continue
                                                        trace = simulate_schedule(
                                                            q, conv, slice_, tile, arch,
                                                            count_bursts=True,
                                                        )
                                                        exact = trace.total_bursts
                                                        for kind in TileKind:
                                                            runs = [
                                                                run
                                                                for ev in trace.events
                                                                if ev.kind is kind
                                                                for run in ev.runs
                                                            ]
                                                            aligned = sum(
                                                                ceil_div(ln, 32) for _, ln in runs
                                                            )
                                                            addr = sum(
                                                                (st + ln - 1) // 32 - st // 32 + 1
                                                                for st, ln in runs
                                                            )
                                                            assert aligned == exact[kind].aligned
                                                            assert addr == exact[kind].address_aware
                                                        burst_checks += 1
    # Sweep-size pins: 6 fabrics x 508 layer shapes x feasible candidates.
    assert alpha_checks == 5_198_640
    assert burst_checks == 24_638
    assert time.monotonic() - start < 300.0


def _toy_suite():
    return [random_toy_model(seed) for seed in range(20)]


def test_criterion_5_search_dominates_fixed_strategies():
    # Free search <= any single forced partition or schedule, per layer.
    start = time.monotonic()
    arch = nmp_profile()
    compared = 0
    for model in _toy_suite():
        for conv in model.layers:
            free = plan_layer(conv, arch, "burst")
            restrictions = [{"fixed_tle": p} for p in PARTITION_ORDER]
            restrictions += [{"fixed_tlt": q} for q in SCHEDULE_ORDER]
            for restriction in restrictions:
                try:
                    fixed = plan_layer(conv, arch, "burst", **restriction)
                except PlanError:
                    continue
                assert free.cost.t_total <= fixed.cost.t_total
                compared += 1
    assert compared == 20 * 3 * 6  # every restriction was feasible
    assert time.monotonic() - start < 60.0


def test_criterion_6_burst_aware_search_beats_volume_search():
    # Re-cost the volume-only winner under the burst model: the burst-aware
    # winner is never worse, layer by layer.
    start = time.monotonic()
    arch = nmp_profile()
    for model in _toy_suite():
        for conv in model.layers:
            burst_entry = plan_layer(conv, arch, "burst")
            volume_entry = plan_layer(conv, arch, "noburst")
            recosted = calc_time(
                volume_entry.tile, volume_entry.schedule, conv, volume_entry.slice,
                arch, "burst",
            )
            assert burst_entry.cost.t_total <= recosted.t_total
    assert time.monotonic() - start < 60.0


def test_criterion_7_roofline_roof_and_inequality():
    # 16-bit compute roof is 256 GMAC/s; no layer beats its envelope.
    start = time.monotonic()
    model = sample_model("inceptionv3")
    arch = nmp_profile()
    plan = tso(model, arch, workers=None)
    points = roofline_points(plan, model, arch)
    assert len(points) == 94
    for point in points:
        assert point.compute_roof == 256e9
        assert point.throughput <= point.attainable * (1 + 1e-12)
    assert time.monotonic() - start < 10.0


def test_criterion_8_deterministic_parallel_planning(tmp_path, write_configs):
    # 94-layer synthetic model: byte-identical plans across thread counts,
    # single-threaded search well inside its budget.
    model_path, arch_path = write_configs(sample_model("inceptionv3"), nmp_profile())
    single = tmp_path / "plan1.json"
    threaded = tmp_path / "plan8.json"
    start = time.monotonic()
    rc = main(
        [
            "plan", "--model", model_path, "--arch", arch_path,
            "--threads", "1", "--out", str(single),
        ]
    )
    elapsed = time.monotonic() - start
    assert rc == 0
    assert elapsed < 600.0
    rc = main(
        [
            "plan", "--model", model_path, "--arch", arch_path,
            "--threads", "8", "--out", str(threaded),
        ]
    )
    assert rc == 0
    assert single.read_bytes() == threaded.read_bytes()
    assert len(json.loads(single.read_text())["entries"]) == 94


def test_criterion_9_formula_unit_checks():
    start = time.monotonic()
    # Pointwise stride-1 windows degenerate to the output tile itself.
    for t_r in range(1, 17):
        for t_c in (1, 5, 16):
            assert ifm_tile_dims(t_r, t_c, 1, 1) == (t_r, t_c)

    # 4x8 output tile of 3x3 MACs on the 8-MAC 16-bit datapath: 36 cycles.
    conv = ConvLayerSpec(
        name="u", n=1, h=10, l=10, m=1, k=3, s=1, p=0, r=8, c=8, elem_bytes=2
    )
    arch = arch_for()
    tile = gen_tile(1, 1, 4, 8, ScheduleKind.IS, conv, arch, None)
    assert tile_mac_time(tile, conv, arch) == 36 / 1e9

    # 584 B full-width tile: 5 bursts at 14 ns CAS plus 584 B at 17 GB/s
    # is 104.4 ns (rounded to 0.1 ns).
    wide = gen_tile(1, 1, 2, 71, ScheduleKind.IS, LAYER5, arch, None)
    t = calc_data_transfer(TileKind.IN, wide, LAYER5, arch, "burst")
    assert t == 5 * arch.cas_s + 584 / arch.bw_bytes_per_s
    assert round(t * 1e9, 1) == 104.4

    # Move-count closed forms on a hand-checked instance: 8x8 output map,
    # slice of 6 rows x 4 filters on 2 clusters, 2x2x3x4 tiles.
    hconv = ConvLayerSpec(
        name="a", n=4, h=10, l=10, m=8, k=3, s=1, p=0, r=8, c=8, elem_bytes=2
    )
    harch = arch_for(n_tle=2, n_tlt=2)
    hslice = TleSlice(kind=TlePartitionKind.KS_OFM, tle_r=6, tle_w=4)
    for q, expected in (
        (ScheduleKind.IS, (16, 16, 6)),
        (ScheduleKind.OS, (32, 32, 24)),
        (ScheduleKind.WS, (32, 4, 24)),
    ):
        tile = gen_tile(2, 2, 3, 4, q, hconv, harch, hslice)
        a = compute_alphas(q, hconv, hslice, tile, 2)
        assert (a.a_in, a.a_w, a.a_out) == expected
    assert time.monotonic() - start < 1.0
