"""Event-level schedule replay: origins, store coverage, and burst totals."""

import hashlib
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tsoplan.configs import nmp_profile
from tsoplan.costmodel import TileKind, box_runs, calc_burst_count, clip_box, compute_alphas
from tsoplan.simulator import TransferEvent, TransferTrace, count_bursts_exact, simulate_schedule
from tsoplan.slicing import (
    ScheduleKind,
    TlePartitionKind,
    TleSlice,
    gen_tile,
    get_filters,
    tle_slicing,
)
from tsoplan.util import ceil_div

from _models import arch_for, conv_for


def tile_with_filters(q, conv, arch, slice_, t_n, t_r, t_c):
    t_m = get_filters(t_r, t_c, q, slice_.tle_w, arch.n_tlt, t_n, conv, arch)
    return gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_)


class TestMicroTrace:
    """1x4x4 input, two 1x1 filters, one TLE with one TLT, 2x2 tiles."""

    def setup_method(self):
        self.conv = conv_for(n=1, h=4, l=4, m=2, k=1)  # r = c = 4
        self.arch = arch_for(n_tle=1, n_tlt=1)
        self.slice = tle_slicing(TlePartitionKind.KS, self.conv, 1)
        self.tile = gen_tile(2, 1, 2, 2, ScheduleKind.IS, self.conv, self.arch, self.slice)
        self.trace = simulate_schedule(
            ScheduleKind.IS, self.conv, self.slice, self.tile, self.arch
        )

    def test_totals(self):
        assert (self.trace.loads_in, self.trace.loads_w, self.trace.stores_out) == (4, 4, 4)

    def test_in_origins_walk_the_tile_grid(self):
        origins = [e.origin for e in self.trace.events if e.kind is TileKind.IN]
        assert origins == [(0, 0, 0), (0, 0, 2), (0, 2, 0), (0, 2, 2)]
        extents = {e.extent for e in self.trace.events if e.kind is TileKind.IN}
        assert extents == {(1, 2, 2)}

    def test_is_store_covers_every_filter(self):
        outs = [e for e in self.trace.events if e.kind is TileKind.OUT]
        assert [e.origin for e in outs] == [(0, 0, 0), (0, 0, 2), (0, 2, 0), (0, 2, 2)]
        assert {e.extent for e in outs} == {(2, 2, 2)}
        assert {e.map_dims for e in outs} == {(2, 4, 4)}

    def test_runs_are_byte_accurate(self):
        first_in = next(e for e in self.trace.events if e.kind is TileKind.IN)
        # Rows 0..1, cols 0..1 of a 4-wide 2 B map: 4 B at 0 and at row stride 8.
        assert first_in.runs == ((0, 4), (8, 4))


class TestPaddingAndOverhang:
    def test_first_input_origin_sits_in_the_padding(self):
        conv = conv_for(n=2, h=4, l=4, m=2, k=3, p=1)  # r = c = 4
        arch = arch_for(n_tle=1, n_tlt=1)
        slice_ = tle_slicing(TlePartitionKind.KS, conv, 1)
        tile = gen_tile(2, 2, 2, 2, ScheduleKind.IS, conv, arch, slice_)
        trace = simulate_schedule(ScheduleKind.IS, conv, slice_, tile, arch)
        first_in = next(e for e in trace.events if e.kind is TileKind.IN)
        assert first_in.origin == (0, -1, -1)
        # Clipping drops the padding row and column; the map corner survives.
        assert first_in.runs[0][0] == 0

    def test_overhanging_slice_is_counted_but_touches_nothing(self):
        conv = conv_for(n=1, h=6, l=6, m=4, k=1)  # r = c = 6
        arch = arch_for(n_tle=4, n_tlt=1)
        slice_ = tle_slicing(TlePartitionKind.OFM, conv, 4)  # rows 0-1,2-3,4-5,6-7
        tile = gen_tile(4, 1, 2, 6, ScheduleKind.OS, conv, arch, slice_)
        trace = simulate_schedule(ScheduleKind.OS, conv, slice_, tile, arch)
        a = compute_alphas(ScheduleKind.OS, conv, slice_, tile, 4)
        assert (trace.loads_in, trace.loads_w) == (a.a_in, a.a_w)
        overhang = [e for e in trace.events if e.kind is TileKind.IN and e.tle == 3]
        assert overhang and all(e.runs == () for e in overhang)


class TestSliceOrigins:
    """Which map rows and filters each TLE's events start from."""

    def setup_method(self):
        self.conv = conv_for(n=2, h=8, l=8, m=8, k=1)  # r = c = 8
        self.arch = arch_for(n_tle=4, n_tlt=2)

    def origins_by_tle(self, kind):
        slice_ = tle_slicing(kind, self.conv, 4)
        tile = tile_with_filters(ScheduleKind.OS, self.conv, self.arch, slice_, 2, 4, 8)
        trace = simulate_schedule(ScheduleKind.OS, self.conv, slice_, tile, self.arch)
        rows, fils = [], []
        for tle in range(4):
            rows.append(
                next(e for e in trace.events if e.kind is TileKind.IN and e.tle == tle).origin[1]
            )
            fils.append(
                next(e for e in trace.events if e.kind is TileKind.W and e.tle == tle).origin[0]
            )
        return rows, fils

    def test_ks_splits_filters(self):
        assert self.origins_by_tle(TlePartitionKind.KS) == ([0, 0, 0, 0], [0, 2, 4, 6])

    def test_ofm_splits_rows(self):
        assert self.origins_by_tle(TlePartitionKind.OFM) == ([0, 2, 4, 6], [0, 0, 0, 0])

    def test_ks_ofm_splits_both_two_by_two(self):
        assert self.origins_by_tle(TlePartitionKind.KS_OFM) == ([0, 0, 4, 4], [0, 4, 0, 4])


@pytest.mark.parametrize("kind", list(TlePartitionKind))
@pytest.mark.parametrize("q", list(ScheduleKind))
class TestAgainstAnalyticCounts:
    def build(self, q, kind):
        conv = conv_for(n=3, h=9, l=7, m=6, k=3, s=2, p=1)  # r = 5, c = 4
        arch = arch_for(n_tle=4, n_tlt=2)
        slice_ = tle_slicing(kind, conv, 4)
        tile = tile_with_filters(q, conv, arch, slice_, 2, 2, 3)
        return conv, arch, slice_, tile

    def test_totals_match_alphas(self, q, kind):
        conv, arch, slice_, tile = self.build(q, kind)
        trace = simulate_schedule(q, conv, slice_, tile, arch, keep_events=False)
        a = compute_alphas(q, conv, slice_, tile, 4)
        assert (trace.loads_in, trace.loads_w, trace.stores_out) == (a.a_in, a.a_w, a.a_out)

    def test_stores_partition_the_output_map(self, q, kind):
        conv, arch, slice_, tile = self.build(q, kind)
        trace = simulate_schedule(q, conv, slice_, tile, arch)
        cover = np.zeros((conv.m, conv.r, conv.c), dtype=int)
        for event in trace.events:
            if event.kind is not TileKind.OUT:
                continue
            lo = [max(o, 0) for o in event.origin]
            hi = [
                min(o + x, d)
                for o, x, d in zip(event.origin, event.extent, event.map_dims)
            ]
            cover[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] += 1
        assert (cover == 1).all()


@pytest.mark.parametrize("q", list(ScheduleKind))
class TestBurstTotals:
    def build(self, q):
        conv = conv_for(n=2, h=8, l=8, m=4, k=3, p=1)  # r = c = 8
        arch = arch_for(n_tle=2, n_tlt=2, burst=32)
        slice_ = tle_slicing(TlePartitionKind.KS, conv, 2)
        tile = tile_with_filters(q, conv, arch, slice_, 2, 3, 4)
        return conv, arch, slice_, tile

    def test_run_derived_counts_match_per_byte_enumeration(self, q):
        conv, arch, slice_, tile = self.build(q)
        trace = simulate_schedule(q, conv, slice_, tile, arch)
        exact = count_bursts_exact(trace, arch)
        burst = arch.burst_bytes
        for kind in TileKind:
            runs = [r for e in trace.events if e.kind is kind for r in e.runs]
            aligned = sum(ceil_div(length, burst) for _, length in runs)
            addr = sum(
                (start + length - 1) // burst - start // burst + 1 for start, length in runs
            )
            assert (aligned, addr) == (exact[kind].aligned, exact[kind].address_aware)

    def test_per_event_counts_match_the_closed_form(self, q):
        # OUT is skipped under IS: those stores cover the full filter depth,
        # which the per-tile form does not price.
        conv, arch, slice_, tile = self.build(q)
        trace = simulate_schedule(q, conv, slice_, tile, arch)
        exact = count_bursts_exact(trace, arch)
        kinds = [TileKind.IN, TileKind.W]
        if q is not ScheduleKind.IS:
            kinds.append(TileKind.OUT)
        for kind in kinds:
            for mode, field in (("aligned", "aligned"), ("address_aware", "address_aware")):
                total = sum(
                    calc_burst_count(kind, tile, conv, arch, mode, origin=e.origin)
                    for e in trace.events
                    if e.kind is kind
                )
                assert total == getattr(exact[kind], field)

    def test_count_bursts_flag_populates_totals(self, q):
        conv, arch, slice_, tile = self.build(q)
        trace = simulate_schedule(q, conv, slice_, tile, arch, count_bursts=True)
        assert trace.total_bursts == count_bursts_exact(trace, arch)


@st.composite
def box_traces(draw):
    """One or two boxes of one kind on one map, clipped on any side."""
    dims = tuple(draw(st.integers(1, 6)) for _ in range(3))
    e = draw(st.sampled_from((1, 2)))
    kind = draw(st.sampled_from(list(TileKind)))
    events = [
        TransferEvent(
            kind, 0,
            tuple(draw(st.integers(-3, d + 1)) for d in dims),
            tuple(draw(st.integers(1, 8)) for _ in dims),
            dims, e,
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    return TransferTrace(events, 0, 0, 0)


def interval_bursts(event, burst):
    """Split the event's touched byte set into maximal intervals and count each."""
    d0, d1, d2 = event.map_dims
    e = event.elem_bytes
    touched = set()
    for ci, cj, ck in product(*(range(o, o + x) for o, x in zip(event.origin, event.extent))):
        if 0 <= ci < d0 and 0 <= cj < d1 and 0 <= ck < d2:
            base = ((ci * d1 + cj) * d2 + ck) * e
            touched.update(range(base, base + e))
    aligned = address_aware = 0
    for start in (b for b in touched if b - 1 not in touched):
        end = start
        while end + 1 in touched:
            end += 1
        aligned += ceil_div(end + 1 - start, burst)
        address_aware += len({b // burst for b in range(start, end + 1)})
    return aligned, address_aware


# Two 4-byte boxes that abut in memory: each event is its own run, so they
# cost two bursts, not the one a run merged across events would.
ABUTTING = TransferTrace(
    [TransferEvent(TileKind.IN, 0, (0, 0, c), (1, 1, 2), (1, 1, 4), 2) for c in (0, 2)],
    0, 0, 0,
)


@given(trace=box_traces(), burst=st.sampled_from([2**i for i in range(8)]))
@example(trace=ABUTTING, burst=8)
@settings(max_examples=300, deadline=None)
def test_exact_counts_match_the_touched_byte_intervals(trace, burst):
    # Bursts of 1-128 B and 1- or 2-byte elements, which criterion 4 and
    # TestBurstTotals (2-byte elements, 32 B bursts) never reach.
    exact = count_bursts_exact(trace, arch_for(burst=burst))
    for kind in TileKind:
        counts = [interval_bursts(ev, burst) for ev in trace.events if ev.kind is kind]
        aligned = sum(a for a, _ in counts)
        address_aware = sum(b for _, b in counts)
        assert (exact[kind].aligned, exact[kind].address_aware) == (aligned, address_aware)


@given(trace=box_traces())
@settings(max_examples=300, deadline=None)
def test_event_bytes_equal_its_runs(trace):
    # Boxes clipped on every side, empty ones included: nbytes clips without
    # enumerating, runs enumerates on each read.
    for ev in trace.events:
        assert ev.runs == tuple(box_runs(ev.map_dims, ev.origin, ev.extent, ev.elem_bytes))
        assert ev.nbytes == sum(n for _, n in ev.runs)


# sha256 of each replay's event list on conv_for(n=3, h=9, l=7, m=6, k=3, s=2,
# p=1) over 4 TLEs of 2 TLTs, keyed by partition, schedule and (t_n, t_r, t_c).
# They pin the event order of every schedule, not only the IS order that the
# sample plans cover.
EVENT_DIGESTS = {
    ("ks", "is", (2, 2, 3)): "f3a3de11a02eb6e51a0ce665c66d0fe599eb19cc6a5e278d7ddf0b1958af89cd",
    ("ks", "is", (3, 1, 4)): "2d1a9cc745ce6f75e7f5aa98bcd18d66709611e276959be13f2fd9b1e9c11e06",
    ("ks", "os", (2, 2, 3)): "1d5945924364229c9fea25fd22476d0bc3a6196c3218f050755de7edc877eca9",
    ("ks", "os", (3, 1, 4)): "17e88d326d1623e6f6c9e1eecc8ca8fa3793b71f44e1e77cc073f7f528fbeae5",
    ("ks", "ws", (2, 2, 3)): "88c87c822e048cc2cf8f231dc7d87d8f420e0f2be87385cb3ccf418dd2bd150c",
    ("ks", "ws", (3, 1, 4)): "e84a8f300928ff01607d32fdb1a28af75beddd037baf7baaff90c9abe694274e",
    ("ksofm", "is", (2, 2, 3)): "cc5b60bf08906b01a4d80d2ec03ab2a5e6490f6aec61c3610f6c3b2c4c43a4ae",
    ("ksofm", "is", (3, 1, 4)): "05ffa3bdf53efad9e25cbeda5e5f71e0f3c69478533ef6edc889b2b0fea885f9",
    ("ksofm", "os", (2, 2, 3)): "19df19e9be08270310afca9c32bcbef3aa9d42464c5b70cb179826050d57d414",
    ("ksofm", "os", (3, 1, 4)): "e96d94671ea8fbce675c5ff1da2ff62a40f31c2ec814787ec3fd6bfbc6d32e6b",
    ("ksofm", "ws", (2, 2, 3)): "879186e54d71af94e13e512f581a67efd6bb8da35cd766a4e9fb9048b4807b6b",
    ("ksofm", "ws", (3, 1, 4)): "5b7d30a9f484a0afbd458d49676f8111741283b5042f12a6e19d1d90efff7044",
    ("ofm", "is", (2, 2, 3)): "59b2697fd4423311dbe518cedbf519fc49026489e0938d9f4baa0bff21e7d2c3",
    ("ofm", "is", (3, 1, 4)): "4749c2a4124926dd5f4d948d23cfb5d5789ef9ab12982191d95c1fbe8dfaee88",
    ("ofm", "os", (2, 2, 3)): "4a42776412f0818a7a4f301d394d9af6b47e599b920041082aec80149ac316b3",
    ("ofm", "os", (3, 1, 4)): "02056f5cc1ab9dfca3a5c1cd1ebcf3734412a95eeb7841f79bfe66139a1e0d45",
    ("ofm", "ws", (2, 2, 3)): "10e9d0602e60e9ebce0a03d929963b840bec07f3bc04630aceb9b7e093be3693",
    ("ofm", "ws", (3, 1, 4)): "c1fea1aa8e3dccbf717cf40a86d1ab809b7ecf85c8ab5a04e3beaa1919ce6596",
}


@pytest.mark.parametrize("key", sorted(EVENT_DIGESTS), ids=str)
def test_event_list_is_pinned(key):
    kind, q, shape = TlePartitionKind(key[0]), ScheduleKind(key[1]), key[2]
    conv = conv_for(n=3, h=9, l=7, m=6, k=3, s=2, p=1)  # r = 5, c = 4
    arch = arch_for(n_tle=4, n_tlt=2)
    slice_ = tle_slicing(kind, conv, 4)
    tile = tile_with_filters(q, conv, arch, slice_, *shape)
    trace = simulate_schedule(q, conv, slice_, tile, arch)
    rows = [(e.kind.value, e.tle, e.origin, e.extent, e.map_dims, e.runs) for e in trace.events]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == EVENT_DIGESTS[key]


@pytest.mark.parametrize("n_tle", [2, 4, 6, 8])
@pytest.mark.parametrize("q", list(ScheduleKind))
@pytest.mark.parametrize("t_r", [2, 4])
def test_every_event_belongs_to_an_existing_tle(n_tle, q, t_r):
    conv = conv_for(n=2, h=12, l=12, m=12, k=1)  # r = c = 12
    arch = arch_for(n_tle=n_tle, n_tlt=2)
    slice_ = tle_slicing(TlePartitionKind.KS_OFM, conv, n_tle)
    tile = tile_with_filters(q, conv, arch, slice_, 2, t_r, 12)
    trace = simulate_schedule(q, conv, slice_, tile, arch)
    stores = [e for e in trace.events if e.kind is TileKind.OUT]
    assert stores
    assert all(0 <= e.tle < n_tle for e in trace.events)


class TestOpenModelDefects:
    """Known disagreements between the cost model and the replay, each quoted
    from its CHANGES.md FOUND line.  Mending one is a model fix that changes
    plans, so these pass only once that fix lands."""

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND: under IS the cost model prices each store as one t_m-deep"
        " `out_bytes` tile (`compute_alphas` a_out x `tile.out_bytes`), while the"
        " replay stores all m output channels per spatial tile",
    )
    def test_is_priced_store_bytes_equal_the_replayed_stores(self):
        conv = conv_for(n=4, h=16, l=16, m=8, k=3)
        arch = nmp_profile()
        q = ScheduleKind.IS
        slice_ = tle_slicing(TlePartitionKind.KS, conv, arch.n_tle)
        tile = tile_with_filters(q, conv, arch, slice_, 4, 7, 14)
        assert tile.t_m == 1
        priced = compute_alphas(q, conv, slice_, tile, arch.n_tle).a_out * tile.out_bytes
        trace = simulate_schedule(q, conv, slice_, tile, arch)
        assert priced == sum(e.nbytes for e in trace.events if e.kind is TileKind.OUT)

    @staticmethod
    def ks_ofm_loads(arch):
        conv = conv_for(n=2, h=12, l=12, m=12, k=1)  # r = c = 12
        slice_ = tle_slicing(TlePartitionKind.KS_OFM, conv, arch.n_tle)
        tile = tile_with_filters(ScheduleKind.OS, conv, arch, slice_, 2, 4, 12)
        trace = simulate_schedule(ScheduleKind.OS, conv, slice_, tile, arch)
        return tile, [e for e in trace.events if e.kind is TileKind.IN]

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND: `slicing.tle_slicing` cuts KS_OFM rows into n_tle/2 bands,"
        " but `simulator._slice_origin` lays the TLEs out as 2 row groups of n_tle/2"
        " filter groups, so with n_tle >= 6 rows from 2*tle_r on are never loaded",
    )
    def test_ks_ofm_on_6_tles_loads_every_row(self):
        _, loads = self.ks_ofm_loads(arch_for(n_tle=6))
        rows = set()
        for e in loads:
            (_, row, _), (_, n_rows, _) = clip_box(e.map_dims, e.origin, e.extent)
            rows.update(range(row, row + n_rows))
        assert rows == set(range(12))

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND: `tle_slicing(KS_OFM)` gives each TLE the whole layer on 2 TLEs,"
        " while `simulator._slice_origin` puts TLE 1 at row `r`, past the map:"
        " TLE 1's IN events touch 0 bytes",
    )
    def test_ks_ofm_on_2_tles_loads_on_both(self):
        tile, loads = self.ks_ofm_loads(arch_for(n_tle=2, n_tlt=2))
        assert tile.t_m == 6
        assert sum(e.nbytes for e in loads if e.tle == 1) > 0
