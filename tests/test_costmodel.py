"""Move counts, MAC time, burst counting, and the additive time model."""

import pytest
from hypothesis import given, settings, strategies as st

from tsoplan.costmodel import (
    TileKind,
    aligned_bursts,
    box_runs,
    calc_burst_count,
    calc_data_transfer,
    calc_time,
    compute_alphas,
    conv_mac_time,
    tile_box,
    tile_mac_time,
)
from tsoplan.slicing import ScheduleKind, TleSlice, TlePartitionKind, gen_tile, tile_footprint
from tsoplan.util import ceil_div

from _models import arch_for, conv_for


def tile_for(conv, arch, t_m, t_n, t_r, t_c, q=ScheduleKind.OS):
    return gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, None)


class TestComputeAlphas:
    def setup_method(self):
        # 8x8 output map, 4 channels, 8 filters; slice covers rows 0..5 and 4 filters.
        self.conv = conv_for(n=4, h=10, l=10, m=8, k=3)  # r = c = 8
        self.slice = TleSlice(kind=TlePartitionKind.KS_OFM, tle_r=6, tle_w=4)
        self.arch = arch_for(n_tle=2)

    def tile(self, q, t_m=2, t_n=2, t_r=3, t_c=4):
        return gen_tile(t_m, t_n, t_r, t_c, q, self.conv, self.arch, self.slice)

    def test_is_counts(self):
        a = compute_alphas(ScheduleKind.IS, self.conv, self.slice, self.tile(ScheduleKind.IS), 2)
        # cr=ceil(6/3)=2, cc=ceil(8/4)=2, cn=ceil(4/2)=2 -> loads 2*2*2*2 = 16
        assert (a.a_in, a.a_w) == (16, 16)
        # out written once per spatial tile of the whole map: ceil(8/3)*ceil(8/4) = 6
        assert a.a_out == 6

    def test_os_counts(self):
        a = compute_alphas(ScheduleKind.OS, self.conv, self.slice, self.tile(ScheduleKind.OS), 2)
        # cm=ceil(4/2)=2 multiplies the loads; gm=ceil(8/2)=4 multiplies the stores
        assert (a.a_in, a.a_w) == (32, 32)
        assert a.a_out == 24

    def test_ws_weights_move_once_per_filter_group(self):
        a = compute_alphas(ScheduleKind.WS, self.conv, self.slice, self.tile(ScheduleKind.WS), 2)
        assert a.a_in == 32
        assert a.a_w == 2 * 2  # n_tle * cm only: weights stay resident
        assert a.a_out == 24

    def test_out_count_ignores_clustering(self):
        for n_tle in (1, 2, 4):
            a = compute_alphas(
                ScheduleKind.OS, self.conv, self.slice, self.tile(ScheduleKind.OS), n_tle
            )
            assert a.a_out == 24

    def test_whole_layer_tile_moves_once_per_cluster(self):
        conv = conv_for(n=2, h=6, l=6, m=4, k=1)
        slice_ = TleSlice(kind=TlePartitionKind.KS, tle_r=conv.r, tle_w=conv.m)
        arch = arch_for(n_tle=1)
        tile = gen_tile(conv.m, conv.n, conv.r, conv.c, ScheduleKind.IS, conv, arch, slice_)
        a = compute_alphas(ScheduleKind.IS, conv, slice_, tile, 1)
        assert (a.a_in, a.a_w, a.a_out) == (1, 1, 1)


class TestMacTime:
    def test_single_tile_cycle_count(self):
        conv = conv_for(n=1, h=6, l=10, m=1, k=3)  # r=4, c=8
        arch = arch_for()
        tile = tile_for(conv, arch, 1, 1, 4, 8)
        # ceil(4*8*9 / 8) = 36 cycles at 1 GHz
        assert tile_mac_time(tile, conv, arch) == 36e-9

    def test_minimal_tile_is_one_cycle(self):
        conv = conv_for(n=1, h=1, l=1, m=1, k=1, e=1)
        arch = arch_for(bits=128)  # 16 MACs per cycle at 1 byte
        tile = tile_for(conv, arch, 1, 1, 1, 1)
        assert tile_mac_time(tile, conv, arch) == 1e-9

    def test_layer5_tile_cycles(self):
        conv = conv_for(n=80, h=73, l=73, m=192, k=3)
        arch = arch_for()
        tile = tile_for(conv, arch, 24, 14, 2, 71, q=ScheduleKind.IS)
        # 14*24*ceil(1278/8) = 336*160 = 53760 cycles = 53.76 us
        assert tile_mac_time(tile, conv, arch) == 53760 / 1e9

    def test_layer_time_spreads_over_every_core(self):
        conv = conv_for(n=2, h=10, l=10, m=8, k=3)  # r = c = 8
        arch = arch_for(n_tle=4, n_tlt=8)
        tile = tile_for(conv, arch, 2, 1, 2, 4)
        n_tiles = 4 * 2 * 4 * 2  # m/t_m * n/t_n * r/t_r * c/t_c
        assert conv_mac_time(tile, conv, arch) == n_tiles * tile_mac_time(tile, conv, arch) / 32

    def test_full_datapath_hits_sustained_rate(self):
        # Tile work divides the datapath evenly, so the whole device runs at
        # n_tle * n_tlt * macs_per_cycle MACs per cycle.
        conv = conv_for(n=4, h=10, l=10, m=32, k=3, e=2)  # r = c = 8
        arch = arch_for(n_tle=4, n_tlt=8)
        tile = tile_for(conv, arch, 1, 1, 8, 8)  # 8*8*9 = 576 MACs, 72 cycles
        # 128 tiles * 72 cycles / 32 cores = 288 device cycles for 73728 MACs,
        # i.e. 256 MACs per cycle = n_tle * n_tlt * macs_per_cycle.
        assert conv_mac_time(tile, conv, arch) == 288 / arch.freq_hz
        assert conv.macs == 256 * 288


class TestBoxRuns:
    def test_whole_map_is_one_run(self):
        assert box_runs((2, 3, 4), (0, 0, 0), (2, 3, 4), 1) == [(0, 24)]

    def test_inner_box_runs(self):
        runs = box_runs((4, 4, 4), (1, 1, 1), (2, 2, 2), 1)
        assert runs == [(21, 2), (25, 2), (37, 2), (41, 2)]

    def test_elem_bytes_scale_addresses(self):
        runs = box_runs((4, 4, 4), (1, 1, 1), (2, 2, 2), 2)
        assert runs == [(42, 4), (50, 4), (74, 4), (82, 4)]

    def test_full_width_rows_merge(self):
        runs = box_runs((1, 8, 8), (0, 2, 0), (1, 3, 8), 1)
        assert runs == [(16, 24)]

    def test_full_channels_merge_across_channel_boundary(self):
        runs = box_runs((3, 4, 4), (1, 0, 0), (2, 4, 4), 1)
        assert runs == [(16, 32)]

    def test_negative_origin_clips(self):
        # Padding: origin row/col -1, the out-of-map part vanishes.
        runs = box_runs((1, 4, 4), (0, -1, -1), (1, 3, 3), 1)
        assert runs == [(0, 2), (4, 2)]

    def test_overhang_clips(self):
        runs = box_runs((1, 4, 4), (0, 3, 2), (1, 3, 3), 1)
        assert runs == [(14, 2)]

    def test_fully_outside_is_empty(self):
        assert box_runs((1, 4, 4), (0, 4, 0), (1, 2, 2), 1) == []

    @given(
        d0=st.integers(1, 3), d1=st.integers(1, 8), d2=st.integers(1, 8),
        o0=st.integers(-2, 3), o1=st.integers(-2, 8), o2=st.integers(-2, 8),
        e0=st.integers(1, 3), e1=st.integers(1, 6), e2=st.integers(1, 6),
        eb=st.sampled_from((1, 2)),
    )
    def test_runs_cover_exactly_the_clipped_box(self, d0, d1, d2, o0, o1, o2, e0, e1, e2, eb):
        runs = box_runs((d0, d1, d2), (o0, o1, o2), (e0, e1, e2), eb)
        covered = set()
        for start, length in runs:
            assert length > 0
            chunk = set(range(start, start + length))
            assert not (covered & chunk)
            covered |= chunk
        expected = set()
        for i in range(max(o0, 0), min(o0 + e0, d0)):
            for j in range(max(o1, 0), min(o1 + e1, d1)):
                for kk in range(max(o2, 0), min(o2 + e2, d2)):
                    base = ((i * d1 + j) * d2 + kk) * eb
                    expected.update(range(base, base + eb))
        assert covered == expected
        # Maximality: no two runs abut.
        starts = sorted(runs)
        for (s1, l1), (s2, _) in zip(starts, starts[1:]):
            assert s1 + l1 < s2


class TestTileBox:
    def test_weight_box_recovers_depth(self):
        conv = conv_for(n=8, m=8, k=3)
        arch = arch_for()
        tile = tile_for(conv, arch, 2, 3, 2, 2, q=ScheduleKind.OS)
        dims, extent = tile_box(TileKind.W, tile, conv)
        assert dims == (8, 8, 9)
        assert extent == (2, 3, 9)
        tile_ws = tile_for(conv, arch, 2, 3, 2, 2, q=ScheduleKind.WS)
        _, extent_ws = tile_box(TileKind.W, tile_ws, conv)
        assert extent_ws == (2, 8, 9)

    def test_in_and_out_boxes(self):
        conv = conv_for(n=4, h=16, l=16, m=8, k=3)
        arch = arch_for()
        tile = tile_for(conv, arch, 2, 3, 4, 5)
        assert tile_box(TileKind.IN, tile, conv) == ((4, 16, 16), (3, 6, 7))
        assert tile_box(TileKind.OUT, tile, conv) == ((8, 14, 14), (2, 4, 5))


class TestCalcBurstCount:
    def test_partial_width_counts_per_row(self):
        conv = conv_for(n=80, h=73, l=73, m=192, k=3)
        arch = arch_for()
        tile = tile_for(conv, arch, 1, 16, 9, 18)  # window 11 x 20
        # 20 elems * 2 B = 40 B -> 1 burst per row; 16 channels * 11 rows
        assert calc_burst_count(TileKind.IN, tile, conv, arch, "aligned") == 176

    def test_full_width_merges_rows(self):
        conv = conv_for(n=80, h=73, l=73, m=192, k=3)
        arch = arch_for()
        tile = tile_for(conv, arch, 1, 14, 2, 71)  # window 4 x 73
        # 4*73*2 = 584 B per channel -> 5 bursts; 14 channels
        assert calc_burst_count(TileKind.IN, tile, conv, arch, "aligned") == 70

    def test_address_aware_counts_straddles(self):
        conv = conv_for(n=1, h=8, l=256, m=1, k=1, e=1)
        arch = arch_for(burst=128)
        tile = tile_for(conv, arch, 1, 1, 1, 128)
        # A 128 B run needs one aligned burst wherever it sits; started at
        # byte 64 it overlaps two 128 B blocks, so the placed count is 2.
        assert calc_burst_count(TileKind.IN, tile, conv, arch, "aligned") == 1
        assert calc_burst_count(TileKind.IN, tile, conv, arch, "aligned", origin=(0, 0, 64)) == 1
        assert (
            calc_burst_count(TileKind.IN, tile, conv, arch, "address_aware", origin=(0, 0, 64))
            == 2
        )
        assert calc_burst_count(TileKind.IN, tile, conv, arch, "address_aware") == 1

    def test_clipping_applies_to_counting(self):
        conv = conv_for(n=1, h=8, l=8, m=1, k=3, p=1)
        arch = arch_for(burst=32)
        tile = tile_for(conv, arch, 1, 1, 8, 8)  # window 10x10 on an 8x8 map
        # Clipped to the real 8x8 map: 128 contiguous bytes -> 4 bursts.
        assert calc_burst_count(TileKind.IN, tile, conv, arch, "aligned") == 4

    @given(
        h=st.integers(1, 16), l=st.integers(1, 16), n=st.integers(1, 4),
        t_r=st.integers(1, 16), t_c=st.integers(1, 16), t_n=st.integers(1, 4),
        burst=st.sampled_from((16, 32, 128)),
        e=st.sampled_from((1, 2)),
    )
    @settings(max_examples=60)
    def test_aligned_bounds_address_aware(self, h, l, n, t_r, t_c, t_n, burst, e):
        conv = conv_for(n=n, h=h, l=l, m=2, k=1, e=e)
        if t_r > conv.r or t_c > conv.c or t_n > n:
            return
        arch = arch_for(burst=burst)
        tile = tile_for(conv, arch, 1, t_n, t_r, t_c)
        dims, extent = tile_box(TileKind.IN, tile, conv)
        runs = box_runs(dims, (0, 0, 0), extent, e)
        aligned = calc_burst_count(TileKind.IN, tile, conv, arch, "aligned")
        addr = calc_burst_count(TileKind.IN, tile, conv, arch, "address_aware")
        assert aligned <= addr <= aligned + len(runs)

    @given(
        d0=st.integers(1, 4), d1=st.integers(1, 64), d2=st.integers(1, 64),
        o0=st.integers(0, 3), o1=st.integers(0, 63), o2=st.integers(0, 63),
        e0=st.integers(1, 4), e1=st.integers(1, 16), e2=st.integers(1, 16),
        burst=st.sampled_from((16, 64, 128)),
        e=st.sampled_from((1, 2)),
    )
    @settings(max_examples=120)
    def test_counts_match_per_byte_block_enumeration(
        self, d0, d1, d2, o0, o1, o2, e0, e1, e2, burst, e
    ):
        # Independent referee: enumerate every addressed byte, rebuild the
        # maximal contiguous intervals, and count burst blocks per interval.
        dims, origin, extent = (d0, d1, d2), (o0, o1, o2), (e0, e1, e2)
        addressed = set()
        for i in range(o0, min(o0 + e0, d0)):
            for j in range(o1, min(o1 + e1, d1)):
                for kk in range(o2, min(o2 + e2, d2)):
                    base = ((i * d1 + j) * d2 + kk) * e
                    addressed.update(range(base, base + e))
        intervals = []
        for byte in sorted(addressed):
            if intervals and intervals[-1][0] + intervals[-1][1] == byte:
                intervals[-1] = (intervals[-1][0], intervals[-1][1] + 1)
            else:
                intervals.append((byte, 1))
        ref_aligned = sum(ceil_div(length, burst) for _, length in intervals)
        ref_addr = sum(
            (start + length - 1) // burst - start // burst + 1 for start, length in intervals
        )
        runs = box_runs(dims, origin, extent, e)
        got_aligned = sum(ceil_div(length, burst) for _, length in runs)
        got_addr = sum(
            (start + length - 1) // burst - start // burst + 1 for start, length in runs
        )
        assert (got_aligned, got_addr) == (ref_aligned, ref_addr)


class TestAlignedBurstsClosedForm:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_run_enumeration(self, data):
        # Padded and strided layers, partial and full-depth tiles of every
        # schedule (WS weight tiles span the full channel depth).
        k = data.draw(st.sampled_from((1, 2, 3, 5)))
        p = data.draw(st.integers(0, 2))
        s = data.draw(st.integers(1, 3))
        lo = max(1, k - 2 * p)
        conv = conv_for(
            n=data.draw(st.integers(1, 5)),
            h=data.draw(st.integers(lo, 12)),
            l=data.draw(st.integers(lo, 12)),
            m=data.draw(st.integers(1, 6)),
            k=k,
            s=s,
            p=p,
            e=data.draw(st.sampled_from((1, 2))),
        )
        arch = arch_for(burst=data.draw(st.sampled_from((8, 16, 32, 128))))
        tile = tile_footprint(
            data.draw(st.integers(1, conv.m)),
            data.draw(st.integers(1, conv.n)),
            data.draw(st.integers(1, conv.r)),
            data.draw(st.integers(1, conv.c)),
            data.draw(st.sampled_from(ScheduleKind)),
            conv,
        )
        for kind in TileKind:
            got = aligned_bursts(kind, tile, conv, arch)
            assert got == calc_burst_count(kind, tile, conv, arch, "aligned")
            assert type(got) is int

    def test_full_depth_weight_tile_is_one_run(self):
        conv = conv_for(n=8, m=8, k=3)
        arch = arch_for(burst=128)
        tile = tile_for(conv, arch, 2, 3, 2, 2, q=ScheduleKind.WS)
        # 2 filters x 8 channels x 9 taps x 2 B = 288 B contiguous -> 3 bursts,
        # where 2 separate 144 B runs would need 4.
        assert aligned_bursts(TileKind.W, tile, conv, arch) == 3


class TestTransferTime:
    def test_burst_run_example(self):
        arch = arch_for(cas_ns=14.0)
        conv = conv_for(n=14, h=73, l=73, m=192, k=3)
        tile = tile_for(conv, arch, 1, 1, 2, 71)  # one channel, 4 x 73 window: 584 B
        t = calc_data_transfer(TileKind.IN, tile, conv, arch, "burst")
        assert t == 5 * 14e-9 + 584 / 17e9
        assert round(t * 1e9, 1) == 104.4

    def test_noburst_is_volume_only(self):
        arch = arch_for()
        conv = conv_for(n=14, h=73, l=73, m=192, k=3)
        tile = tile_for(conv, arch, 1, 1, 2, 71)
        t = calc_data_transfer(TileKind.IN, tile, conv, arch, "noburst")
        assert t == 584 / 17e9
        assert round(t * 1e9, 1) == 34.4

    def test_zero_cas_burst_equals_noburst(self):
        arch = arch_for(cas_ns=0.0)
        conv = conv_for()
        tile = tile_for(conv, arch, 2, 2, 3, 3)
        for kind in TileKind:
            burst = calc_data_transfer(kind, tile, conv, arch, "burst")
            noburst = calc_data_transfer(kind, tile, conv, arch, "noburst")
            assert burst == noburst


class TestCalcTime:
    def test_total_is_sum_of_parts(self):
        conv = conv_for()
        arch = arch_for(sw_ns=50.0)
        slice_ = TleSlice(kind=TlePartitionKind.KS, tle_r=conv.r, tle_w=2)
        tile = gen_tile(2, 2, 3, 3, ScheduleKind.OS, conv, arch, slice_)
        cost = calc_time(tile, ScheduleKind.OS, conv, slice_, arch, "burst")
        assert cost.t_total == cost.t_mac + cost.t_dram + cost.t_sw
        assert cost.t_sw == cost.alphas.total * arch.sw_overhead_s

    def test_dram_time_is_linear_in_moves(self):
        conv = conv_for()
        arch = arch_for()
        slice_ = TleSlice(kind=TlePartitionKind.KS, tle_r=conv.r, tle_w=2)
        tile = gen_tile(2, 2, 3, 3, ScheduleKind.OS, conv, arch, slice_)
        cost = calc_time(tile, ScheduleKind.OS, conv, slice_, arch, "burst")
        x_in = calc_data_transfer(TileKind.IN, tile, conv, arch, "burst")
        x_w = calc_data_transfer(TileKind.W, tile, conv, arch, "burst")
        x_out = calc_data_transfer(TileKind.OUT, tile, conv, arch, "burst")
        a = cost.alphas
        assert cost.t_dram == a.a_in * x_in + a.a_w * x_w + a.a_out * x_out

    def test_fewer_bursts_same_bytes_is_strictly_cheaper(self):
        # Full-width vs squarish windows with comparable volume: the
        # merged-burst tile pays less CAS per load.
        conv = conv_for(n=80, h=73, l=73, m=192, k=3)
        arch = arch_for()
        wide = tile_for(conv, arch, 1, 14, 2, 71)  # 70 bursts, 8176 B
        square = tile_for(conv, arch, 1, 16, 9, 18)  # 176 bursts, 7040 B
        x_wide = calc_data_transfer(TileKind.IN, wide, conv, arch, "burst")
        x_square = calc_data_transfer(TileKind.IN, square, conv, arch, "burst")
        assert x_wide < x_square

    def test_zero_overheads_reduce_to_volume_over_bandwidth(self):
        conv = conv_for(n=2, h=6, l=6, m=2, k=1)
        arch = arch_for(cas_ns=0.0, n_tle=1, n_tlt=1)
        slice_ = TleSlice(kind=TlePartitionKind.KS, tle_r=conv.r, tle_w=conv.m)
        tile = gen_tile(2, 2, 6, 6, ScheduleKind.IS, conv, arch, slice_)
        cost = calc_time(tile, ScheduleKind.IS, conv, slice_, arch, "burst")
        volume = tile.in_bytes + tile.w_bytes + tile.out_bytes
        assert cost.t_dram == pytest.approx(volume / 17e9, rel=1e-12)
        assert cost.t_sw == 0.0
