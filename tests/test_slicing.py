"""Partitioning, tile geometry, and scratchpad feasibility."""

import pytest
from hypothesis import given, strategies as st

from tsoplan.configs import ArchConfig
from tsoplan.slicing import (
    Infeasible,
    ScheduleKind,
    TlePartitionKind,
    gen_tile,
    get_filters,
    ifm_tile_dims,
    tle_origins,
    tle_slicing,
)
from tsoplan.util import ceil_div

from _models import arch_for, conv_for


class TestTleSlicing:
    def test_ks_splits_filters_only(self):
        sl = tle_slicing(TlePartitionKind.KS, conv_for(m=100), 4)
        assert (sl.tle_r, sl.tle_w) == (14, 25)

    def test_ks_rounds_filters_up(self):
        sl = tle_slicing(TlePartitionKind.KS, conv_for(m=10), 4)
        assert sl.tle_w == 3

    def test_ofm_splits_rows_only(self):
        conv = conv_for(h=16, m=10)  # r = 14
        sl = tle_slicing(TlePartitionKind.OFM, conv, 4)
        assert (sl.tle_r, sl.tle_w) == (4, 10)

    def test_ksofm_splits_both_ways(self):
        conv = conv_for(h=12, m=10)  # r = 10
        sl = tle_slicing(TlePartitionKind.KS_OFM, conv, 4)
        assert (sl.tle_r, sl.tle_w) == (5, 5)

    def test_ksofm_needs_even_cluster_count(self):
        with pytest.raises(Infeasible, match="even"):
            tle_slicing(TlePartitionKind.KS_OFM, conv_for(), 3)

    def test_single_cluster_degenerates_to_whole_layer(self):
        conv = conv_for(m=10)
        for kind in (TlePartitionKind.KS, TlePartitionKind.OFM):
            sl = tle_slicing(kind, conv, 1)
            assert (sl.tle_r, sl.tle_w) == (conv.r, conv.m)


class TestTleOrigins:
    """Where each TLE's slice starts, pinned on a 12-row, 12-filter layer.

    The KS_OFM pins record today's layout, in which tle_slicing cuts n_tle/2
    row bands but tle_origins places 2 row groups; repairing that layout
    changes the two-TLE and six-TLE cases.
    """

    conv = conv_for(h=14, m=12)  # r = 12

    def origins(self, kind, n_tle):
        return tle_origins(tle_slicing(kind, self.conv, n_tle), n_tle)

    @pytest.mark.parametrize(
        "n_tle,expected",
        [
            (1, [(0, 0)]),
            (2, [(0, 0), (0, 6)]),
            (4, [(0, 0), (0, 3), (0, 6), (0, 9)]),
            (6, [(0, 0), (0, 2), (0, 4), (0, 6), (0, 8), (0, 10)]),
        ],
    )
    def test_ks_places_filter_groups(self, n_tle, expected):
        assert self.origins(TlePartitionKind.KS, n_tle) == expected

    @pytest.mark.parametrize(
        "n_tle,expected",
        [
            (1, [(0, 0)]),
            (2, [(0, 0), (6, 0)]),
            (4, [(0, 0), (3, 0), (6, 0), (9, 0)]),
            (6, [(0, 0), (2, 0), (4, 0), (6, 0), (8, 0), (10, 0)]),
        ],
    )
    def test_ofm_places_row_bands(self, n_tle, expected):
        assert self.origins(TlePartitionKind.OFM, n_tle) == expected

    def test_ksofm_on_one_tle_has_no_slice_to_place(self):
        with pytest.raises(Infeasible, match="even"):
            self.origins(TlePartitionKind.KS_OFM, 1)

    def test_ksofm_on_two_tles_starts_tle_1_past_the_map(self):
        # Each TLE's slice is the whole layer, yet TLE 1 starts at row r.
        assert self.origins(TlePartitionKind.KS_OFM, 2) == [(0, 0), (12, 0)]

    def test_ksofm_on_four_tles_is_two_by_two(self):
        assert self.origins(TlePartitionKind.KS_OFM, 4) == [(0, 0), (0, 6), (6, 0), (6, 6)]

    def test_ksofm_on_six_tles_never_places_rows_from_2_tle_r_on(self):
        # tle_r = 4: two row groups cover rows 0..7, rows 8..11 have no TLE.
        origins = self.origins(TlePartitionKind.KS_OFM, 6)
        assert origins == [(0, 0), (0, 4), (0, 8), (4, 0), (4, 4), (4, 8)]


class TestIfmTileDims:
    def test_unit_kernel_unit_stride_is_identity(self):
        assert ifm_tile_dims(5, 7, 1, 1) == (5, 7)

    def test_strided_window(self):
        # 4 outputs at stride 2 with a 3-wide kernel touch rows 0..8.
        assert ifm_tile_dims(4, 1, 3, 2) == (9, 3)

    @given(
        t=st.integers(1, 32),
        k=st.integers(1, 7),
        s=st.integers(1, 4),
    )
    def test_matches_receptive_field_union(self, t, k, s):
        # Union of input rows touched by outputs 0..t-1: rows i*s .. i*s+k-1.
        rows = set()
        for i in range(t):
            rows.update(range(i * s, i * s + k))
        t_h, _ = ifm_tile_dims(t, 1, k, s)
        assert t_h == max(rows) + 1
        # Windows overlap or abut whenever s <= k, making the union dense.
        if s <= k:
            assert t_h == len(rows)


class TestGetFilters:
    def brute_force_cap(self, depth, conv, arch):
        # Largest filter group whose weights fit mb1 at the given depth.
        g = 0
        while (g + 1) * depth * conv.k * conv.k * conv.elem_bytes <= arch.mb1_bytes:
            g += 1
        return g

    @pytest.mark.parametrize("q", list(ScheduleKind))
    @pytest.mark.parametrize("tle_w,n_tlt,t_n", [(8, 8, 1), (100, 8, 3), (64, 2, 7), (5, 8, 2)])
    def test_matches_enumeration_oracle(self, q, tle_w, n_tlt, t_n):
        conv = conv_for(n=8, m=max(tle_w, 1), k=3)
        arch = arch_for(mb=512, n_tlt=n_tlt)
        f = ceil_div(tle_w, n_tlt)
        depth = {ScheduleKind.IS: t_n, ScheduleKind.OS: t_n, ScheduleKind.WS: conv.n}[q]
        cap = self.brute_force_cap(depth, conv, arch)
        if q is ScheduleKind.IS:
            if f > cap:
                with pytest.raises(Infeasible):
                    get_filters(1, 1, q, tle_w, n_tlt, t_n, conv, arch)
                return
            expected = f
        else:
            if cap == 0:
                with pytest.raises(Infeasible):
                    get_filters(1, 1, q, tle_w, n_tlt, t_n, conv, arch)
                return
            expected = min(f, cap)
        assert get_filters(1, 1, q, tle_w, n_tlt, t_n, conv, arch) == expected

    def test_ws_caps_by_full_depth(self):
        conv = conv_for(n=16, m=64, k=3, e=2)
        arch = arch_for(mb=8192)
        # One full-depth filter needs 16*9*2 = 288 B; mb1 holds 28 of them.
        assert get_filters(1, 1, ScheduleKind.WS, 64, 1, 2, conv, arch) == 28

    def test_ws_infeasible_when_one_filter_overflows(self):
        conv = conv_for(n=64, m=8, k=5, e=2)  # one filter: 64*25*2 = 3200 B
        arch = arch_for(mb=2048)
        with pytest.raises(Infeasible, match="full-depth"):
            get_filters(1, 1, ScheduleKind.WS, 8, 1, 1, conv, arch)


class TestGenTile:
    def test_window_and_byte_accounting(self):
        conv = conv_for(n=4, h=16, l=16, m=8, k=3, s=2)
        arch = arch_for()
        tile = gen_tile(2, 3, 4, 5, ScheduleKind.OS, conv, arch, None)
        assert (tile.t_h, tile.t_l) == (9, 11)
        assert tile.in_bytes == 3 * 9 * 11 * 2
        assert tile.w_bytes == 2 * 3 * 9 * 2
        assert tile.out_bytes == 2 * 4 * 5 * 2

    def test_window_clamped_to_padded_map(self):
        conv = conv_for(h=8, l=8, k=3, s=1, p=1)  # r = c = 8
        tile = gen_tile(1, 1, 8, 8, ScheduleKind.OS, conv, arch_for(), None)
        assert (tile.t_h, tile.t_l) == (10, 10)  # (8-1)+3 = 10 = h + 2p

    def test_ws_weights_use_full_depth(self):
        conv = conv_for(n=8, k=3)
        tile = gen_tile(2, 3, 2, 2, ScheduleKind.WS, conv, arch_for(), None)
        assert tile.w_bytes == 2 * 8 * 9 * 2

    @pytest.mark.parametrize(
        "mb_key,match",
        [("mb0", "mb0"), ("mb1", "mb1"), ("mb2", "mb2")],
    )
    def test_overflow_names_the_scratchpad(self, mb_key, match):
        conv = conv_for(n=64, h=32, l=32, m=64, k=3)
        sizes = {"mb0": 8192, "mb1": 8192, "mb2": 8192}
        # Shrink one buffer below the candidate tile's footprint.
        sizes[mb_key] = 16
        arch = ArchConfig(
            n_tle=1, n_tlt=1, mb0_bytes=sizes["mb0"], mb1_bytes=sizes["mb1"],
            mb2_bytes=sizes["mb2"], datapath_bits=128, freq_hz=1e9, cas_ns=14.0,
            bw_bytes_per_s=17e9, burst_bytes=128, sw_overhead_ns=0.0,
        )
        with pytest.raises(Infeasible, match=match):
            gen_tile(2, 2, 3, 3, ScheduleKind.OS, conv, arch, None)

    @given(
        t_r=st.integers(1, 12),
        t_c=st.integers(1, 12),
        t_n=st.integers(1, 6),
        t_m=st.integers(1, 6),
        k=st.integers(1, 3),
        s=st.integers(1, 2),
    )
    def test_feasible_tiles_respect_all_three_buffers(self, t_r, t_c, t_n, t_m, k, s):
        conv = conv_for(n=6, h=14, l=14, m=6, k=k, s=s)
        if t_r > conv.r or t_c > conv.c:
            return
        arch = arch_for(mb=640)
        try:
            tile = gen_tile(t_m, t_n, t_r, t_c, ScheduleKind.OS, conv, arch, None)
        except Infeasible:
            return
        assert tile.in_bytes <= arch.mb0_bytes
        assert tile.w_bytes <= arch.mb1_bytes
        assert tile.out_bytes <= arch.mb2_bytes
