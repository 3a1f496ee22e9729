"""Workload slicing across TLEs and tile shaping within one TLT.

A layer is first partitioned across the ``n_tle`` clusters, either by
filters (KS), by output rows (OFM), or by both at once (KS_OFM):
:func:`tle_slicing` sizes each TLE's slice, and :func:`tle_origins` places
it for the simulator's replay.  Inside a
cluster every TLT then processes the layer slice tile by tile; a tile is
described by its output extent (t_m filters, t_r rows, t_c columns) plus the
input-channel depth t_n, and must fit the three per-TLT scratchpads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .configs import ArchConfig, ConvLayerSpec
from .util import ceil_div, minimum, select


class TlePartitionKind(Enum):
    """How the layer is split across TLEs."""

    KS = "ks"
    KS_OFM = "ksofm"
    OFM = "ofm"


class ScheduleKind(Enum):
    """Which operand a TLT keeps resident while streaming the others."""

    IS = "is"
    OS = "os"
    WS = "ws"


class Infeasible(Exception):
    """A candidate partition or tile cannot run on the given configuration."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class TleSlice:
    """Per-TLE share of a layer: tle_r output rows of tle_w filters."""

    kind: TlePartitionKind
    tle_r: int
    tle_w: int


@dataclass(frozen=True)
class TileConfig:
    """One per-TLT tile, with its scratchpad footprints in bytes.

    The search builds one whose fields are numpy arrays to price a whole
    grid of candidate tiles at once.
    """

    t_m: int
    t_n: int
    t_r: int
    t_c: int
    t_h: int
    t_l: int
    in_bytes: int
    w_bytes: int
    out_bytes: int


def tle_slicing(kind: TlePartitionKind, conv: ConvLayerSpec, n_tle: int) -> TleSlice:
    """Split a layer across n_tle clusters.

    KS gives every cluster all output rows of a filter group; OFM gives every
    cluster a row band of all filters; KS_OFM halves both ways and needs an
    even cluster count.
    """
    if n_tle < 1:
        raise Infeasible(f"n_tle must be >= 1, got {n_tle}")
    if kind is TlePartitionKind.KS:
        return TleSlice(kind, tle_r=conv.r, tle_w=ceil_div(conv.m, n_tle))
    if kind is TlePartitionKind.OFM:
        return TleSlice(kind, tle_r=ceil_div(conv.r, n_tle), tle_w=conv.m)
    if n_tle % 2:
        raise Infeasible(f"ksofm partitioning needs an even TLE count, got {n_tle}")
    half = n_tle // 2
    return TleSlice(kind, tle_r=ceil_div(conv.r, half), tle_w=ceil_div(conv.m, half))


def tle_origins(slice_: TleSlice, n_tle: int) -> list[tuple[int, int]]:
    """Output-row and filter origin of every TLE's slice, in TLE order.

    The TLEs lie row-major on a grid of row groups by filter groups: KS is
    1 by n_tle, OFM n_tle by 1, KS_OFM 2 by n_tle/2.  Slices past the map's
    end are counted but touch nothing.  The two KS_OFM rules disagree:
    tle_slicing sizes n_tle/2 row bands but this places 2 row groups, so on
    six TLEs rows from 2*tle_r on are never placed, and on two TLEs TLE 1
    starts at row r.
    """
    row_groups = {TlePartitionKind.KS: 1, TlePartitionKind.OFM: n_tle}.get(slice_.kind, 2)
    r, w = slice_.tle_r, slice_.tle_w
    return [(i * r, j * w) for i in range(row_groups) for j in range(n_tle // row_groups)]


def ifm_tile_dims(t_r: int, t_c: int, k: int, s: int) -> tuple[int, int]:
    # Input window covering t_r x t_c outputs: (t - 1) strides plus one kernel.
    return (t_r - 1) * s + k, (t_c - 1) * s + k


def filter_count(
    t_n,
    q: ScheduleKind,
    tle_w: int,
    n_tlt: int,
    conv: ConvLayerSpec,
    arch: ArchConfig,
):
    """Filters per weight tile for the worst-loaded TLT of a slice, or 0
    where mb1 cannot hold them; elementwise over an array of depths t_n.

    Every TLT is responsible for f = ceil(tle_w / n_tlt) filters.  IS keeps
    all f resident at once; OS and WS cap the group by what mb1 can hold for
    the schedule's channel depth (t_n for OS, the full depth for WS).
    """
    f = ceil_div(tle_w, n_tlt)
    kk_bytes = conv.k * conv.k * conv.elem_bytes
    if q is ScheduleKind.IS:
        return select(f * t_n * kk_bytes <= arch.mb1_bytes, f, 0)
    depth = t_n if q is ScheduleKind.OS else conv.n
    return minimum(f, arch.mb1_bytes // (depth * kk_bytes))


def get_filters(
    t_r: int,
    t_c: int,
    q: ScheduleKind,
    tle_w: int,
    n_tlt: int,
    t_n: int,
    conv: ConvLayerSpec,
    arch: ArchConfig,
) -> int:
    """filter_count for one tile; raises Infeasible when no filter fits mb1."""
    t_m = filter_count(t_n, q, tle_w, n_tlt, conv, arch)
    if t_m >= 1:
        return t_m
    kk_bytes = conv.k * conv.k * conv.elem_bytes
    if q is ScheduleKind.IS:
        need = ceil_div(tle_w, n_tlt) * t_n * kk_bytes
        raise Infeasible(
            f"is schedule needs {need} weight bytes resident, mb1 holds {arch.mb1_bytes}"
        )
    if q is ScheduleKind.OS:
        raise Infeasible(f"mb1 cannot hold one filter of depth {t_n}")
    raise Infeasible(f"mb1 cannot hold one full-depth filter of {conv.n} channels")


def tile_footprint(t_m, t_n, t_r, t_c, q: ScheduleKind, conv: ConvLayerSpec) -> TileConfig:
    """A tile's input window and scratchpad bytes, unchecked; elementwise
    over arrays of tile sides.

    The input window is clamped to the padded map extent; weight depth is t_n
    for IS/OS and the full channel count for WS.
    """
    t_h, t_l = ifm_tile_dims(t_r, t_c, conv.k, conv.s)
    t_h = minimum(t_h, conv.h + 2 * conv.p)
    t_l = minimum(t_l, conv.l + 2 * conv.p)
    e = conv.elem_bytes
    w_depth = conv.n if q is ScheduleKind.WS else t_n
    # Scalar factors come first so that grid temporaries stay small.
    return TileConfig(
        t_m=t_m,
        t_n=t_n,
        t_r=t_r,
        t_c=t_c,
        t_h=t_h,
        t_l=t_l,
        in_bytes=t_n * e * t_h * t_l,
        w_bytes=t_m * w_depth * (conv.k * conv.k * e),
        out_bytes=t_m * e * t_r * t_c,
    )


def gen_tile(
    t_m: int,
    t_n: int,
    t_r: int,
    t_c: int,
    q: ScheduleKind,
    conv: ConvLayerSpec,
    arch: ArchConfig,
    slice_: TleSlice,
) -> TileConfig:
    """Build a tile and check it against the three scratchpads.

    Raises Infeasible naming the violated scratchpad.
    """
    tile = tile_footprint(t_m, t_n, t_r, t_c, q, conv)
    if tile.in_bytes > arch.mb0_bytes:
        raise Infeasible(f"in tile {tile.in_bytes} B exceeds mb0 {arch.mb0_bytes} B")
    if tile.w_bytes > arch.mb1_bytes:
        raise Infeasible(f"weight tile {tile.w_bytes} B exceeds mb1 {arch.mb1_bytes} B")
    if tile.out_bytes > arch.mb2_bytes:
        raise Infeasible(f"out tile {tile.out_bytes} B exceeds mb2 {arch.mb2_bytes} B")
    return tile
