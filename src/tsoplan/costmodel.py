"""Analytic execution-time model for one tiled convolution.

Total layer time is the sum of three independent parts: MAC time for the
tile grid spread over every TLT core, DRAM transfer time for all tile loads
and stores, and a fixed software overhead per transfer.  Compute and
transfers do not overlap in this device, so the parts add.

Transfers are charged per tile kind: how often a tile of each kind moves
(the alpha factors) times how long one such move takes.  :func:`move_times`
is the one place that product is formed, for the layer total and the plan
table's load and store shares alike.  In the burst time model a move pays
one CAS latency per DRAM burst it touches plus the tile's bytes over the
peak bandwidth; in the noburst model only the bandwidth term remains; only
this DRAM term depends on the time model.  Burst counts come from
decomposing the tile's footprint into maximal contiguous byte runs of the
row-major source tensor.

Every formula here takes plain ints for one tile or numpy arrays for a grid
of candidate tiles; the search prices its grids through these same
functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal

from .configs import ArchConfig, ConvLayerSpec
from .slicing import ScheduleKind, TileConfig, TleSlice
from .util import ceil_div, minimum, select

BurstMode = Literal["aligned", "address_aware"]
TimeModel = Literal["burst", "noburst"]


class TileKind(Enum):
    IN = "in"
    W = "w"
    OUT = "out"


@dataclass(frozen=True)
class Alphas:
    """Transfer multiplicities: how many tile moves of each kind one layer needs."""

    a_in: int
    a_w: int
    a_out: int

    @property
    def total(self) -> int:
        return self.a_in + self.a_w + self.a_out


@dataclass(frozen=True)
class CostBreakdown:
    """Estimated layer time in seconds, split by source, plus per-tile burst counts."""

    t_mac: float
    t_dram: float
    t_sw: float
    t_total: float
    alphas: Alphas
    bursts_in: int
    bursts_w: int
    bursts_out: int
    mode: TimeModel


def compute_alphas(
    q: ScheduleKind,
    conv: ConvLayerSpec,
    slice_: TleSlice,
    tile: TileConfig,
    n_tle: int,
) -> Alphas:
    """Tile-move counts for a schedule, counted the way the simulator walks it.

    IS is OS with one resident group of all m filters (every slice has
    tle_w <= m); OS and WS walk groups of t_m.  Input tiles are multicast
    within a cluster, so they move once per TLE, slice tile and group, and
    weights with them, except that WS loads each group once.  Output tiles
    leave once per tile and group of the whole map, whatever the clustering.
    """
    group = conv.m if q is ScheduleKind.IS else tile.t_m
    cr = ceil_div(slice_.tle_r, tile.t_r)
    # Columns are never split across TLEs: slice and map share this count.
    cc = ceil_div(conv.c, tile.t_c)
    cm = ceil_div(slice_.tle_w, group)
    a_in = n_tle * cr * cc * ceil_div(conv.n, tile.t_n) * cm
    a_w = n_tle * cm if q is ScheduleKind.WS else a_in
    return Alphas(a_in, a_w, ceil_div(conv.r, tile.t_r) * cc * ceil_div(conv.m, group))


def tile_mac_time(tile: TileConfig, conv: ConvLayerSpec, arch: ArchConfig) -> float:
    """Seconds one TLT spends computing one tile."""
    macs = arch.macs_per_cycle(conv.elem_bytes)
    cycles = tile.t_n * tile.t_m * ceil_div(tile.t_r * tile.t_c * (conv.k * conv.k), macs)
    return cycles / arch.freq_hz


def conv_mac_time(tile: TileConfig, conv: ConvLayerSpec, arch: ArchConfig) -> float:
    """Seconds to compute the whole layer's tile grid, spread over every TLT
    core in the device."""
    n_tiles = (
        ceil_div(conv.m, tile.t_m)
        * ceil_div(conv.n, tile.t_n)
        * ceil_div(conv.r, tile.t_r)
        * ceil_div(conv.c, tile.t_c)
    )
    return n_tiles * tile_mac_time(tile, conv, arch) / (arch.n_tle * arch.n_tlt)


def box_runs(
    map_dims: tuple[int, int, int],
    origin: tuple[int, int, int],
    extent: tuple[int, int, int],
    elem_bytes: int,
) -> list[tuple[int, int]]:
    """Maximal contiguous byte runs of a box inside a row-major 3-D tensor.

    The box is clipped to the tensor first, so origins may be negative
    (padding) or extents may overhang.  Returns (start_byte, len_bytes)
    pairs in increasing address order; adjacent runs are merged.
    """
    d0, d1, d2 = map_dims
    lo = [max(o, 0) for o in origin]
    hi = [
        min(origin[0] + extent[0], d0),
        min(origin[1] + extent[1], d1),
        min(origin[2] + extent[2], d2),
    ]
    e0, e1, e2 = hi[0] - lo[0], hi[1] - lo[1], hi[2] - lo[2]
    if e0 <= 0 or e1 <= 0 or e2 <= 0:
        return []
    # Rows merge only when they span the last dimension, planes only when
    # they also span the middle one.
    planes = range(lo[0], hi[0])
    if e2 < d2:
        runs = [((i * d1 + j) * d2 + lo[2], e2) for i in planes for j in range(lo[1], hi[1])]
    elif e1 < d1:
        runs = [((i * d1 + lo[1]) * d2, e1 * d2) for i in planes]
    else:
        runs = [(lo[0] * d1 * d2, e0 * d1 * d2)]
    return [(start * elem_bytes, n * elem_bytes) for start, n in runs]


def tile_box(
    kind: TileKind, tile: TileConfig, conv: ConvLayerSpec
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Map dimensions and box extent of one tile in its source tensor.

    IN boxes live in the (channels, rows, cols) input map, OUT boxes in the
    (filters, rows, cols) output map.  Weights are filter-major with each
    filter's channels contiguous, so a weight tile is a (filters, depth,
    k*k elements) box; the depth is recovered from the tile's byte size
    because it depends on the schedule that shaped the tile.
    """
    if kind is TileKind.IN:
        return (conv.n, conv.h, conv.l), (tile.t_n, tile.t_h, tile.t_l)
    if kind is TileKind.OUT:
        return (conv.m, conv.r, conv.c), (tile.t_m, tile.t_r, tile.t_c)
    kk = conv.k * conv.k
    w_depth = tile.w_bytes // (tile.t_m * kk * conv.elem_bytes)
    return (conv.m, conv.n, kk), (tile.t_m, w_depth, kk)


def calc_burst_count(
    kind: TileKind,
    tile: TileConfig,
    conv: ConvLayerSpec,
    arch: ArchConfig,
    mode: BurstMode = "aligned",
    origin: tuple[int, int, int] = (0, 0, 0),
) -> int:
    """DRAM bursts one tile move touches, counted over its byte runs.

    aligned assumes every run starts on a burst boundary; address_aware
    counts the burst-sized blocks the run actually overlaps at its true byte
    address (tensor bases are burst-aligned).  At the map origin the aligned
    count is what :func:`aligned_bursts` states in closed form.
    """
    dims, extent = tile_box(kind, tile, conv)
    burst = arch.burst_bytes
    total = 0
    for start, length in box_runs(dims, origin, extent, conv.elem_bytes):
        if mode == "aligned":
            total += ceil_div(length, burst)
        else:
            total += (start + length - 1) // burst - start // burst + 1
    return total


def aligned_bursts(kind: TileKind, tile: TileConfig, conv: ConvLayerSpec, arch: ArchConfig):
    """Aligned bursts of one tile move whose box starts at the map origin.

    The clipped box is one run per (channel, row) while it is narrower than
    the map, one run per channel once it spans whole rows, and a single run
    once it also spans whole channels.  Elementwise over array tiles.
    """
    (d0, d1, d2), (e0, e1, e2) = tile_box(kind, tile, conv)
    x0, x1, x2 = minimum(e0, d0), minimum(e1, d1), minimum(e2, d2)
    partial_rows = x2 < d2
    partial_chans = x1 < d1
    n_runs = select(partial_rows, x0 * x1, select(partial_chans, x0, 1))
    run_elems = select(partial_rows, x2, select(partial_chans, x1 * d2, x0 * (d1 * d2)))
    return n_runs * ceil_div(run_elems * conv.elem_bytes, arch.burst_bytes)


def transfer_time(nbursts, tile_bytes, arch: ArchConfig, model: TimeModel):
    """Seconds for one tile move: the bytes at bandwidth rate, plus one CAS
    latency per burst under the burst model."""
    if model == "burst":
        return nbursts * arch.cas_s + tile_bytes / arch.bw_bytes_per_s
    return tile_bytes / arch.bw_bytes_per_s


_TILE_BYTES = {
    TileKind.IN: lambda t: t.in_bytes,
    TileKind.W: lambda t: t.w_bytes,
    TileKind.OUT: lambda t: t.out_bytes,
}


def calc_data_transfer(
    kind: TileKind,
    tile: TileConfig,
    conv: ConvLayerSpec,
    arch: ArchConfig,
    model: TimeModel = "burst",
) -> float:
    """Seconds to move one tile between DRAM and a scratchpad."""
    return transfer_time(aligned_bursts(kind, tile, conv, arch), _TILE_BYTES[kind](tile), arch, model)


def calc_time(
    tile: TileConfig,
    q: ScheduleKind,
    conv: ConvLayerSpec,
    slice_: TleSlice,
    arch: ArchConfig,
    model: TimeModel = "burst",
) -> CostBreakdown:
    """Full additive time estimate for running a layer with one tile shape.

    Elementwise over a TileConfig of arrays, giving a CostBreakdown of
    arrays bit for bit equal to pricing each tile on its own.
    """
    alphas = compute_alphas(q, conv, slice_, tile, arch.n_tle)
    bursts = (aligned_bursts(kind, tile, conv, arch) for kind in TileKind)
    t_sw = alphas.total * arch.sw_overhead_s
    cost = CostBreakdown(conv_mac_time(tile, conv, arch), 0.0, t_sw, 0.0, alphas, *bursts, model)
    return remodel(cost, tile, arch, model)


def move_times(cost: CostBreakdown, tile: TileConfig, arch: ArchConfig, model: TimeModel):
    """Seconds of all IN, W and OUT moves of ``tile`` under ``model``: each
    kind's move count times one move's transfer time, elementwise over
    array tiles."""
    a = cost.alphas
    return (
        a.a_in * transfer_time(cost.bursts_in, tile.in_bytes, arch, model),
        a.a_w * transfer_time(cost.bursts_w, tile.w_bytes, arch, model),
        a.a_out * transfer_time(cost.bursts_out, tile.out_bytes, arch, model),
    )


def remodel(cost: CostBreakdown, tile: TileConfig, arch: ArchConfig, model: TimeModel):
    """``cost`` of ``tile`` with the DRAM term and total under ``model``, the
    only terms a time model changes.  calc_time builds its own here, so this
    is calc_time under ``model`` bit for bit, elementwise over array tiles."""
    t_in, t_w, t_out = move_times(cost, tile, arch, model)
    t_mac, t_dram, t_sw = cost.t_mac, t_in + t_w + t_out, cost.t_sw
    bursts = (cost.bursts_in, cost.bursts_w, cost.bursts_out)
    return CostBreakdown(t_mac, t_dram, t_sw, t_mac + t_dram + t_sw, cost.alphas, *bursts, model)
