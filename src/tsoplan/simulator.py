"""Brute-force transfer-trace simulator.

Replays the tile loop nest of a schedule as an explicit event sequence and
counts every DRAM transfer, independently of the closed-form transfer
multiplicities in :mod:`tsoplan.costmodel`.  The replay follows the same
conventions the analytic model prices:

* Every TLE walks the tile grid of one uniform layer slice (tle_r output
  rows of tle_w filters) from the origin :func:`tle_origins` gives it,
  including grid slots whose slice overhangs the actual map; those still
  count as transfers but touch an empty or clipped byte range.  Input
  tiles are multicast within a cluster, so one load serves all its TLTs.
* IS replays as OS with a single filter group, the rule compute_alphas
  prices too: each store covers every output channel of its spatial
  window.  OS and WS walk filter groups of t_m.
* Output tiles are stored once per tile of the whole output map, on the
  map's own tile grid, so store events partition the output map exactly.
  A store belongs to the last TLE whose slice origin lies at or before the
  store's first row and filter.
* Events are ordered TLE-major for reproducibility, with the store pass
  appended in the schedule's traversal order.  Totals are what the analytic
  model must match; ordering is a presentation choice.

The simulator stores no tensor values, only address arithmetic, which keeps
exhaustive toy-scale sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .configs import ArchConfig, ConvLayerSpec
from .costmodel import TileKind, box_runs, tile_box
from .slicing import ScheduleKind, TileConfig, TleSlice, tle_origins
from .util import ceil_div


@dataclass(frozen=True)
class TransferEvent:
    """One tile move: a box in a row-major source tensor."""

    kind: TileKind
    tle: int
    origin: tuple[int, int, int]
    extent: tuple[int, int, int]
    map_dims: tuple[int, int, int]
    elem_bytes: int
    runs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class BurstTotals:
    aligned: int
    address_aware: int


@dataclass
class TransferTrace:
    events: list[TransferEvent]
    loads_in: int
    loads_w: int
    stores_out: int
    total_bursts: dict[TileKind, BurstTotals] | None = None


def _event(kind: TileKind, tle: int, dims, origin, extent, elem_bytes: int) -> TransferEvent:
    runs = tuple(box_runs(dims, origin, extent, elem_bytes))
    return TransferEvent(kind, tle, origin, extent, dims, elem_bytes, runs)


def simulate_schedule(
    q: ScheduleKind,
    conv: ConvLayerSpec,
    slice_: TleSlice,
    tile: TileConfig,
    arch: ArchConfig,
    keep_events: bool = True,
    count_bursts: bool = False,
) -> TransferTrace:
    """Replay one layer's schedule and count every transfer.

    Slices start where :func:`tle_origins` places them, and IS walks one
    group of all m filters, as :func:`compute_alphas` counts it.
    With keep_events=False only the totals are produced, which keeps large
    layers affordable.  count_bursts additionally runs the exhaustive burst
    enumeration over the retained events.
    """
    in_dims, in_extent = tile_box(TileKind.IN, tile, conv)
    w_dims, w_extent = tile_box(TileKind.W, tile, conv)
    out_dims, _ = tile_box(TileKind.OUT, tile, conv)
    t_r, t_c, t_n, e = tile.t_r, tile.t_c, tile.t_n, conv.elem_bytes
    s, p = conv.s, conv.p
    group = conv.m if q is ScheduleKind.IS else tile.t_m

    cr = ceil_div(slice_.tle_r, t_r)
    cc = ceil_div(conv.c, t_c)
    cn = ceil_div(conv.n, t_n)
    cm = ceil_div(slice_.tle_w, group)
    origins = tle_origins(slice_, arch.n_tle)

    events: list[TransferEvent] = []
    loads_in = loads_w = stores_out = 0
    for tle, (row0, fil0) in enumerate(origins):
        if q is ScheduleKind.WS:
            # A filter group's weights load once, then every input tile streams past.
            for km in range(cm):
                loads_w += 1
                if keep_events:
                    w_origin = (fil0 + km * group, 0, 0)
                    events.append(_event(TileKind.W, tle, w_dims, w_origin, w_extent, e))
                for kr, kc, kn in product(range(cr), range(cc), range(cn)):
                    loads_in += 1
                    if keep_events:
                        origin = (kn * t_n, (row0 + kr * t_r) * s - p, kc * t_c * s - p)
                        events.append(_event(TileKind.IN, tle, in_dims, origin, in_extent, e))
        else:
            for kr, kc, km, kn in product(range(cr), range(cc), range(cm), range(cn)):
                loads_in += 1
                loads_w += 1
                if keep_events:
                    origin = (kn * t_n, (row0 + kr * t_r) * s - p, kc * t_c * s - p)
                    events.append(_event(TileKind.IN, tle, in_dims, origin, in_extent, e))
                    w_origin = (fil0 + km * group, kn * t_n, 0)
                    events.append(_event(TileKind.W, tle, w_dims, w_origin, w_extent, e))

    gr = ceil_div(conv.r, t_r)
    gm = ceil_div(conv.m, group)
    # WS walks filter groups outermost; IS and OS walk them innermost.
    if q is ScheduleKind.WS:
        stores = product(range(gm), range(gr), range(cc))
    else:
        stores = ((km, kr, kc) for kr, kc, km in product(range(gr), range(cc), range(gm)))
    for km, kr, kc in stores:
        stores_out += 1
        if keep_events:
            fil, row = km * group, kr * t_r
            owner = max(t for t, (r0, f0) in enumerate(origins) if r0 <= row and f0 <= fil)
            origin = (fil, row, kc * t_c)
            events.append(_event(TileKind.OUT, owner, out_dims, origin, (group, t_r, t_c), e))

    trace = TransferTrace(events, loads_in, loads_w, stores_out)
    if count_bursts:
        trace.total_bursts = count_bursts_exact(trace, arch)
    return trace


def count_bursts_exact(trace: TransferTrace, arch: ArchConfig) -> dict[TileKind, BurstTotals]:
    """Exhaustive per-byte burst enumeration over a trace.

    Walks every byte of each event's box clipped to the map straight from
    its origin and extent (ignoring the precomputed runs), in plane, row,
    column, byte order.  Addresses strictly increase along that walk because
    every clipped index range ascends inside the map, so one pass splits the
    bytes into maximal contiguous runs and counts each run's burst-aligned
    blocks.  Linear in the bytes it walks; intended for toy-scale validation.
    """
    burst = arch.burst_bytes
    aligned = {kind: 0 for kind in TileKind}
    address_aware = {kind: 0 for kind in TileKind}
    for event in trace.events:
        (d0, d1, d2), e = event.map_dims, event.elem_bytes
        (o0, o1, o2), (x0, x1, x2) = event.origin, event.extent
        lo2, hi2 = max(o2, 0), min(o2 + x2, d2)
        n_aligned = n_blocks = 0
        start, last, block = -1, -2, -1  # an empty run before the first byte
        for ci in range(max(o0, 0), min(o0 + x0, d0)):
            for cj in range(max(o1, 0), min(o1 + x1, d1)):
                row = (ci * d1 + cj) * d2
                # The row's columns, byte by byte.
                for b in range((row + lo2) * e, (row + hi2) * e):
                    if b != last + 1:
                        n_aligned += ceil_div(last + 1 - start, burst)
                        start, block = b, -1
                    if b // burst != block:
                        block = b // burst
                        n_blocks += 1
                    last = b
        aligned[event.kind] += n_aligned + ceil_div(last + 1 - start, burst)
        address_aware[event.kind] += n_blocks
    return {
        kind: BurstTotals(aligned=aligned[kind], address_aware=address_aware[kind])
        for kind in TileKind
    }
