"""Brute-force transfer-trace simulator.

Replays the tile loop nest of a schedule as an explicit event sequence and
counts every DRAM transfer, independently of the closed-form transfer
multiplicities in :mod:`tsoplan.costmodel`.  The replay follows the same
conventions the analytic model prices:

* Every TLE walks the tile grid of one uniform layer slice (tle_r output
  rows of tle_w filters), including grid slots whose slice overhangs the
  actual map; overhanging slots still count as transfers but touch an empty
  or clipped byte range.  Input tiles are multicast within a cluster, so
  one load event serves all of its TLTs.
* Output tiles are stored once per tile of the whole output map, on the
  map's own tile grid.  Under IS all of a TLT's filters stay resident, so a
  store covers every output channel of its spatial window; under OS and WS
  stores walk filter groups as well.  Store events therefore partition the
  output map exactly.
* Events are ordered TLE-major for reproducibility, with the store pass
  appended in the schedule's traversal order.  Totals are what the analytic
  model must match; ordering is a presentation choice.

The simulator stores no tensor values, only address arithmetic, which keeps
exhaustive toy-scale sweeps cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .configs import ArchConfig, ConvLayerSpec
from .costmodel import TileKind, box_runs, tile_box
from .slicing import ScheduleKind, TileConfig, TlePartitionKind, TleSlice
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


def _slice_origin(slice_: TleSlice, tle: int, n_tle: int) -> tuple[int, int]:
    """Output-row and filter origin of one TLE's slice.

    KS_OFM pairs row groups with filter groups; with four TLEs that is the
    classic two-by-two split.  Groups may overhang the map for other even
    counts; overhanging work is counted but touches nothing.
    """
    if slice_.kind is TlePartitionKind.KS:
        return 0, tle * slice_.tle_w
    if slice_.kind is TlePartitionKind.OFM:
        return tle * slice_.tle_r, 0
    half = n_tle // 2
    return (tle // half) * slice_.tle_r, (tle % half) * slice_.tle_w


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

    With keep_events=False only the totals are produced, which keeps large
    layers affordable.  count_bursts additionally runs the exhaustive burst
    enumeration over the retained events.
    """
    in_dims, in_extent = tile_box(TileKind.IN, tile, conv)
    w_dims, w_extent = tile_box(TileKind.W, tile, conv)
    out_dims, out_extent = tile_box(TileKind.OUT, tile, conv)

    cr = ceil_div(slice_.tle_r, tile.t_r)
    cc = ceil_div(conv.c, tile.t_c)
    cn = ceil_div(conv.n, tile.t_n)
    cm = ceil_div(slice_.tle_w, tile.t_m)

    events: list[TransferEvent] = []
    loads_in = loads_w = stores_out = 0

    def emit(kind: TileKind, tle: int, dims, origin, extent) -> None:
        runs = tuple(box_runs(dims, origin, extent, conv.elem_bytes))
        events.append(
            TransferEvent(
                kind=kind,
                tle=tle,
                origin=origin,
                extent=extent,
                map_dims=dims,
                elem_bytes=conv.elem_bytes,
                runs=runs,
            )
        )

    for tle in range(arch.n_tle):
        row0, fil0 = _slice_origin(slice_, tle, arch.n_tle)

        def in_load(kr: int, kc: int, kn: int, tle: int = tle, row0: int = row0) -> None:
            nonlocal loads_in
            loads_in += 1
            if keep_events:
                origin = (
                    kn * tile.t_n,
                    (row0 + kr * tile.t_r) * conv.s - conv.p,
                    kc * tile.t_c * conv.s - conv.p,
                )
                emit(TileKind.IN, tle, in_dims, origin, in_extent)

        def w_load(km: int, kn: int, tle: int = tle, fil0: int = fil0) -> None:
            nonlocal loads_w
            loads_w += 1
            if keep_events:
                depth0 = 0 if q is ScheduleKind.WS else kn * tile.t_n
                emit(TileKind.W, tle, w_dims, (fil0 + km * tile.t_m, depth0, 0), w_extent)

        if q is ScheduleKind.IS:
            for kr in range(cr):
                for kc in range(cc):
                    for kn in range(cn):
                        in_load(kr, kc, kn)
                        w_load(0, kn)
        elif q is ScheduleKind.OS:
            for kr in range(cr):
                for kc in range(cc):
                    for km in range(cm):
                        for kn in range(cn):
                            in_load(kr, kc, kn)
                            w_load(km, kn)
        else:
            for km in range(cm):
                w_load(km, 0)
                for kr in range(cr):
                    for kc in range(cc):
                        for kn in range(cn):
                            in_load(kr, kc, kn)

    gr = ceil_div(conv.r, tile.t_r)
    gc = ceil_div(conv.c, tile.t_c)
    gm = ceil_div(conv.m, tile.t_m)
    half = max(arch.n_tle // 2, 1)

    def store_tle(kr: int, km: int) -> int:
        # Attribute the store to the cluster whose slice holds the tile start.
        if slice_.kind is TlePartitionKind.KS:
            return min(km * tile.t_m // slice_.tle_w, arch.n_tle - 1)
        if slice_.kind is TlePartitionKind.OFM:
            return min(kr * tile.t_r // slice_.tle_r, arch.n_tle - 1)
        r_grp = min(kr * tile.t_r // slice_.tle_r, half - 1)
        w_grp = min(km * tile.t_m // slice_.tle_w, half - 1)
        return r_grp * half + w_grp

    def out_store(kr: int, kc: int, km: int) -> None:
        nonlocal stores_out
        stores_out += 1
        if keep_events:
            if q is ScheduleKind.IS:
                origin = (0, kr * tile.t_r, kc * tile.t_c)
                extent = (conv.m, tile.t_r, tile.t_c)
            else:
                origin = (km * tile.t_m, kr * tile.t_r, kc * tile.t_c)
                extent = out_extent
            emit(TileKind.OUT, store_tle(kr, km), out_dims, origin, extent)

    if q is ScheduleKind.IS:
        for kr in range(gr):
            for kc in range(gc):
                out_store(kr, kc, 0)
    elif q is ScheduleKind.OS:
        for kr in range(gr):
            for kc in range(gc):
                for km in range(gm):
                    out_store(kr, kc, km)
    else:
        for km in range(gm):
            for kr in range(gr):
                for kc in range(gc):
                    out_store(kr, kc, km)

    trace = TransferTrace(
        events=events,
        loads_in=loads_in,
        loads_w=loads_w,
        stores_out=stores_out,
    )
    if count_bursts:
        trace.total_bursts = count_bursts_exact(trace, arch)
    return trace


def count_bursts_exact(trace: TransferTrace, arch: ArchConfig) -> dict[TileKind, BurstTotals]:
    """Exhaustive per-byte burst enumeration over a trace.

    Rebuilds every event's touched byte set straight from its box (ignoring
    the precomputed runs), splits it into maximal contiguous intervals, and
    counts burst-aligned blocks per interval.  Quadratically slower than the
    closed forms and proud of it; intended for toy-scale validation.
    """
    burst = arch.burst_bytes
    aligned = {kind: 0 for kind in TileKind}
    address_aware = {kind: 0 for kind in TileKind}
    for event in trace.events:
        d0, d1, d2 = event.map_dims
        e = event.elem_bytes
        touched: set[int] = set()
        for i in range(event.extent[0]):
            ci = event.origin[0] + i
            if not 0 <= ci < d0:
                continue
            for j in range(event.extent[1]):
                cj = event.origin[1] + j
                if not 0 <= cj < d1:
                    continue
                for k in range(event.extent[2]):
                    ck = event.origin[2] + k
                    if not 0 <= ck < d2:
                        continue
                    base = ((ci * d1 + cj) * d2 + ck) * e
                    touched.update(range(base, base + e))
        ordered = sorted(touched)
        idx = 0
        while idx < len(ordered):
            end = idx
            while end + 1 < len(ordered) and ordered[end + 1] == ordered[end] + 1:
                end += 1
            start_byte = ordered[idx]
            length = ordered[end] - start_byte + 1
            aligned[event.kind] += ceil_div(length, burst)
            address_aware[event.kind] += len({b // burst for b in range(start_byte, start_byte + length)})
            idx = end + 1
    return {
        kind: BurstTotals(aligned=aligned[kind], address_aware=address_aware[kind])
        for kind in TileKind
    }
