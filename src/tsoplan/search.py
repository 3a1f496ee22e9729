"""Exhaustive search for the fastest partition, schedule, and tile shape.

For every layer the planner tries each TLE partition and each schedule, and
inside every such pair finds the cheapest tile shape that fits the
scratchpads (t_r up to the slice's rows, t_c up to the output width, t_n up
to the channel depth; t_m follows from the schedule).  The scratchpad
inequalities cap each side before anything is priced, so no array is sized
by the layer.  There is no tie-breaking heuristic: the first candidate in
canonical (t_r, t_c, t_n) order wins, and later candidates replace it only
when strictly cheaper.  Exact ties between partition/schedule pairs are
flagged in the search statistics.

A capped box of at most ``_SMALL_BOX_CELLS`` cells is priced whole, where
finding classes would cost more than it saves.  A larger one is priced one
tile per class: sides of one axis are interchangeable when they give the
same key, the tuple of what the cost reads of a side (loop trip counts,
window-coverage flag and, for t_n, filter group), and within such a class
the cost never falls and the fit never improves as the side grows.  The
first side of each class therefore stands for the class, and the first
strict minimum over these sides is the whole box's, bit for bit.  Every
part of a key is monotone in the side, so one step finder, ``_steps``,
lists the first sides of every axis.
A box of first sides larger than ``_CHUNK_CELLS`` is priced only where it
fits: one walk of the (t_r, t_c) pairs that fit at depth 1 gives each pair
its range of depths that fit, and the same walk over every side, in blocks
of sides, counts the box's feasible tiles.  The walk and the pricing run in
chunks of at most ``_CHUNK_CELLS`` pairs or cells, so no array grows with
the pairs or cells that fit, nor with the sides the count walks.
Tiles are priced by the same filter_count, tile_footprint and calc_time
that price a single tile, called with numpy arrays of candidate sides in
place of ints, so the winner is what a plain-loop sweep over the whole tile
box would select.  Each pair's winner is then rebuilt by ``build_entry``,
the scalar path ``simulate`` also audits plans with; a t_m, total or burst
count (re-counted over the tile's byte runs, once per distinct winning tile
of the pair) that disagrees with the grid is an internal error.

The pairs' winners form a table, one per distinct layer geometry (the layer
without its name) and time model.  ``tso`` and ``plan_layer`` fill only the
cells their restriction allows; ``compare_strategies`` fills the burst and
noburst tables from one sweep of every pair and reduces each column over them.
Geometries are searched one at a time on the calling thread: a thread pool
over them was slower than one thread on every bench workload.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .configs import ArchConfig, ConfigError, ConvLayerSpec, ModelSpec, clip_repr
from .costmodel import CostBreakdown, TileKind, TimeModel, calc_burst_count, calc_time, remodel
from .slicing import (
    Infeasible,
    ScheduleKind,
    TileConfig,
    TlePartitionKind,
    TleSlice,
    filter_count,
    gen_tile,
    get_filters,
    tile_footprint,
    tle_slicing,
)
from .util import ceil_div, minimum, select

PARTITION_ORDER = (TlePartitionKind.KS, TlePartitionKind.KS_OFM, TlePartitionKind.OFM)
SCHEDULE_ORDER = (ScheduleKind.IS, ScheduleKind.OS, ScheduleKind.WS)

# Cap on the cells priced, and on the (t_r, t_c) pairs walked, per
# vectorized chunk, so no temporary grows with the cells or pairs that fit.
# A box of sides that fits one chunk is priced as that box: skipping its
# infeasible cells would save less than the walk's bookkeeping costs.
_CHUNK_CELLS = 1 << 16

# Largest scratchpad-capped box priced whole rather than one tile per class:
# finding the classes and counting the feasible cells costs about as much
# as pricing a few thousand cells.  Median of 3 one-thread
# compare_strategies runs on a shared 2-core Xeon (Python 3.11, numpy 2.4)
# at cutoffs of 0 / 512 / 4,096 / 65,536 cells: InceptionV3 0.62 / 0.62 /
# 0.65 / 1.57 s, the 400 distinct bench convs 5.29 / 5.54 / 4.88 / 7.72 s,
# the 64 referee bench convs 0.57 / 0.32 / 0.30 / 0.29 s.
_SMALL_BOX_CELLS = 1 << 12

# Bound on a layer's move product n_tle*m*n*r*c*k*k and window product
# n*(h+2p)*(l+2p).  Every integer the grid forms in int64 (move counts and
# their sum, tile counts, MAC cycles, tile bytes) is at most three times
# one of them, so below 2**63.
_PRODUCT_MAX = 2**61


@dataclass(frozen=True)
class PlanEntry:
    layer: str
    slice: TleSlice
    tile: TileConfig
    schedule: ScheduleKind
    cost: CostBreakdown


@dataclass
class SearchStats:
    candidates_evaluated: int = 0
    candidates_infeasible: int = 0
    tie_layers: tuple[str, ...] = ()


@dataclass
class PlanMap:
    model_name: str
    mode: TimeModel
    entries: dict[str, PlanEntry]
    stats: SearchStats


class PlanError(Exception):
    """No feasible strategy exists for one or more layers.  The message groups
    them by reasons, in first-seen order, naming at most three per group."""

    def __init__(self, failures: list[tuple[str, list[str]]]):
        self.failures = failures
        groups: dict[str, list[str]] = {}
        for layer, attempts in failures:
            tried = "; ".join(attempts) if attempts else "nothing applicable"
            groups.setdefault(tried, []).append(clip_repr(layer))
        lines = []
        for tried, names in groups.items():
            more = f" and {len(names) - 3} more" if len(names) > 3 else ""
            noun = "layers" if len(names) > 1 else "layer"
            lines.append(f"{noun} {', '.join(names[:3])}{more}: {tried}")
        super().__init__("no feasible plan: " + " | ".join(lines))


def _side_cap(window, k: int, s: int, extent: int, limit: int):
    """Largest tile side t <= limit whose input window min((t - 1)*s + k,
    extent) fits ``window`` elements (below 1 if none); elementwise over
    windows."""
    return minimum(select(extent <= window, limit, (window - k) // s + 1), limit)


def _grid_search(
    conv: ConvLayerSpec,
    arch: ArchConfig,
    slice_: TleSlice,
    q: ScheduleKind,
    models: tuple[TimeModel, ...],
    caps: tuple[int, int, int],
    sides: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[int, tuple[tuple[float, tuple[int, int, int, int] | None], ...]]:
    """The feasible tile count of one partition/schedule pair and, per time
    model, the total and (t_r, t_c, t_n, t_m) of the first strict minimum in
    (t_r, t_c, t_n) order over every tile that fits (None if none does).

    ``caps`` bound (t_r, t_c, t_n) by the scratchpad inequalities gen_tile
    checks on a 1x1 tile with one filter (mb0 caps t_n, t_r and t_c through
    the input window, mb2 caps t_r and t_c).  ``sides`` lists each axis's
    sides to price: every side up to its cap in a box of at most
    ``_SMALL_BOX_CELLS`` cells, else the first side of each class.  Sides of
    one axis share a class when their keys (``_class_keys``), everything the
    cost reads of them, agree.  ``_table`` takes the caps of t_c and t_n per
    geometry and t_r's per partition, and lists each axis's classes where
    its key is fixed: t_c's per geometry, t_r's per partition, t_n's per
    pair.  Within a class the alphas, tile counts and software term are
    constant, while bytes, aligned bursts and MAC cycles never decrease with
    the side, so the class's first side costs no more than any other, fits
    whenever any other does and comes first.  The first strict minimum over
    the first sides is the whole box's, bit for bit.

    The sides priced form a box; one of at most ``_CHUNK_CELLS`` cells is
    priced as one broadcast.  In a larger one only the cells that fit are
    priced: ``_walk`` gives each (t_r, t_c) pair's range of depths, and the
    depths inside it are priced in chunks in (t_r, t_c, t_n) order.  Every
    priced cell goes through filter_count, tile_footprint and calc_time
    exactly as a single tile does (remodel prices the other models), and
    cells without a filter group or overflowing a scratchpad are masked out.
    The feasible count, shared by the models, is of the whole box: from the
    masks when every side is priced, else the sum of the depth ranges of
    every pair the walk gives over every side.
    """
    r_hi, c_hi, n_hi = caps
    t_r, t_c, t_n = sides
    t_m = np.broadcast_to(filter_count(t_n, q, slice_.tle_w, arch.n_tlt, conv, arch), t_n.shape)
    best: list[tuple[float, tuple[int, int, int, int] | None]] = [(np.inf, None)] * len(models)
    if min(caps) < 1 or not t_m.any():
        return 0, tuple(best)

    n_sides = t_r.size * t_c.size * t_n.size
    if n_sides <= _CHUNK_CELLS:
        box = (t_r.reshape(-1, 1, 1), t_c.reshape(1, -1, 1))
        chunks = [(t_m.reshape(1, 1, -1), t_n.reshape(1, 1, -1), *box)]
    else:
        chunks = _walk_cells(_walk(t_r, t_c, t_m, t_n, n_hi, q, conv, arch), t_m, t_n)

    n_feasible = 0
    for m_, n_, r_, c_ in chunks:
        # Cells with no filter group are masked out; pricing them with one
        # filter keeps the dead arithmetic division-safe.
        tile = tile_footprint(np.maximum(m_, 1), n_, r_, c_, q, conv)
        feasible = (
            (m_ >= 1)
            & (tile.in_bytes <= arch.mb0_bytes)
            & (tile.w_bytes <= arch.mb1_bytes)
            & (tile.out_bytes <= arch.mb2_bytes)
        )
        n_feasible += int(np.count_nonzero(feasible))
        cost = calc_time(tile, q, conv, slice_, arch, models[0])
        for x, model in enumerate(models):
            total = remodel(cost, tile, arch, model).t_total if x else cost.t_total
            t_total = np.where(feasible, total, np.inf)
            flat = int(np.argmin(t_total))
            val = float(t_total.flat[flat])
            if val < best[x][0]:
                # Chunks come in (t_r, t_c, t_n) order and a box in C order is
                # in that order too, so argmin's cell is the first minimum.
                i, j, l = np.unravel_index(flat, t_total.shape) if t_total.ndim == 3 else [flat] * 3
                best[x] = val, (int(r_.flat[i]), int(c_.flat[j]), int(n_.flat[l]), int(m_.flat[l]))
    if n_sides < r_hi * c_hi * n_hi:
        # The masks saw only the first side of each class.  Every side is
        # walked in blocks; the pairs of a t_r are a prefix of t_c, so a
        # t_c block without a pair ends its t_r block.
        n_feasible = 0
        for rows in _blocks(r_hi):
            for cols in _blocks(c_hi):
                walk = _walk(rows, cols, t_m, t_n, n_hi, q, conv, arch)
                ranges = [int(np.maximum(top - bottom + 1, 0).sum()) for *_, bottom, top in walk]
                if not ranges:
                    break
                n_feasible += sum(ranges)
    return n_feasible, tuple(best)


def _class_keys(conv: ConvLayerSpec, arch: ArchConfig, slice_: TleSlice, q: ScheduleKind | None):
    """The keys of ``_grid_search``'s (t_r, t_c, t_n) classes, each monotone
    in an array of sides: ceil(tle_r/t), ceil(r/t) and whether the window
    covers all h rows; ceil(c/t) and whether it covers all l columns;
    ceil(n/t) and filter_count's t_m.  Only t_n's key reads ``q``."""
    k, s = conv.k, conv.s
    return (
        lambda t: (ceil_div(slice_.tle_r, t), ceil_div(conv.r, t), (t - 1) * s + k >= conv.h),
        lambda t: (ceil_div(conv.c, t), (t - 1) * s + k >= conv.l),
        lambda t: (ceil_div(conv.n, t), filter_count(t, q, slice_.tle_w, arch.n_tlt, conv, arch)),
    )


def _steps(key, hi: int):
    """Side 1 and every side t in 2..hi where key(t) != key(t - 1), sorted.

    ``key`` maps an array of sides to a tuple of parts (arrays, or scalars
    that do not vary with t), each monotone in t, so a key equal at both
    ends of a range is constant inside it.  The first pass reads the key at
    up to ``_CHUNK_CELLS`` + 1 evenly spaced sides, every side when hi is
    within that; each range whose ends differ is then cut in 32 parts,
    until every such part is one step long."""
    lo, up = np.array([1], dtype=np.int64), np.array([hi], dtype=np.int64)
    found, ways = [lo], max(1, min(hi - 1, _CHUNK_CELLS))
    while lo.size:
        cuts = lo[:, None] + (up - lo)[:, None] * np.arange(ways + 1) // ways
        differ = np.zeros((lo.size, ways), dtype=bool)
        for part in key(cuts):
            if np.ndim(part):  # a scalar part is constant
                differ |= part[:, 1:] != part[:, :-1]
        lo, up = cuts[:, :-1][differ], cuts[:, 1:][differ]
        step = up - lo == 1
        found.append(up[step])
        lo, up, ways = lo[~step], up[~step], 32
    return np.sort(np.concatenate(found))


def _blocks(hi: int):
    """The sides 1..hi in arrays of at most ``_CHUNK_CELLS``."""
    for lo in range(1, hi + 1, _CHUNK_CELLS):
        yield np.arange(lo, min(lo + _CHUNK_CELLS, hi + 1), dtype=np.int64)


def _chunks(counts):
    """(row, rank) index arrays of ranks 0..count-1 of every row of
    ``counts`` in row-major order, in chunks of at most ``_CHUNK_CELLS``."""
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    for start in range(0, total, _CHUNK_CELLS):
        flat = np.arange(start, min(start + _CHUNK_CELLS, total))
        rows = np.searchsorted(ends, flat, side="right")
        yield rows, flat - starts[rows]


def _walk(t_r, t_c, t_m, t_n, n_hi: int, q: ScheduleKind, conv: ConvLayerSpec, arch: ArchConfig):
    """(t_r, t_c, bottom, top) chunks: every pair of the sorted side arrays
    that fits at depth 1 with the smallest group, in (t_r, t_c) order, with
    the range bottom..top of the depths that fit it (empty when bottom >
    top).  t_n holds every depth where t_m changes, with its t_m.

    A cell's input bytes are t_n times its depth-1 tile's and its output
    bytes t_m times its one-filter tile's, and t_m never grows with t_n.  So
    at one (t_r, t_c) the depths that fit are a range: from the first whose
    t_m fits mb2 up to the last that fits mb0 and has a filter group.  mb1
    holds every group filter_count gives.  Both bytes grow with t_c, so the
    pairs of one t_r are a prefix of t_c."""
    e, k, s = conv.elem_bytes, conv.k, conv.s
    h_pad, l_pad = conv.h + 2 * conv.p, conv.l + 2 * conv.p
    live = t_m >= 1
    n_live = n_hi if live.all() else int(t_n[np.argmin(live)]) - 1
    t_h = np.minimum((t_r - 1) * s + k, h_pad)
    c_max = np.minimum(
        arch.mb2_bytes // (e * int(t_m[live][-1]) * t_r),
        _side_cap(arch.mb0_bytes // (e * t_h), k, s, l_pad, int(t_c[-1])),
    )
    bottoms = np.append(t_n, n_hi + 1)
    for rows, cols in _chunks(np.searchsorted(t_c, c_max, side="right")):
        r_, c_ = t_r[rows], t_c[cols]
        unit = tile_footprint(1, 1, r_, c_, q, conv)
        top = np.minimum(n_live, arch.mb0_bytes // unit.in_bytes)
        bottom = bottoms[np.searchsorted(-t_m, -(arch.mb2_bytes // unit.out_bytes))]
        yield r_, c_, bottom, top


def _walk_cells(walk, t_m, t_n):
    """(t_m, t_n, t_r, t_c) chunks of the sides of t_n inside each walked
    pair's depth range, in (t_r, t_c, t_n) order."""
    for r_, c_, bottom, top in walk:
        lo = np.searchsorted(t_n, bottom)
        for pairs, ranks in _chunks(np.maximum(np.searchsorted(t_n, top, side="right") - lo, 0)):
            depth = lo[pairs] + ranks
            yield t_m[depth], t_n[depth], r_[pairs], c_[pairs]


def build_entry(
    layer: str, conv: ConvLayerSpec, arch: ArchConfig, slice_: TleSlice, q: ScheduleKind,
    sides: tuple[int, int, int], model: TimeModel,
) -> PlanEntry:
    """The tile of sides (t_n, t_r, t_c) through get_filters, gen_tile and
    calc_time; raises Infeasible if a side passes (n, tle_r, c) or no tile fits."""
    grid = (conv.n, slice_.tle_r, conv.c)
    if any(side > bound for side, bound in zip(sides, grid)):
        raise Infeasible(f"t_n, t_r, t_c = {sides} not within n, tle_r, c = {grid}")
    t_n, t_r, t_c = sides
    t_m = get_filters(t_r, t_c, q, slice_.tle_w, arch.n_tlt, t_n, conv, arch)
    tile = gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_)
    return PlanEntry(layer, slice_, tile, q, calc_time(tile, q, conv, slice_, arch, model))


@dataclass(frozen=True)
class _Cell:
    """One partition x schedule pair of a layer geometry's table: the grid
    winner as build_entry prices it or, without one, the ``reason``."""

    partition: TlePartitionKind
    schedule: ScheduleKind
    entry: PlanEntry | None
    reason: str | None
    n_feasible: int
    n_candidates: int


def _table(
    conv: ConvLayerSpec,
    arch: ArchConfig,
    models: tuple[TimeModel, ...],
    fixed_tle: TlePartitionKind | None = None,
    fixed_tlt: ScheduleKind | None = None,
) -> tuple[tuple[_Cell, ...], ...]:
    """Per time model, the cells of the pairs a restriction allows in canonical
    order, each pair swept once over the caps and sides taken here, each at
    the loop that fixes it; raises ConfigError beyond ``_PRODUCT_MAX``."""
    moves = arch.n_tle * conv.m * conv.n * conv.r * conv.c * conv.k * conv.k
    window = conv.n * (conv.h + 2 * conv.p) * (conv.l + 2 * conv.p)
    if max(moves, window) > _PRODUCT_MAX:
        raise ConfigError(
            f"layer {clip_repr(conv.name)}: n_tle*m*n*r*c*k*k = {moves} and"
            f" n*(h+2p)*(l+2p) = {window} must both be <= 2**61 to be priced exactly in int64"
        )
    e, k, s = conv.elem_bytes, conv.k, conv.s
    h_pad, l_pad = conv.h + 2 * conv.p, conv.l + 2 * conv.p
    h_1, l_1 = min(k, h_pad), min(k, l_pad)  # input window of a 1x1 tile
    out_cap = arch.mb2_bytes // e  # one filter's t_r * t_c
    n_hi = min(conv.n, arch.mb0_bytes // (e * h_1 * l_1))
    c_hi = _side_cap(arch.mb0_bytes // (e * h_1), k, s, l_pad, min(conv.c, out_cap))
    c_sides = None  # t_c's classes, listed at the first class-priced partition
    schedules = (fixed_tlt,) if fixed_tlt else SCHEDULE_ORDER
    pairs = []  # per pair, its cell under each model
    for p in (fixed_tle,) if fixed_tle else PARTITION_ORDER:
        try:
            slice_ = tle_slicing(p, conv, arch.n_tle)
        except Infeasible as exc:
            reason = f"{p.value}: {exc.reason}"
            pairs += [[_Cell(p, q, None, reason, 0, 0)] * len(models) for q in schedules]
            continue
        r_hi = _side_cap(arch.mb0_bytes // (e * l_1), k, s, h_pad, min(slice_.tle_r, out_cap))
        caps = (r_hi, c_hi, n_hi)
        whole = r_hi * c_hi * n_hi <= _SMALL_BOX_CELLS
        if whole:
            sides = tuple(np.arange(1, hi + 1, dtype=np.int64) for hi in caps)
        else:
            r_key, c_key, _ = _class_keys(conv, arch, slice_, None)
            c_sides = _steps(c_key, c_hi) if c_sides is None else c_sides
            r_sides = _steps(r_key, r_hi)
        n_candidates = slice_.tle_r * conv.c * conv.n
        for q in schedules:
            if not whole:
                sides = (r_sides, c_sides, _steps(_class_keys(conv, arch, slice_, q)[2], n_hi))
            n_feasible, winners = _grid_search(conv, arch, slice_, q, models, caps, sides)
            runs = {}  # each distinct winning tile's bursts, counted over its byte runs
            pairs.append([])
            for model, (total, best) in zip(models, winners):
                entry = reason = None
                if best is None:
                    reason = f"{p.value}/{q.value}: no tile fits the scratchpads"
                else:
                    t_r, t_c, t_n, t_m = best
                    entry = build_entry(conv.name, conv, arch, slice_, q, (t_n, t_r, t_c), model)
                    tile, cost = entry.tile, entry.cost
                    if best not in runs:
                        runs[best] = tuple(calc_burst_count(x, tile, conv, arch) for x in TileKind)
                    bursts = (cost.bursts_in, cost.bursts_w, cost.bursts_out)
                    if (tile.t_m, cost.t_total, *bursts) != (t_m, total, *runs[best]):
                        raise RuntimeError(
                            f"internal: grid, scalar and run-enumerated {model} costs disagree"
                            f" for {conv.name} ({q.value}, t_r={t_r}, t_c={t_c}, t_n={t_n})"
                        )
                pairs[-1].append(_Cell(p, q, entry, reason, n_feasible, n_candidates))
    return tuple(zip(*pairs))


def _reduce(layer: str, cells) -> tuple[PlanEntry | None, list[str], bool]:
    """The first strict minimum over cells in canonical order, the reasons
    of the cells without a tile, and whether a later cell ties the winner."""
    best, attempts, tied = None, [], False
    for cell in cells:
        if cell.entry is None:
            # A partition that cannot split the layer is reported once.
            if cell.reason not in attempts:
                attempts.append(cell.reason)
        elif best is None or cell.entry.cost.t_total < best.cost.t_total:
            best, tied = cell.entry, False
        elif cell.entry.cost.t_total == best.cost.t_total:
            tied = True
    return (None if best is None else replace(best, layer=layer)), attempts, tied


def plan_layer(
    conv: ConvLayerSpec,
    arch: ArchConfig,
    model: TimeModel = "burst",
    fixed_tle: TlePartitionKind | None = None,
    fixed_tlt: ScheduleKind | None = None,
) -> PlanEntry:
    """Plan a single layer; raises PlanError when nothing is feasible."""
    return tso(ModelSpec(conv.name, (conv,)), arch, model, fixed_tle, fixed_tlt).entries[conv.name]


def tso(
    model: ModelSpec,
    arch: ArchConfig,
    mode: TimeModel = "burst",
    fixed_tle: TlePartitionKind | None = None,
    fixed_tlt: ScheduleKind | None = None,
    workers: int | None = None,
) -> PlanMap:
    """Plan every layer of a model.

    Each distinct layer geometry is searched once, on the calling thread.
    ``workers`` is not read; it is kept because the bench scripts pass it.
    Search statistics count every layer, repeated geometries included.
    """
    tables = _map_geometries(
        model.layers, lambda conv: _table(conv, arch, (mode,), fixed_tle, fixed_tlt)[0]
    )
    outcomes = [_reduce(conv.name, table) for conv, table in zip(model.layers, tables)]
    failures = [
        (conv.name, attempts)
        for conv, (entry, attempts, _) in zip(model.layers, outcomes)
        if entry is None
    ]
    if failures:
        raise PlanError(failures)
    cells = [cell for table in tables for cell in table]
    stats = SearchStats(
        candidates_evaluated=sum(cell.n_feasible for cell in cells),
        candidates_infeasible=sum(cell.n_candidates - cell.n_feasible for cell in cells),
        tie_layers=tuple(conv.name for conv, (_, _, tied) in zip(model.layers, outcomes) if tied),
    )
    entries = {conv.name: entry for conv, (entry, _, _) in zip(model.layers, outcomes)}
    return PlanMap(model_name=model.name, mode=mode, entries=entries, stats=stats)


def _map_geometries(layers, fn) -> list:
    """fn of every layer, called once per distinct geometry (the layer
    without its name), in first-seen order on the calling thread."""
    results: dict[ConvLayerSpec, object] = {}
    for conv in layers:
        geometry = replace(conv, name="")
        if geometry not in results:
            results[geometry] = fn(conv)
    return [results[replace(conv, name="")] for conv in layers]


COMPARE_COLUMNS = ("tso_burst", "tso_noburst") + tuple(
    f"fixed_{kind.value}" for kind in (*PARTITION_ORDER, *SCHEDULE_ORDER)
)


def _column_cells(column: str, burst: tuple[_Cell, ...], noburst: tuple[_Cell, ...]):
    """The cells a compare column reduces over: a whole table for the free
    searches, the burst cells of one partition or schedule otherwise."""
    if column == "tso_burst":
        return burst
    if column == "tso_noburst":
        return noburst
    kind = column.removeprefix("fixed_")
    return [cell for cell in burst if kind in (cell.partition.value, cell.schedule.value)]


@dataclass
class StrategyComparison:
    """Per-layer burst-model times for the free search and each fixed strategy.

    Every cell is re-costed under the burst model so columns are comparable;
    None marks an infeasible layer/strategy pair, with the reason kept in
    ``reasons``.  Totals sum each column and ``speedups`` divides each total
    by the free burst search's total.
    """

    layers: tuple[str, ...]
    columns: tuple[str, ...]
    cells: dict[str, dict[str, float | None]]
    reasons: dict[tuple[str, str], str]
    totals: dict[str, float | None]
    speedups: dict[str, float | None]


def compare_strategies(
    model: ModelSpec, arch: ArchConfig, workers: int | None = None
) -> StrategyComparison:
    """The free burst search against the noburst search and every fixed
    partition and schedule.  Each distinct layer geometry gets its burst and
    noburst tables from 9 sweeps; each column reduces over them as ``tso``
    would under its restriction, and the noburst winner is re-costed.
    ``workers`` is not read, as in ``tso``."""
    tables = _map_geometries(model.layers, lambda conv: _table(conv, arch, ("burst", "noburst")))
    cells: dict[str, dict[str, float | None]] = {conv.name: {} for conv in model.layers}
    reasons: dict[tuple[str, str], str] = {}
    for conv, (burst, noburst) in zip(model.layers, tables):
        row = cells[conv.name]
        for column in COMPARE_COLUMNS:
            entry, attempts, _ = _reduce(conv.name, _column_cells(column, burst, noburst))
            if entry is None:
                row[column] = None
                reasons[(conv.name, column)] = "; ".join(attempts)
            elif column == "tso_noburst":
                row[column] = remodel(entry.cost, entry.tile, arch, "burst").t_total
            else:
                row[column] = entry.cost.t_total

    totals: dict[str, float | None] = {}
    for column in COMPARE_COLUMNS:
        vals = [cells[conv.name][column] for conv in model.layers]
        totals[column] = None if any(v is None for v in vals) else sum(vals)
    base = totals["tso_burst"]
    speedups = {
        column: (totals[column] / base if totals[column] is not None and base else None)
        for column in COMPARE_COLUMNS
    }
    return StrategyComparison(
        layers=tuple(conv.name for conv in model.layers),
        columns=COMPARE_COLUMNS,
        cells=cells,
        reasons=reasons,
        totals=totals,
        speedups=speedups,
    )
