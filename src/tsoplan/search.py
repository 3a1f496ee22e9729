"""Exhaustive search for the fastest partition, schedule, and tile shape.

For every layer the planner tries each TLE partition and each schedule, and
inside every such pair prices every tile shape that fits the scratchpads
(t_r up to the slice's rows, t_c up to the output width, t_n up to the
channel depth; t_m follows from the schedule).  The scratchpad inequalities
bound which shapes are priced, so a search's time and memory follow the
scratchpad sizes rather than the layer's; no shape that fits is skipped.
There is no tie-breaking heuristic: the first candidate in canonical
(t_r, t_c, t_n) order wins, and later candidates replace it only when
strictly cheaper.  Exact ties between partition/schedule pairs are flagged
in the search statistics.

Tile grids are priced by the same filter_count, tile_footprint and
calc_time that price a single tile, called with numpy arrays of candidate
sides in place of ints, so the winner is what a plain-loop sweep over the
whole tile box would select.  Each pair's winner is then rebuilt through
the scalar path, and its closed-form burst counts are re-counted over the
tile's byte runs; any disagreement is an internal error.

The pairs' winners form a table, one per distinct layer geometry (the layer
without its name) and time model.  ``tso`` and ``plan_layer`` fill only the
cells their restriction allows; ``compare_strategies`` fills the whole burst
and noburst tables once and reduces every column over them.  Geometries are
searched independently (optionally in parallel), so plans do not depend on
the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .configs import ArchConfig, ConfigError, ConvLayerSpec, ModelSpec
from .costmodel import CostBreakdown, TileKind, TimeModel, calc_burst_count, calc_time
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
from .util import minimum, select

PARTITION_ORDER = (TlePartitionKind.KS, TlePartitionKind.KS_OFM, TlePartitionKind.OFM)
SCHEDULE_ORDER = (ScheduleKind.IS, ScheduleKind.OS, ScheduleKind.WS)

# Cap on grid cells priced per vectorized chunk, to bound temporaries.  A
# grid whose scratchpad-capped box fits one chunk is priced as that box:
# skipping its infeasible cells would save less than the staircase's
# bookkeeping and extra chunks cost.
_CHUNK_CELLS = 1 << 16

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
    """No feasible strategy exists for one or more layers."""

    def __init__(self, failures: list[tuple[str, list[str]]]):
        self.failures = failures
        lines = []
        for layer, attempts in failures:
            tried = "; ".join(attempts) if attempts else "nothing applicable"
            lines.append(f"layer {layer!r}: {tried}")
        super().__init__("no feasible plan: " + " | ".join(lines))


@dataclass(frozen=True)
class _GridResult:
    best: tuple[int, int, int, int] | None  # t_r, t_c, t_n, t_m
    best_total: float
    n_feasible: int
    n_candidates: int


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
    model: TimeModel,
    n_tlt: int,
) -> _GridResult:
    """Price every tile candidate that can fit, for one partition/schedule pair.

    The scratchpad inequalities gen_tile checks bound the search before any
    cell is priced.  A 1x1 tile with one filter caps each axis (mb0 caps t_n,
    t_r and t_c through the input window, mb2 caps t_r and t_c), so no array
    grows with the layer.  A capped box of at most ``_CHUNK_CELLS`` cells is
    priced as one broadcast.  A larger one is walked as a staircase: t_m
    depends on t_n alone, and the mb0 and mb2 bytes grow with t_c, so every
    (t_r, t_n) row that fits at t_c = 1 fits a t_c prefix 1..c_max.  Rows
    are priced in bands of similar c_max, each band a (rows, 1) x (1, K)
    broadcast in chunks of at most ``_CHUNK_CELLS`` cells.

    Every priced cell goes through filter_count, tile_footprint and
    calc_time exactly as a single tile does, and cells without a filter
    group or overflowing a scratchpad are masked out, so the bounds need
    only over-approximate.  The first strict minimum in (t_r, t_c, t_n)
    order wins.
    """
    n_candidates = slice_.tle_r * conv.c * conv.n
    e, k, s = conv.elem_bytes, conv.k, conv.s
    h_pad, l_pad = conv.h + 2 * conv.p, conv.l + 2 * conv.p
    h_1, l_1 = min(k, h_pad), min(k, l_pad)  # input window of a 1x1 tile
    n_hi = min(conv.n, arch.mb0_bytes // (e * h_1 * l_1))
    out_cap = arch.mb2_bytes // e  # one filter's t_r * t_c
    r_hi = _side_cap(arch.mb0_bytes // (e * l_1), k, s, h_pad, min(slice_.tle_r, out_cap))
    c_hi = _side_cap(arch.mb0_bytes // (e * h_1), k, s, l_pad, min(conv.c, out_cap))
    if min(n_hi, r_hi, c_hi) < 1:
        return _GridResult(None, np.inf, 0, n_candidates)
    t_n = np.arange(1, n_hi + 1, dtype=np.int64)
    t_m = np.broadcast_to(filter_count(t_n, q, slice_.tle_w, n_tlt, conv, arch), t_n.shape)
    if not t_m.any():
        return _GridResult(None, np.inf, 0, n_candidates)

    if r_hi * c_hi * n_hi <= _CHUNK_CELLS:
        t_r = np.arange(1, r_hi + 1, dtype=np.int64).reshape(-1, 1, 1)
        t_c = np.arange(1, c_hi + 1, dtype=np.int64).reshape(1, -1, 1)
        chunks = [(t_m.reshape(1, 1, -1), t_n.reshape(1, 1, -1), t_r, t_c)]
    else:
        chunks = _staircase(t_m, t_n, r_hi, c_hi, conv, arch)

    best_val = np.inf
    best_key: tuple[int, int, int] | None = None
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
        cost = calc_time(tile, q, conv, slice_, arch, model)
        t_total = np.where(feasible, cost.t_total, np.inf)
        n_feasible += int(np.count_nonzero(feasible))
        flat = int(np.argmin(t_total))
        val = float(t_total.flat[flat])
        if val > best_val or val == np.inf:
            continue
        if t_total.ndim == 3:
            # A box in C order is in (t_r, t_c, t_n) order: argmin is first.
            key = tuple(1 + int(i) for i in np.unravel_index(flat, t_total.shape))
        else:
            # Band rows are not in (t_r, t_n) order: sort the band's minima.
            rows, cols = np.nonzero(t_total == val)
            keys = (r_[rows, 0], c_[0, cols], n_[rows, 0])
            i = np.lexsort(keys[::-1])[0]
            key = (int(keys[0][i]), int(keys[1][i]), int(keys[2][i]))
        if val < best_val or key < best_key:
            best_val, best_key = val, key
    if best_key is None:
        return _GridResult(None, np.inf, n_feasible, n_candidates)
    t_r_, t_c_, t_n_ = best_key
    return _GridResult((t_r_, t_c_, t_n_, int(t_m[t_n_ - 1])), best_val, n_feasible, n_candidates)


def _staircase(t_m, t_n, r_hi: int, c_hi: int, conv: ConvLayerSpec, arch: ArchConfig):
    """(t_m, t_n, t_r, t_c) chunks covering every tile that fits: the
    (t_r, t_n) rows that fit at t_c = 1, each with its t_c prefix, in bands
    of similar prefix length and at most ``_CHUNK_CELLS`` cells."""
    e, k, s = conv.elem_bytes, conv.k, conv.s
    h_pad, l_pad = conv.h + 2 * conv.p, conv.l + 2 * conv.p
    # Per depth, the rows t_r that fit with t_c = 1; none without a filter.
    live = t_m >= 1
    t_m = np.maximum(t_m, 1)
    r_max = np.minimum(
        arch.mb2_bytes // (e * t_m),
        _side_cap(arch.mb0_bytes // (e * min(k, l_pad) * t_n), k, s, h_pad, r_hi),
    )
    r_max = np.maximum(np.where(live, r_max, 0), 0)
    n_rows = int(r_max.sum())
    row_n = np.repeat(t_n, r_max)
    row_m = np.repeat(t_m, r_max)
    row_r = np.arange(1, n_rows + 1, dtype=np.int64) - np.repeat(np.cumsum(r_max) - r_max, r_max)
    row_h = np.minimum((row_r - 1) * s + k, h_pad)
    c_max = np.minimum(
        arch.mb2_bytes // (e * row_m * row_r),
        _side_cap(arch.mb0_bytes // (e * row_n * row_h), k, s, l_pad, c_hi),
    )
    # Every row fits t_c = 1, so c_max >= 1.  A band is priced at the
    # widest prefix it holds, so it takes only the rows whose prefix is over
    # half that width: at most half of its cells are infeasible.
    order = np.argsort(c_max)
    c_sorted = c_max[order]
    stop = n_rows
    while stop:
        width = int(c_sorted[stop - 1])
        start = int(np.searchsorted(c_sorted, width // 2, side="right"))
        for c0 in range(0, width, _CHUNK_CELLS):
            t_c = np.arange(c0 + 1, min(c0 + _CHUNK_CELLS, width) + 1, dtype=np.int64)
            step = max(1, _CHUNK_CELLS // t_c.size)
            for r0 in range(start, stop, step):
                rows = order[r0 : min(r0 + step, stop)]
                yield row_m[rows, None], row_n[rows, None], row_r[rows, None], t_c[None, :]
        stop = start


def _rebuild(
    res: _GridResult,
    q: ScheduleKind,
    conv: ConvLayerSpec,
    slice_: TleSlice,
    n_tlt: int,
    arch: ArchConfig,
    model: TimeModel,
) -> tuple[TileConfig, CostBreakdown]:
    t_r, t_c, t_n, t_m_grid = res.best
    t_m = get_filters(t_r, t_c, q, slice_.tle_w, n_tlt, t_n, conv, arch)
    tile = gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_)
    cost = calc_time(tile, q, conv, slice_, arch, model)
    runs = tuple(calc_burst_count(kind, tile, conv, arch) for kind in TileKind)
    if (
        t_m != t_m_grid
        or cost.t_total != res.best_total
        or (cost.bursts_in, cost.bursts_w, cost.bursts_out) != runs
    ):
        raise RuntimeError(
            f"internal: grid, scalar and run-enumerated costs disagree for {conv.name} "
            f"({q.value}, t_r={t_r}, t_c={t_c}, t_n={t_n})"
        )
    return tile, cost


@dataclass(frozen=True)
class _Cell:
    """One partition x schedule pair of a layer geometry's table; without
    a slice or a tile, ``reason`` says why."""

    partition: TlePartitionKind
    schedule: ScheduleKind
    slice: TleSlice | None
    tile: TileConfig | None
    cost: CostBreakdown | None
    reason: str | None
    n_feasible: int
    n_candidates: int


def _table(
    conv: ConvLayerSpec,
    arch: ArchConfig,
    model: TimeModel,
    fixed_tle: TlePartitionKind | None = None,
    fixed_tlt: ScheduleKind | None = None,
) -> tuple[_Cell, ...]:
    """The cells of the pairs a restriction allows, in canonical order;
    raises ConfigError for a layer beyond ``_PRODUCT_MAX``."""
    moves = arch.n_tle * conv.m * conv.n * conv.r * conv.c * conv.k * conv.k
    window = conv.n * (conv.h + 2 * conv.p) * (conv.l + 2 * conv.p)
    if max(moves, window) > _PRODUCT_MAX:
        raise ConfigError(
            f"layer {conv.name!r}: n_tle*m*n*r*c*k*k = {moves} and n*(h+2p)*(l+2p) = {window}"
            " must both be <= 2**61 to be priced exactly in int64"
        )
    schedules = (fixed_tlt,) if fixed_tlt else SCHEDULE_ORDER
    cells = []
    for p in (fixed_tle,) if fixed_tle else PARTITION_ORDER:
        try:
            slice_ = tle_slicing(p, conv, arch.n_tle)
        except Infeasible as exc:
            reason = f"{p.value}: {exc.reason}"
            cells += [_Cell(p, q, None, None, None, reason, 0, 0) for q in schedules]
            continue
        for q in schedules:
            res = _grid_search(conv, arch, slice_, q, model, arch.n_tlt)
            tile = cost = reason = None
            if res.best is None:
                reason = f"{p.value}/{q.value}: no tile fits the scratchpads"
            else:
                tile, cost = _rebuild(res, q, conv, slice_, arch.n_tlt, arch, model)
            cells.append(_Cell(p, q, slice_, tile, cost, reason, res.n_feasible, res.n_candidates))
    return tuple(cells)


def _reduce(layer: str, cells) -> tuple[PlanEntry | None, list[str], bool]:
    """The first strict minimum over cells in canonical order, the reasons
    of the cells without a tile, and whether a cell tied the best so far."""
    entry, attempts, tied = None, [], False
    for cell in cells:
        if cell.cost is None:
            # A partition that cannot split the layer is reported once.
            if cell.reason not in attempts:
                attempts.append(cell.reason)
        elif entry is None or cell.cost.t_total < entry.cost.t_total:
            entry = PlanEntry(layer, cell.slice, cell.tile, cell.schedule, cell.cost)
        elif cell.cost.t_total == entry.cost.t_total:
            tied = True
    return entry, attempts, tied


def plan_layer(
    conv: ConvLayerSpec,
    arch: ArchConfig,
    model: TimeModel = "burst",
    fixed_tle: TlePartitionKind | None = None,
    fixed_tlt: ScheduleKind | None = None,
) -> PlanEntry:
    """Plan a single layer; raises PlanError when nothing is feasible."""
    entry, attempts, _ = _reduce(conv.name, _table(conv, arch, model, fixed_tle, fixed_tlt))
    if entry is None:
        raise PlanError([(conv.name, attempts)])
    return entry


def tso(
    model: ModelSpec,
    arch: ArchConfig,
    mode: TimeModel = "burst",
    fixed_tle: TlePartitionKind | None = None,
    fixed_tlt: ScheduleKind | None = None,
    workers: int | None = None,
) -> PlanMap:
    """Plan every layer of a model.

    Each distinct layer geometry is searched once; workers caps how many
    are searched in parallel, and the plan is identical for any count.
    Search statistics count every layer, repeated geometries included.
    """
    tables = _map_geometries(
        model.layers, lambda conv: _table(conv, arch, mode, fixed_tle, fixed_tlt), workers
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


def _map_geometries(layers, fn, workers: int | None) -> list:
    """fn of every layer, called on up to ``workers`` threads once per
    distinct geometry (the layer without its name)."""
    first: dict[ConvLayerSpec, ConvLayerSpec] = {}
    for conv in layers:
        first.setdefault(replace(conv, name=""), conv)
    distinct = list(first.values())
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(distinct) <= 1:
        results = [fn(conv) for conv in distinct]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(fn, distinct))
    by_geometry = dict(zip(first, results))
    return [by_geometry[replace(conv, name="")] for conv in layers]


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
    partition and schedule.  Each distinct layer geometry gets one burst and
    one noburst table (18 sweeps); each column reduces over them as ``tso``
    would under its restriction, and the noburst winner is re-costed."""
    tables = _map_geometries(
        model.layers,
        lambda conv: (_table(conv, arch, "burst"), _table(conv, arch, "noburst")),
        workers,
    )
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
                recost = calc_time(entry.tile, entry.schedule, conv, entry.slice, arch, "burst")
                row[column] = recost.t_total
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
