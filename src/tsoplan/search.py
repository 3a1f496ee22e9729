"""Exhaustive search for the fastest partition, schedule, and tile shape.

For every layer the planner tries each TLE partition and each schedule, and
inside every such pair prices all tile shapes (t_r up to the slice's rows,
t_c up to the output width, t_n up to the channel depth; t_m follows from
the schedule).  There is no pruning beyond skipping tiles that do not fit a
scratchpad, and no tie-breaking heuristic: the first candidate found in
canonical enumeration order wins, and later candidates replace it only when
strictly cheaper.  Exact ties between partition/schedule pairs are flagged
in the search statistics.

Tile grids are priced by the same filter_count, tile_footprint and
calc_time that price a single tile, called with numpy arrays of candidate
sides in place of ints, so the argmin is what a plain-loop sweep would
select.  Each pair's winner is then rebuilt through the scalar path, and
its closed-form burst counts are re-counted over the tile's byte runs; any
disagreement is an internal error.

The pairs' winners form a table, one per distinct layer geometry (the layer
without its name) and time model.  ``tso`` and ``plan_layer`` fill only the
cells their restriction allows; ``compare_strategies`` fills the whole burst
and noburst tables once and reduces every column over them.  Geometries are
searched independently (optionally in parallel), so plans do not depend on
the worker count.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .configs import ArchConfig, ConvLayerSpec, ModelSpec
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

PARTITION_ORDER = (TlePartitionKind.KS, TlePartitionKind.KS_OFM, TlePartitionKind.OFM)
SCHEDULE_ORDER = (ScheduleKind.IS, ScheduleKind.OS, ScheduleKind.WS)

# Cap on grid cells evaluated per vectorized chunk, to bound temporaries.
_CHUNK_CELLS = 1 << 20


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
    wall_time_s: float = 0.0
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


def _grid_search(
    conv: ConvLayerSpec,
    arch: ArchConfig,
    slice_: TleSlice,
    q: ScheduleKind,
    model: TimeModel,
    n_tlt: int,
) -> _GridResult:
    """Price every tile candidate for one partition/schedule pair.

    The (t_r, t_c, t_n) grid is built as broadcast index arrays, in chunks
    of whole t_r rows, and priced by filter_count, tile_footprint and
    calc_time exactly as they price a single tile.  Cells without a filter
    group or overflowing a scratchpad are masked out; the first strict
    minimum in (t_r, t_c, t_n) order wins.
    """
    n_candidates = slice_.tle_r * conv.c * conv.n
    t_c = np.arange(1, conv.c + 1, dtype=np.int64).reshape(1, -1, 1)
    t_n = np.arange(1, conv.n + 1, dtype=np.int64).reshape(1, 1, -1)
    t_m = np.broadcast_to(filter_count(t_n, q, slice_.tle_w, n_tlt, conv, arch), t_n.shape)
    if not t_m.any():
        return _GridResult(None, np.inf, 0, n_candidates)
    # Cells with no filter group are masked out; pricing them with one
    # filter keeps the dead arithmetic division-safe.
    t_m_priced = np.maximum(t_m, 1)

    best_val = np.inf
    best_idx: tuple[int, int, int, int] | None = None
    n_feasible = 0
    rows_per_chunk = max(1, _CHUNK_CELLS // (conv.c * conv.n))
    for r_start in range(1, slice_.tle_r + 1, rows_per_chunk):
        r_stop = min(r_start + rows_per_chunk, slice_.tle_r + 1)
        t_r = np.arange(r_start, r_stop, dtype=np.int64).reshape(-1, 1, 1)
        tile = tile_footprint(t_m_priced, t_n, t_r, t_c, q, conv)
        feasible = (
            (t_m >= 1)
            & (tile.in_bytes <= arch.mb0_bytes)
            & (tile.w_bytes <= arch.mb1_bytes)
            & (tile.out_bytes <= arch.mb2_bytes)
        )
        cost = calc_time(tile, q, conv, slice_, arch, model)
        t_total = np.where(feasible, cost.t_total, np.inf)

        n_feasible += int(np.count_nonzero(feasible))
        flat = int(np.argmin(t_total))
        val = float(t_total.flat[flat])
        if val < best_val:
            ir, ic, in_ = np.unravel_index(flat, t_total.shape)
            best_val = val
            best_idx = (
                r_start + int(ir),
                1 + int(ic),
                1 + int(in_),
                int(t_m[0, 0, in_]),
            )
    return _GridResult(best_idx, best_val, n_feasible, n_candidates)


def tlt_tiling(
    q: ScheduleKind,
    conv: ConvLayerSpec,
    slice_: TleSlice,
    n_tlt: int,
    arch: ArchConfig,
    model: TimeModel = "burst",
) -> tuple[TileConfig, CostBreakdown] | None:
    """Best tile for one partition/schedule pair, or None if nothing fits."""
    res = _grid_search(conv, arch, slice_, q, model, n_tlt)
    if res.best is None:
        return None
    return _rebuild(res, q, conv, slice_, n_tlt, arch, model)


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
    """The cells of the pairs a restriction allows, in canonical order."""
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
    started = time.perf_counter()
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
        wall_time_s=time.perf_counter() - started,
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
