"""Plan serialization and derived reports (plan table with its time shares,
roofline, CSV).

The plan JSON stores everything needed to re-audit a plan against a model
and architecture file: the chosen partition, schedule, and tile shape per
layer, plus the move counts, per-tile burst counts, and the time split.
Times are microseconds rounded to three decimals; counts are exact ints.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields
from enum import Enum

from .configs import ArchConfig, ConfigError, ConvLayerSpec, ModelSpec, clip_repr, read_fields
from .costmodel import move_times
from .search import PlanEntry, PlanMap, StrategyComparison
from .slicing import ScheduleKind, TlePartitionKind


def format_us(seconds: float) -> float:
    """Seconds to microseconds, rounded to three decimals."""
    return round(seconds * 1e6, 3)


# Tile sides and windows are at least 1 and move and burst counts at least 0.
# Neither is capped at INT_MAX: valid counts may reach 3 * 2**61.
_SIDE = {"minimum": 1, "maximum": None}
_COUNT = {"minimum": 0, "maximum": None}


@dataclass(frozen=True)
class PlanEntryDoc:
    """One layer of a plan file; its fields, in order, are the entry's JSON
    keys and the values ``simulate`` recomputes and compares."""

    layer: str
    tle_partition: TlePartitionKind
    schedule: ScheduleKind
    t_m: int = field(metadata=_SIDE)
    t_n: int = field(metadata=_SIDE)
    t_r: int = field(metadata=_SIDE)
    t_c: int = field(metadata=_SIDE)
    t_h: int = field(metadata=_SIDE)
    t_l: int = field(metadata=_SIDE)
    alpha_in: int = field(metadata=_COUNT)
    alpha_w: int = field(metadata=_COUNT)
    alpha_out: int = field(metadata=_COUNT)
    bursts_in: int = field(metadata=_COUNT)
    bursts_w: int = field(metadata=_COUNT)
    bursts_out: int = field(metadata=_COUNT)
    t_mac_us: float
    t_dram_us: float
    t_sw_us: float
    t_total_us: float


@dataclass(frozen=True)
class PlanDoc:
    model: str
    arch_digest: str
    mode: str
    entries: tuple[PlanEntryDoc, ...]


_ENTRY_FIELDS = fields(PlanEntryDoc)


def entry_doc(entry: PlanEntry) -> PlanEntryDoc:
    cost = entry.cost
    tile = entry.tile
    return PlanEntryDoc(
        layer=entry.layer,
        tle_partition=entry.slice.kind,
        schedule=entry.schedule,
        t_m=tile.t_m,
        t_n=tile.t_n,
        t_r=tile.t_r,
        t_c=tile.t_c,
        t_h=tile.t_h,
        t_l=tile.t_l,
        alpha_in=cost.alphas.a_in,
        alpha_w=cost.alphas.a_w,
        alpha_out=cost.alphas.a_out,
        bursts_in=cost.bursts_in,
        bursts_w=cost.bursts_w,
        bursts_out=cost.bursts_out,
        t_mac_us=format_us(cost.t_mac),
        t_dram_us=format_us(cost.t_dram),
        t_sw_us=format_us(cost.t_sw),
        t_total_us=format_us(cost.t_total),
    )


def _json_value(value: object) -> object:
    return value.value if isinstance(value, Enum) else value


def plan_to_json_dict(plan: PlanMap, arch: ArchConfig) -> dict:
    entries = [
        {f.name: _json_value(getattr(doc, f.name)) for f in _ENTRY_FIELDS}
        for doc in map(entry_doc, plan.entries.values())
    ]
    return {
        "model": plan.model_name,
        "arch_digest": arch.digest(),
        "mode": plan.mode,
        "entries": entries,
    }


def plan_json_text(plan: PlanMap, arch: ArchConfig) -> str:
    return json.dumps(plan_to_json_dict(plan, arch), indent=2) + "\n"


def plan_from_json_dict(data: object) -> PlanDoc:
    doc = read_fields(data, PlanDoc, "plan")
    if doc["mode"] not in ("burst", "noburst"):
        raise ConfigError(f"plan: mode must be 'burst' or 'noburst', got {clip_repr(doc['mode'])}")
    if not isinstance(doc["entries"], list) or not doc["entries"]:
        raise ConfigError("plan: entries must be a non-empty array")
    entries = tuple(
        PlanEntryDoc(**read_fields(raw, PlanEntryDoc, f"plan entry {i}"))
        for i, raw in enumerate(doc["entries"])
    )
    return PlanDoc(**{**doc, "entries": entries})


@dataclass(frozen=True)
class RooflinePoint:
    layer: str
    macs: int
    moved_bytes: int
    intensity: float  # MAC per DRAM byte moved
    throughput: float  # MAC per second achieved
    compute_roof: float  # MAC per second at full datapath occupancy
    bandwidth_roof: float  # DRAM bytes per second

    @property
    def attainable(self) -> float:
        return min(self.compute_roof, self.intensity * self.bandwidth_roof)

    @property
    def bound(self) -> str:
        return "compute" if self.intensity * self.bandwidth_roof >= self.compute_roof else "memory"


def roofline_points(plan: PlanMap, model: ModelSpec, arch: ArchConfig) -> list[RooflinePoint]:
    by_name: dict[str, ConvLayerSpec] = {conv.name: conv for conv in model.layers}
    points = []
    for name, entry in plan.entries.items():
        conv = by_name[name]
        cost = entry.cost
        tile = entry.tile
        a = cost.alphas
        moved = a.a_in * tile.in_bytes + a.a_w * tile.w_bytes + a.a_out * tile.out_bytes
        intensity = conv.macs / moved
        compute_roof = (
            arch.n_tle * arch.n_tlt * arch.macs_per_cycle(conv.elem_bytes) * arch.freq_hz
        )
        points.append(
            RooflinePoint(
                layer=name,
                macs=conv.macs,
                moved_bytes=moved,
                intensity=intensity,
                throughput=conv.macs / cost.t_total,
                compute_roof=compute_roof,
                bandwidth_roof=arch.bw_bytes_per_s,
            )
        )
    return points


def roofline_csv(points: list[RooflinePoint]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "layer",
            "macs",
            "moved_bytes",
            "intensity_mac_per_byte",
            "throughput_mac_per_s",
            "compute_roof_mac_per_s",
            "bandwidth_roof_bytes_per_s",
            "attainable_mac_per_s",
            "bound",
        ]
    )
    for point in points:
        writer.writerow(
            [
                point.layer,
                point.macs,
                point.moved_bytes,
                f"{point.intensity:.6f}",
                f"{point.throughput:.3f}",
                f"{point.compute_roof:.3f}",
                f"{point.bandwidth_roof:.3f}",
                f"{point.attainable:.3f}",
                point.bound,
            ]
        )
    return buf.getvalue()


def compare_csv(comparison: StrategyComparison) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["layer", *comparison.columns])
    for layer in comparison.layers:
        row: list[object] = [layer]
        for column in comparison.columns:
            value = comparison.cells[layer][column]
            row.append("" if value is None else f"{format_us(value):.3f}")
        writer.writerow(row)
    total_row: list[object] = ["total"]
    speedup_row: list[object] = ["speedup_vs_tso"]
    for column in comparison.columns:
        total = comparison.totals[column]
        speedup = comparison.speedups[column]
        total_row.append("" if total is None else f"{format_us(total):.3f}")
        speedup_row.append("" if speedup is None else f"{speedup:.4f}")
    writer.writerow(total_row)
    writer.writerow(speedup_row)
    return buf.getvalue()


def plan_table(plan: PlanMap, arch: ArchConfig) -> str:
    """Fixed-width text rendering of a plan for the terminal."""
    header = (
        "layer",
        "tle",
        "sched",
        "t_m",
        "t_n",
        "t_r",
        "t_c",
        "mac_us",
        "dram_us",
        "sw_us",
        "total_us",
        "%load",
        "%store",
        "%mac",
    )
    rows = [header]
    for name, entry in plan.entries.items():
        doc = entry_doc(entry)
        cost = entry.cost
        a = cost.alphas
        t_in, t_w, t_out = move_times(cost, entry.tile, arch, cost.mode)
        # Launch overhead joins loads and stores by their move counts, so the
        # three shares sum to 100 of the layer's own total.
        load = t_in + t_w + (a.a_in + a.a_w) * arch.sw_overhead_s
        store = t_out + a.a_out * arch.sw_overhead_s
        shares = (100.0 * t / cost.t_total for t in (load, store, cost.t_mac))
        rows.append(
            (
                name,
                doc.tle_partition.value,
                doc.schedule.value,
                *(str(side) for side in (doc.t_m, doc.t_n, doc.t_r, doc.t_c)),
                *(f"{t:.3f}" for t in (doc.t_mac_us, doc.t_dram_us, doc.t_sw_us, doc.t_total_us)),
                *(f"{pct:.1f}" for pct in shares),
            )
        )
    total = sum(entry.cost.t_total for entry in plan.entries.values())
    rows.append(
        ("total", "", "", "", "", "", "", "", "", "", f"{format_us(total):.3f}", "", "", "")
    )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"
