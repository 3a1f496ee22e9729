"""The traced run: per-layer metrics from spans at the layer boundaries.

One round of the user's commands runs with wrappers on every library name
``tsoplan.cli`` and ``tsoplan.search`` import, so each command's span has
one child span per library call and its self time is the CLI's own
overhead.  The search is then decomposed by calling ``tso`` on a one-conv
model for every conv, and once more for every partition x schedule pair
with ``fixed_tle``/``fixed_tlt``.  The referee is replayed untraced and
traced in alternation; the difference of the medians is the tracing
overhead.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import tsoplan.cli
import tsoplan.search
from tsoplan import ModelSpec, PlanError, parse_arch, parse_model
from tsoplan.report import roofline_csv, roofline_points
from tsoplan.search import PARTITION_ORDER, SCHEDULE_ORDER

from pipeline import COMMANDS, Round, referee_pass, run_round
from spans import Tracer
from workloads import geometry

OVERHEAD_PAIRS = 5
PAIRS = tuple(f"{p.value}.{q.value}" for p in PARTITION_ORDER for q in SCHEDULE_ORDER)

PER_LAYER_UNITS = {
    "configs.parse_s": "s",
    "search.sweep_s": "s",
    **{f"search.sweep_s.{pair}": "s" for pair in PAIRS},
    "search.cells": "count",
    "search.cells_feasible": "count",
    "search.feasible_ratio": "ratio",
    "search.cells_per_s": "1/s",
    "search.shape_repeat_ratio": "ratio",
    "search.compare_over_plan": "ratio",
    "search.conv_plan_ms_p50": "ms",
    "search.conv_plan_ms_tail": "ms",
    "search.conv_plan_tail_pct": "%",
    "search.conv_plan_ms_max": "ms",
    "search.thread_speedup": "ratio",
    "search.ties": "count",
    "search.infeasible_pairs": "count",
    "costmodel.calc_time_s": "s",
    "costmodel.calc_time_calls": "count",
    "slicing.gen_tile_s": "s",
    "slicing.gen_tile_calls": "count",
    "simulator.replay_s": "s",
    "simulator.replays": "count",
    "simulator.event_replay_s": "s",
    "simulator.events": "count",
    "simulator.events_per_s": "1/s",
    "simulator.exact_bursts_s": "s",
    "simulator.exact_bursts_calls": "count",
    "simulator.mismatches": "count",
    "report.plan_json_s": "s",
    "report.plan_parse_s": "s",
    "report.compare_csv_s": "s",
    "report.roofline_s": "s",
    "report.trace_bytes": "bytes",
    **{f"cli.overhead_s.{command}": "s" for command in COMMANDS},
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}

# Library names each module imports and calls; a wrapper on each records a
# span named after the module that defines the function.
_WRAPPED = {
    tsoplan.cli: (
        "parse_model", "parse_arch", "tso", "compare_strategies", "plan_table",
        "plan_json_text", "compare_csv", "plan_from_json_dict", "simulate_schedule",
        "calc_burst_count", "calc_time", "compute_alphas", "gen_tile", "tle_slicing",
    ),
    tsoplan.search: ("calc_time", "gen_tile", "get_filters", "tle_slicing"),
}


def _install(tracer: Tracer) -> None:
    for module, names in _WRAPPED.items():
        for attr in names:
            layer = getattr(module, attr).__module__.rsplit(".", 1)[-1]
            count = (lambda trace: len(trace.events)) if attr == "simulate_schedule" else None
            tracer.wrap(module, attr, f"{layer}.{attr}", count)


def _load(ctx):
    with open(ctx.model_path, encoding="utf-8") as fh:
        model = parse_model(fh.read())
    with open(ctx.arch_path, encoding="utf-8") as fh:
        arch = parse_arch(fh.read())
    return model, arch


def _tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten values beyond it."""
    cuts = statistics.quantiles(values, n=100)
    for pct in range(99, 0, -1):
        if sum(v > cuts[pct - 1] for v in values) >= 10:
            return cuts[pct - 1], pct
    return max(values), 100


def _decompose_search(ctx, tracer: Tracer) -> dict:
    """Time tso per conv, and per conv and partition x schedule pair."""
    model, arch = _load(ctx)
    tso = tsoplan.search.tso
    out = {"cells": 0, "feasible": 0, "ties": 0, "infeasible_pairs": 0, "conv_s": []}
    with tracer.span("search.decompose", command=True):
        for conv in model.layers:
            one = ModelSpec(name=model.name, layers=(conv,))
            with tracer.span("search.conv") as sid:
                plan = tso(one, arch, workers=1)
            out["conv_s"].append(sid)
            out["cells"] += plan.stats.candidates_evaluated + plan.stats.candidates_infeasible
            out["feasible"] += plan.stats.candidates_evaluated
            out["ties"] += len(plan.stats.tie_layers)
            for p in PARTITION_ORDER:
                for q in SCHEDULE_ORDER:
                    with tracer.span(f"search.sweep.{p.value}.{q.value}"):
                        try:
                            tso(one, arch, fixed_tle=p, fixed_tlt=q, workers=1)
                        except PlanError:
                            out["infeasible_pairs"] += 1
    geoms = [geometry(conv.__dict__) for conv in model.layers]
    out["repeats"] = len(geoms) - len(set(geoms))
    out["n_convs"] = len(geoms)
    return out


def traced_run(ctx):
    tracer = Tracer()
    # Tracing overhead: the same referee pass untraced and traced, in
    # alternation, where spans are densest (one timing per library call).
    probe = Round()
    for _ in range(OVERHEAD_PAIRS):
        referee_pass(ctx.referee_chunks[0], probe)
        with tracer.span("trace.probe", command=True):
            referee_pass(ctx.referee_chunks[0], probe, tracer.add)
    untraced = statistics.median(probe.referee_s[0::2])
    traced = statistics.median(probe.referee_s[1::2])
    _install(tracer)
    try:
        rnd = run_round(ctx, first=True, tracer=tracer)
        search = _decompose_search(ctx, tracer)
        plan = tracer.last.get("search.tso")
        if plan is not None:
            model, arch = _load(ctx)
            with tracer.span("report.roofline", command=True):
                roofline_csv(roofline_points(plan, model, arch))
    finally:
        tracer.unwrap_all()
    tracer.write(ctx.work_dir / "spans.jsonl")

    self_time = tracer.self_times()
    names = {sid: name for sid, name, *_ in tracer.spans}
    dur = {sid: end - start for sid, _, start, end, _, _ in tracer.spans}
    cmd_of = {sid: cmd for sid, _, _, _, _, cmd in tracer.spans}
    command_ids = defaultdict(list)
    for sid, name, *_ in tracer.spans:
        if name.startswith("cli."):
            command_ids[name[len("cli."):]].append(sid)

    by_cmd_name = defaultdict(float)
    for sid, name in names.items():
        by_cmd_name[(cmd_of[sid], name)] += dur[sid]

    def per_command(name: str, command: str) -> float:
        """Median over the command's repeats of the time spent in ``name``."""
        return statistics.median(by_cmd_name[(cid, name)] for cid in command_ids[command])

    agg = defaultdict(lambda: [0.0, 0])
    for (parent, name), (seconds, calls) in tracer.agg.items():
        if names.get(parent) == "referee.pass":
            agg[name][0] += seconds
            agg[name][1] += calls

    sweep = defaultdict(float)
    calc = [0.0, 0]
    parent_of = {sid: parent for sid, _, _, _, parent, _ in tracer.spans}
    for sid, name in names.items():
        if name.startswith("search.sweep."):
            sweep[name[len("search.sweep."):]] += self_time[sid]
        elif name == "costmodel.calc_time" and names.get(parent_of[sid], "").startswith("search.sweep."):
            calc[0] += dur[sid]
            calc[1] += 1

    command_s = {c: statistics.median(rnd.times[c]) for c in COMMANDS}
    conv_ms = [dur[sid] * 1e3 for sid in search["conv_s"]]
    tail_ms, tail_pct = _tail(conv_ms)
    sweep_s = sum(sweep.values())
    events = tracer.counts["simulator.simulate_schedule"]
    event_s = per_command("simulator.simulate_schedule", "verify")
    events //= len(command_ids["verify"])
    mismatches = sum(p.startswith(("referee:", "simulate")) for r in (probe, rnd) for p in r.problems)

    metrics = {
        "configs.parse_s": statistics.median(p["parse_s"] for p in rnd.setup),
        "search.sweep_s": sweep_s,
        **{f"search.sweep_s.{pair}": sweep[pair] for pair in PAIRS},
        "search.cells": search["cells"],
        "search.cells_feasible": search["feasible"],
        "search.feasible_ratio": search["feasible"] / search["cells"],
        "search.cells_per_s": search["cells"] / sweep_s,
        "search.shape_repeat_ratio": search["repeats"] / search["n_convs"],
        "search.compare_over_plan": command_s["compare"] / command_s["plan"],
        "search.conv_plan_ms_p50": statistics.median(conv_ms),
        "search.conv_plan_ms_tail": tail_ms,
        "search.conv_plan_tail_pct": tail_pct,
        "search.conv_plan_ms_max": max(conv_ms),
        "search.thread_speedup": command_s["plan"] / command_s["plan_mt"],
        "search.ties": search["ties"],
        "search.infeasible_pairs": search["infeasible_pairs"],
        "costmodel.calc_time_s": calc[0],
        "costmodel.calc_time_calls": calc[1],
        "slicing.gen_tile_s": agg["slicing.gen_tile"][0],
        "slicing.gen_tile_calls": agg["slicing.gen_tile"][1],
        "simulator.replay_s": agg["simulator.replay"][0],
        "simulator.replays": agg["simulator.replay"][1],
        "simulator.event_replay_s": event_s,
        "simulator.events": events,
        "simulator.events_per_s": events / event_s if event_s else 0.0,
        "simulator.exact_bursts_s": agg["simulator.exact_bursts"][0],
        "simulator.exact_bursts_calls": agg["simulator.exact_bursts"][1],
        "simulator.mismatches": mismatches,
        "report.plan_json_s": per_command("report.plan_json_text", "plan"),
        "report.plan_parse_s": per_command("report.plan_from_json_dict", "verify"),
        "report.compare_csv_s": per_command("report.compare_csv", "compare"),
        "report.roofline_s": sum(dur[s] for s, n in names.items() if n == "report.roofline"),
        "report.trace_bytes": rnd.trace_bytes,
        **{
            f"cli.overhead_s.{c}": statistics.median(self_time[s] for s in command_ids[c])
            for c in COMMANDS
        },
        "trace.overhead_s": traced - untraced,
        "trace.overhead_ratio": (traced - untraced) / untraced,
        "trace.spans": len(tracer.spans),
    }
    extra = {"command_s": command_s}
    return [rnd, probe], metrics, PER_LAYER_UNITS, extra
