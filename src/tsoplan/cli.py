"""Command line interface.

Subcommands: plan (search a model, write a plan), compare (strategy
comparison CSV), roofline (per-layer roofline CSV), simulate (replay a
plan's schedules and verify its counts).  Exit codes: 0 success, 1 usage
or input error, 2 no feasible plan, 3 plan verification failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

# Not called here: bench/traced.py wraps these three names as attributes of this module.
from . import calc_time, compute_alphas, gen_tile  # noqa: F401
from .configs import (
    ArchConfig, ConfigError, ModelSpec, clip_repr, load_json, parse_arch, parse_model
)
from .costmodel import TileKind, calc_burst_count
from .report import (
    compare_csv,
    entry_doc,
    plan_from_json_dict,
    plan_json_text,
    plan_table,
    roofline_csv,
    roofline_points,
)
from .search import PlanError, build_entry, compare_strategies, tso
from .simulator import simulate_schedule
from .slicing import Infeasible, ScheduleKind, TlePartitionKind, tle_slicing

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # infeasibility, so route usage errors to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_io_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", required=True, help="model JSON file")
    sub.add_argument("--arch", required=True, help="architecture JSON file")


def _add_search_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--mode",
        choices=("burst", "noburst"),
        default="burst",
        help="DRAM time model used by the search (default burst)",
    )
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        metavar="N",
        help="layer-level worker threads (default 1)",
    )
    sub.add_argument(
        "--fixed-tle",
        choices=tuple(kind.value for kind in TlePartitionKind),
        default=None,
        help="restrict the search to one TLE partition",
    )
    sub.add_argument(
        "--fixed-tlt",
        choices=tuple(kind.value for kind in ScheduleKind),
        default=None,
        help="restrict the search to one schedule",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tsoplan", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p_plan = subs.add_parser("plan", parents=[], help="search a model and emit a plan")
    _add_io_args(p_plan)
    _add_search_args(p_plan)
    p_plan.add_argument("--out", default=None, metavar="PATH", help="write the plan JSON here")

    p_cmp = subs.add_parser("compare", help="compare the search against fixed strategies")
    _add_io_args(p_cmp)
    p_cmp.add_argument(
        "--threads", type=int, default=None, metavar="N", help="worker threads (default 1)"
    )
    p_cmp.add_argument("--out", default=None, metavar="PATH", help="write the CSV here")

    p_roof = subs.add_parser("roofline", help="per-layer roofline data for a searched plan")
    _add_io_args(p_roof)
    _add_search_args(p_roof)
    p_roof.add_argument("--out", default=None, metavar="PATH", help="write the CSV here")

    p_sim = subs.add_parser("simulate", help="replay a plan and verify its counts")
    _add_io_args(p_sim)
    p_sim.add_argument("--plan", required=True, metavar="PATH", help="plan JSON to verify")
    p_sim.add_argument(
        "--dump-trace",
        default=None,
        metavar="PATH",
        help="write one line per simulated transfer",
    )
    return parser


def _load_inputs(args) -> tuple[ModelSpec, ArchConfig]:
    return parse_model(_read_text(args.model)), parse_arch(_read_text(args.arch))


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {path}: {reason}") from exc


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_threads(threads: int | None) -> int | None:
    if threads is not None and threads < 1:
        raise ConfigError("--threads must be at least 1")
    return threads


def _search(args, model: ModelSpec, arch: ArchConfig):
    """tso under the command's --mode, --fixed-tle, --fixed-tlt and --threads."""
    return tso(
        model,
        arch,
        mode=args.mode,
        fixed_tle=TlePartitionKind(args.fixed_tle) if args.fixed_tle else None,
        fixed_tlt=ScheduleKind(args.fixed_tlt) if args.fixed_tlt else None,
        workers=_check_threads(args.threads),
    )


def cmd_plan(args) -> int:
    model, arch = _load_inputs(args)
    plan = _search(args, model, arch)
    sys.stdout.write(plan_table(plan, arch))
    if plan.stats.tie_layers:
        tied = ", ".join(plan.stats.tie_layers)
        sys.stderr.write(f"note: exact cost ties between strategies on: {tied}\n")
    if args.out is not None:
        _write_text(args.out, plan_json_text(plan, arch))
        sys.stderr.write(f"plan written to {args.out}\n")
    return EXIT_OK


def cmd_compare(args) -> int:
    model, arch = _load_inputs(args)
    comparison = compare_strategies(model, arch, workers=_check_threads(args.threads))
    for (layer, column), reason in sorted(comparison.reasons.items()):
        sys.stderr.write(f"note: {column} infeasible for {layer}: {reason}\n")
    _write_text(args.out, compare_csv(comparison))
    return EXIT_OK


def cmd_roofline(args) -> int:
    model, arch = _load_inputs(args)
    plan = _search(args, model, arch)
    _write_text(args.out, roofline_csv(roofline_points(plan, model, arch)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    model, arch = _load_inputs(args)
    doc = plan_from_json_dict(load_json(_read_text(args.plan), "plan"))
    if doc.model != model.name:
        raise ConfigError(
            f"plan is for model {clip_repr(doc.model)}, file defines {clip_repr(model.name)}"
        )
    if doc.arch_digest != arch.digest():
        raise ConfigError("plan was produced for a different architecture config")
    by_name = {conv.name: conv for conv in model.layers}
    if sorted(stored.layer for stored in doc.entries) != sorted(by_name):
        raise ConfigError("plan layers do not match the model's layers")

    failures = 0
    trace_lines: list[str] | None = [] if args.dump_trace else None
    for stored in doc.entries:
        conv = by_name[stored.layer]
        sides = (stored.t_n, stored.t_r, stored.t_c)
        # Rebuild the entry as the planner does: t_m follows from the schedule.
        try:
            slice_ = tle_slicing(stored.tle_partition, conv, arch.n_tle)
            entry = build_entry(stored.layer, conv, arch, slice_, stored.schedule, sides, doc.mode)
        except Infeasible as exc:
            sys.stdout.write(f"FAIL {stored.layer}: stored tile is infeasible: {exc.reason}\n")
            failures += 1
            continue
        fresh = entry_doc(entry)
        problems = [
            f"{f.name} stored {getattr(stored, f.name)}, recomputed {getattr(fresh, f.name)}"
            for f in fields(stored) if getattr(stored, f.name) != getattr(fresh, f.name)
        ]

        q, tile, cost, alphas = entry.schedule, entry.tile, entry.cost, entry.cost.alphas
        trace = simulate_schedule(q, conv, slice_, tile, arch, keep_events=trace_lines is not None)
        simulated = (trace.loads_in, trace.loads_w, trace.stores_out)
        if simulated != (alphas.a_in, alphas.a_w, alphas.a_out):
            problems.append(f"simulated moves {simulated}, analytic {alphas}")

        aligned = [calc_burst_count(kind, tile, conv, arch, "aligned") for kind in TileKind]
        closed_form = [cost.bursts_in, cost.bursts_w, cost.bursts_out]
        if closed_form != aligned:
            problems.append(f"closed-form bursts {closed_form}, run-enumerated {aligned}")
        delta = sum(
            calc_burst_count(kind, tile, conv, arch, "address_aware") - count
            for kind, count in zip(TileKind, aligned)
        )
        if trace_lines is not None:
            for event in trace.events:
                nbytes = sum(length for _, length in event.runs)
                trace_lines.append(
                    f"{stored.layer} tle={event.tle} {event.kind.value}"
                    f" origin={event.origin} extent={event.extent} bytes={nbytes}"
                )
        if problems:
            failures += 1
            for problem in problems:
                sys.stdout.write(f"FAIL {stored.layer}: {problem}\n")
        else:
            sys.stdout.write(
                f"ok {stored.layer}: moves {alphas.a_in}/{alphas.a_w}/{alphas.a_out},"
                f" burst delta (address-aware minus aligned) {delta}\n"
            )

    if trace_lines is not None:
        _write_text(args.dump_trace, "\n".join(trace_lines) + "\n")
    if failures:
        sys.stdout.write(f"{failures} of {len(doc.entries)} layers failed verification\n")
        return EXIT_VERIFY
    sys.stdout.write(f"verified {len(doc.entries)} layers\n")
    return EXIT_OK


_COMMANDS = {
    "plan": cmd_plan,
    "compare": cmd_compare,
    "roofline": cmd_roofline,
    "simulate": cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except PlanError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
