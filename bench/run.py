#!/usr/bin/env python3
"""End-to-end benchmark of the tsoplan planner.

    python3 bench/run.py --workload inception|distinct|referee \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` of the
same tree.  The driver is a single process and a closed loop: one caller
runs each command through ``tsoplan.cli.main`` and waits for it, and the
planner uses at most ``nproc`` threads.  A round runs the user's commands
on the workload's generated files -- ``plan`` at one thread and at nproc
threads, ``compare``, ``simulate`` on the plan -- with a simulator referee
pass after each command sample; rounds repeat while the next one is
expected to end within ``--seconds``, and there is at least one.  Every
output is checked, and each check that fails counts one failed operation.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one traced round (see bench/README.md).  Everything the run writes goes to
``.bench_out/<workload>-<seed>/``.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import DEFAULT_SEED, WORKLOADS
from pipeline import BenchError, end_to_end, load_program, machine_info, measure, prepare

END_TO_END_UNITS = {
    "setup_s": "s",
    "plan_s": "s",
    "plan_mt_s": "s",
    "compare_s": "s",
    "verify_s": "s",
    "referee_tiles_per_s": "tiles/s",
    "peak_rss_mb": "MB",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
        ctx = prepare(args.workload, args.seed)
        if args.trace:
            from traced import traced_run

            rounds, metrics, units, extra = traced_run(ctx)
        else:
            rounds = measure(ctx, args.seconds)
            metrics = end_to_end(rounds)
            units = END_TO_END_UNITS
            extra = {}
    except (BenchError, OSError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2

    n_rounds = sum(1 for r in rounds if r.times)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    planned = {round(r.planned_us, 3) for r in rounds if r.planned_us is not None}
    digests = {key: sorted({r.digests[key] for r in rounds if key in r.digests})
               for key in ("plan_t1", "plan_tn", "compare_csv", "trace")}
    record = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "trace": args.trace,
        "rounds": n_rounds,
        "referee_passes": sum(len(r.referee_s) for r in rounds),
        "machine": machine_info(),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "planned_us": sorted(planned),
        "error_rate": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "problems": [p for r in rounds for p in r.problems][:20],
        "digests": digests,
        **extra,
    }
    (ctx.work_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {ctx.workload} seed {ctx.seed} rounds {n_rounds}"
          f" nproc {record['machine']['nproc']} python {record['machine']['python']}"
          f" numpy {record['machine']['numpy']}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'planned_us':32s} {' '.join(map(str, planned)) or '-'} us")
    print(f"  {'error_rate':32s} {record['error_rate']:.6g} ratio"
          f" ({failed} failed of {attempted} attempted)")
    for key, values in digests.items():
        print(f"  sha256 {key:12s} {' '.join(values) or '-'}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
