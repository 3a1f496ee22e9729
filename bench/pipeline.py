"""Rounds of the user's commands and the referee, with output checks."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up probes per run, spread over the first round.
SETUP_PROBES = 8
MAX_ROUNDS = 9
# Within a round a command repeats until it has run MIN_COMMAND_S in total,
# and a command shorter than SHORT_COMMAND_S at least MIN_SHORT_SAMPLES
# times, but never more than MAX_REPEATS times: short commands, the most
# exposed to the machine's drift, get several samples.
MIN_COMMAND_S = 3.0
SHORT_COMMAND_S = 1.5
MIN_SHORT_SAMPLES = 5
MAX_REPEATS = 15
COMMANDS = ("plan", "plan_mt", "compare", "verify")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    """Import tsoplan from this tree's src/, and only from there."""
    package_dir = SRC / "tsoplan"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no package source at {package_dir}")
    sys.path.insert(0, str(SRC))
    try:
        import tsoplan
    except ImportError as exc:
        raise BenchError(f"cannot import tsoplan: {exc}") from exc
    if Path(tsoplan.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"tsoplan imported from {tsoplan.__file__}, not {package_dir}")
    return tsoplan


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def probe_setup(files: list[str]) -> dict:
    """Import the package and parse the inputs in a fresh process."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *files]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


@dataclass
class Context:
    workload: str
    seed: int
    work_dir: Path
    model_path: str
    arch_path: str
    layer_names: list[str]
    setup_files: list[str]
    # Referee case lists, one replayed after each command sample in turn.
    referee_chunks: list[list]
    nproc: int


@dataclass
class Round:
    times: dict[str, list[float]] = field(default_factory=dict)
    setup: list[dict] = field(default_factory=list)
    referee_s: list[float] = field(default_factory=list)
    referee_tiles: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    planned_us: float | None = None
    trace_bytes: int = 0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command in-process; returns (exit code, seconds, stdout)."""
    from tsoplan.cli import main

    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command, not a dead benchmark
            traceback.print_exc()
            code = 1
    elapsed = perf_counter() - start
    if code != 0:
        sys.stderr.write(f"command {argv[0]} exited {code}: {err.getvalue().strip()}\n")
    return code, elapsed, out.getvalue()


def check_compare(csv_text: str, planned_us: float | None, n_layers: int) -> list[str]:
    """The free search is never beaten by a fixed strategy, and its total
    is the plan's total.

    Compare cells and the plan's entries are both microseconds rounded to
    three decimals, the compare total rounded after summing: the two totals
    may differ by half a unit in the last place per layer, plus one.
    """
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    problems = []
    body = [row for row in rows if row["layer"] not in ("total", "speedup_vs_tso")]
    if len(body) != n_layers:
        problems.append(f"compare has {len(body)} layer rows, model has {n_layers}")
    for row in body:
        free = float(row["tso_burst"])
        for column, value in row.items():
            if column.startswith("fixed_") and value and free > float(value):
                problems.append(f"{row['layer']}: tso_burst {free} > {column} {value}")
    total = [row for row in rows if row["layer"] == "total"]
    if not total or planned_us is None:
        problems.append("compare total or plan total missing")
    elif abs(float(total[0]["tso_burst"]) - planned_us) > 0.0005 * (n_layers + 1) + 1e-6:
        problems.append(f"compare total {total[0]['tso_burst']} != plan total {planned_us:.3f}")
    return problems


def referee_pass(cases: list, rnd: Round, agg=None) -> None:
    from referee import replay

    start = perf_counter()
    result = replay(cases, agg)
    rnd.referee_s.append(perf_counter() - start)
    rnd.referee_tiles.append(result.tiles)
    rnd.attempted += result.tiles + result.exact_checks
    for problem in result.mismatches:
        rnd.fail(f"referee: {problem}")


def check_output(ctx, rnd, command, stdout, plan1, plan_n, compare_path, trace_path) -> None:
    """Check one command's output; a failed check is a failed operation."""
    if command == "plan":
        rnd.digests["plan_t1"] = sha256(plan1)
        doc = json.loads(plan1.read_text())
        rnd.planned_us = sum(entry["t_total_us"] for entry in doc["entries"])
    elif command == "plan_mt":
        rnd.digests["plan_tn"] = sha256(plan_n)
        if not plan1.exists() or plan1.read_bytes() != plan_n.read_bytes():
            rnd.fail(f"plan at --threads {ctx.nproc} differs from --threads 1")
    elif command == "compare":
        rnd.digests["compare_csv"] = sha256(compare_path)
        problems = check_compare(compare_path.read_text(), rnd.planned_us, len(ctx.layer_names))
        if problems:
            rnd.fail("compare: " + "; ".join(problems[:3]))
    else:
        rnd.digests["trace"] = sha256(trace_path)
        rnd.trace_bytes = trace_path.stat().st_size
        last = stdout.splitlines()[-1] if stdout else ""
        if last != f"verified {len(ctx.layer_names)} layers":
            rnd.fail(f"simulate ended with {last!r}")


def _wants_sample(samples: list[float]) -> bool:
    total, n = sum(samples), len(samples)
    if n >= MAX_REPEATS:
        return False
    return total < MIN_COMMAND_S or (total / n < SHORT_COMMAND_S and n < MIN_SHORT_SAMPLES)


def run_round(ctx: Context, first: bool, tracer=None) -> Round:
    """One round of the user's commands, with output checks.

    The round makes passes over the commands: the first runs each once,
    later ones repeat those that have not yet run MIN_COMMAND_S in total.
    Every command sample is followed by a referee pass and, in the first
    round, by a set-up probe, so that each metric samples the whole run
    rather than one stretch of it.
    """
    rnd = Round(times={command: [] for command in COMMANDS})
    d = ctx.work_dir
    plan1, plan_n = d / "plan_t1.json", d / "plan_tn.json"
    compare_path, trace_path = d / "compare.csv", d / "trace.txt"
    io_args = ["--model", ctx.model_path, "--arch", ctx.arch_path]
    argvs = {
        "plan": ["plan", *io_args, "--threads", "1", "--out", str(plan1)],
        "plan_mt": ["plan", *io_args, "--threads", str(ctx.nproc), "--out", str(plan_n)],
        "compare": ["compare", *io_args, "--threads", "1", "--out", str(compare_path)],
        "verify": ["simulate", *io_args, "--plan", str(plan1), "--dump-trace", str(trace_path)],
    }
    for path in (plan1, plan_n, compare_path, trace_path):
        path.unlink(missing_ok=True)
    pending = list(COMMANDS)
    while pending:
        for command in pending:
            span = (
                tracer.span(f"cli.{command}", command=True) if tracer
                else contextlib.nullcontext()
            )
            with span:
                code, seconds, stdout = run_cli(argvs[command])
            rnd.times[command].append(seconds)
            rnd.attempted += 1
            if code != 0:
                rnd.fail(f"{command} exited {code}")
            else:
                try:
                    check_output(
                        ctx, rnd, command, stdout, plan1, plan_n, compare_path, trace_path
                    )
                except (OSError, ValueError, KeyError) as exc:
                    rnd.fail(f"{command} output unreadable: {exc!r}")
            chunk = ctx.referee_chunks[len(rnd.referee_s) % len(ctx.referee_chunks)]
            if tracer:
                with tracer.span("referee.pass", command=True):
                    referee_pass(chunk, rnd, tracer.add)
            else:
                referee_pass(chunk, rnd)
            if first and len(rnd.setup) < SETUP_PROBES:
                rnd.setup.append(probe_setup(ctx.setup_files))
        pending = [c for c in COMMANDS if _wants_sample(rnd.times[c])]
    while first and len(rnd.setup) < SETUP_PROBES:
        rnd.setup.append(probe_setup(ctx.setup_files))
    return rnd


def machine_info() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def prepare(workload: str, seed: int) -> Context:
    from tsoplan import parse_arch, parse_model
    from workloads import write_inputs

    work_dir = OUT / f"{workload}-{seed}"
    inputs = write_inputs(workload, seed, work_dir)
    files = [f"model:{inputs['model']}", f"arch:{inputs['arch']}"]
    cases = []
    for model_file, arch_file in inputs["referee"]:
        files += [f"model:{model_file}", f"arch:{arch_file}"]
        arch = parse_arch(Path(arch_file).read_text())
        cases += [(conv, arch) for conv in parse_model(Path(model_file).read_text()).layers]
    # The referee workload cycles through eight stratified slices of its case
    # set; the planning workloads replay their small set whole every time.
    chunks = [cases[k::8] for k in range(8)] if workload == "referee" else [cases]
    model = parse_model(Path(inputs["model"]).read_text())
    return Context(
        workload=workload,
        seed=seed,
        work_dir=work_dir,
        model_path=inputs["model"],
        arch_path=inputs["arch"],
        layer_names=[conv.name for conv in model.layers],
        setup_files=files,
        referee_chunks=chunks,
        nproc=os.cpu_count() or 1,
    )


def measure(ctx: Context, seconds: float) -> list[Round]:
    """Rounds until the next one would end after ``seconds`` (at least one)."""
    rounds = []
    start = perf_counter()
    while len(rounds) < MAX_ROUNDS:
        round_start = perf_counter()
        rounds.append(run_round(ctx, first=not rounds))
        now = perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return rounds


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    setup = [probe for r in rounds for probe in r.setup]
    metrics = {"setup_s": statistics.median(p["import_s"] + p["parse_s"] for p in setup)}
    for command in COMMANDS:
        name = "plan_s" if command == "plan" else f"{command}_s"
        metrics[name] = statistics.median(t for r in rounds for t in r.times[command])
    # Throughput over the whole run: every tile replayed over all pass time.
    metrics["referee_tiles_per_s"] = sum(sum(r.referee_tiles) for r in rounds) / sum(
        sum(r.referee_s) for r in rounds
    )
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics
