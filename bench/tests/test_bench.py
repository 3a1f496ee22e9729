"""Tests of the benchmark itself.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    REFEREE_CASES,
    fabric_arch,
    geometry,
    referee_cases,
    write_inputs,
)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", ["inception", "distinct", "referee"])
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    write_inputs(workload, 7, tmp_path / "a")
    write_inputs(workload, 7, tmp_path / "b")
    write_inputs(workload, 8, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    if workload != "inception":
        assert _files(tmp_path / "a") != _files(tmp_path / "c")


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2, 12345])
def test_distinct_model_has_no_repeated_geometry(tmp_path, seed):
    from tsoplan import parse_model

    paths = write_inputs("distinct", seed, tmp_path)
    model = parse_model(Path(paths["model"]).read_text())
    assert len(model.layers) == 400
    geoms = [geometry(conv.__dict__) for conv in model.layers]
    assert len(set(geoms)) == len(geoms)


def test_referee_tile_count_is_pinned_for_default_seed():
    from referee import replay
    from tsoplan.configs import ArchConfig, ConvLayerSpec

    cases = [
        (ConvLayerSpec(**layer), ArchConfig(**fabric_arch(*fabric)))
        for layer, fabric in referee_cases(DEFAULT_SEED, REFEREE_CASES)
    ]
    result = replay(cases)
    assert (result.tiles, result.exact_checks, result.mismatches) == (69_498, 329, [])


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        (1, "root", 0.0, 10.0, None, 1),
        (2, "a", 1.0, 4.0, 1, 1),
        (3, "b", 3.0, 5.0, 1, 1),  # overlaps a: union 1..5
        (4, "c", 7.0, 8.0, 1, 1),
    ]
    tracer.agg[(1, "fine")] = [0.5, 3]
    self_time = tracer.self_times()
    assert self_time[1] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert self_time[2] == pytest.approx(3.0)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_declared_metric_is_printed(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = declared["per_layer" if trace else "end_to_end"]
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "referee", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for metric in want:
        assert any(line.split()[:1] == [metric["name"]] for line in lines[:-1])
    if not trace:
        for name in ("planned_us", "error_rate"):
            assert any(line.split()[:1] == [name] for line in lines[:-1])
