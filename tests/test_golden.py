"""Golden outputs: the sha256 of the plan JSON, the compare CSV and the
roofline CSV of the samples, of the plan table that ``plan`` prints, and of
the simulate report (and transfer trace) of their plans.

A plan or a comparison may only change with a change to the cost model or
the search that says so; such a change updates these digests with it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from tsoplan import cli, simulator
from tsoplan.cli import main
from tsoplan.configs import arch_to_json_dict, nmp_profile
from tsoplan.costmodel import box_runs
from tsoplan.simulator import simulate_schedule

from _models import RANDOM_FABRICS, random_toy_model

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

GOLDEN = {
    ("toy_model", "plan", "burst"):
        "8423c90302586a171aaecb42212dea9308e0e07ced0469564e00c9f9f5c19633",
    ("toy_model", "plan", "noburst"):
        "dfd763564e17d130149d3b0fe23680bc65c35676413e199e7f22027e1539c229",
    ("toy_model", "compare", None):
        "bcb9c92b62dab35d996df464b579b91a6c3b953bd7a9302abebaf9649933c4b2",
    ("inceptionv3", "plan", "burst"):
        "672d3fc9a97ee092b03197220c6a7ba14e5b2208763969136968df4cde55472e",
    ("inceptionv3", "plan", "noburst"):
        "8dc54ac71d3718922d3a225152323fc13f5ce923b93f4207e7f9fcc6f4f74f6a",
    ("inceptionv3", "compare", None):
        "007772cd795568df623a7f4d4f064c54a8d37b059ffeb45952ff8dd67c9c883e",
    ("toy_model", "roofline", None):
        "918858788a921b33b4cc252985bf3bb4755f718a406071991771e30ddfa89033",
    ("inceptionv3", "roofline", None):
        "11b601a5ded129ffaac716d9918e89c0a89de612426af898ccfb1eb54078890d",
}


@pytest.mark.parametrize("sample,command,mode", sorted(GOLDEN, key=str))
def test_output_digest(sample, command, mode, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--model", str(SAMPLES / f"{sample}.json"),
            "--arch", str(SAMPLES / "nmp_arch.json"), "--out", str(out)]
    if command == "plan":
        argv += ["--threads", "1", "--mode", mode]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[sample, command, mode]


# Plan JSON and compare CSV of random_toy_model(7, n_layers=60) on each of
# RANDOM_FABRICS.
RANDOM_GOLDEN = {
    ("nmp", "plan"):
        "a4642772cd1bc143e79a6cc882f96324a9e3baad124e35b65f56fd707d70a443",
    ("nmp", "compare"):
        "b70034e113e4474d4108a336961f0e5f73716588e35231298566ed1b54752bc0",
    ("2x2_1k", "plan"):
        "78772fc6aace58b6f4001621343752dc4343fdc08b90196e98b45bbf369a61b9",
    ("2x2_1k", "compare"):
        "ee22766a12b6310176c91ac3d9c4018ec6243a4ae0c0f9c4604f10f0e8e5b18b",
}


@pytest.mark.parametrize("fabric,command", sorted(RANDOM_GOLDEN))
def test_random_model_digest(fabric, command, write_configs, tmp_path, capsys):
    model_path, arch_path = write_configs(random_toy_model(7, n_layers=60), RANDOM_FABRICS[fabric])
    out = tmp_path / "out"
    assert main([command, "--model", model_path, "--arch", arch_path, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RANDOM_GOLDEN[fabric, command]


# plan stdout (the plan table) by sample, time model and launch overhead;
# only a non-zero overhead gives the load and store shares a launch part.
PLAN_TABLE_GOLDEN = {
    ("toy_model", "burst", 0.0):
        "fc61f6f570da870285c6f3cbb9df97b7450530195b9dd850e02b7bcb402dbd9c",
    ("toy_model", "noburst", 0.0):
        "844984010fa57bf2f8170bc5fa6af43cb4ee4e1d028031f94d0d80bc4a9c4e7e",
    ("inceptionv3", "burst", 0.0):
        "b5949a2ae20aec123f89495e92c70665528940319f6e4d79a458fd6c48fbd290",
    ("inceptionv3", "noburst", 0.0):
        "7d3f21dc21a718c078d7427a98e03eaff6bcb886f1622f5e38284830b63423d1",
    ("inceptionv3", "burst", 37.5):
        "abc4bbb61f91c7c0a391ea24f4dc7b804e980032bf3486f35772f0deef056878",
}


@pytest.mark.parametrize("sample,mode,sw_ns", sorted(PLAN_TABLE_GOLDEN))
def test_plan_table_digest(sample, mode, sw_ns, tmp_path, capsys):
    arch = SAMPLES / "nmp_arch.json"
    if sw_ns:
        arch = tmp_path / "arch.json"
        arch.write_text(json.dumps({**arch_to_json_dict(nmp_profile()), "sw_overhead_ns": sw_ns}))
    argv = ["plan", "--model", str(SAMPLES / f"{sample}.json"), "--arch", str(arch),
            "--threads", "1", "--mode", mode]
    assert main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PLAN_TABLE_GOLDEN[sample, mode, sw_ns]


# simulate stdout and --dump-trace file of each sample's plan.  The trace has
# one line per replayed transfer event: 20,034 lines (1.4 MB) on InceptionV3.
SIMULATE_GOLDEN = {
    "toy_model": (
        "18c2f2dff38f22017ba927c58e9165006888cba50dface24f500ff71c8f96487",
        "0e178bbf61296b1896fcb712d665edf587658973b08a249c82d96a4677792d99",
    ),
    "inceptionv3": (
        "8c510329d993a646d163c729811cdcc77207f7cc53a64df9d59fcb41d0af46c6",
        "940e0dc9ecbc64f6c3d374a69c88206fa5f51dca8044aa7412b64c42aa26d081",
    ),
}


@pytest.mark.parametrize("sample", sorted(SIMULATE_GOLDEN))
def test_simulate_digest(sample, tmp_path, capsys):
    report_digest, trace_digest = SIMULATE_GOLDEN[sample]
    io = ["--model", str(SAMPLES / f"{sample}.json"), "--arch", str(SAMPLES / "nmp_arch.json")]
    plan, trace = tmp_path / "plan.json", tmp_path / "trace.txt"
    assert main(["plan", *io, "--threads", "1", "--out", str(plan)]) == 0
    capsys.readouterr()
    argv = ["simulate", *io, "--plan", str(plan)]
    if trace_digest:
        argv += ["--dump-trace", str(trace)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == report_digest
    if trace_digest:
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest


def test_trace_dump_enumerates_no_runs(tmp_path, capsys, monkeypatch):
    # bytes= is the clipped box's size, so the dump never lists byte runs;
    # an event's runs are enumerated only when read.
    calls, traces = [], []

    def counting_box_runs(*args):
        calls.append(args)
        return box_runs(*args)

    def keeping_simulate(*args, **kwargs):
        traces.append(simulate_schedule(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(simulator, "box_runs", counting_box_runs)
    monkeypatch.setattr(cli, "simulate_schedule", keeping_simulate)
    io = ["--model", str(SAMPLES / "toy_model.json"), "--arch", str(SAMPLES / "nmp_arch.json")]
    plan, trace = tmp_path / "plan.json", tmp_path / "trace.txt"
    assert main(["plan", *io, "--out", str(plan)]) == 0
    assert main(["simulate", *io, "--plan", str(plan), "--dump-trace", str(trace)]) == 0
    capsys.readouterr()
    assert calls == []
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == SIMULATE_GOLDEN["toy_model"][1]
    assert traces[0].events[0].runs  # the toy's first load touches its map
    assert len(calls) == 1
