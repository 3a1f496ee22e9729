"""Golden outputs: the sha256 of the plan JSON and the compare CSV of the
samples, and of the simulate report (and transfer trace) of their plans.

A plan or a comparison may only change with a change to the cost model or
the search that says so; such a change updates these digests with it.
"""

import hashlib
from pathlib import Path

import pytest

from tsoplan.cli import main

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


# simulate stdout and --dump-trace file; the trace is only taken on the toy
# sample, whose replay keeps every transfer event.
SIMULATE_GOLDEN = {
    "toy_model": (
        "18c2f2dff38f22017ba927c58e9165006888cba50dface24f500ff71c8f96487",
        "0e178bbf61296b1896fcb712d665edf587658973b08a249c82d96a4677792d99",
    ),
    "inceptionv3": ("8c510329d993a646d163c729811cdcc77207f7cc53a64df9d59fcb41d0af46c6", None),
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
