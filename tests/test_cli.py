"""End-to-end command behavior: exit codes, file outputs, plan verification."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tsoplan
from tsoplan.cli import main
from tsoplan.configs import ArchConfig, ConvLayerSpec, ModelSpec, parse_arch
from tsoplan.report import PlanEntryDoc, entry_doc
from tsoplan.search import PlanEntry

from _models import SAMPLES, random_toy_model, sample_model


def arch_for(mb=8192, n_tle=4, n_tlt=8):
    return ArchConfig(
        n_tle=n_tle, n_tlt=n_tlt, mb0_bytes=mb, mb1_bytes=mb, mb2_bytes=mb,
        datapath_bits=128, freq_hz=1e9, cas_ns=14.0, bw_bytes_per_s=17e9,
        burst_bytes=128, sw_overhead_ns=0.0,
    )


@pytest.fixture()
def layer5_files(write_configs, layer5, nmp):
    return write_configs(ModelSpec(name="inc5", layers=(layer5,)), nmp)


@pytest.fixture()
def toy_files(write_configs, nmp):
    return write_configs(random_toy_model(2), nmp)


class TestPlanCommand:
    def test_table_and_json_output(self, layer5_files, tmp_path, capsys):
        model_path, arch_path = layer5_files
        out = tmp_path / "plan.json"
        rc = main(
            ["plan", "--model", model_path, "--arch", arch_path, "--out", str(out)]
        )
        assert rc == 0
        table = capsys.readouterr().out
        assert table.splitlines()[0].split()[0] == "layer"
        assert any(line.startswith("l5") for line in table.splitlines())
        doc = json.loads(out.read_text())
        assert doc["model"] == "inc5"
        assert doc["mode"] == "burst"
        assert [e["layer"] for e in doc["entries"]] == ["l5"]
        entry = doc["entries"][0]
        for key in ("tle_partition", "schedule", "t_m", "t_n", "t_r", "t_c", "t_total_us"):
            assert key in entry

    def test_thread_count_does_not_change_the_output(self, toy_files, tmp_path):
        model_path, arch_path = toy_files
        outputs = []
        for threads in ("1", "8"):
            out = tmp_path / f"plan{threads}.json"
            rc = main(
                [
                    "plan", "--model", model_path, "--arch", arch_path,
                    "--threads", threads, "--out", str(out),
                ]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_noburst_mode_is_recorded(self, toy_files, tmp_path):
        model_path, arch_path = toy_files
        out = tmp_path / "plan.json"
        rc = main(
            [
                "plan", "--model", model_path, "--arch", arch_path,
                "--mode", "noburst", "--out", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["mode"] == "noburst"

    def test_infeasible_restriction_exits_2(self, write_configs, capsys):
        model_path, arch_path = write_configs(random_toy_model(2), arch_for(n_tle=3))
        rc = main(
            [
                "plan", "--model", model_path, "--arch", arch_path,
                "--fixed-tle", "ksofm",
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestUsageErrors:
    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--model", "x.json"])
        assert err.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["plan", "--model", "x.json", "--arch", "y.json", "--fast"])
        assert err.value.code == 1

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["optimize"])
        assert err.value.code == 1

    def test_missing_model_file(self, write_configs, capsys):
        _, arch_path = write_configs(random_toy_model(2), arch_for())
        rc = main(["plan", "--model", "/nonexistent.json", "--arch", arch_path])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_input(self, tmp_path, write_configs, capsys):
        _, arch_path = write_configs(random_toy_model(2), arch_for())
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["plan", "--model", str(bad), "--arch", arch_path])
        assert rc == 1

    @pytest.mark.parametrize("command", ["plan", "compare", "roofline"])
    def test_unwritable_out_path_exits_1(self, toy_files, tmp_path, capsys, command):
        model_path, arch_path = toy_files
        out = tmp_path / "missing-dir" / "out.txt"
        rc = main([command, "--model", model_path, "--arch", arch_path, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"error: cannot write {out}")
        assert not any("Traceback" in line for line in err)

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_layer_integer_beyond_int32_exits_1(self, toy_files, tmp_path, capsys, key):
        model_path, arch_path = toy_files
        doc = json.loads(Path(model_path).read_text())
        doc["layers"][0][key] = 10**400
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        for command in ("plan", "compare"):
            rc = main([command, "--model", str(big), "--arch", arch_path])
            assert rc == 1
            assert capsys.readouterr().err == f"error: layers[0]: {key} must be <= 2147483647\n"

    def test_arch_integer_beyond_int32_exits_1(self, toy_files, tmp_path, capsys):
        model_path, arch_path = toy_files
        doc = json.loads(Path(arch_path).read_text())
        doc["mb1_bytes"] = 2**31
        big = tmp_path / "arch.json"
        big.write_text(json.dumps(doc))
        rc = main(["plan", "--model", model_path, "--arch", str(big)])
        assert rc == 1
        assert capsys.readouterr().err == "error: arch: mb1_bytes must be <= 2147483647\n"

    def test_zero_threads(self, toy_files, capsys):
        model_path, arch_path = toy_files
        rc = main(["plan", "--model", model_path, "--arch", arch_path, "--threads", "0"])
        assert rc == 1
        assert "--threads" in capsys.readouterr().err


class TestBoundedSearch:
    # Run in a child process whose address space is capped, so a search that
    # sizes its arrays by the layer fails with MemoryError instead of
    # allocating gigabytes.  One BLAS thread keeps numpy's own start-up
    # reservations small on machines with many cores.
    CHILD = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
        "from tsoplan.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def test_deepest_accepted_layer_plans_under_2_gib(self, write_configs, nmp, tmp_path):
        conv = ConvLayerSpec(
            name="deep", n=2**31 - 1, h=6, l=6, m=8, k=3, s=1, p=1, r=6, c=6, elem_bytes=2
        )
        model_path, arch_path = write_configs(ModelSpec(name="deep", layers=(conv,)), nmp)
        out = tmp_path / "plan.json"
        src = str(Path(tsoplan.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, "plan", "--model", model_path,
             "--arch", arch_path, "--out", str(out), "--threads", "1"],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        entry, = json.loads(out.read_text())["entries"]
        assert entry["layer"] == "deep"
        assert 1 <= entry["t_n"] <= nmp.mb0_bytes // (2 * 3 * 3)

    def test_layer_beyond_int64_pricing_exits_1(self, write_configs, nmp, capsys):
        # Every field at the cap: move counts would wrap in int64.
        big = 2**31 - 1
        conv = ConvLayerSpec(
            name="x", n=big, h=big, l=big, m=big, k=1, s=1, p=0, r=big, c=big, elem_bytes=2
        )
        model_path, arch_path = write_configs(ModelSpec(name="big", layers=(conv,)), nmp)
        for command in ("plan", "compare", "roofline"):
            rc = main([command, "--model", model_path, "--arch", arch_path, "--threads", "1"])
            err = capsys.readouterr().err
            assert rc == 1
            assert err.startswith("error: layer 'x': n_tle*m*n*r*c*k*k = ")
            assert err.endswith(" must both be <= 2**61 to be priced exactly in int64\n")
            assert err.count("\n") == 1


class TestSimulateCommand:
    def plan_file(self, files, tmp_path, name="plan.json"):
        model_path, arch_path = files
        out = tmp_path / name
        assert main(
            ["plan", "--model", model_path, "--arch", arch_path, "--out", str(out)]
        ) == 0
        return model_path, arch_path, out

    def test_clean_plan_verifies(self, toy_files, tmp_path, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        capsys.readouterr()
        rc = main(["simulate", "--model", model_path, "--arch", arch_path, "--plan", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "verified" in captured
        assert "burst delta (address-aware minus aligned)" in captured
        assert "FAIL" not in captured

    def test_tampered_counts_exit_3(self, toy_files, tmp_path, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        doc = json.loads(out.read_text())
        doc["entries"][0]["alpha_in"] += 1
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["simulate", "--model", model_path, "--arch", arch_path, "--plan", str(out)])
        captured = capsys.readouterr().out
        assert rc == 3
        assert "FAIL" in captured
        assert "failed verification" in captured

    def test_tampered_time_exit_3(self, toy_files, tmp_path, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        doc = json.loads(out.read_text())
        doc["entries"][0]["t_total_us"] += 1.0
        out.write_text(json.dumps(doc))
        rc = main(["simulate", "--model", model_path, "--arch", arch_path, "--plan", str(out)])
        assert rc == 3

    def test_zero_tile_dimension_exits_1(self, toy_files, tmp_path, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        doc = json.loads(out.read_text())
        doc["entries"][0]["t_m"] = 0
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["simulate", "--model", model_path, "--arch", arch_path, "--plan", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: plan entry 0: field 't_m' must be an integer >= 1\n"

    def test_integer_literal_beyond_digit_limit_exits_1(self, toy_files, tmp_path, capsys):
        # Python refuses to read integer literals of more than 4300 digits.
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        doc = json.loads(out.read_text())
        doc["entries"][0]["t_m"] = "PLACEHOLDER"
        out.write_text(json.dumps(doc).replace('"PLACEHOLDER"', "1" * 5000))
        capsys.readouterr()
        rc = main(["simulate", "--model", model_path, "--arch", arch_path, "--plan", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_unwritable_trace_path_exits_1(self, toy_files, tmp_path, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        capsys.readouterr()
        rc = main(
            [
                "simulate", "--model", model_path, "--arch", arch_path,
                "--plan", str(out), "--dump-trace", str(tmp_path / "missing-dir" / "t.txt"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.count("\n") == 1

    def test_layer_set_mismatch_exits_1(self, toy_files, tmp_path, write_configs, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        other = random_toy_model(2)
        renamed = ModelSpec(
            name=other.name,
            layers=tuple(
                dataclasses.replace(conv, name=f"renamed{i}")
                for i, conv in enumerate(other.layers)
            ),
        )
        model2_path, _ = write_configs(renamed, arch_for())
        capsys.readouterr()
        rc = main(["simulate", "--model", model2_path, "--arch", arch_path, "--plan", str(out)])
        assert rc == 1
        assert "layers do not match" in capsys.readouterr().err

    def test_wrong_model_name_exits_1(self, toy_files, tmp_path, write_configs, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        other = random_toy_model(2)
        model2_path, _ = write_configs(ModelSpec(name="other", layers=other.layers), arch_for())
        rc = main(["simulate", "--model", model2_path, "--arch", arch_path, "--plan", str(out)])
        assert rc == 1

    def test_wrong_arch_digest_exits_1(self, toy_files, tmp_path, write_configs, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        _, arch2_path = write_configs(random_toy_model(2), arch_for(mb=4096))
        capsys.readouterr()
        rc = main(["simulate", "--model", model_path, "--arch", arch2_path, "--plan", str(out)])
        assert rc == 1
        assert "different architecture" in capsys.readouterr().err

    def test_dump_trace_lists_transfers(self, toy_files, tmp_path, capsys):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        trace_path = tmp_path / "trace.txt"
        rc = main(
            [
                "simulate", "--model", model_path, "--arch", arch_path,
                "--plan", str(out), "--dump-trace", str(trace_path),
            ]
        )
        assert rc == 0
        lines = trace_path.read_text().splitlines()
        assert lines
        assert all("origin=" in line and "extent=" in line for line in lines)
        kinds = {line.split()[2] for line in lines}
        assert kinds == {"in", "w", "out"}

    @pytest.mark.parametrize(
        "field",
        [
            f.name
            for f in dataclasses.fields(PlanEntryDoc)
            if f.name not in ("layer", "tle_partition", "schedule", "t_n", "t_r", "t_c")
        ],
    )
    def test_every_derived_field_is_checked(self, toy_files, tmp_path, capsys, field):
        model_path, arch_path, out = self.plan_file(toy_files, tmp_path)
        doc = json.loads(out.read_text())
        doc["entries"][0][field] += 1
        layer = doc["entries"][0]["layer"]
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["simulate", "--model", model_path, "--arch", arch_path, "--plan", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 3
        assert any(line.startswith(f"FAIL {layer}: {field} stored ") for line in lines)

    @pytest.mark.parametrize(
        "side,value,total_us,fail",
        [
            ("t_m", 1, 3.461, "t_m stored 1, recomputed 2"),
            ("t_m", 5, 5.434, "t_m stored 5, recomputed 2"),
            ("t_n", 5, 5.307, "stored tile is infeasible: t_n, t_r, t_c = (5, 8, 32)"),
            ("t_r", 9, 4.392, "stored tile is infeasible: t_n, t_r, t_c = (3, 9, 32)"),
            ("t_c", 33, 3.880, "stored tile is infeasible: t_n, t_r, t_c = (3, 8, 33)"),
        ],
    )
    def test_self_consistent_tile_the_planner_cannot_build_exits_3(
        self, tmp_path, capsys, side, value, total_us, fail
    ):
        # The toy sample's first layer plans as ofm/is with t_m, t_n, t_r, t_c
        # = 2, 3, 8, 32.  Each edit stores another tile together with the
        # counts and times the model gives that tile, so only the tile itself
        # is wrong: is keeps all 2 filters of a TLT resident, and no side may
        # pass the layer's n = 3, tle_r = 8 or c = 32.
        files = (str(SAMPLES / "toy_model.json"), str(SAMPLES / "nmp_arch.json"))
        model_path, arch_path, out = self.plan_file(files, tmp_path)
        doc = json.loads(out.read_text())
        planned = doc["entries"][0]
        assert (planned["layer"], planned["tle_partition"], planned["schedule"]) == (
            "entry", "ofm", "is"
        )
        sides = {key: planned[key] for key in ("t_m", "t_n", "t_r", "t_c")}
        assert sides == {"t_m": 2, "t_n": 3, "t_r": 8, "t_c": 32}
        sides[side] = value
        conv = sample_model("toy_model").layers[0]
        arch = parse_arch((SAMPLES / "nmp_arch.json").read_text(encoding="utf-8"))
        q = tsoplan.ScheduleKind.IS
        slice_ = tsoplan.tle_slicing(tsoplan.TlePartitionKind.OFM, conv, arch.n_tle)
        tile = tsoplan.gen_tile(**sides, q=q, conv=conv, arch=arch, slice_=slice_)
        cost = tsoplan.calc_time(tile, q, conv, slice_, arch, doc["mode"])
        edited = dataclasses.asdict(entry_doc(PlanEntry("entry", slice_, tile, q, cost)))
        assert edited["t_total_us"] == total_us
        doc["entries"][0] = {**edited, "tle_partition": "ofm", "schedule": "is"}
        out.write_text(json.dumps(doc))
        capsys.readouterr()
        rc = main(["simulate", "--model", model_path, "--arch", arch_path, "--plan", str(out)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 3
        assert any(line.startswith(f"FAIL entry: {fail}") for line in lines)
        assert lines[-1] == "1 of 3 layers failed verification"


class TestCompareCommand:
    def test_csv_row_minimum_is_the_free_search(self, toy_files, tmp_path, capsys):
        model_path, arch_path = toy_files
        out = tmp_path / "compare.csv"
        rc = main(["compare", "--model", model_path, "--arch", arch_path, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "layer" and "tso_burst" in header
        burst_col = header.index("tso_burst")
        for line in lines[1:-2]:
            cells = line.split(",")
            values = [float(v) for v in cells[1:] if v != ""]
            assert float(cells[burst_col]) == min(values)

    def test_infeasible_pairs_are_reported(self, write_configs, capsys):
        model_path, arch_path = write_configs(random_toy_model(2), arch_for(n_tle=3))
        rc = main(["compare", "--model", model_path, "--arch", arch_path])
        captured = capsys.readouterr()
        assert rc == 0
        assert "fixed_ksofm infeasible" in captured.err


class TestRooflineCommand:
    def test_csv_on_stdout(self, toy_files, capsys):
        model_path, arch_path = toy_files
        rc = main(["roofline", "--model", model_path, "--arch", arch_path])
        captured = capsys.readouterr().out
        assert rc == 0
        lines = captured.splitlines()
        assert lines[0].startswith("layer,macs,moved_bytes,")
        assert len(lines) == 4  # header + three toy layers

    def test_restricted_search_still_reports(self, toy_files, capsys):
        model_path, arch_path = toy_files
        rc = main(
            [
                "roofline", "--model", model_path, "--arch", arch_path,
                "--fixed-tlt", "ws", "--mode", "noburst",
            ]
        )
        assert rc == 0


class TestInstalledScript:
    def test_console_entry_point(self, toy_files, tmp_path):
        exe = shutil.which("tsoplan")
        if exe is None:
            pytest.skip("console script not on PATH")
        model_path, arch_path = toy_files
        out = tmp_path / "plan.json"
        proc = subprocess.run(
            [exe, "plan", "--model", model_path, "--arch", arch_path, "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["entries"]
