"""Plan serialization, plan table shares, roofline points, and CSV/table output."""

import json
from dataclasses import fields

import pytest

from tsoplan.cli import main
from tsoplan.configs import ConfigError, ModelSpec, nmp_profile
from tsoplan.costmodel import move_times
from tsoplan.report import (
    PlanEntryDoc,
    compare_csv,
    format_us,
    plan_from_json_dict,
    plan_json_text,
    plan_table,
    plan_to_json_dict,
    roofline_csv,
    roofline_points,
)
from tsoplan.search import COMPARE_COLUMNS, compare_strategies, tso

from _models import arch_for, conv_for, random_toy_model


@pytest.fixture(scope="module")
def toy_plan():
    model = random_toy_model(21)
    arch = nmp_profile()
    return model, arch, tso(model, arch)


# Each plan entry field: a value below its minimum, or one its type refuses,
# and the exact message.
ENTRY_BAD_VALUES = {
    "layer": ("", "layer must be a non-empty string"),
    "tle_partition": ("rows", "tle_partition must be one of ['ks', 'ksofm', 'ofm'], got 'rows'"),
    "schedule": ("ks", "schedule must be one of ['is', 'os', 'ws'], got 'ks'"),
    **{
        key: (0, f"{key} must be >= 1, got 0")
        for key in ("t_m", "t_n", "t_r", "t_c", "t_h", "t_l")
    },
    **{
        key: (-1, f"{key} must be >= 0, got -1")
        for key in ("alpha_in", "alpha_w", "alpha_out", "bursts_in", "bursts_w", "bursts_out")
    },
    **{
        key: (-1, f"{key} must be >= 0.0, got -1.0")
        for key in ("t_mac_us", "t_dram_us", "t_sw_us", "t_total_us")
    },
}


class TestFormatUs:
    def test_three_decimal_microseconds(self):
        assert format_us(104.3529411e-6) == 104.353
        assert format_us(0.0) == 0.0
        assert format_us(1e-9) == 0.001


class TestPlanJson:
    def test_round_trip_preserves_every_field(self, toy_plan):
        model, arch, plan = toy_plan
        doc = plan_from_json_dict(json.loads(plan_json_text(plan, arch)))
        assert doc.model == model.name
        assert doc.arch_digest == arch.digest()
        assert doc.mode == "burst"
        assert len(doc.entries) == len(model.layers)
        for entry_doc in doc.entries:
            entry = plan.entries[entry_doc.layer]
            assert entry_doc.tle_partition is entry.slice.kind
            assert entry_doc.schedule is entry.schedule
            tile = entry.tile
            assert (entry_doc.t_m, entry_doc.t_n, entry_doc.t_r, entry_doc.t_c) == (
                tile.t_m, tile.t_n, tile.t_r, tile.t_c,
            )
            assert (entry_doc.t_h, entry_doc.t_l) == (tile.t_h, tile.t_l)
            a = entry.cost.alphas
            assert (entry_doc.alpha_in, entry_doc.alpha_w, entry_doc.alpha_out) == (
                a.a_in, a.a_w, a.a_out,
            )
            assert entry_doc.t_total_us == format_us(entry.cost.t_total)

    def test_text_is_stable_and_newline_terminated(self, toy_plan):
        model, arch, plan = toy_plan
        text = plan_json_text(plan, arch)
        assert text == plan_json_text(plan, arch)
        assert text.endswith("}\n")

    def test_missing_field_is_rejected(self, toy_plan):
        _, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        del data["arch_digest"]
        with pytest.raises(ConfigError, match="arch_digest"):
            plan_from_json_dict(data)

    def test_unknown_mode_is_rejected(self, toy_plan):
        _, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        data["mode"] = "exact"
        with pytest.raises(ConfigError, match="mode"):
            plan_from_json_dict(data)

    def test_non_integer_tile_field_is_rejected(self, toy_plan):
        _, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        data["entries"][0]["t_n"] = 2.5
        with pytest.raises(ConfigError, match="t_n"):
            plan_from_json_dict(data)
        data["entries"][0]["t_n"] = True
        with pytest.raises(ConfigError, match="t_n"):
            plan_from_json_dict(data)

    @pytest.mark.parametrize(
        "key,value",
        [(key, 0) for key in ("t_m", "t_n", "t_r", "t_c", "t_h", "t_l")]
        + [
            (key, value)
            for key in ("t_mac_us", "t_dram_us", "t_sw_us", "t_total_us")
            for value in (float("nan"), float("inf"), -float("inf"), -1.0, 10**400)
        ],
    )
    def test_zero_tile_side_or_bad_time_is_rejected(self, toy_plan, key, value):
        _, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        data["entries"][0][key] = value
        with pytest.raises(ConfigError, match=key):
            plan_from_json_dict(data)

    def test_zero_counts_are_accepted(self, toy_plan):
        # Only tile sides must be positive; move and burst counts may be 0
        # in the file and are checked against the model by simulate.
        _, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        data["entries"][0]["alpha_w"] = 0
        assert plan_from_json_dict(data).entries[0].alpha_w == 0

    def test_unknown_partition_is_rejected(self, toy_plan):
        _, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        data["entries"][0]["tle_partition"] = "rows"
        with pytest.raises(ConfigError, match="tle_partition"):
            plan_from_json_dict(data)

    def test_non_object_document_is_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            plan_from_json_dict(["not", "a", "plan"])

    @pytest.mark.parametrize("key", [f.name for f in fields(PlanEntryDoc)])
    def test_entry_field_messages(self, toy_plan, key):
        _, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        value, message = ENTRY_BAD_VALUES[key]
        data["entries"][1][key] = value
        with pytest.raises(ConfigError) as info:
            plan_from_json_dict(data)
        assert str(info.value) == f"plan entry 1: {message}"
        del data["entries"][1][key]
        with pytest.raises(ConfigError) as info:
            plan_from_json_dict(data)
        assert str(info.value) == f"plan entry 1: missing field {key!r}"

    @pytest.mark.parametrize(
        "path,key,value,message",
        [
            ((), "extra", 1, "plan: unknown field 'extra'"),
            (("entries", 0), "extra", 1, "plan entry 0: unknown field 'extra'"),
            ((), "model", 5, "plan: model must be a non-empty string"),
            ((), "arch_digest", None, "plan: arch_digest must be a non-empty string"),
            (("entries", 0), "layer", None, "plan entry 0: layer must be a non-empty string"),
        ],
    )
    def test_unknown_key_or_non_string_name_is_rejected(
        self, toy_plan, path, key, value, message
    ):
        _, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        node = data
        for step in path:
            node = node[step]
        node[key] = value
        with pytest.raises(ConfigError) as info:
            plan_from_json_dict(data)
        assert str(info.value) == message

    def test_counts_beyond_int32_are_read_and_audited(
        self, toy_plan, write_configs, tmp_path, capsys
    ):
        # Move counts are not capped at 2**31 - 1: the reader accepts a wrong
        # count of 2**40 and simulate reports the mismatch, exit 3, not 1.
        model, arch, plan = toy_plan
        data = plan_to_json_dict(plan, arch)
        data["entries"][0]["alpha_in"] = 2**40
        assert plan_from_json_dict(data).entries[0].alpha_in == 2**40
        model_path, arch_path = write_configs(model, arch)
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(data))
        argv = ["simulate", "--model", model_path, "--arch", arch_path, "--plan", str(plan_path)]
        rc = main(argv)
        assert rc == 3
        layer = data["entries"][0]["layer"]
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith(f"FAIL {layer}: alpha_in stored {2**40}, recomputed ")
                   for line in lines)


class TestPlanTableShares:
    @pytest.mark.parametrize("sw_ns", [0.0, 50.0])
    def test_shares_sum_to_100_per_row(self, sw_ns):
        # Launch overhead joins the load and store shares, so %load, %store
        # and %mac cover the layer total up to their one-decimal rounding.
        model = random_toy_model(8, n_layers=6)
        arch = arch_for(sw_ns=sw_ns)
        rows = plan_table(tso(model, arch), arch).splitlines()[1:-1]
        assert len(rows) == len(model.layers)
        for row in rows:
            assert sum(float(pct) for pct in row.split()[-3:]) == pytest.approx(100.0, abs=0.15)

    @pytest.mark.parametrize("mode", ["burst", "noburst"])
    def test_move_times_sum_to_the_dram_term(self, mode):
        model = random_toy_model(8, n_layers=6)
        arch = arch_for(sw_ns=50.0)
        for entry in tso(model, arch, mode).entries.values():
            assert sum(move_times(entry.cost, entry.tile, arch, mode)) == entry.cost.t_dram


class TestRoofline:
    def test_compute_roof_is_the_datapath_rate(self, toy_plan):
        model, arch, plan = toy_plan
        for point in roofline_points(plan, model, arch):
            conv = next(c for c in model.layers if c.name == point.layer)
            peak = arch.n_tle * arch.n_tlt * arch.macs_per_cycle(conv.elem_bytes)
            assert point.compute_roof == peak * arch.freq_hz
            assert point.bandwidth_roof == arch.bw_bytes_per_s

    def test_throughput_stays_under_the_envelope(self, toy_plan):
        model, arch, plan = toy_plan
        for point in roofline_points(plan, model, arch):
            assert point.throughput <= point.attainable * (1 + 1e-12)
            assert point.bound in ("compute", "memory")

    def test_resident_layer_intensity_is_macs_over_footprint(self):
        # Whole layer resident on one cluster: every byte moves exactly once.
        conv = conv_for(n=2, h=8, l=8, m=2, k=3)
        model = ModelSpec(name="m", layers=(conv,))
        arch = arch_for(n_tle=1, n_tlt=1)
        plan = tso(model, arch)
        point = roofline_points(plan, model, arch)[0]
        footprint = conv.ifm_bytes + conv.ks_bytes + conv.ofm_bytes
        assert point.moved_bytes == footprint
        assert point.intensity == conv.macs / footprint

    def test_csv_shape(self, toy_plan):
        model, arch, plan = toy_plan
        text = roofline_csv(roofline_points(plan, model, arch))
        lines = text.splitlines()
        assert lines[0] == (
            "layer,macs,moved_bytes,intensity_mac_per_byte,throughput_mac_per_s,"
            "compute_roof_mac_per_s,bandwidth_roof_bytes_per_s,attainable_mac_per_s,bound"
        )
        assert len(lines) == 1 + len(model.layers)
        assert "\r" not in text and text.endswith("\n")


class TestCompareCsv:
    def test_layout_totals_and_unit_speedup(self):
        model = random_toy_model(8)
        cmp_ = compare_strategies(model, nmp_profile())
        text = compare_csv(cmp_)
        lines = text.splitlines()
        assert lines[0].startswith("layer,tso_burst,tso_noburst,")
        assert lines[-2].startswith("total,")
        assert lines[-1].startswith("speedup_vs_tso,1.0000,")
        assert len(lines) == 1 + len(model.layers) + 2
        assert "\r" not in text

    def test_infeasible_cells_stay_empty(self):
        model = ModelSpec(name="m", layers=(conv_for(name="a"),))
        cmp_ = compare_strategies(model, arch_for(n_tle=3))
        lines = compare_csv(cmp_).splitlines()
        col = COMPARE_COLUMNS.index("fixed_ksofm") + 1
        assert lines[1].split(",")[col] == ""
        assert lines[-2].split(",")[col] == ""
        assert lines[-1].split(",")[col] == ""


class TestPlanTable:
    def test_header_rows_and_total(self, toy_plan):
        model, arch, plan = toy_plan
        text = plan_table(plan, arch)
        lines = text.splitlines()
        assert lines[0].split()[:3] == ["layer", "tle", "sched"]
        assert len(lines) == 1 + len(model.layers) + 1
        assert lines[-1].startswith("total")
        assert text.endswith("\n")
        total = sum(e.cost.t_total for e in plan.entries.values())
        assert f"{format_us(total):.3f}" in lines[-1]
