"""Config parsing, validation, and serialization."""

import json
from pathlib import Path

import pytest

from tsoplan.configs import (
    ArchConfig,
    ConfigError,
    ConvLayerSpec,
    ModelSpec,
    arch_to_json_dict,
    model_to_json_dict,
    nmp_profile,
    parse_arch,
    parse_model,
)

VALID_LAYER = {
    "name": "c1",
    "n": 3,
    "h": 32,
    "l": 30,
    "m": 16,
    "k": 3,
    "s": 1,
    "p": 1,
    "r": 32,
    "c": 30,
    "elem_bytes": 2,
}


def valid_model_doc():
    return {"name": "m", "layers": [dict(VALID_LAYER)]}


def test_model_round_trip():
    model = parse_model(json.dumps(valid_model_doc()))
    again = parse_model(json.dumps(model_to_json_dict(model)))
    assert again == model
    assert again.layers[0].name == "c1"


def test_arch_round_trip_preserves_inexact_ns():
    doc = arch_to_json_dict(nmp_profile())
    doc["cas_ns"] = 13.75
    doc["sw_overhead_ns"] = 0.3
    arch = parse_arch(json.dumps(doc))
    again = parse_arch(json.dumps(arch_to_json_dict(arch)))
    assert again == arch
    assert again.cas_ns == 13.75
    assert again.sw_overhead_ns == 0.3


@pytest.mark.parametrize("missing", sorted(VALID_LAYER))
def test_missing_layer_field_rejected(missing):
    doc = valid_model_doc()
    del doc["layers"][0][missing]
    with pytest.raises(ConfigError, match=missing):
        parse_model(json.dumps(doc))


def test_unknown_layer_field_rejected():
    doc = valid_model_doc()
    doc["layers"][0]["stride_y"] = 1
    with pytest.raises(ConfigError, match="stride_y"):
        parse_model(json.dumps(doc))


def test_duplicate_layer_names_rejected():
    doc = valid_model_doc()
    doc["layers"].append(dict(VALID_LAYER))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_model(json.dumps(doc))


def test_output_geometry_must_match():
    doc = valid_model_doc()
    doc["layers"][0]["r"] = 31
    with pytest.raises(ConfigError, match="geometry gives"):
        parse_model(json.dumps(doc))


def test_kernel_larger_than_padded_input_rejected():
    doc = valid_model_doc()
    doc["layers"][0].update(h=2, p=0, k=3, r=1)
    with pytest.raises(ConfigError):
        parse_model(json.dumps(doc))


def test_elem_bytes_limited_to_supported_widths():
    doc = valid_model_doc()
    doc["layers"][0]["elem_bytes"] = 4
    with pytest.raises(ConfigError, match="elem_bytes"):
        parse_model(json.dumps(doc))


def test_bool_not_accepted_as_int():
    doc = valid_model_doc()
    doc["layers"][0]["n"] = True
    with pytest.raises(ConfigError):
        parse_model(json.dumps(doc))


def test_json_syntax_error_reports_position():
    with pytest.raises(ConfigError, match="line"):
        parse_model('{"name": "m", }')


def test_burst_bytes_power_of_two():
    doc = arch_to_json_dict(nmp_profile())
    doc["burst_bytes"] = 96
    with pytest.raises(ConfigError, match="power of two"):
        parse_arch(json.dumps(doc))


def test_unknown_arch_field_rejected():
    doc = arch_to_json_dict(nmp_profile())
    doc["dram_channels"] = 2
    with pytest.raises(ConfigError, match="dram_channels"):
        parse_arch(json.dumps(doc))


@pytest.mark.parametrize("key", ["freq_hz", "cas_ns", "bw_bytes_per_s", "sw_overhead_ns"])
@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400])
def test_non_finite_arch_numbers_rejected(key, value):
    # NaN and Infinity are not JSON, but Python's json module reads them.
    doc = arch_to_json_dict(nmp_profile())
    doc[key] = "PLACEHOLDER"
    text = json.dumps(doc).replace('"PLACEHOLDER"', value)
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        parse_arch(text)


ARCH_INT_KEYS = (
    "n_tle", "n_tlt", "mb0_bytes", "mb1_bytes", "mb2_bytes", "datapath_bits", "burst_bytes",
)


@pytest.mark.parametrize("key", sorted(set(VALID_LAYER) - {"name"}))
@pytest.mark.parametrize("value", [2**31, 10**400], ids=["2**31", "10**400"])
def test_layer_integers_beyond_int32_rejected(key, value):
    doc = valid_model_doc()
    doc["layers"][0][key] = value
    with pytest.raises(ConfigError, match=rf"^layers\[0\]: {key} must be <= 2147483647$"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("key", ARCH_INT_KEYS)
@pytest.mark.parametrize("value", [2**31, 10**400], ids=["2**31", "10**400"])
def test_arch_integers_beyond_int32_rejected(key, value):
    doc = arch_to_json_dict(nmp_profile())
    doc[key] = value
    with pytest.raises(ConfigError, match=rf"^arch: {key} must be <= 2147483647$"):
        parse_arch(json.dumps(doc))


def test_int32_maximum_is_accepted():
    doc = valid_model_doc()
    doc["layers"][0]["m"] = 2**31 - 1
    assert parse_model(json.dumps(doc)).layers[0].m == 2**31 - 1
    arch = arch_to_json_dict(nmp_profile())
    arch["mb0_bytes"] = 2**31 - 1
    assert parse_arch(json.dumps(arch)).mb0_bytes == 2**31 - 1


def test_integer_literal_beyond_digit_limit_rejected():
    # Python refuses to read integer literals of more than 4300 digits.
    text = json.dumps(valid_model_doc()).replace('"n": 3', '"n": ' + "1" * 5000)
    with pytest.raises(ConfigError, match="^model: "):
        parse_model(text)


def test_sw_overhead_optional():
    doc = arch_to_json_dict(nmp_profile())
    del doc["sw_overhead_ns"]
    assert parse_arch(json.dumps(doc)).sw_overhead_ns == 0.0


def test_nmp_profile_values():
    arch = nmp_profile()
    assert (arch.n_tle, arch.n_tlt) == (4, 8)
    assert (arch.mb0_bytes, arch.mb1_bytes, arch.mb2_bytes) == (8192, 8192, 8192)
    assert arch.datapath_bits == 128
    assert arch.freq_hz == 1e9
    assert arch.cas_ns == 14.0
    assert arch.bw_bytes_per_s == 17e9
    assert arch.burst_bytes == 128
    assert arch.cas_s == 14.0 * 1e-9


def test_sample_arch_is_the_default_profile():
    # The CLI samples and the library tests plan on the same default NPU.
    sample = Path(__file__).resolve().parents[1] / "samples" / "nmp_arch.json"
    assert parse_arch(sample.read_text(encoding="utf-8")) == nmp_profile()


def test_macs_per_cycle_by_element_width():
    arch = nmp_profile()
    assert arch.macs_per_cycle(2) == 8
    assert arch.macs_per_cycle(1) == 16


def test_layer_byte_and_mac_properties():
    conv = ConvLayerSpec(
        name="x", n=4, h=10, l=12, m=6, k=3, s=1, p=0, r=8, c=10, elem_bytes=2
    )
    assert conv.ifm_bytes == 4 * 10 * 12 * 2
    assert conv.ks_bytes == 6 * 4 * 3 * 3 * 2
    assert conv.ofm_bytes == 6 * 8 * 10 * 2
    assert conv.macs == 6 * 4 * 8 * 10 * 9


def test_digest_tracks_content_not_key_order():
    base = arch_to_json_dict(nmp_profile())
    reordered = json.dumps(dict(reversed(list(base.items()))))
    assert parse_arch(reordered).digest() == nmp_profile().digest()
    changed = dict(base)
    changed["burst_bytes"] = 64
    assert parse_arch(json.dumps(changed)).digest() != nmp_profile().digest()


def test_model_spec_is_immutable():
    model = parse_model(json.dumps(valid_model_doc()))
    assert isinstance(model, ModelSpec)
    with pytest.raises(AttributeError):
        model.layers[0].n = 5


# Each numeric field: a value one below its minimum and the exact message.
LAYER_BELOW_MINIMUM = {
    **{key: (0, f"{key} must be >= 1, got 0") for key in set(VALID_LAYER) - {"name", "p"}},
    "p": (-1, "p must be >= 0, got -1"),
}
ARCH_BELOW_MINIMUM = {
    **{key: (0, f"{key} must be >= 1, got 0") for key in ARCH_INT_KEYS},
    "freq_hz": (0.5, "freq_hz must be >= 1.0, got 0.5"),
    "cas_ns": (-1, "cas_ns must be >= 0.0, got -1.0"),
    "bw_bytes_per_s": (0.5, "bw_bytes_per_s must be >= 1.0, got 0.5"),
    "sw_overhead_ns": (-1, "sw_overhead_ns must be >= 0.0, got -1.0"),
}


def _config_error(parse, doc) -> str:
    with pytest.raises(ConfigError) as info:
        parse(json.dumps(doc))
    return str(info.value)


@pytest.mark.parametrize("key", sorted(LAYER_BELOW_MINIMUM))
def test_layer_field_messages(key):
    doc = valid_model_doc()
    value, message = LAYER_BELOW_MINIMUM[key]
    doc["layers"][0][key] = value
    assert _config_error(parse_model, doc) == f"layers[0]: {message}"
    del doc["layers"][0][key]
    assert _config_error(parse_model, doc) == f"layers[0]: missing field {key!r}"


@pytest.mark.parametrize("key", sorted(ARCH_BELOW_MINIMUM))
def test_arch_field_messages(key):
    doc = arch_to_json_dict(nmp_profile())
    value, message = ARCH_BELOW_MINIMUM[key]
    doc[key] = value
    assert _config_error(parse_arch, doc) == f"arch: {message}"
    del doc[key]
    if key == "sw_overhead_ns":  # the one optional field
        assert parse_arch(json.dumps(doc)) == nmp_profile()
    else:
        assert _config_error(parse_arch, doc) == f"arch: missing field {key!r}"
