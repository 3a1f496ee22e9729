"""Model and architecture description files.

Two JSON documents drive the planner:

* a model file describing the convolution layers of a network::

    {"name": "toy", "layers": [{"name": "conv1", "n": 3, "h": 224, "l": 224,
                                "m": 64, "k": 7, "s": 2, "p": 3,
                                "r": 112, "c": 112, "elem_bytes": 2}]}

  ``n``/``h``/``l`` are input channels, height and width, ``m`` the filter
  count, ``k`` the (square) kernel size, ``s`` the stride, ``p`` the padding,
  and ``r``/``c`` the output rows and columns.  The output extent is stated,
  not derived: a mismatch against floor((h + 2p - k) / s) + 1 is an error so
  that silent geometry bugs in hand-written files cannot pass through.

* an architecture profile describing one NPU configuration::

    {"n_tle": 4, "n_tlt": 8, "mb0_bytes": 8192, "mb1_bytes": 8192,
     "mb2_bytes": 8192, "datapath_bits": 128, "freq_hz": 1e9, "cas_ns": 14,
     "bw_bytes_per_s": 17e9, "burst_bytes": 128, "sw_overhead_ns": 0}

  The device is a host plus ``n_tle`` clusters (TLEs) of ``n_tlt`` cores
  (TLTs).  Every TLT owns three scratchpads: mb0 holds input tiles, mb1
  weight tiles, mb2 output tiles.  ``cas_ns`` is charged once per DRAM burst
  and ``sw_overhead_ns`` once per tile transfer; both accept decimals, as do
  ``freq_hz`` and ``bw_bytes_per_s``.  Every other field must be an integer.

The readers follow the dataclass fields of :class:`ConvLayerSpec` and
:class:`ArchConfig`: a field without a default is a required key, a field
with one is optional, and any other key is rejected.  Integer and number
fields are read in declaration order, integers at least 1 and numbers at
least 0.0 unless the field's metadata names another ``minimum``.  Integers
are capped at ``INT_MAX`` (2**31 - 1); the search bounds their products
where a layer meets an architecture.

Parsed documents round-trip through :func:`model_to_json_dict` /
:func:`arch_to_json_dict` unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields


class ConfigError(ValueError):
    """Raised for malformed or inconsistent model/architecture documents."""


# Scratchpad element widths the MAC datapath supports, in bytes.
SUPPORTED_ELEM_BYTES = (1, 2)

INT_MAX = 2**31 - 1


@dataclass(frozen=True)
class ConvLayerSpec:
    """One convolution layer in NCHW row-major layout."""

    name: str
    n: int
    h: int
    l: int
    m: int
    k: int
    s: int
    p: int = field(metadata={"minimum": 0})
    r: int
    c: int
    elem_bytes: int

    @property
    def ifm_bytes(self) -> int:
        return self.n * self.h * self.l * self.elem_bytes

    @property
    def ks_bytes(self) -> int:
        return self.m * self.n * self.k * self.k * self.elem_bytes

    @property
    def ofm_bytes(self) -> int:
        return self.m * self.r * self.c * self.elem_bytes

    @property
    def macs(self) -> int:
        """Multiply-accumulate operations needed for the full layer."""
        return self.m * self.n * self.r * self.c * self.k * self.k


@dataclass(frozen=True)
class ArchConfig:
    """One NPU configuration.

    Per-burst and per-transfer times are stored in nanoseconds exactly as
    written in the profile (so that serialization is lossless) and exposed
    in seconds through ``cas_s`` and ``sw_overhead_s``.
    """

    n_tle: int
    n_tlt: int
    mb0_bytes: int
    mb1_bytes: int
    mb2_bytes: int
    datapath_bits: int
    freq_hz: float = field(metadata={"minimum": 1.0})
    cas_ns: float
    bw_bytes_per_s: float = field(metadata={"minimum": 1.0})
    burst_bytes: int
    sw_overhead_ns: float = 0.0

    @property
    def cas_s(self) -> float:
        return self.cas_ns * 1e-9

    @property
    def sw_overhead_s(self) -> float:
        return self.sw_overhead_ns * 1e-9

    def macs_per_cycle(self, elem_bytes: int) -> int:
        """MAC operations one TLT retires per cycle at the given element width."""
        if elem_bytes not in SUPPORTED_ELEM_BYTES:
            raise ConfigError(f"elem_bytes: unsupported width {elem_bytes}")
        return self.datapath_bits // (8 * elem_bytes)

    def digest(self) -> str:
        """Hex digest of the canonical JSON form, recorded in plan files."""
        canon = json.dumps(arch_to_json_dict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("ascii")).hexdigest()


@dataclass(frozen=True)
class ModelSpec:
    name: str
    layers: tuple[ConvLayerSpec, ...]


def nmp_profile() -> ArchConfig:
    """Default NPU profile: 4 TLEs of 8 TLTs at 1 GHz, 8 KB scratchpads,
    128-bit MAC datapath, DDR3-2133 style memory (17 GB/s, 14 ns CAS,
    128-byte bursts)."""
    return ArchConfig(
        n_tle=4,
        n_tlt=8,
        mb0_bytes=8192,
        mb1_bytes=8192,
        mb2_bytes=8192,
        datapath_bits=128,
        freq_hz=1e9,
        cas_ns=14.0,
        bw_bytes_per_s=17e9,
        burst_bytes=128,
        sw_overhead_ns=0.0,
    )


def _load_json(text: str, what: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ConfigError(f"{what}: {exc}") from exc


def _require_keys(obj: dict, cls, what: str) -> None:
    """obj holds every field of cls without a default, and no other key."""
    missing = {f.name for f in fields(cls) if f.default is MISSING} - obj.keys()
    if missing:
        raise ConfigError(f"{what}: missing field {sorted(missing)[0]!r}")
    unknown = obj.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"{what}: unknown field {sorted(unknown)[0]!r}")


def _int_field(obj: dict, key: str, what: str, minimum: int = 1) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what}: {key} must be an integer")
    if value < minimum:
        raise ConfigError(f"{what}: {key} must be >= {minimum}, got {value}")
    if value > INT_MAX:
        raise ConfigError(f"{what}: {key} must be <= {INT_MAX}")
    return value


def finite_number(value: object) -> float | None:
    """A JSON number as a float, or None for non-numbers, bools, NaN and
    values beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _number_field(obj: dict, key: str, what: str, minimum: float = 0.0) -> float:
    value = finite_number(obj[key])
    if value is None:
        raise ConfigError(f"{what}: {key} must be a finite number")
    if value < minimum:
        raise ConfigError(f"{what}: {key} must be >= {minimum}, got {value}")
    return value


def _numeric_fields(obj: dict, cls, what: str) -> dict:
    """The int and float fields of cls that obj holds, read in declaration
    order with the minimum in each field's metadata.  Annotations are
    strings here (postponed evaluation), so their names pick the reader."""
    read = {"int": _int_field, "float": _number_field}
    return {
        f.name: read[f.type](obj, f.name, what, **f.metadata)
        for f in fields(cls)
        if f.type in read and f.name in obj
    }


def validate_conv(conv: ConvLayerSpec) -> ConvLayerSpec:
    """Check a layer's geometry; returns the layer unchanged if consistent."""
    what = f"layer {conv.name!r}"
    if conv.elem_bytes not in SUPPORTED_ELEM_BYTES:
        raise ConfigError(
            f"{what}: elem_bytes must be one of {SUPPORTED_ELEM_BYTES}, got {conv.elem_bytes}"
        )
    if conv.k > conv.h + 2 * conv.p or conv.k > conv.l + 2 * conv.p:
        raise ConfigError(f"{what}: kernel {conv.k} larger than padded input")
    want_r = (conv.h + 2 * conv.p - conv.k) // conv.s + 1
    want_c = (conv.l + 2 * conv.p - conv.k) // conv.s + 1
    if conv.r != want_r:
        raise ConfigError(f"{what}: r is {conv.r} but geometry gives {want_r}")
    if conv.c != want_c:
        raise ConfigError(f"{what}: c is {conv.c} but geometry gives {want_c}")
    return conv


def parse_model(text: str) -> ModelSpec:
    doc = _load_json(text, "model")
    if not isinstance(doc, dict):
        raise ConfigError("model: document must be a JSON object")
    _require_keys(doc, ModelSpec, "model")
    if not isinstance(doc["name"], str) or not doc["name"]:
        raise ConfigError("model: name must be a non-empty string")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise ConfigError("model: layers must be a non-empty array")

    layers = []
    seen = set()
    for idx, raw in enumerate(doc["layers"]):
        what = f"layers[{idx}]"
        if not isinstance(raw, dict):
            raise ConfigError(f"{what}: must be a JSON object")
        _require_keys(raw, ConvLayerSpec, what)
        if not isinstance(raw["name"], str) or not raw["name"]:
            raise ConfigError(f"{what}: name must be a non-empty string")
        if raw["name"] in seen:
            raise ConfigError(f"model: duplicate layer name {raw['name']!r}")
        seen.add(raw["name"])
        conv = ConvLayerSpec(name=raw["name"], **_numeric_fields(raw, ConvLayerSpec, what))
        layers.append(validate_conv(conv))
    return ModelSpec(name=doc["name"], layers=tuple(layers))


def parse_arch(text: str) -> ArchConfig:
    doc = _load_json(text, "arch")
    if not isinstance(doc, dict):
        raise ConfigError("arch: document must be a JSON object")
    _require_keys(doc, ArchConfig, "arch")

    burst = _int_field(doc, "burst_bytes", "arch")
    if burst & (burst - 1):
        raise ConfigError(f"arch: burst_bytes must be a power of two, got {burst}")
    bits = _int_field(doc, "datapath_bits", "arch")
    for width in SUPPORTED_ELEM_BYTES:
        if bits % (8 * width):
            raise ConfigError(
                f"arch: datapath_bits {bits} not divisible by {8 * width}-bit element width"
            )
    return ArchConfig(**_numeric_fields(doc, ArchConfig, "arch"))


def model_to_json_dict(model: ModelSpec) -> dict:
    return {"name": model.name, "layers": [asdict(conv) for conv in model.layers]}


def arch_to_json_dict(arch: ArchConfig) -> dict:
    return asdict(arch)
