"""Input documents: model, architecture and plan files.

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

These two and the plan file (``report.PlanDoc``) that ``plan --out`` writes
and ``simulate --plan`` reads are decoded by one loader, :func:`load_json`.
One reader, :func:`read_fields`, checks each JSON object against the fields
of its dataclass: a field without a default is a required key, a field with
one is optional, and any other key is rejected. Values are read in
declaration order: integers at least 1 and at most ``INT_MAX`` (2**31 - 1),
numbers finite and at least 0.0, unless the field's metadata names another
``minimum`` or ``maximum``; strings non-empty; enum fields one of their
values. The search bounds the products of layer and architecture integers.
Plan tile sides are at least 1 and plan move and burst counts at least 0;
neither is capped, as valid counts may reach 3 * 2**61
(``search._PRODUCT_MAX``).

Parsed documents round-trip through :func:`model_to_json_dict` /
:func:`arch_to_json_dict` unchanged.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from enum import Enum
from typing import get_type_hints


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


def clip_repr(value: object) -> str:
    """repr of a value read from a file, cut to at most 60 characters."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def load_json(text: str, what: str) -> object:
    """Decode one input document; every decoding failure is a ConfigError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal beyond Python's digit limit, or nesting deeper
        # than the recursion limit
        raise ConfigError(f"{what}: {exc}") from exc


@functools.cache
def _schema(cls) -> tuple[frozenset, frozenset, tuple]:
    """Key names, required key names and (name, type, limits) per field of cls."""
    hints = get_type_hints(cls)
    schema = []
    for f in fields(cls):
        kind = hints[f.name]
        limits = {}
        if kind is int:
            limits = {"minimum": 1, "maximum": INT_MAX, **f.metadata}
        elif kind is float:
            limits = {"minimum": 0.0, **f.metadata}
        elif not (kind is str or isinstance(kind, type) and issubclass(kind, Enum)):
            kind = None
        schema.append((f.name, kind, limits))
    required = frozenset(f.name for f in fields(cls) if f.default is MISSING)
    return frozenset(name for name, _, _ in schema), required, tuple(schema)


def read_fields(obj: object, cls, what: str) -> dict:
    """The fields of dataclass cls that the JSON object obj holds, checked by
    the rules in the module docstring.  Values of types other than int, float,
    str and Enum, such as nested lists, are returned unread."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what}: must be a JSON object")
    names, required, schema = _schema(cls)
    missing = required - obj.keys()
    if missing:
        raise ConfigError(f"{what}: missing field {clip_repr(sorted(missing)[0])}")
    unknown = obj.keys() - names
    if unknown:
        raise ConfigError(f"{what}: unknown field {clip_repr(sorted(unknown)[0])}")
    return {
        key: _read_value(obj[key], kind, limits, what, key)
        for key, kind, limits in schema
        if key in obj
    }


def _read_value(value: object, kind, limits: dict, what: str, key: str) -> object:
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{what}: {key} must be an integer")
        if limits["maximum"] is not None and value > limits["maximum"]:
            raise ConfigError(f"{what}: {key} must be <= {limits['maximum']}")
    elif kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{what}: {key} must be a finite number")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{what}: {key} must be a finite number")
    elif kind is str:
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{what}: {key} must be a non-empty string")
    elif kind is not None:
        try:
            return kind(value)
        except ValueError:
            choices, got = [member.value for member in kind], clip_repr(value)
            raise ConfigError(f"{what}: {key} must be one of {choices}, got {got}") from None
    if kind in (int, float) and value < limits["minimum"]:
        raise ConfigError(f"{what}: {key} must be >= {limits['minimum']}, got {clip_repr(value)}")
    return value


def validate_conv(conv: ConvLayerSpec) -> ConvLayerSpec:
    """Check a layer's geometry; returns the layer unchanged if consistent."""
    what = f"layer {clip_repr(conv.name)}"
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
    doc = read_fields(load_json(text, "model"), ModelSpec, "model")
    if not isinstance(doc["layers"], list) or not doc["layers"]:
        raise ConfigError("model: layers must be a non-empty array")

    layers = []
    seen = set()
    for idx, raw in enumerate(doc["layers"]):
        conv = ConvLayerSpec(**read_fields(raw, ConvLayerSpec, f"layers[{idx}]"))
        if conv.name in seen:
            raise ConfigError(f"model: duplicate layer name {clip_repr(conv.name)}")
        seen.add(conv.name)
        layers.append(validate_conv(conv))
    return ModelSpec(name=doc["name"], layers=tuple(layers))


def parse_arch(text: str) -> ArchConfig:
    arch = ArchConfig(**read_fields(load_json(text, "arch"), ArchConfig, "arch"))
    burst = arch.burst_bytes
    if burst & (burst - 1):
        raise ConfigError(f"arch: burst_bytes must be a power of two, got {burst}")
    for width in SUPPORTED_ELEM_BYTES:
        if arch.datapath_bits % (8 * width):
            raise ConfigError(
                f"arch: datapath_bits {arch.datapath_bits} not divisible by"
                f" {8 * width}-bit element width"
            )
    return arch


def model_to_json_dict(model: ModelSpec) -> dict:
    return {"name": model.name, "layers": [asdict(conv) for conv in model.layers]}


def arch_to_json_dict(arch: ArchConfig) -> dict:
    return asdict(arch)
