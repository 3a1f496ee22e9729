"""Layer, fabric and model builders and sample loaders shared by the tests."""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

from tsoplan.configs import ArchConfig, ConvLayerSpec, ModelSpec, nmp_profile, parse_model

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def conv_for(name="t", n=4, h=16, l=16, m=8, k=3, s=1, p=0, e=2) -> ConvLayerSpec:
    """A layer of n h x l input maps and m k x k filters at stride s and
    padding p, with e-byte elements; r and c follow."""
    r = (h + 2 * p - k) // s + 1
    c = (l + 2 * p - k) // s + 1
    return ConvLayerSpec(name=name, n=n, h=h, l=l, m=m, k=k, s=s, p=p, r=r, c=c, elem_bytes=e)


def arch_for(mb=8192, n_tle=4, n_tlt=8, cas_ns=14.0, burst=128, sw_ns=0.0, bits=128) -> ArchConfig:
    """A fabric of n_tle TLEs of n_tlt TLTs with three mb-byte scratchpads,
    at 1 GHz and 17 GB/s."""
    return ArchConfig(
        n_tle=n_tle, n_tlt=n_tlt, mb0_bytes=mb, mb1_bytes=mb, mb2_bytes=mb,
        datapath_bits=bits, freq_hz=1e9, cas_ns=cas_ns, bw_bytes_per_s=17e9,
        burst_bytes=burst, sw_overhead_ns=sw_ns,
    )


def sample_model(name: str) -> ModelSpec:
    """A model file from samples/, e.g. sample_model("inceptionv3")."""
    return parse_model((SAMPLES / f"{name}.json").read_text(encoding="utf-8"))


def random_toy_model(seed: int, n_layers: int = 3) -> ModelSpec:
    """Small random models whose layers always admit at least one tile."""
    rng = random.Random(seed)
    layers = []
    for i in range(n_layers):
        k = rng.choice((1, 3, 5))
        s = rng.choice((1, 2))
        p = rng.choice((0, k // 2))
        hw = rng.randrange(max(k, 6), 40)
        out = (hw + 2 * p - k) // s + 1
        if out < 1:
            hw = k
            out = (hw + 2 * p - k) // s + 1
        layers.append(
            ConvLayerSpec(
                name=f"l{i}",
                n=rng.randrange(1, 64),
                h=hw,
                l=hw,
                m=rng.randrange(1, 96),
                k=k,
                s=s,
                p=p,
                r=out,
                c=out,
                elem_bytes=rng.choice((1, 2)),
            )
        )
    return ModelSpec(name=f"toy{seed}", layers=tuple(layers))


# The NMP profile, and 2 TLEs x 2 TLTs with 1 KiB scratchpads and 32 B bursts.
# On random_toy_model(7, n_layers=60) they price grids whole and one tile per
# class between them, and split layers by KS_OFM on two TLEs.
RANDOM_FABRICS = {
    "nmp": nmp_profile(),
    "2x2_1k": dataclasses.replace(
        nmp_profile(), n_tle=2, n_tlt=2, mb0_bytes=1024, mb1_bytes=1024, mb2_bytes=1024,
        burst_bytes=32,
    ),
}
