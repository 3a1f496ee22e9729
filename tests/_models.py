"""Model builders and sample loaders shared by the tests."""

from __future__ import annotations

import random
from pathlib import Path

from tsoplan.configs import ConvLayerSpec, ModelSpec, parse_model

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


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
