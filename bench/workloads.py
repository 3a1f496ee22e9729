"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed, and every input the planner
sees is written out as model/arch JSON, so the programs under test receive
only files.  ``inception`` ignores the seed: it is the committed sample.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = ROOT / "samples"

WORKLOADS = ("inception", "distinct", "referee")
DEFAULT_SEED = 0

DISTINCT_CONVS = 400
# Referee (geometry, fabric) cases: the referee workload replays the large
# set, the planning workloads a small one drawn the same way, so that
# referee_tiles_per_s is measured on every workload.
REFEREE_CASES = 384
REFEREE_CASES_SMALL = 96
REFEREE_FABRICS = tuple((n_tle, n_tlt) for n_tle in (1, 2, 4) for n_tlt in (1, 2))
# Fabric the referee workload's toy model is planned on by the CLI commands.
REFEREE_CLI_FABRIC = (4, 2)

_LAYER_KEYS = ("n", "h", "l", "m", "k", "s", "p", "r", "c", "elem_bytes")


def geometry(layer: dict) -> tuple:
    """Name-free geometry of a layer dict: the key of the planner's work."""
    return tuple(layer[key] for key in _LAYER_KEYS)


def _layer(name, n, h, l, m, k, s, p, elem_bytes) -> dict:
    return {
        "name": name, "n": n, "h": h, "l": l, "m": m, "k": k, "s": s, "p": p,
        "r": (h + 2 * p - k) // s + 1, "c": (l + 2 * p - k) // s + 1,
        "elem_bytes": elem_bytes,
    }


def fabric_arch(n_tle: int, n_tlt: int) -> dict:
    """Toy fabric of the simulator sweep: default scratchpads, 32 B bursts."""
    return {
        "n_tle": n_tle, "n_tlt": n_tlt, "mb0_bytes": 8192, "mb1_bytes": 8192,
        "mb2_bytes": 8192, "datapath_bits": 128, "freq_hz": 1e9, "cas_ns": 14.0,
        "bw_bytes_per_s": 17e9, "burst_bytes": 32, "sw_overhead_ns": 0.0,
    }


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count values spread evenly over [lo, hi), in seeded random order."""
    values = [lo + (i * (hi - lo)) // count for i in range(count)]
    rng.shuffle(values)
    return values


def _grid_rows(hw: int, k: int, s: int, p: int) -> int:
    # Tile-grid rows x columns summed over the three TLE slicings of the
    # default 4-TLE fabric: the search work of a conv per input channel.
    out = (hw + 2 * p - k) // s + 1
    return out * (out + -(-out // 2) + -(-out // 4))


def distinct_model(seed: int, n_convs: int = DISTINCT_CONVS) -> dict:
    """Small random convs in the ranges of the tests' toy models (maps under
    40x40, n < 64, m < 96, k in {1, 3, 5}, s in {1, 2}, 1- or 2-byte
    elements), no two sharing a geometry, so no per-shape reuse can help.

    Each dimension takes the same evenly spread values for every seed, in a
    seeded order, and channel counts are then swapped between convs until
    the model's total search grid is within 0.2 % of the size expected
    from those values.  Seeds change which convs the model holds, not how
    much search work it holds, which keeps the spread between runs small.
    """
    rng = random.Random(seed)
    ks = [(1, 3, 5)[v] for v in _strata(rng, 0, 3, n_convs)]
    ss = _strata(rng, 1, 3, n_convs)
    es = _strata(rng, 1, 3, n_convs)
    hws = _strata(rng, 6, 40, n_convs)
    ns = _strata(rng, 1, 64, n_convs)
    ms = _strata(rng, 1, 96, n_convs)
    ps = [rng.choice((0, k // 2)) for k in ks]
    rows = [_grid_rows(hws[i], ks[i], ss[i], ps[i]) for i in range(n_convs)]
    mean_rows = sum(
        _grid_rows(hw, k, s, p)
        for hw in range(6, 40) for k in (1, 3, 5) for s in (1, 2) for p in (0, k // 2)
    ) / (34 * 3 * 2 * 2)
    target = mean_rows * sum(ns)
    total = sum(w * n for w, n in zip(rows, ns))
    while abs(total - target) > 0.002 * target:
        i, j = rng.randrange(n_convs), rng.randrange(n_convs)
        delta = (rows[i] - rows[j]) * (ns[j] - ns[i])
        if abs(total + delta - target) < abs(total - target):
            ns[i], ns[j] = ns[j], ns[i]
            total += delta
    layers: list[dict] = []
    seen: set[tuple] = set()
    for i in range(n_convs):
        m = ms[i]
        while True:
            layer = _layer(f"d{i}", ns[i], hws[i], hws[i], m, ks[i], ss[i], ps[i], es[i])
            if geometry(layer) not in seen:
                break
            m = rng.randrange(1, 96)
        seen.add(geometry(layer))
        layers.append(layer)
    return {"name": f"distinct{seed}", "layers": layers}


def _toy_geometries() -> list[tuple[int, int, int, int, int, int]]:
    """Every toy shape of the exhaustive simulator sweep: (h, l, k, s, n, m)."""
    shapes = []
    for h in range(1, 9):
        for l in range(1, 9):
            for k in (1, 2, 3):
                if k > h or k > l:
                    continue
                for s in (1, 2):
                    for n in range(1, 5):
                        for m in range(1, 5):
                            shapes.append((h, l, k, s, n, m))
    return shapes


def referee_cases(seed: int, n_cases: int = REFEREE_CASES) -> list[tuple[dict, tuple[int, int]]]:
    """Seeded (layer, fabric) pairs, equally many per fabric.

    Shapes are ordered by their tile-grid size and each fabric draws one
    shape from each of n_cases / 6 equal strata of that order, so every seed
    replays a similar mix of small and large shapes.
    """
    rng = random.Random(seed)
    shapes = sorted(
        _toy_geometries(),
        key=lambda g: (((g[0] - g[2]) // g[3] + 1) * ((g[1] - g[2]) // g[3] + 1) * g[4], g),
    )
    per_fabric = n_cases // len(REFEREE_FABRICS)
    cases = []
    for fabric in REFEREE_FABRICS:
        for j in range(per_fabric):
            lo = j * len(shapes) // per_fabric
            hi = (j + 1) * len(shapes) // per_fabric
            h, l, k, s, n, m = shapes[rng.randrange(lo, hi)]
            cases.append((_layer(f"g{len(cases)}", n, h, l, m, k, s, 0, 2), fabric))
    return cases


def write_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files; returns their paths.

    ``model``/``arch`` feed the CLI commands; ``referee`` lists one
    (model, arch) file pair per fabric holding that fabric's referee cases.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)

    def dump(name: str, doc: dict) -> str:
        path = out_dir / name
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return str(path)

    n_cases = REFEREE_CASES if workload == "referee" else REFEREE_CASES_SMALL
    cases = referee_cases(seed, n_cases)
    referee = []
    for fabric in REFEREE_FABRICS:
        layers = [layer for layer, f in cases if f == fabric]
        if layers:
            tag = f"{fabric[0]}x{fabric[1]}"
            referee.append((
                dump(f"referee_{tag}.json", {"name": f"referee{tag}", "layers": layers}),
                dump(f"fabric_{tag}.json", fabric_arch(*fabric)),
            ))

    if workload == "inception":
        model = str(SAMPLES / "inceptionv3.json")
        arch = str(SAMPLES / "nmp_arch.json")
    elif workload == "distinct":
        model = dump("model.json", distinct_model(seed))
        arch = str(SAMPLES / "nmp_arch.json")
    else:
        model = dump("model.json", {
            "name": f"referee{seed}",
            "layers": [layer for layer, f in cases if f == REFEREE_CLI_FABRIC],
        })
        arch = dump("arch.json", fabric_arch(*REFEREE_CLI_FABRIC))
    return {"model": model, "arch": arch, "referee": referee}
