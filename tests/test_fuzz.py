"""Fuzzed input documents: every command exits 0-3 with a message, never a traceback.

Each example edits a small model, architecture or plan document (replacing,
adding or deleting fields), writes the files and runs one command through
``cli.main``.  The layers stay tiny and edited integers stay small, so no
search grows large.  A second test sets layer fields to integers near the
2**31 - 1 cap: the scratchpads still bound the search, but ``simulate``
replays every move, so it is left out there.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from tsoplan.cli import main

MODEL = {
    "name": "fuzz",
    "layers": [
        {"name": "a", "n": 2, "h": 6, "l": 6, "m": 4, "k": 3, "s": 1, "p": 1,
         "r": 6, "c": 6, "elem_bytes": 2},
        {"name": "b", "n": 4, "h": 6, "l": 6, "m": 3, "k": 1, "s": 2, "p": 0,
         "r": 3, "c": 3, "elem_bytes": 1},
    ],
}
ARCH = {
    "n_tle": 2, "n_tlt": 2, "mb0_bytes": 512, "mb1_bytes": 512, "mb2_bytes": 512,
    "datapath_bits": 64, "freq_hz": 1e9, "cas_ns": 14.0, "bw_bytes_per_s": 17e9,
    "burst_bytes": 32, "sw_overhead_ns": 1.0,
}
ENTRY_KEYS = (
    "layer", "tle_partition", "schedule", "t_m", "t_n", "t_r", "t_c", "t_h", "t_l",
    "alpha_in", "alpha_w", "alpha_out", "bursts_in", "bursts_w", "bursts_out",
    "t_mac_us", "t_dram_us", "t_sw_us", "t_total_us",
)
PATHS = {
    "model": [("name",), ("layers",), ("extra",)]
    + [("layers", i, key) for i in (0, 1) for key in (*MODEL["layers"][0], "extra")],
    "arch": [(key,) for key in (*ARCH, "extra")],
    "plan": [("model",), ("arch_digest",), ("mode",), ("entries",), ("extra",)]
    + [("entries", i, key) for i in (0, 1) for key in (*ENTRY_KEYS, "extra")],
}
DELETE = "<delete>"
VALUES = st.one_of(
    st.integers(-2, 40),
    st.sampled_from(
        [DELETE, 2.5, -0.5, math.nan, math.inf, -math.inf, "x", "", "is", "ofm", None, True, [], {}]
    ),
)
EDITS = st.sampled_from(sorted(PATHS)).flatmap(
    lambda target: st.lists(
        st.tuples(st.just(target), st.sampled_from(PATHS[target]), VALUES), max_size=3
    )
)
COMMANDS = ("plan", "compare", "roofline", "simulate")
NEAR_CAP_EDITS = st.lists(
    st.tuples(
        st.sampled_from(
            [("layers", i, key) for i in (0, 1) for key in list(MODEL["layers"][0])[1:]]
        ),
        st.sampled_from([2**31 - 2, 2**31 - 1, 2**31]),
    ),
    max_size=3,
)


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@functools.lru_cache(maxsize=None)
def _clean_plan_text() -> str:
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write(Path(tmp), {"model": MODEL, "arch": ARCH})
        code, _ = _run(["plan", "--model", paths["model"], "--arch", paths["arch"],
                        "--threads", "1", "--out", paths["plan"]])
        assert code == 0
        return Path(paths["plan"]).read_text(encoding="utf-8")


def _write(tmp: Path, docs: dict) -> dict[str, str]:
    paths = {name: str(tmp / f"{name}.json") for name in ("model", "arch", "plan")}
    for name, doc in docs.items():
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    return paths


def _apply(doc, path: tuple, value) -> None:
    node = doc
    try:
        for step in path[:-1]:
            node = node[step]
        if value == DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier edit removed or replaced the parent


def _has_non_finite(node) -> bool:
    if isinstance(node, float):
        return not math.isfinite(node)
    if isinstance(node, dict):
        return any(_has_non_finite(v) for v in node.values())
    if isinstance(node, list):
        return any(_has_non_finite(v) for v in node)
    return False


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(COMMANDS), edits=EDITS, writable=st.booleans())
@example(command="simulate", edits=[("plan", ("entries", 0, "t_m"), 0)], writable=True)
@example(command="plan", edits=[], writable=False)
@example(command="plan", edits=[("arch", ("freq_hz",), math.nan)], writable=True)
@example(command="plan", edits=[("arch", ("cas_ns",), math.inf)], writable=True)
def test_bad_input_never_escapes_as_a_traceback(command, edits, writable):
    docs = {
        "model": json.loads(json.dumps(MODEL)),
        "arch": json.loads(json.dumps(ARCH)),
        "plan": json.loads(_clean_plan_text()),
    }
    for target, path, value in edits:
        _apply(docs[target], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write(Path(tmp), docs)
        out_dir = Path(tmp) if writable else Path(tmp) / "missing"
        argv = [command, "--model", paths["model"], "--arch", paths["arch"]]
        if command == "simulate":
            argv += ["--plan", paths["plan"], "--dump-trace", str(out_dir / "trace.txt")]
        else:
            argv += ["--threads", "1", "--out", str(out_dir / "out.txt")]
        code, err = _run(argv)

    assert code in (0, 1, 2, 3)
    if code in (1, 2):
        assert err.splitlines()[-1].startswith("error: ")
    used = {"model", "arch"} | ({"plan"} if command == "simulate" else set())
    if any(_has_non_finite(docs[name]) for name in used):
        # NaN and Infinity are not JSON numbers: such a file is bad input.
        assert code == 1
    if not writable and code == 0:
        raise AssertionError("an unwritable output path was reported as success")


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(COMMANDS[:3]), edits=NEAR_CAP_EDITS)
@example(command="plan", edits=[(("layers", 0, "n"), 2**31 - 1), (("layers", 0, "m"), 2**31 - 1)])
@example(
    command="compare",
    edits=[(("layers", 0, key), 2**31 - 1) for key in ("h", "r", "n")],
)
def test_near_cap_layer_integers_never_escape_as_a_traceback(command, edits):
    model = json.loads(json.dumps(MODEL))
    for path, value in edits:
        _apply(model, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write(Path(tmp), {"model": model, "arch": ARCH})
        code, err = _run([command, "--model", paths["model"], "--arch", paths["arch"],
                          "--threads", "1", "--out", str(Path(tmp) / "out.txt")])

    assert code in (0, 1, 2)
    if code in (1, 2):
        assert err.splitlines()[-1].startswith("error: ")
