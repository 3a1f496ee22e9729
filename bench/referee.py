"""The simulator referee: replay every feasible tile of a set of toy layers.

This is the check acceptance criterion 4 makes, without its memoisation:
every feasible tile is built with get_filters/gen_tile and replayed
count-only with simulate_schedule, and the replayed move counts must equal
compute_alphas.  Every ``SAMPLE_EVERY``-th tile is replayed again with
events, and count_bursts_exact must equal the aligned and address-aware
burst counts of the events' byte runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from tsoplan import (
    ArchConfig,
    ConvLayerSpec,
    Infeasible,
    TileKind,
    compute_alphas,
    count_bursts_exact,
    gen_tile,
    get_filters,
    simulate_schedule,
    tle_slicing,
)
from tsoplan.search import PARTITION_ORDER, SCHEDULE_ORDER
from tsoplan.util import ceil_div

SAMPLE_EVERY = 211


@dataclass
class RefereeResult:
    tiles: int = 0
    exact_checks: int = 0
    mismatches: list[str] = field(default_factory=list)


def _run_bursts(trace, burst: int) -> dict[TileKind, tuple[int, int]]:
    counts = {}
    for kind in TileKind:
        runs = [run for ev in trace.events if ev.kind is kind for run in ev.runs]
        aligned = sum(ceil_div(length, burst) for _, length in runs)
        addr = sum((start + length - 1) // burst - start // burst + 1 for start, length in runs)
        counts[kind] = (aligned, addr)
    return counts


def replay(cases: list[tuple[ConvLayerSpec, ArchConfig]], agg=None) -> RefereeResult:
    """Replay and check every feasible tile of every (layer, fabric) case.

    ``agg``, when given, is a callable ``agg(name, seconds)`` that receives
    the time of every library call; without it nothing is timed per call.
    """
    result = RefereeResult()
    for conv, arch in cases:
        for p_kind in PARTITION_ORDER:
            try:
                slice_ = tle_slicing(p_kind, conv, arch.n_tle)
            except Infeasible:
                continue
            for q in SCHEDULE_ORDER:
                for t_r in range(1, slice_.tle_r + 1):
                    for t_c in range(1, conv.c + 1):
                        for t_n in range(1, conv.n + 1):
                            t0 = perf_counter() if agg else 0.0
                            try:
                                t_m = get_filters(
                                    t_r, t_c, q, slice_.tle_w, arch.n_tlt, t_n, conv, arch
                                )
                                tile = gen_tile(t_m, t_n, t_r, t_c, q, conv, arch, slice_)
                            except Infeasible:
                                if agg:
                                    agg("slicing.gen_tile", perf_counter() - t0)
                                continue
                            if agg:
                                t1 = perf_counter()
                                agg("slicing.gen_tile", t1 - t0)
                            a = compute_alphas(q, conv, slice_, tile, arch.n_tle)
                            if agg:
                                t2 = perf_counter()
                                agg("costmodel.compute_alphas", t2 - t1)
                            trace = simulate_schedule(
                                q, conv, slice_, tile, arch, keep_events=False
                            )
                            if agg:
                                agg("simulator.replay", perf_counter() - t2)
                            result.tiles += 1
                            got = (trace.loads_in, trace.loads_w, trace.stores_out)
                            if got != (a.a_in, a.a_w, a.a_out):
                                result.mismatches.append(
                                    f"{conv.name} {q.value} tile {t_r}x{t_c}x{t_n}:"
                                    f" replayed {got}, analytic {a}"
                                )
                            if result.tiles % SAMPLE_EVERY:
                                continue
                            t3 = perf_counter() if agg else 0.0
                            events = simulate_schedule(q, conv, slice_, tile, arch)
                            if agg:
                                t4 = perf_counter()
                                agg("simulator.event_replay", t4 - t3)
                            exact = count_bursts_exact(events, arch)
                            if agg:
                                agg("simulator.exact_bursts", perf_counter() - t4)
                            result.exact_checks += 1
                            runs = _run_bursts(events, arch.burst_bytes)
                            for kind in TileKind:
                                want = (exact[kind].aligned, exact[kind].address_aware)
                                if runs[kind] != want:
                                    result.mismatches.append(
                                        f"{conv.name} {q.value} {kind.value} bursts:"
                                        f" runs {runs[kind]}, exact {want}"
                                    )
    return result
