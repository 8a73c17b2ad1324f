"""Observability overhead benchmark — the ``BENCH_observability.json`` emitter.

Measures what the structured-event layer costs in the two places it could
hurt:

* **Solver profiling hooks** — :func:`repro.core.dp_fast.solve_dp_fast`
  with :func:`repro.obs.set_profiling` off vs on.  Off must be within
  noise of the pre-instrumentation baseline (the hooks reduce to a handful
  of no-op context managers); on adds a few ``perf_counter`` calls.
* **Event emission** — a full simulated scatter+compute run with no extra
  subscribers (the ``SpanTracer`` alone, the always-on configuration) vs
  with an :class:`~repro.obs.events.EventLog` capturing every event.

Two entry points:

* ``python benchmarks/bench_observability.py [--n N] [--repeats R]``;
* ``pytest benchmarks/bench_observability.py`` — the same measurement as a
  smoke benchmark (marked ``slow``) with generous overhead bounds; it
  leaves the committed JSON alone and writes only the per-run
  ``benchmarks/out/observability.txt``.

JSON layout (``schema: bench-observability/v1``)::

    instance                     platform, n, repeats
    solver.base_s                dp-fast solve, profiling disabled (min over repeats)
    solver.profiled_s            dp-fast solve, profiling enabled
    solver.overhead              profiled_s / base_s
    simulation.base_s            run with SpanTracer only
    simulation.observed_s        run with an EventLog subscribed
    simulation.events            events captured by the log
    simulation.overhead          observed_s / base_s

Lower is better for both ``overhead`` ratios; the disabled configuration
is the one the ≤5% acceptance bound targets (asserted here with CI-noise
headroom).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from typing import Callable, Optional

import pytest

from repro.core.distribution import uniform_counts
from repro.core.dp_fast import solve_dp_fast
from repro.obs import EventLog, set_profiling
from repro.tomo.app import run_seismic_app
from repro.workloads import random_linear_problem, table1_platform, table1_rank_hosts

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_PATH = os.path.join(REPO_ROOT, "BENCH_observability.json")


def _best_of(fn: Callable[[], object], repeats: int) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_observability_bench(
    *,
    n: int = 30_000,
    p: int = 12,
    repeats: int = 5,
    path: Optional[str] = BENCH_PATH,
) -> dict:
    """Measure profiling/event overheads; optionally write the JSON."""
    import random

    problem = random_linear_problem(random.Random(7), p, n)

    def solve():
        return solve_dp_fast(problem)

    old = set_profiling(False)
    try:
        base_s = _best_of(solve, repeats)
        set_profiling(True)
        profiled_s = _best_of(solve, repeats)
    finally:
        set_profiling(old)

    platform = table1_platform()
    hosts = table1_rank_hosts("bandwidth-desc")
    counts = uniform_counts(n, len(hosts))

    sim_base_s = _best_of(lambda: run_seismic_app(platform, hosts, counts), repeats)

    log = EventLog()

    def observed_run():
        log.clear()
        return run_seismic_app(platform, hosts, counts, observers=[log])

    sim_observed_s = _best_of(observed_run, repeats)

    payload = {
        "schema": "bench-observability/v1",
        "generated_by": "benchmarks/bench_observability.py",
        "instance": {"platform": "table1", "n": n, "p": p, "repeats": repeats},
        "solver": {
            "base_s": base_s,
            "profiled_s": profiled_s,
            "overhead": profiled_s / base_s,
        },
        "simulation": {
            "base_s": sim_base_s,
            "observed_s": sim_observed_s,
            "events": len(log),
            "overhead": sim_observed_s / sim_base_s,
        },
    }
    if path:
        with open(path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    return payload


@pytest.mark.slow
def bench_observability(report):
    """Smoke benchmark: instrumentation overhead stays small."""
    payload = run_observability_bench(path=None)
    solver = payload["solver"]
    sim = payload["simulation"]

    # Disabled profiling is the ≤5% acceptance configuration; the bound
    # here is generous because `base_s` IS the disabled configuration —
    # what we assert is that *enabling* stays cheap and that the event
    # layer's capture cost is bounded.
    assert solver["overhead"] <= 1.25, solver
    assert sim["overhead"] <= 1.5, sim
    assert sim["events"] > 0

    report(
        "observability",
        "\n".join(
            [
                f"solver   base {solver['base_s'] * 1e3:8.2f} ms   "
                f"profiled {solver['profiled_s'] * 1e3:8.2f} ms   "
                f"x{solver['overhead']:.3f}",
                f"simulate base {sim['base_s'] * 1e3:8.2f} ms   "
                f"observed {sim['observed_s'] * 1e3:8.2f} ms   "
                f"x{sim['overhead']:.3f}  ({sim['events']} events)",
            ]
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=30_000)
    parser.add_argument("--p", type=int, default=12)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default=BENCH_PATH)
    args = parser.parse_args(argv)
    payload = run_observability_bench(
        n=args.n, p=args.p, repeats=args.repeats, path=args.out
    )
    print(json.dumps(payload, indent=2, sort_keys=True))
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
