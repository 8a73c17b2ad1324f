#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is the separate traced run: an untraced pass for half the
time, then the same ops again with timing wrappers on every layer entry
point, giving per-layer self times, counter deltas, the unattributed
residual and the tracing overhead.  Either way every op's output is
checked after the timed loop and failures are counted, not raised.

The last line of standard output is the result record
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the self-describing report (workload, why, input properties, environment
stamp, error rate, sample counts).  ``--workload all`` runs each workload
in its own child process, so each peak-RSS figure is that workload's own,
and prints a table of every metric with its unit.

See ``perfbench/README.md`` for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

#: Set-ups per run; ``setup_s`` is their median and the last one is used.
SETUP_REPS = 3

#: Percentile metrics and their quantile.
PERCENTILES = {"latency_p50_ms": 0.50, "latency_p90_ms": 0.90, "latency_p99_ms": 0.99}


def load_program() -> None:
    """Put the checkout's own ``src`` first on the path, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def declared() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> Dict[str, Any]:
    import numpy
    import scipy
    from repro.obs.profiler import profiling_enabled

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "commit": _git_commit(),
        "profiling_enabled": profiling_enabled(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def prepare(workload: Any, reps: int) -> Tuple[Any, Any, List[float]]:
    """Set up ``reps`` times; keep the last state and its input stream."""
    times = []
    for rep in range(reps):
        inputs = workload.inputs()
        start = time.perf_counter()
        state = workload.setup(inputs)
        times.append(time.perf_counter() - start)
        if rep < reps - 1:
            workload.close(state)
    return state, inputs, times


def timed_loop(workload: Any, state: Any, inputs: Any, span: Any, *,
               seconds: Optional[float] = None, ops: Optional[int] = None):
    """Closed loop, one client: run ops for ``seconds`` or exactly ``ops``."""
    records: List[Tuple[Any, Any, Optional[BaseException]]] = []
    latencies: List[float] = []
    clock = time.perf_counter
    start = clock()
    while (len(records) < ops) if ops is not None else (clock() - start < seconds):
        item = next(inputs)
        t0 = clock()
        try:
            out, err = workload.call(state, item, span), None
        except Exception as exc:  # an op that raises is a failed op
            out, err = None, exc
        latencies.append(clock() - t0)
        records.append((item, out, err))
        workload.after(state)
    return records, latencies, clock() - start


def quantile(samples: List[float], q: float) -> float:
    if len(samples) == 1:
        return samples[0]
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def end_to_end(latencies: List[float], wall: float, setup_times: List[float],
               peak_rss_mib: float) -> Dict[str, float]:
    out = {"ops_per_s": len(latencies) / wall}
    for name, q in PERCENTILES.items():
        out[name] = quantile(latencies, q) * 1e3
    out["setup_s"] = statistics.median(setup_times)
    out["peak_rss_mib"] = peak_rss_mib
    return out


def _metrics_snapshot() -> Dict[str, float]:
    from repro.obs.metrics import METRICS

    flat = {}
    for name, value in METRICS.snapshot().items():
        flat[name] = value["count"] if isinstance(value, dict) else value
    return flat


def per_layer(tracer: Any, ledger: Any, before: Dict[str, float],
              after: Dict[str, float], ops: int, traced_s: float,
              untraced_s: float) -> Dict[str, float]:
    from tracer import ROUTE_LAYERS

    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    own = tracer.self_s
    out = {
        "serve.jsonl.loop_ms": ms(own["serve.jsonl.loop"]),
        "serve.jsonl.parse_ms": ms(own["serve.jsonl.parse"]),
        "serve.jsonl.encode_ms": ms(own["serve.jsonl.encode"]),
        "core.ordering.apply_policy_ms": ms(own["core.ordering.apply_policy"]),
        "serve.fingerprint.problem_ms": ms(own["serve.fingerprint.problem"]),
        "serve.service.submit_self_ms": ms(own["serve.service.submit"]),
        "serve.service.result_ms": ms(own["serve.service.result"]),
        "serve.cache.get_ms": ms(own["serve.cache.get"]),
        "serve.cache.put_ms": ms(own["serve.cache.put"]),
        "serve.cache.hit_rate": delta("serve.cache.hits") / max(
            delta("serve.cache.hits") + delta("serve.cache.misses"), 1),
        "serve.cache.misses": delta("serve.cache.misses") / ops,
        "core.solver.plan_scatter_ms": ms(own["core.solver.plan_scatter"]),
        "core.closed_form.solve_ms": ms(own["core.closed_form.solve"]),
        "core.heuristic.solve_ms": ms(own["core.heuristic.solve"]),
        "core.incremental.plan_ms": ms(own["core.incremental.plan"]),
        "core.incremental.match_ms": ms(ledger.stages_s["incremental_match"]),
        "core.incremental.warm_share": delta("core.incremental.warm_plans") / max(
            delta("core.incremental.plans"), 1),
        "core.incremental.rows_reused": delta("core.incremental.warm_rows") / ops,
        "core.incremental.rows_computed": delta("core.incremental.rows_computed") / ops,
        "core.dp_fast.solve_ms": ms(own["core.dp_fast.solve"]),
        "core.dp_fast.cost_tables_ms": ms(ledger.stages_s["cost_tables"]),
        "core.dp_fast.dp_rows_ms": ms(ledger.stages_s["dp_rows"]),
        "core.dp_fast.reconstruct_ms": ms(ledger.stages_s["reconstruct"]),
        "core.dp_fast.rows_general_scan": ledger.counts["rows_general_scan"] / ops,
        "core.dp_fast.rows_affine": ledger.counts["rows_affine"] / ops,
        "core.costs.table_hits": delta("core.cost_cache.hits") / ops,
        "core.costs.table_misses": delta("core.cost_cache.misses") / ops,
        "core.costs.table_mib": ledger.counts["table_bytes"] / 2**20 / ops,
        "sim.engine_ms": ms(own["sim.sweep"]),
        "sim.planner_ms": ms(sum(s for name, s in own.items() if name.startswith("core.")))
        if tracer.calls["sim.sweep"] else 0.0,
        "simgrid.transfers": delta("net.transfer.duration_s") / ops,
        "mpi.ft_scatterv.replans": delta("mpi.ft_scatterv.replans") / ops,
        "mpi.send.retries": delta("mpi.send.retries") / ops,
        "trace.unattributed_share": (traced_s - tracer.total_self_s()) / traced_s,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    for layer, algorithm in ROUTE_LAYERS.items():
        out[f"core.solver.route.{algorithm}"] = tracer.calls[layer] / ops
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One workload run; returns ``(report, result record)``."""
    from tracer import KernelLedger, Tracer, layer_targets
    from workloads import NULL_SPAN, WORKLOADS

    workload = WORKLOADS[name](seed, tiny=tiny)
    state, inputs, setup_times = prepare(workload, SETUP_REPS)
    records, latencies, wall = timed_loop(
        workload, state, inputs, NULL_SPAN,
        seconds=seconds / 2 if trace else seconds,
    )
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts, props = workload.check(state, records)
    workload.close(state)
    report: Dict[str, Any] = {"samples": len(latencies)}
    if trace:
        state, inputs, _ = prepare(workload, 1)
        ledger = KernelLedger()
        before = _metrics_snapshot()
        with Tracer().install(layer_targets(ledger)) as tracer:
            traced, traced_lat, _ = timed_loop(
                workload, state, inputs, tracer.span, ops=len(records)
            )
        after = _metrics_snapshot()
        traced_verdicts, props = workload.check(state, traced)
        workload.close(state)
        verdicts += traced_verdicts
        metrics = per_layer(tracer, ledger, before, after, len(traced),
                            sum(traced_lat), sum(latencies))
        report["layer_calls"] = dict(sorted(tracer.calls.items()))
    else:
        metrics = end_to_end(latencies, wall, setup_times, peak_rss_mib)
        report["samples_beyond"] = {
            name: sum(lat * 1e3 > metrics[name] for lat in latencies)
            for name in PERCENTILES
        }
        report["setup_s_each"] = setup_times
    failed = verdicts.count(False)
    report = {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "input": props,
        "error_rate": failed / len(verdicts),
        **report,
        "environment": environment(),
    }
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in declared()[key]}
    result = {
        "correct": failed == 0,
        "attempted": len(verdicts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }
    return report, result


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own child process, then one table."""
    from workloads import WORKLOADS

    records = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        records[name] = {"report": json.loads(lines[-2])["report"],
                         "result": json.loads(lines[-1])}
    for name, rec in records.items():
        result = rec["result"]
        print(f"{name}  correct={result['correct']}  attempted={result['attempted']}  "
              f"error_rate={rec['report']['error_rate']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.6g} {m['unit']}")
    env = next(iter(records.values()))["report"]["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    ok = all(rec["result"]["correct"] for rec in records.values())
    print(json.dumps({"correct": ok, "workloads": records}, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small instances, for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; know {sorted(WORKLOADS)} or 'all'")
    report, result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), tiny=args.tiny)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
