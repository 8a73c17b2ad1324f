"""Command-line interface: ``repro-scatter`` (or ``python -m repro``).

Subcommands
-----------
``table1``
    Print the reproduced Table 1 (the experimental platform).
``plan``
    Compute a load-balanced distribution for a platform file or the
    built-in Table 1 platform.
``simulate``
    Run the seismic application on the simulated grid with a chosen
    distribution and print a Figs. 2-4 style report.
``figures``
    Regenerate the paper's Fig. 2 / Fig. 3 / Fig. 4 summary in one shot.
``chaos``
    Sweep makespan degradation of the fault-tolerant scatter against
    injected host failures (see ``repro.analysis.chaos``).
``trace``
    Run the application with structured event tracing on; print an ASCII
    Gantt and event summary, optionally exporting JSONL and Chrome
    trace-event files (see ``repro.obs``).
``serve``
    Serve plan requests from a JSONL stream through the fingerprint-cached,
    coalescing :class:`~repro.serve.service.PlanService` (see ``repro.serve``).
``lint``
    Run the determinism & simulation-safety static-analysis pass over
    source paths (see ``repro.lint``); exits non-zero on findings.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.report import render_figure, render_table
from .analysis.sweep import BACKENDS
from .core.distribution import uniform_counts
from .core.solver import ALGORITHMS, plan_scatter
from .simgrid.platform import Platform
from .tomo.app import plan_counts, run_seismic_app
from .workloads.table1 import (
    PAPER_RAY_COUNT,
    ROOT_MACHINE,
    TABLE1_MACHINES,
    table1_platform,
    table1_rank_hosts,
)

__all__ = ["main"]


def _load_platform(args: argparse.Namespace) -> Platform:
    if args.platform:
        return Platform.load(args.platform)
    return table1_platform()


def _rank_hosts(platform: Platform, args: argparse.Namespace) -> List[str]:
    if args.platform:
        root = args.root or platform.host_names[-1]
        others = [h for h in platform.host_names if h != root]
        return others + [root]
    return table1_rank_hosts(args.order)


def cmd_table1(args: argparse.Namespace) -> int:
    rows = [
        (
            m.name,
            ",".join(str(c) for c in m.cpu_numbers),
            m.cpu_type,
            m.alpha,
            m.rating,
            m.beta,
            m.site,
        )
        for m in TABLE1_MACHINES
    ]
    print(
        render_table(
            ["Machine", "CPU #", "Type", "alpha (s/ray)", "Rating", "beta (s/ray)", "Site"],
            rows,
            title="Table 1: processors used as computational nodes",
        )
    )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    platform = _load_platform(args)
    hosts = _rank_hosts(platform, args)
    problem = platform.to_problem(args.n, hosts[-1], order=hosts[:-1])
    result = plan_scatter(problem, algorithm=args.algorithm, order_policy=None)
    rows = [
        (proc.name, c, f"{t:.3f}")
        for proc, c, t in zip(
            result.problem.processors, result.counts, result.finish_times
        )
    ]
    print(
        render_table(
            ["Processor", "Items", "Finish (s)"],
            rows,
            title=f"Distribution ({result.algorithm}), predicted makespan "
            f"{result.makespan:.3f} s",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    platform = _load_platform(args)
    hosts = _rank_hosts(platform, args)
    if args.algorithm == "uniform":
        counts = uniform_counts(args.n, len(hosts))
    else:
        counts = plan_counts(platform, hosts, args.n, algorithm=args.algorithm)
    result = run_seismic_app(platform, hosts, counts)
    print(
        render_figure(
            hosts,
            result.finish_times,
            result.comm_times,
            list(result.counts),
            title=f"Simulated run — {args.algorithm} distribution, n={args.n}, "
            f"makespan {result.makespan:.1f} s, imbalance "
            f"{100 * result.imbalance:.1f}%",
        )
    )
    if args.svg:
        from .analysis.svg import figure_svg

        with open(args.svg, "w") as f:
            f.write(
                figure_svg(
                    hosts,
                    result.finish_times,
                    result.comm_times,
                    list(result.counts),
                    title=f"Simulated run ({args.algorithm}, n={args.n})",
                )
            )
        print(f"\nwrote {args.svg}")
    if args.gantt:
        from .analysis.svg import gantt_svg

        with open(args.gantt, "w") as f:
            f.write(
                gantt_svg(
                    result.run.recorder,
                    result.run.trace_names,
                    title=f"Simulated run ({args.algorithm}, n={args.n})",
                )
            )
        print(f"wrote {args.gantt}")
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    platform = table1_platform()
    n = args.n
    configs = [
        ("Fig. 2 — uniform distribution (original program)", "bandwidth-desc", "uniform"),
        ("Fig. 3 — balanced, descending bandwidth", "bandwidth-desc", "lp-heuristic"),
        ("Fig. 4 — balanced, ascending bandwidth", "bandwidth-asc", "lp-heuristic"),
    ]
    summaries = []
    for title, order, algo in configs:
        hosts = table1_rank_hosts(order)
        if algo == "uniform":
            counts = uniform_counts(n, len(hosts))
        else:
            counts = plan_counts(platform, hosts, n, algorithm=algo)
        res = run_seismic_app(platform, hosts, counts)
        print(
            render_figure(
                hosts, res.finish_times, res.comm_times, list(res.counts),
                title=f"{title}  (makespan {res.makespan:.1f} s)",
            )
        )
        print()
        summaries.append((title.split(" — ")[0], res.makespan, 100 * res.imbalance))
    print(render_table(["Experiment", "Makespan (s)", "Imbalance (%)"], summaries))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.sweep import (
        comm_ratio_sweep,
        heterogeneity_sweep,
        make_evaluator,
        problem_size_sweep,
    )

    try:
        evaluator = make_evaluator(args.backend, args.workers)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with evaluator:
        if args.dimension == "heterogeneity":
            points = heterogeneity_sweep(
                [1.0, 2.0, 4.0, 8.0, 16.0], p=args.p, n=args.n, evaluator=evaluator
            )
            label = "speed spread"
        elif args.dimension == "comm-ratio":
            points = comm_ratio_sweep(
                [0.01, 0.1, 0.5, 1.0, 2.0, 5.0], p=args.p, n=args.n,
                evaluator=evaluator,
            )
            label = "comm/comp ratio"
        else:
            points = problem_size_sweep(
                [100, 1_000, 10_000, 100_000, PAPER_RAY_COUNT],
                evaluator=evaluator,
            )
            label = "n"
    rows = [
        (f"{pt.x:g}", f"{pt.uniform_makespan:.3f}", f"{pt.balanced_makespan:.3f}",
         f"{pt.gain:.3f}x")
        for pt in points
    ]
    print(
        render_table(
            [label, "uniform (s)", "balanced (s)", "gain"],
            rows,
            title=f"Balancing gain vs {label}",
        )
    )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from .analysis.chaos import chaos_sweep

    platform = _load_platform(args)
    hosts = _rank_hosts(platform, args)
    rates = [float(r) for r in args.rates.split(",") if r.strip()]
    sweep = chaos_sweep(
        platform,
        hosts,
        args.n,
        rates,
        seed=args.seed,
        timeout=args.timeout,
        retries=args.retries,
        algorithm=args.algorithm,
    )
    rows = [
        (
            f"{pt.rate:g}",
            str(pt.dead),
            f"{pt.makespan:.3f}",
            f"{pt.degradation:.3f}x",
            str(pt.retries),
            str(pt.replans),
            str(pt.redistributed_items),
            str(pt.lost_items),
        )
        for pt in sweep.points
    ]
    print(
        render_table(
            ["rate", "dead", "makespan (s)", "degradation", "retries",
             "re-plans", "redistributed", "lost"],
            rows,
            title=f"Fault-tolerant scatter under injected failures "
            f"(n={sweep.n}, seed={sweep.seed}, no-failure makespan "
            f"{sweep.baseline_makespan:.3f} s)",
        )
    )
    if args.json:
        import json

        with open(args.json, "w") as f:
            json.dump(sweep.to_dict(), f, indent=2, sort_keys=True)
        print(f"\nwrote {args.json}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from .analysis.events import render_event_summary
    from .obs import METRICS, EventLog, JsonlStreamWriter, write_chrome_trace

    platform = _load_platform(args)
    hosts = _rank_hosts(platform, args)
    if args.algorithm == "uniform":
        counts = uniform_counts(args.n, len(hosts))
    else:
        counts = plan_counts(platform, hosts, args.n, algorithm=args.algorithm)
    log = EventLog()
    observers: list = [log]
    stream = None
    if args.jsonl:
        # Streamed as events are emitted (O(1) memory), byte-identical to
        # the batch write_jsonl export of the same run.
        stream = JsonlStreamWriter(args.jsonl)
        observers.append(stream)
    try:
        result = run_seismic_app(platform, hosts, counts, observers=observers)
    finally:
        if stream is not None:
            stream.close()
    print(
        f"Traced run — {args.algorithm} distribution, n={args.n}, "
        f"makespan {result.makespan:.1f} s"
    )
    print()
    print(result.run.recorder.ascii_gantt(result.run.trace_names, width=args.width))
    print()
    print(render_event_summary(log.events))
    if stream is not None:
        print(f"\nwrote {args.jsonl} ({stream.count} events)")
    if args.chrome:
        doc = write_chrome_trace(log.events, args.chrome)
        print(f"wrote {args.chrome} ({len(doc['traceEvents'])} trace events)")
    if args.metrics:
        import json

        print("\nmetrics:")
        print(json.dumps(METRICS.snapshot(), indent=2, sort_keys=True))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .obs.metrics import METRICS
    from .serve import PlanService, serve_jsonl

    try:
        service = PlanService(
            algorithm=args.algorithm,
            order_policy=None if args.order_policy == "none" else args.order_policy,
            cache_size=args.cache_size,
            ttl=args.ttl,
            backend=args.backend,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.input:
        stream = open(args.input, encoding="utf-8")
    else:
        stream = sys.stdin
    served = 0
    try:
        with service:
            for response in serve_jsonl(stream, service, window=args.window):
                print(json.dumps(response, sort_keys=True), flush=True)
                served += 1
            stats = service.stats()
    finally:
        if args.input:
            stream.close()
    if args.stats:
        print(
            f"served {served} requests  "
            f"hit-rate {stats['hit_rate']:.2%}  "
            f"coalesced {stats['coalesced']}  "
            f"p50 {stats['latency_p50_s']}  p99 {stats['latency_p99_s']}",
            file=sys.stderr,
        )
    if args.metrics:
        print(json.dumps(METRICS.snapshot(), indent=2, sort_keys=True),
              file=sys.stderr)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .lint import render_findings, render_findings_json, run_lint
    from .lint.core import discover_files, iter_rule_metadata
    from .lint.fixes import fix_file, render_diff

    if args.list_rules:
        width = max(len(rid) for rid, _, _ in iter_rule_metadata())
        for rule_id, family, description in iter_rule_metadata():
            print(f"{rule_id:<{width}}  [{family}] {description}")
        return 0
    paths = args.paths or ["src"]
    if args.fix or args.diff:
        # --diff previews without writing; --fix rewrites in place.
        # Either way the remaining findings are reported afterwards.
        try:
            files = discover_files(paths)
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        rewrites = 0
        for path in files:
            original, fixed, applied = fix_file(
                path, rules=args.rule or None, write=args.fix
            )
            rewrites += applied
            if args.diff:
                diff = render_diff(path, original, fixed)
                if diff:
                    print(diff, end="")
        verb = "applied" if args.fix else "would apply"
        print(f"fix: {verb} {rewrites} rewrite(s)", file=sys.stderr)
        if not args.fix:
            return 0
    try:
        findings = run_lint(paths, rules=args.rule or None)
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(render_findings_json(findings), end="")
    else:
        print(render_findings(findings))
    return 1 if findings else 0


def cmd_verify(args: argparse.Namespace) -> int:
    import json as _json

    from .verify import check_golden, fuzz, mutation_smoke_check, update_golden
    from .verify.oracles import ORACLES

    if args.list_oracles:
        width = max(len(oid) for oid in ORACLES)
        for oid in sorted(ORACLES):
            print(f"{oid:<{width}}  {ORACLES[oid].description}")
        return 0
    if args.update_golden:
        written = update_golden()
        for name in written:
            print(f"rebaselined {name}")
        if not written:
            print("golden snapshots already current")
        return 0

    differential = args.mode != "oracles"
    for flag, given in (("--oracle", args.oracle), ("--guided", args.guided)):
        if differential and given:
            print(f"error: {flag} cannot be combined with --mode {args.mode}", file=sys.stderr)
            return 2
    # A focused run (--oracle, --shape, or a differential mode) skips the
    # mutation smoke-check and golden comparison.
    focused = bool(args.oracle) or bool(args.shape) or differential
    try:
        outcome = fuzz(
            args.seeds,
            mode=args.mode,
            base_seed=args.base_seed,
            shapes=args.shape,
            only_oracles=args.oracle or None,
            guided=args.guided,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    mutation = None
    drifts = []
    if not focused:
        if not args.skip_mutation:
            mutation = mutation_smoke_check()
        if not args.skip_golden:
            drifts = check_golden()

    failed = (
        not outcome.ok
        or (mutation is not None and not mutation.caught)
        or bool(drifts)
    )
    doc = {
        "ok": not failed,
        "mode": args.mode,
        "fuzz": outcome.to_dict(),
        "mutation": mutation.to_dict() if mutation is not None else None,
        "golden_drift": [d.to_dict() for d in drifts],
    }
    if args.counterexamples and failed:
        with open(args.counterexamples, "w", encoding="utf-8", newline="\n") as fh:
            _json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")
        print(f"wrote counterexample report to {args.counterexamples}", file=sys.stderr)
    if args.json:
        print(_json.dumps(doc, sort_keys=True, indent=2))
        return 1 if failed else 0

    stats = outcome.stats
    print(
        f"fuzz[{args.mode}]: {stats.instances} instances, "
        f"{stats.solver_runs} solver runs, "
        f"{len(outcome.counterexamples)} counterexample(s)"
    )
    for oid, count in sorted(stats.oracle_checked.items()):
        print(f"  {oid}: checked on {count} instance(s)")
    for ce in outcome.counterexamples:
        print(
            f"  FAIL seed={ce.seed} shape={ce.shape} "
            f"shrunk to p={ce.shrunk_p} n={ce.shrunk_n}:"
        )
        for oracle_id, message in ce.violations:
            print(f"    [{oracle_id}] {message}")
    if mutation is not None:
        caught = mutation.counterexample
        if caught is not None:
            print(
                f"mutation: planted rounding bug caught "
                f"(seed {caught.seed}, shrunk to p={caught.shrunk_p} "
                f"n={caught.shrunk_n})"
            )
        else:
            print(
                f"mutation: FAIL — planted rounding bug escaped all oracles "
                f"({mutation.instances_tried} instances tried)"
            )
    if not focused and not args.skip_golden:
        if drifts:
            for drift in drifts:
                print(f"golden: {drift.status} {drift.name}")
                if drift.diff:
                    print(drift.diff)
        else:
            print("golden: all snapshots byte-identical")
    print("verify: " + ("FAIL" if failed else "OK"))
    return 1 if failed else 0


def cmd_rewrite(args: argparse.Namespace) -> int:
    from .transform import rewrite_runtime, rewrite_static

    with open(args.source) as f:
        source = f.read()
    if args.runtime:
        out = rewrite_runtime(source)
    else:
        platform = _load_platform(args)
        hosts = _rank_hosts(platform, args)
        counts = plan_counts(platform, hosts, args.n, algorithm=args.algorithm)
        out = rewrite_static(source, counts)
    if args.output:
        with open(args.output, "w") as f:
            f.write(out)
        print(f"rewrote {args.source} -> {args.output}")
    else:
        print(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scatter",
        description="Load-balancing scatter operations for grid computing "
        "(IPPS 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 platform").set_defaults(
        fn=cmd_table1
    )

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--platform", help="platform JSON file (default: Table 1)")
        p.add_argument("--root", help="root host (platform files only)")
        p.add_argument(
            "--order",
            default="bandwidth-desc",
            choices=["bandwidth-desc", "bandwidth-asc", "cpu-number"],
            help="rank ordering for the Table 1 platform",
        )
        p.add_argument("--n", type=int, default=PAPER_RAY_COUNT, help="items to scatter")
        p.add_argument(
            "--algorithm",
            default="auto",
            choices=list(ALGORITHMS),
            help="distribution algorithm",
        )

    p_plan = sub.add_parser("plan", help="compute a balanced distribution")
    common(p_plan)
    p_plan.set_defaults(fn=cmd_plan)

    p_sim = sub.add_parser("simulate", help="simulate the seismic application")
    common(p_sim)
    p_sim.add_argument("--svg", help="also write a Figs. 2-4 style SVG here")
    p_sim.add_argument("--gantt", help="also write a Fig. 1 style Gantt SVG here")
    p_sim.set_defaults(fn=cmd_simulate)

    p_fig = sub.add_parser("figures", help="regenerate Figs. 2-4 summaries")
    p_fig.add_argument("--n", type=int, default=PAPER_RAY_COUNT)
    p_fig.set_defaults(fn=cmd_figures)

    p_sw = sub.add_parser("sweep", help="print a sensitivity series")
    p_sw.add_argument(
        "dimension",
        choices=["heterogeneity", "comm-ratio", "size"],
        help="which series to sweep",
    )
    p_sw.add_argument("--p", type=int, default=16, help="processor count")
    p_sw.add_argument("--n", type=int, default=100_000, help="items")
    p_sw.add_argument(
        "--backend",
        choices=BACKENDS,
        default="sequential",
        help="evaluate sweep points serially or over a pool",
    )
    p_sw.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool size for --backend thread/process (default: cpu count)",
    )
    p_sw.set_defaults(fn=cmd_sweep)

    p_ch = sub.add_parser(
        "chaos", help="sweep makespan degradation under injected host failures"
    )
    common(p_ch)
    p_ch.add_argument(
        "--rates",
        default="0,0.1,0.25,0.5",
        help="comma-separated failure rates in [0, 1]",
    )
    p_ch.add_argument("--seed", type=int, default=0, help="fault-plan seed")
    p_ch.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="receive timeout in simulated seconds (default: baseline makespan)",
    )
    p_ch.add_argument(
        "--retries", type=int, default=2, help="send retries on link failure"
    )
    p_ch.add_argument("--json", help="also write the sweep as JSON here")
    p_ch.set_defaults(fn=cmd_chaos)

    p_tr = sub.add_parser(
        "trace", help="run the application with structured event tracing"
    )
    common(p_tr)
    p_tr.add_argument(
        "--width", type=int, default=72, help="ASCII Gantt width in columns"
    )
    p_tr.add_argument("--jsonl", help="write the event log as JSON Lines here")
    p_tr.add_argument(
        "--chrome",
        help="write a Chrome trace-event JSON here (chrome://tracing, Perfetto)",
    )
    p_tr.add_argument(
        "--metrics",
        action="store_true",
        help="also print the process-wide metrics registry snapshot",
    )
    p_tr.set_defaults(fn=cmd_trace)

    p_se = sub.add_parser(
        "serve",
        help="serve plan requests from a JSONL stream (stdin or --input)",
    )
    p_se.add_argument(
        "--input", help="JSONL request file (default: read stdin)"
    )
    p_se.add_argument(
        "--algorithm", default="auto", choices=list(ALGORITHMS),
        help="solver routing for every request",
    )
    p_se.add_argument(
        "--order-policy", default="bandwidth-desc", dest="order_policy",
        choices=["bandwidth-desc", "bandwidth-asc", "fastest-first",
                 "original", "none"],
        help="normalization applied before fingerprinting ('none' keeps "
        "request order)",
    )
    p_se.add_argument(
        "--cache-size", type=int, default=1024, dest="cache_size",
        help="plan-cache LRU bound (0 disables caching)",
    )
    p_se.add_argument(
        "--ttl", type=float, default=None,
        help="plan-cache entry lifetime in seconds (default: no expiry)",
    )
    p_se.add_argument(
        "--backend", choices=BACKENDS,
        default="sequential",
        help="solve misses inline or over a pool",
    )
    p_se.add_argument(
        "--workers", type=int, default=None,
        help="pool size for --backend thread/process (default: cpu count)",
    )
    p_se.add_argument(
        "--window", type=int, default=64,
        help="requests submitted before awaiting results (coalescing span)",
    )
    p_se.add_argument(
        "--stats", action="store_true",
        help="print a service summary line to stderr when the stream ends",
    )
    p_se.add_argument(
        "--metrics", action="store_true",
        help="also print the process-wide metrics registry snapshot",
    )
    p_se.set_defaults(fn=cmd_serve)

    p_li = sub.add_parser(
        "lint",
        help="run the determinism/simulation-safety/concurrency static analysis",
    )
    p_li.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src)",
    )
    p_li.add_argument(
        "--rule", action="append", metavar="ID",
        help="run only this rule id (repeatable)",
    )
    p_li.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    p_li.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    p_li.add_argument(
        "--fix", action="store_true",
        help="apply mechanical rewrites for the fixable rules in place",
    )
    p_li.add_argument(
        "--diff", action="store_true",
        help="print the unified diff the fixes would apply (no writes "
        "unless --fix is also given)",
    )
    p_li.set_defaults(fn=cmd_lint)

    p_vf = sub.add_parser(
        "verify",
        help="run the paper-theorem verification harness "
        "(oracle fuzz + mutation smoke-check + golden traces)",
    )
    p_vf.add_argument(
        "--seeds", type=int, default=50,
        help="number of fuzz seeds (default: 50)",
    )
    p_vf.add_argument(
        "--base-seed", type=int, default=0,
        help="base seed mixed into every instance seed (default: 0)",
    )
    p_vf.add_argument(
        "--mode", choices=("oracles", "incremental", "tree"), default="oracles",
        help="'oracles' fuzzes every solver through the oracle registry; "
        "'incremental' drives the IncrementalPlanner through seeded churn "
        "schedules and byte-compares each warm re-plan against a cold "
        "solve; 'tree' solves every instance flat and with the tree-aware "
        "planner, checking flat-vs-tree dominance plus the oracle "
        "registry (default: oracles)",
    )
    p_vf.add_argument(
        "--guided", action="store_true",
        help="bias instance shapes toward the least-checked oracle "
        "(coverage-guided; oracles mode only)",
    )
    p_vf.add_argument(
        "--oracle", action="append", metavar="ID",
        help="fuzz only this oracle id (repeatable; skips mutation/golden)",
    )
    p_vf.add_argument(
        "--shape", action="append", metavar="NAME",
        help="draw only this instance shape, e.g. 'knee' (repeatable; "
        "round-robin over the given shapes; skips mutation/golden; "
        "shapes: repro.verify.fuzz.SHAPES)",
    )
    p_vf.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    p_vf.add_argument(
        "--counterexamples", metavar="PATH",
        help="on failure, write the JSON report here (CI artifact)",
    )
    p_vf.add_argument(
        "--skip-mutation", action="store_true",
        help="skip the mutation smoke-check",
    )
    p_vf.add_argument(
        "--skip-golden", action="store_true",
        help="skip the golden-trace comparison",
    )
    p_vf.add_argument(
        "--update-golden", action="store_true",
        help="rebaseline the golden snapshots from the current tree and exit",
    )
    p_vf.add_argument(
        "--list-oracles", action="store_true",
        help="print the oracle registry and exit",
    )
    p_vf.set_defaults(fn=cmd_verify)

    p_rw = sub.add_parser(
        "rewrite", help="rewrite MPI_Scatter calls in a C source to MPI_Scatterv"
    )
    common(p_rw)
    p_rw.add_argument("source", help="C source file to transform")
    p_rw.add_argument("--output", help="write here instead of stdout")
    p_rw.add_argument(
        "--runtime",
        action="store_true",
        help="emit a runtime-computed distribution (C helper) instead of "
        "baking in static counts",
    )
    p_rw.set_defaults(fn=cmd_rewrite)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
