#!/usr/bin/env python3
"""Parent-vs-change verdict over the repository benchmark.

Run from the repository root::

    python benchmarks/verdict.py REV

``REV`` (the parent side) is exported with ``git archive`` into a
temporary directory; the working tree is the change side.  Both are
measured by their own ``perfbench/run.py --workload all --trace 0`` in
``PAIRS`` alternating pairs (the parent runs first in even pairs, the
change first in odd ones), with seed ``SEED`` and ``BENCHMARK.json``'s
``run_seconds``.  Metric names, directions and bounds come from
``BENCHMARK.json``'s ``end_to_end`` list.  Each (workload, metric) pair
gets the first verdict that applies:

``better``
    the change wins at least ``WINS_FOR_BETTER`` pairs (ties count for
    neither side) and its median beats the parent's by more than the
    parent's interquartile range;
``worse``
    the change median is worse than the parent's by more than ``bound``;
``unresolved``
    the parent's interquartile range exceeds ``bound`` × its median, and
    not every change run beats every parent run;
``flat``
    otherwise.

A workload also fails when the change's share of failed operations
(Σ failed / Σ attempted) is larger than the parent's.  A run that exits
non-zero or whose last line is not the expected JSON record counts as
crashed.

Prints one table per workload, then one JSON object as the last line.
Exit status: 0 when no verdict is ``worse``, no failed share grew and
every run completed; 1 otherwise; 2 on a usage error, or when
``perfbench/`` or ``BENCHMARK.json`` differ between ``REV`` and the
working tree, since both sides must be measured by the same stick.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: At least ten alternating pairs, and a gain must win nine tenths of them.
PAIRS = 10
WINS_FOR_BETTER = 9
SEED = 1

#: One run of one side: workload name -> perfbench result record
#: ``{"attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
#: ``None`` for a crashed run.
Run = Optional[Dict[str, Dict[str, Any]]]


def run_perfbench(tree: str, seconds: float) -> Run:
    """One ``--workload all`` pass of the checkout at ``tree``."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", "all", "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit status {proc.returncode}")
        workloads = json.loads(lines[-1])["workloads"]
        return {name: rec["result"] for name, rec in workloads.items()}
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        sys.stderr.write(f"verdict: run in {tree} crashed ({exc})\n{proc.stderr[-2000:]}")
        return None


def _value(run: Run, workload: str, metric: str) -> Optional[float]:
    try:
        return float(run[workload]["metrics"][metric]["value"])
    except (KeyError, TypeError, ValueError):
        return None


def _iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def _failed_share(runs: Sequence[Run], workload: str) -> Dict[str, Any]:
    failed = attempted = 0
    for run in runs:
        if run is not None and workload in run:
            failed += int(run[workload].get("failed", 0))
            attempted += int(run[workload].get("attempted", 0))
    return {"failed": failed, "attempted": attempted,
            "share": failed / attempted if attempted else 0.0}


def judge_metric(parent: Sequence[Optional[float]], change: Sequence[Optional[float]],
                 better: str, bound: float) -> Dict[str, Any]:
    """The verdict for one (workload, metric) pair over index-aligned pairs
    of runs; ``None`` marks a value missing from a crashed run."""
    sign = 1.0 if better == "higher" else -1.0
    p = [v for v in parent if v is not None]
    c = [v for v in change if v is not None]
    row: Dict[str, Any] = {
        "parent_median": None, "change_median": None, "delta": None,
        "bound": bound, "wins": 0, "parent_iqr": None, "verdict": "unresolved",
    }
    if not p or not c:
        return row
    mp, mc = statistics.median(p), statistics.median(c)
    iqr = _iqr(p)
    wins = sum(1 for a, b in zip(parent, change)
               if a is not None and b is not None and sign * (b - a) > 0)
    gain = sign * (mc - mp)
    scale = abs(mp) or 1.0  # bounds are relative to the parent median
    dominates = (min(c) > max(p)) if sign > 0 else (max(c) < min(p))
    if wins >= WINS_FOR_BETTER and gain > iqr:
        verdict = "better"
    elif -gain > bound * scale:
        verdict = "worse"
    elif iqr > bound * scale and not dominates:
        verdict = "unresolved"
    else:
        verdict = "flat"
    row.update(parent_median=mp, change_median=mc, delta=(mc - mp) / scale,
               wins=wins, parent_iqr=iqr, verdict=verdict)
    return row


def judge(parent: Sequence[Run], change: Sequence[Run],
          declared: Dict[str, Any]) -> Dict[str, Any]:
    """Every workload's verdicts from the two sides' runs (pure)."""
    workloads: Dict[str, Any] = {}
    ok = all(run is not None for run in (*parent, *change))
    for workload in (w["name"] for w in declared["workloads"]):
        metrics = {}
        for m in declared["end_to_end"]:
            row = judge_metric([_value(r, workload, m["name"]) for r in parent],
                               [_value(r, workload, m["name"]) for r in change],
                               m["better"], float(m["bound"]))
            metrics[m["name"]] = {"unit": m["unit"], **row}
            ok = ok and row["verdict"] != "worse"
        shares = {"parent": _failed_share(parent, workload),
                  "change": _failed_share(change, workload)}
        failed_ok = shares["change"]["share"] <= shares["parent"]["share"]
        workloads[workload] = {"metrics": metrics, "failed": shares,
                               "failed_ok": failed_ok}
        ok = ok and failed_ok
    return {
        "completed": {"parent": sum(r is not None for r in parent),
                      "change": sum(r is not None for r in change)},
        "pairs": min(len(parent), len(change)),
        "workloads": workloads,
        "ok": ok,
    }


def _num(value: Optional[float], fmt: str = ".4g") -> str:
    return "-" if value is None else format(value, fmt)


def render(result: Dict[str, Any]) -> str:
    """One table per workload: medians, delta, bound, wins, IQR, verdict."""
    head = ("metric", "unit", "parent", "change", "delta", "bound", "wins",
            "parent IQR", "verdict")
    out = []
    for workload, w in result["workloads"].items():
        rows = [head]
        for name, r in w["metrics"].items():
            rows.append((name, r["unit"], _num(r["parent_median"]),
                         _num(r["change_median"]), _num(r["delta"], "+.1%"),
                         format(r["bound"], ".0%"), f"{r['wins']}/{result['pairs']}",
                         _num(r["parent_iqr"]), r["verdict"]))
        widths = [max(len(row[i]) for row in rows) for i in range(len(head))]
        out.append(f"== {workload}")
        out.extend("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
                   for row in rows)
        fp, fc = w["failed"]["parent"], w["failed"]["change"]
        out.append(f"failed ops: parent {fp['failed']}/{fp['attempted']}, "
                   f"change {fc['failed']}/{fc['attempted']}"
                   f"{'' if w['failed_ok'] else '  (larger share: FAIL)'}")
        out.append("")
    done = result["completed"]
    out.append(f"runs completed: parent {done['parent']}/{result['pairs']}, "
               f"change {done['change']}/{result['pairs']}")
    return "\n".join(out)


def _export(rev: str, dest: str) -> None:
    """``git archive REV | tar -x`` into ``dest``."""
    with subprocess.Popen(["git", "archive", rev], cwd=ROOT,
                          stdout=subprocess.PIPE) as archive:
        tar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    if archive.returncode or tar.returncode:
        raise RuntimeError(f"could not export {rev} into {dest}")


def main(argv: Optional[Sequence[str]] = None,
         run: Callable[[str, float], Run] = run_perfbench) -> int:
    """Measure ``REV`` against the working tree; ``run`` is the one-pass
    runner (tests substitute a fake)."""
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 1 or args[0].startswith("-"):
        print("usage: python benchmarks/verdict.py REV", file=sys.stderr)
        return 2
    rev = args[0]
    if subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                      cwd=ROOT, capture_output=True).returncode != 0:
        print(f"verdict: {rev!r} is not a commit", file=sys.stderr)
        return 2
    if subprocess.run(["git", "diff", "--quiet", rev, "--", "perfbench", "BENCHMARK.json"],
                      cwd=ROOT).returncode != 0:
        print(f"verdict: perfbench/ or BENCHMARK.json differ from {rev}; both "
              "sides must be measured by the same stick", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    seconds = float(declared["run_seconds"])
    parent: List[Run] = []
    change: List[Run] = []
    with tempfile.TemporaryDirectory(prefix="verdict-") as parent_tree:
        _export(rev, parent_tree)
        sides = [(parent, parent_tree), (change, ROOT)]
        for pair in range(PAIRS):
            for runs, tree in (sides if pair % 2 == 0 else sides[::-1]):
                runs.append(run(tree, seconds))
            print(f"verdict: pair {pair + 1}/{PAIRS} done", file=sys.stderr)
    result = judge(parent, change, declared)
    print(render(result))
    print(json.dumps({"rev": rev, "seed": SEED, "seconds": seconds, **result},
                     sort_keys=True))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
