"""Tests for the chaos sweep (``repro.analysis.chaos``)."""

import pytest

from repro.analysis import chaos_plan, chaos_sweep
from repro.core import LinearCost
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.simgrid import Host, Link, Platform


def make_platform(p=4):
    plat = Platform("chaos-test")
    for i in range(p):
        plat.add_host(Host(f"h{i}", LinearCost(0.01 * (1 + 0.25 * i))))
    names = plat.host_names
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            plat.connect(u, v, Link.linear(0.001))
    return plat


class TestChaosPlan:
    def test_nested_kill_sets(self):
        hosts = [f"h{i}" for i in range(9)] + ["root"]
        lower = chaos_plan(hosts, 0.25, seed=3, horizon=10.0)
        higher = chaos_plan(hosts, 0.75, seed=3, horizon=10.0)
        low_kills = {c.host for c in lower.crashes}
        high_kills = {c.host for c in higher.crashes}
        assert low_kills < high_kills  # strictly nested
        # Shared victims crash at identical times in both plans.
        low_times = {c.host: c.time for c in lower.crashes}
        high_times = {c.host: c.time for c in higher.crashes}
        for host in low_kills:
            assert low_times[host] == high_times[host]

    def test_never_kills_the_root(self):
        hosts = ["a", "b", "c", "root"]
        plan = chaos_plan(hosts, 1.0, seed=0, horizon=5.0)
        assert {c.host for c in plan.crashes} == {"a", "b", "c"}

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="failure rate"):
            chaos_plan(["a", "root"], 1.5, horizon=1.0)
        with pytest.raises(ValueError, match="horizon"):
            chaos_plan(["a", "root"], 0.5, horizon=0.0)


class TestChaosSweep:
    def run_sweep(self, rates=(0.0, 0.5), n=1200, seed=11):
        plat = make_platform()
        return chaos_sweep(plat, plat.host_names, n, list(rates), seed=seed)

    def test_rate_zero_replays_baseline(self):
        sweep = self.run_sweep()
        pt = sweep.points[0]
        assert sweep.baseline_makespan > 0
        assert pt.rate == 0.0
        assert pt.makespan == sweep.baseline_makespan
        assert pt.degradation == 1.0
        assert pt.dead == 0 and pt.lost_items == 0

    def test_degradation_monotone_and_accounted(self):
        before = METRICS.kinded_snapshot()
        sweep = self.run_sweep(rates=(0.0, 1 / 3, 2 / 3))
        delta = MetricsRegistry.state_delta(before, METRICS.kinded_snapshot())
        degradations = [pt.degradation for pt in sweep.points]
        assert degradations == sorted(degradations)
        for lower, higher in zip(sweep.points, sweep.points[1:]):
            assert set(lower.killed) <= set(higher.killed)
        # The receive-timeout safety net bounds the worst point (one
        # timeout per exchange is about one baseline makespan).
        assert degradations[-1] <= 10.0
        faulty = sweep.points[-1]
        assert faulty.dead >= 1
        assert faulty.replans >= 1
        # Conservation: everything computed either survived or was lost.
        assert faulty.computed_items + faulty.lost_items == sweep.n
        # Every round moves data, and the failures force send retries.
        assert delta["net.transfer.duration_s"][1]["count"] > 0
        assert delta["mpi.send.retries"][1] > 0
        assert delta["mpi.send.backoff_s"][1]["count"] > 0

    def test_deterministic(self):
        assert self.run_sweep().to_dict() == self.run_sweep().to_dict()
