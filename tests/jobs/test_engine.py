"""Multi-job engine conformance: parity, determinism, scheduling rules."""

import pytest

from repro.errors import JobsError, ValidationError
from repro.experiments.base import TINY
from repro.jobs import (JobTrace, JobsArbiter, clear_profile_cache,
                        profile_job, run_trace)
from repro.jobs.profile import profile_config
from repro.validate import JobsSanitizer


@pytest.fixture(autouse=True)
def _fresh_profiles():
    clear_profile_cache()
    yield
    clear_profile_cache()


class TestSingleJobParity:
    """The degenerate one-job trace must match the single-app path."""

    @pytest.mark.parametrize("app,nodes", [("synthetic", 2),
                                           ("micropp", 1),
                                           ("nbody", 2)])
    def test_metric_identical_to_run_workload(self, app, nodes):
        from repro.cluster.machine import MARENOSTRUM4
        from repro.experiments.base import run_workload
        trace = JobTrace.single(app=app, nodes=nodes, seed=0)
        result = run_trace(trace, policy="gavel", scale=TINY, check=True)
        # the reference: the exact run_workload invocation the profiler
        # makes, re-run independently
        spec = trace.jobs[0].spec
        machine = TINY.machine(MARENOSTRUM4)
        from repro.jobs.profile import _app_factory
        reference = run_workload(machine, nodes, 1,
                                 profile_config(nodes, TINY),
                                 _app_factory(spec, TINY,
                                              machine.cores_per_node))
        assert len(result.records) == 1
        record = result.records[0]
        assert result.makespan == reference.elapsed
        assert record.finish == reference.elapsed
        assert record.slowdown == 1.0
        assert record.ideal == reference.elapsed
        stats = reference.runtime.stats()
        profile = profile_job(spec, TINY, machine)
        assert profile.tasks == stats["tasks"]
        assert profile.executed == stats["executed"]
        assert profile.offloaded == reference.offloaded_tasks

    def test_undisturbed_job_keeps_natural_cores(self):
        trace = JobTrace.single(app="synthetic", nodes=2, seed=0)
        result = run_trace(trace, policy="global", scale=TINY, check=True)
        profile = profile_job(trace.jobs[0].spec, TINY)
        record = result.records[0]
        # fluid layer at full allocation: core-seconds == profile's
        assert record.core_seconds == pytest.approx(profile.core_seconds)
        assert result.utilization == pytest.approx(
            profile.core_seconds / (result.total_cores * result.makespan))


class TestDeterminism:
    def test_three_job_poisson_double_run_is_bit_identical(self):
        """The conformance trace of the CI smoke: run twice under
        --check, byte-identical fingerprints."""
        spec = "poisson:seed=4,rate=2.0,n=3"
        first = run_trace(JobTrace.parse(spec), policy="gavel",
                          scale=TINY, check=True)
        clear_profile_cache()
        second = run_trace(JobTrace.parse(spec), policy="gavel",
                           scale=TINY, check=True)
        assert first.fingerprint() == second.fingerprint()
        assert [(r.job_id, r.start, r.finish) for r in first.records] == \
            [(r.job_id, r.start, r.finish) for r in second.records]

    @pytest.mark.parametrize("policy", ["local", "global", "gavel"])
    def test_every_registered_policy_is_deterministic(self, policy):
        spec = "bursty:seed=2,n=6,burst=3,gap=1.0"
        first = run_trace(JobTrace.parse(spec), policy=policy, scale=TINY,
                          check=True)
        clear_profile_cache()
        second = run_trace(JobTrace.parse(spec), policy=policy, scale=TINY,
                           check=True)
        assert first.fingerprint() == second.fingerprint()

    def test_policies_actually_differ_under_contention(self):
        spec = "poisson:seed=3,rate=8.0,n=8"
        prints = {p: run_trace(JobTrace.parse(spec), policy=p,
                               scale=TINY).fingerprint()
                  for p in ("local", "global", "gavel")}
        assert len(set(prints.values())) > 1


class TestSchedulingRules:
    def test_contended_run_holds_invariants_and_slows_jobs(self):
        result = run_trace(JobTrace.parse("poisson:seed=3,rate=8.0,n=8"),
                           policy="gavel", scale=TINY, check=True)
        assert result.sanitizer is not None
        assert result.sanitizer.allocations_checked > 0
        assert result.mean_slowdown > 1.0
        assert 0.0 < result.utilization <= 1.0
        assert 0.0 < result.fairness <= 1.0
        # no job finishes before its ideal duration elapsed
        for record in result.records:
            assert record.finish - record.start >= \
                record.ideal * (1.0 - 1e-9)
            assert record.start >= record.arrival

    def test_all_jobs_finish_and_makespan_is_last_finish(self):
        result = run_trace(JobTrace.parse("diurnal:seed=5,n=6,period=4.0"),
                           policy="global", scale=TINY, check=True)
        assert len(result.records) == 6
        assert result.makespan == max(r.finish for r in result.records)

    def test_admission_queues_beyond_one_core_floor(self):
        """More live jobs than cores: the surplus waits in FIFO order."""
        # 1-node tiny cluster = 4 cores; 6 jobs arriving within ~1 ms
        # (bursty jitter is 1% of the gap) while every job runs >= 0.2 s
        result = run_trace(
            JobTrace.parse("bursty:seed=1,n=6,burst=6,gap=0.1,nodes=1"),
            policy="gavel", scale=TINY, cluster_nodes=1, check=True)
        assert len(result.records) == 6
        # at most 4 can start at their arrival; the rest queue until a
        # completion frees a core
        immediate = [r for r in result.records
                     if r.start == pytest.approx(r.arrival, abs=1e-3)]
        queued = [r for r in result.records if r not in immediate]
        assert len(immediate) <= 4
        assert queued, "someone must have waited for admission"
        for r in queued:
            assert r.start - r.arrival > 1e-3
        # FIFO: queued jobs are admitted in arrival order
        assert [r.start for r in queued] == \
            sorted(r.start for r in queued)

    def test_empty_trace_rejected(self):
        with pytest.raises(JobsError):
            run_trace(JobTrace(jobs=(), spec="empty"), scale=TINY)

    def test_unknown_policy_rejected(self):
        with pytest.raises(JobsError):
            JobsArbiter("fifo", 8)


class TestJobsSanitizer:
    def test_overcommit_raises(self):
        sanitizer = JobsSanitizer(total_cores=4)
        with pytest.raises(ValidationError) as exc:
            sanitizer.on_allocation(1.0, {1: 3, 2: 2}, frozenset({1, 2}))
        assert exc.value.invariant == "jobs.core_conservation"

    def test_floor_violation_raises(self):
        sanitizer = JobsSanitizer(total_cores=4)
        with pytest.raises(ValidationError) as exc:
            sanitizer.on_allocation(1.0, {1: 4}, frozenset({1, 2}))
        assert exc.value.invariant == "jobs.one_core_floor"

    def test_grant_to_finished_job_raises(self):
        sanitizer = JobsSanitizer(total_cores=4)
        sanitizer.on_finish(1.0, 2)
        with pytest.raises(ValidationError) as exc:
            sanitizer.on_allocation(2.0, {1: 1, 2: 1}, frozenset({1, 2}))
        assert exc.value.invariant == "jobs.grant_to_dead_job"

    def test_grant_to_unknown_job_raises(self):
        sanitizer = JobsSanitizer(total_cores=4)
        with pytest.raises(ValidationError) as exc:
            sanitizer.on_allocation(2.0, {9: 1}, frozenset({1}))
        assert exc.value.invariant == "jobs.grant_to_dead_job"

    def test_negative_progress_raises(self):
        sanitizer = JobsSanitizer(total_cores=4)
        with pytest.raises(ValidationError):
            sanitizer.on_progress(1.0, 1, -0.5)

    def test_double_finish_raises(self):
        sanitizer = JobsSanitizer(total_cores=4)
        sanitizer.on_finish(1.0, 1)
        with pytest.raises(ValidationError):
            sanitizer.on_finish(2.0, 1)

    def test_clean_run_counts_checks(self):
        sanitizer = JobsSanitizer(total_cores=8)
        sanitizer.on_allocation(0.0, {1: 4, 2: 4}, frozenset({1, 2}))
        sanitizer.on_progress(1.0, 1, 3.0)
        sanitizer.on_finish(2.0, 1)
        assert sanitizer.summary() == {"allocations": 1, "grants": 2,
                                       "progress": 1, "finishes": 1}


class TestClosedFormArbitration:
    def test_global_arbiter_never_calls_highs(self, monkeypatch):
        """Cross-job arbitration is a one-node Eq. 1: the closed form must
        solve it, not a silent fall-back to HiGHS."""
        from repro.balance import global_policy
        spec = "poisson:seed=3,rate=8.0,n=8"
        expected = run_trace(JobTrace.parse(spec), policy="global",
                             scale=TINY).fingerprint()
        clear_profile_cache()

        def one_node_fails(solve):
            def guarded(*args, **kwargs):
                b_ub = kwargs["b_ub"] if "b_ub" in kwargs else args[2]
                # node rows are the only ones with a positive rhs
                if sum(1 for b in b_ub if b > 0) == 1:
                    raise AssertionError("one-node Eq. 1 reached HiGHS")
                return solve(*args, **kwargs)
            return guarded

        monkeypatch.setattr(global_policy, "_solve_highs_direct",
                            one_node_fails(global_policy._solve_highs_direct))
        monkeypatch.setattr(global_policy, "linprog",
                            one_node_fails(global_policy.linprog))
        result = run_trace(JobTrace.parse(spec), policy="global",
                           scale=TINY)
        assert result.reallocations > 0
        assert result.fingerprint() == expected
