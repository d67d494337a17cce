"""Workload specs: synthetic (§6.2), MicroPP and n-body cost models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import synthetic
from repro.apps.micropp import MicroppSpec, nonlinear_fractions, subdomain_durations
from repro.apps.micropp import apprank_loads as micropp_loads
from repro.apps.nbody import NBodySpec, block_durations, rank_residual
from repro.apps.nbody import apprank_loads as nbody_loads
from repro.apps.synthetic import (SyntheticSpec, apprank_loads,
                                  emulated_durations, emulated_loads,
                                  task_durations)
from repro.errors import WorkloadError
from repro.metrics import imbalance


class TestSyntheticSpec:
    def test_paper_defaults(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=48)
        assert spec.tasks_per_core == 100      # §6.2
        assert spec.mean_duration == pytest.approx(0.050)
        assert spec.tasks_per_apprank == 4800

    @pytest.mark.parametrize("target", [1.0, 1.3, 2.0, 3.0, 4.0])
    def test_imbalance_hit_exactly(self, target):
        spec = SyntheticSpec(num_appranks=8, imbalance=target,
                             cores_per_apprank=8)
        durations = task_durations(spec)
        assert durations.mean() == pytest.approx(spec.mean_duration)
        assert durations.max() / durations.mean() == pytest.approx(target)
        assert (durations >= 0).all()

    def test_worst_case_rank_duration(self):
        """'The execution time of the tasks on the worst-case rank is 50 ms
        multiplied by the target imbalance' (§6.2)."""
        spec = SyntheticSpec(num_appranks=4, imbalance=3.0,
                             cores_per_apprank=8)
        assert task_durations(spec).max() == pytest.approx(0.05 * 3.0)

    def test_single_apprank(self):
        spec = SyntheticSpec(num_appranks=1, imbalance=1.0,
                             cores_per_apprank=4)
        assert task_durations(spec) == pytest.approx([0.05])

    def test_maximum_imbalance_puts_all_work_on_one(self):
        """'The maximum possible value for the imbalance is the number of
        appranks' (§6.1)."""
        spec = SyntheticSpec(num_appranks=4, imbalance=4.0,
                             cores_per_apprank=4)
        durations = task_durations(spec)
        assert durations.max() == pytest.approx(0.2)
        assert sorted(durations)[:3] == pytest.approx([0.0, 0.0, 0.0])

    def test_imbalance_beyond_apprank_count_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_appranks=2, imbalance=3.0, cores_per_apprank=4)

    def test_imbalance_below_one_rejected(self):
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_appranks=2, imbalance=0.5, cores_per_apprank=4)

    def test_determinism_per_seed(self):
        kwargs = dict(num_appranks=8, imbalance=2.0, cores_per_apprank=8)
        a = task_durations(SyntheticSpec(seed=1, **kwargs))
        b = task_durations(SyntheticSpec(seed=1, **kwargs))
        c = task_durations(SyntheticSpec(seed=2, **kwargs))
        np.testing.assert_array_equal(a, b)
        assert not np.allclose(a, c)

    @given(st.integers(1, 64), st.floats(0.0, 1.0), st.integers(0, 10_000))
    @example(64, 0.0, 0)
    @example(64, 1.0, 0)
    @example(64, 1.0 / 63, 5)
    @settings(max_examples=100, deadline=None)
    def test_constraints_hold_for_any_spec(self, appranks, fraction, seed):
        """Sum, bounds and maximum on the worst rank over 1-64 appranks and
        imbalance 1.0-appranks, and the same vector again for the seed."""
        target = 1.0 + fraction * (appranks - 1)
        spec = SyntheticSpec(num_appranks=appranks, imbalance=target,
                             cores_per_apprank=4, seed=seed)
        durations = task_durations(spec)
        worst = spec.mean_duration * target
        total = appranks * spec.mean_duration
        assert abs(durations.sum() - total) <= 1e-9 * total
        assert durations.min() >= 0.0
        assert durations[0] == worst
        assert durations.max() <= worst * (1.0 + 1e-9)
        np.testing.assert_array_equal(durations,
                                      synthetic._durations.__wrapped__(spec))


class TestSyntheticSampler:
    """The two-stage §6.2 sampler: rejection, then exact randfixedsum."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        synthetic._durations.cache_clear()
        yield
        synthetic._durations.cache_clear()

    @pytest.mark.parametrize("appranks", [3, 4, 16, 64])
    def test_imbalance_one_gives_exact_mean(self, appranks):
        spec = SyntheticSpec(num_appranks=appranks, imbalance=1.0,
                             cores_per_apprank=4)
        assert (task_durations(spec) == spec.mean_duration).all()

    def test_randfixedsum_marginals_match_rejection(self):
        """Where rejection accepts (8 appranks, imbalance 3.0: 7 other
        ranks, budget 0.25, bound 0.15), both stages sample the same
        distribution: per-coordinate means agree within 5 standard errors
        and variances within 10% (about 5 standard errors at n=20000)."""
        n, samples = 7, 20_000
        budget, worst = 0.25, 0.15
        rng = np.random.default_rng(20220829)
        exact = np.array([worst * synthetic._randfixedsum(rng, n, budget / worst)
                          for _ in range(samples)])
        draws = rng.dirichlet(np.ones(n), size=4 * samples) * budget
        rejected = draws[(draws <= worst).all(axis=1)][:samples]
        assert len(rejected) == samples
        for sample in (exact, rejected):
            np.testing.assert_allclose(sample.sum(axis=1), budget, rtol=1e-12)
            assert sample.min() >= 0.0 and sample.max() <= worst
        sem = np.sqrt((exact.var(axis=0) + rejected.var(axis=0)) / samples)
        assert (np.abs(exact.mean(axis=0) - rejected.mean(axis=0))
                <= 5 * sem).all()
        np.testing.assert_allclose(exact.var(axis=0), rejected.var(axis=0),
                                   rtol=0.10)

    def test_64_ranks_at_imbalance_2_depend_on_seed(self):
        """Rejection never accepts here; the even-split fallback made every
        seed identical."""
        kwargs = dict(num_appranks=64, imbalance=2.0, cores_per_apprank=4)
        one = task_durations(SyntheticSpec(seed=1, **kwargs))
        two = task_durations(SyntheticSpec(seed=2, **kwargs))
        assert not np.allclose(one[1:], two[1:])
        assert one[1:].std() > 0.01 and two[1:].std() > 0.01

    @pytest.mark.parametrize("kwargs, expected", [
        (dict(num_appranks=8, imbalance=2.0),
         [0.1, 0.07080677290936122, 0.03320936717784171, 0.08424550208436243,
          0.037775803590210134, 0.04564695093262372, 0.01958437225030485,
          0.008731231055295989]),
        (dict(num_appranks=4, imbalance=3.0, seed=7, slow_rank=1,
              slow_has="least"),
         [0.015372507212350605, 0.012352872004442813, 0.022274620783206574,
          0.15000000000000002]),
    ])
    def test_accepted_draws_are_bit_identical(self, kwargs, expected):
        """Specs the rejection stage accepts keep the earlier generator's
        exact vectors (pinned from it)."""
        spec = SyntheticSpec(cores_per_apprank=8, **kwargs)
        np.testing.assert_array_equal(task_durations(spec), expected)

    def test_memoised_per_spec_and_read_only(self, monkeypatch):
        calls = []
        original = synthetic._randfixedsum

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(synthetic, "_randfixedsum", counting)
        results = [task_durations(SyntheticSpec(
            num_appranks=64, imbalance=2.0, cores_per_apprank=4))
            for _ in range(64)]
        assert len(calls) == 1
        info = synthetic._durations.cache_info()
        assert (info.misses, info.hits) == (1, 63)
        assert all(r is results[0] for r in results)
        with pytest.raises(ValueError):
            results[0][1] = 0.0

    def test_violating_sample_raises(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_randfixedsum",
                            lambda rng, n, total: np.full(n, 1.5))
        with pytest.raises(WorkloadError, match="violate"):
            task_durations(SyntheticSpec(num_appranks=64, imbalance=2.0,
                                         cores_per_apprank=4))


class TestSyntheticSlowNode:
    def test_emulation_multiplies_slow_rank_only(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=8, slow_rank=0,
                             slow_factor=3.0, slow_has="most")
        plain = task_durations(spec)
        emulated = emulated_durations(spec)
        assert emulated[0] == pytest.approx(3.0 * plain[0])
        np.testing.assert_allclose(emulated[1:], plain[1:])

    def test_slow_has_most_puts_max_on_slow_rank(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=8, slow_rank=0,
                             slow_has="most")
        durations = task_durations(spec)
        assert durations[0] == durations.max()

    def test_slow_has_least_puts_min_on_slow_rank(self):
        spec = SyntheticSpec(num_appranks=4, imbalance=2.0,
                             cores_per_apprank=8, slow_rank=0,
                             slow_has="least")
        durations = task_durations(spec)
        assert durations[0] == durations.min()

    def test_loads_scale_with_tasks(self):
        spec = SyntheticSpec(num_appranks=2, imbalance=1.5,
                             cores_per_apprank=8, slow_rank=0)
        assert emulated_loads(spec)[0] == pytest.approx(
            emulated_durations(spec)[0] * spec.tasks_per_apprank)

    def test_invalid_slow_settings(self):
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_appranks=2, imbalance=1.0, cores_per_apprank=4,
                          slow_rank=5)
        with pytest.raises(WorkloadError):
            SyntheticSpec(num_appranks=2, imbalance=1.0, cores_per_apprank=4,
                          slow_rank=0, slow_has="sideways")


class TestMicroppWorkload:
    def test_fractions_decrease_with_rank(self):
        spec = MicroppSpec(num_appranks=8, cores_per_apprank=8)
        fractions = nonlinear_fractions(spec)
        assert fractions[0] == pytest.approx(spec.max_nonlinear_fraction)
        assert fractions[-1] == pytest.approx(spec.min_nonlinear_fraction)
        assert np.all(np.diff(fractions) <= 0)

    def test_imbalance_in_paper_range(self):
        """The workload should show the apprank-level imbalance that makes
        the 46-47% reduction possible (roughly 1.6-2.3)."""
        for appranks in (4, 8, 32):
            spec = MicroppSpec(num_appranks=appranks, cores_per_apprank=16)
            value = imbalance(micropp_loads(spec))
            assert 1.5 < value < 2.5

    def test_durations_static_across_calls(self):
        spec = MicroppSpec(num_appranks=4, cores_per_apprank=8)
        np.testing.assert_array_equal(subdomain_durations(spec, 2),
                                      subdomain_durations(spec, 2))

    def test_nonlinear_tasks_cost_more(self):
        spec = MicroppSpec(num_appranks=2, cores_per_apprank=8)
        durations = subdomain_durations(spec, 0)
        assert durations.min() >= spec.linear_cost * 0.99
        assert durations.max() > spec.linear_cost * 2

    def test_rank_out_of_range(self):
        spec = MicroppSpec(num_appranks=2, cores_per_apprank=8)
        with pytest.raises(WorkloadError):
            subdomain_durations(spec, 2)

    def test_validation(self):
        with pytest.raises(WorkloadError):
            MicroppSpec(num_appranks=0, cores_per_apprank=8)
        with pytest.raises(WorkloadError):
            MicroppSpec(num_appranks=2, cores_per_apprank=8,
                        max_nonlinear_fraction=0.2, min_nonlinear_fraction=0.5)


class TestNbodyWorkload:
    def test_sibling_residuals_anticorrelated(self):
        """ORB sibling partitions split the bisection error with opposite
        signs: their pair mean is much tighter than the individual values."""
        spec = NBodySpec(num_appranks=8, cores_per_apprank=8)
        for step in range(4):
            for pair in range(4):
                f0 = rank_residual(spec, 2 * pair, step)
                f1 = rank_residual(spec, 2 * pair + 1, step)
                pair_mean = (f0 + f1) / 2
                assert abs(pair_mean - 1.0) <= spec.rank_jitter / 3 + 1e-12
                assert f0 >= f1      # +d sibling listed first

    def test_loads_near_equal_overall(self):
        spec = NBodySpec(num_appranks=16, cores_per_apprank=8)
        loads = nbody_loads(spec)
        assert imbalance(loads) < 1.0 + spec.rank_jitter + spec.orb_jitter

    def test_residual_redrawn_each_step(self):
        spec = NBodySpec(num_appranks=4, cores_per_apprank=8)
        values = {rank_residual(spec, 0, step) for step in range(6)}
        assert len(values) > 1

    def test_block_durations_shape(self):
        spec = NBodySpec(num_appranks=2, cores_per_apprank=4,
                         bodies_per_apprank=512, bodies_per_task=64)
        durations = block_durations(spec, 0, 0)
        assert durations.shape == (8,)
        assert (durations > 0).all()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            NBodySpec(num_appranks=2, cores_per_apprank=4,
                      bodies_per_apprank=32, bodies_per_task=64)
        with pytest.raises(WorkloadError):
            NBodySpec(num_appranks=2, cores_per_apprank=4, rank_jitter=1.5)
