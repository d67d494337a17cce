"""RuntimeConfig validation and the paper's named configurations."""

import pytest

from repro.errors import RuntimeModelError
from repro.nanos import RuntimeConfig


class TestValidation:
    def test_degree_below_one_rejected(self):
        with pytest.raises(RuntimeModelError):
            RuntimeConfig(offload_degree=0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(RuntimeModelError):
            RuntimeConfig(policy="magic")

    def test_policy_without_drom_rejected(self):
        with pytest.raises(RuntimeModelError):
            RuntimeConfig(policy="local", drom=False)

    def test_no_policy_without_drom_allowed(self):
        RuntimeConfig(policy=None, drom=False)

    def test_zero_tasks_per_core_rejected(self):
        with pytest.raises(RuntimeModelError):
            RuntimeConfig(tasks_per_core=0)

    def test_negative_period_rejected(self):
        with pytest.raises(RuntimeModelError):
            RuntimeConfig(local_period=0.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(RuntimeModelError):
            RuntimeConfig(offload_penalty=-1.0)


class TestNamedConfigs:
    def test_baseline_disables_everything(self):
        config = RuntimeConfig.baseline()
        assert config.offload_degree == 1
        assert not config.lewi and not config.drom
        assert config.policy is None

    def test_dlb_single_node(self):
        config = RuntimeConfig.dlb_single_node()
        assert config.offload_degree == 1
        assert config.lewi and config.drom
        assert config.policy == "local"

    def test_offloading(self):
        config = RuntimeConfig.offloading(4, "global")
        assert config.offload_degree == 4
        assert config.lewi and config.drom
        assert config.policy == "global"

    def test_with_updates_one_field(self):
        config = RuntimeConfig.baseline().with_(obs=True)
        assert config.obs
        assert config.offload_degree == 1

    def test_trace_is_recorded_by_obs_not_a_field(self):
        # perfbench reads ``config.trace`` as a tap flag; it stays False
        assert RuntimeConfig.trace is False
        with pytest.raises(TypeError):
            RuntimeConfig(trace=True)
        with pytest.raises(TypeError):
            RuntimeConfig(trace_period=0.05)

    def test_overrides_flow_through_named_constructors(self):
        config = RuntimeConfig.offloading(2, "local", global_period=9.0)
        assert config.global_period == 9.0
