"""The checked path is the shipped path.

``--check`` (the sanitizer) and ``--obs`` (instrumentation) only mean
something if they exercise the decision code plain runs execute. Each
golden harness run is repeated plain, validated and instrumented with
the default policies' decision methods counted: every mode must consult
them the same number of times, and produce the same snapshot.
"""

import json

import pytest

from repro.policies import (EagerLend, OwnerFirstReclaim,
                            TentativeImmediateOffload)

from tests.policies.harness import micropp_snapshot, synthetic_snapshot

SPIED = ((TentativeImmediateOffload, "choose_worker"),
         (OwnerFirstReclaim, "grant_order"),
         (EagerLend, "lend_count"),
         (EagerLend, "lend_released"))

MODES = {"plain": {}, "validate": {"validate": True}, "obs": {"obs": True}}


def _counted_run(monkeypatch, snapshot, taps):
    counts = {f"{cls.__name__}.{name}": 0 for cls, name in SPIED}
    with monkeypatch.context() as patch:
        for cls, name in SPIED:
            key = f"{cls.__name__}.{name}"
            original = getattr(cls, name)

            def spy(self, *views, _key=key, _original=original):
                counts[_key] += 1
                return _original(self, *views)

            patch.setattr(cls, name, spy)
        result = json.dumps(snapshot(**taps), sort_keys=True)
    return counts, result


@pytest.mark.parametrize("snapshot", [synthetic_snapshot, micropp_snapshot],
                         ids=["synthetic", "micropp"])
def test_every_mode_runs_the_same_policy_calls(monkeypatch, snapshot):
    runs = {mode: _counted_run(monkeypatch, snapshot, taps)
            for mode, taps in MODES.items()}
    plain_counts, plain_snapshot = runs["plain"]
    assert all(plain_counts.values()), plain_counts
    for mode, (counts, result) in runs.items():
        assert counts == plain_counts, mode
        assert result == plain_snapshot, mode
