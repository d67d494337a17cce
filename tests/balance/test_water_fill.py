"""Differential test: one-node Eq. 1 water-fill against the HiGHS LP.

A one-node instance with one edge per apprank is solved in closed form
(``_water_fill``) instead of by HiGHS. Both must reach the same unique
optimum, and the rounded allocations must be identical, on any such
instance: zero and all-zero work, non-unit node speed, and a non-home
edge paying the offload penalty.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.balance import global_policy, round_allocation
from repro.errors import AllocationError

WORK = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3))


@st.composite
def one_node_instances(draw):
    n = draw(st.integers(min_value=1, max_value=64))
    cores = draw(st.integers(min_value=n, max_value=256))
    works = draw(st.lists(WORK, min_size=n, max_size=n))
    speed = draw(st.sampled_from([1.0, 0.5, 0.8, 1.7, 3.0]))
    remote = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return n, cores, works, speed, remote


def _problem(n, cores, works, speed, remote):
    """(edges, appranks, home_of, work, node_cores, node_speed, penalty)."""
    edges = [(a, 0) for a in range(n)]
    home_of = {a: 0 for a in range(n)}
    if remote is not None:
        home_of[remote] = 1         # its only edge is a non-home one
    return (edges, list(range(n)), home_of, dict(enumerate(works)),
            {0: float(cores)}, {0: speed, 1: 1.0}, 1e-6)


def _highs(problem):
    """The HiGHS path, fed the work after the documented zero-work rule."""
    edges, appranks, home_of, work, node_cores, node_speed, penalty = problem
    if all(w <= 0.0 for w in work.values()):
        work = {a: 1.0 for a in appranks}
    return global_policy._solve_lp_highs(
        edges, appranks, home_of, work, node_cores, node_speed, penalty)


def _both(problem):
    return global_policy._solve_lp(*problem), _highs(problem)


@given(one_node_instances())
@example((8, 8, [5.0, 1.0, 0.0, 2.0, 9.0, 3.0, 3.0, 1.0], 1.0, None))
@example((6, 40, [0.0] * 6, 0.5, 3))
@example((3, 6, [2.5, 2.5, 1e-3], 1.0, None))
@settings(max_examples=150, deadline=None)
def test_water_fill_matches_highs(instance):
    problem = _problem(*instance)
    fast, reference = _both(problem)
    assert fast.keys() == reference.keys()
    for edge, value in fast.items():
        assert value == pytest.approx(reference[edge], rel=0, abs=1e-7)
    cores = instance[1]
    assert round_allocation(fast, cores) == round_allocation(reference, cores)


def test_all_floors_when_cores_equal_workers():
    problem = _problem(5, 5, [4.0, 0.0, 1.0, 7.0, 2.0], 1.3, 2)
    fast, reference = _both(problem)
    assert fast == {(a, 0): 1.0 for a in range(5)}
    assert round_allocation(reference, 5) == {(a, 0): 1 for a in range(5)}


def test_public_entry_point_takes_the_closed_form(monkeypatch):
    def no_highs(*_args):
        raise AssertionError("one-node instance reached HiGHS")

    monkeypatch.setattr(global_policy, "_solve_lp_highs", no_highs)
    allocation = global_policy.solve_edge_allocation(
        [(0, 0), (1, 0), (2, 0)], {0: 0, 1: 0, 2: 0},
        {0: 6.0, 1: 3.0, 2: 0.0}, {0: 12}, {0: 1.0})
    assert allocation == {0: {(0, 0): 7, (1, 0): 4, (2, 0): 1}}


@given(st.integers(min_value=2, max_value=64), st.data())
@settings(max_examples=25, deadline=None)
def test_infeasible_raises_on_both_paths(n, data):
    cores = data.draw(st.integers(min_value=1, max_value=n - 1))
    works = data.draw(st.lists(WORK, min_size=n, max_size=n))
    problem = _problem(n, cores, works, 1.0, None)
    with pytest.raises(AllocationError):
        global_policy._solve_lp(*problem)
    with pytest.raises(AllocationError):
        _highs(problem)
