"""Lend/reclaim strategies: pure decisions + arbiter mechanism wiring."""

from repro.policies import (EagerLend, HoardLend, OwnerFirstReclaim,
                            ReleaserFirstReclaim, ReserveOneLend)

from tests.dlb.test_shmem import make_arbiter
from tests.policies.views import FakeGrantView, FakeLendView


def lend_view(idle=3):
    return FakeLendView(idle=idle)


def grant_view(owner=("a", 0), releaser=("b", 0), backlogs=None):
    return FakeGrantView(owner=owner, releaser=releaser, backlogs=backlogs)


class TestLendPolicies:
    def test_eager_lends_everything(self):
        assert EagerLend().lend_count(lend_view(idle=3)) == 3

    def test_eager_releases_unless_owner_has_work(self):
        busy_owner = grant_view(backlogs={("a", 0): 2})
        idle_owner = grant_view(backlogs={("a", 0): 0})
        gone_owner = grant_view(owner=None)
        assert not EagerLend().lend_released(busy_owner)
        assert EagerLend().lend_released(idle_owner)
        assert EagerLend().lend_released(gone_owner)

    def test_hoard_never_lends(self):
        assert HoardLend().lend_count(lend_view(idle=3)) == 0
        assert not HoardLend().lend_released(grant_view())

    def test_reserve_one_keeps_a_warm_core(self):
        assert ReserveOneLend().lend_count(lend_view(idle=3)) == 2
        assert ReserveOneLend().lend_count(lend_view(idle=1)) == 0
        assert ReserveOneLend().lend_count(lend_view(idle=0)) == 0


class TestReclaimPolicies:
    def _view(self):
        return grant_view(
            owner=("a", 0), releaser=("b", 0),
            backlogs={("a", 0): 1, ("b", 0): 1, ("c", 0): 5, ("d", 0): 2})

    def test_owner_first_order(self):
        order = list(OwnerFirstReclaim().grant_order(self._view()))
        assert order == [("a", 0), ("b", 0), ("c", 0), ("d", 0)]

    def test_releaser_first_order(self):
        order = list(ReleaserFirstReclaim().grant_order(self._view()))
        assert order == [("b", 0), ("a", 0), ("c", 0), ("d", 0)]

    def test_owner_releasing_its_own_core_not_duplicated(self):
        v = grant_view(owner=("a", 0), releaser=("a", 0),
                       backlogs={("a", 0): 1})
        assert list(OwnerFirstReclaim().grant_order(v)) == [("a", 0)]
        assert list(ReleaserFirstReclaim().grant_order(v)) == [("a", 0)]

    def test_others_ranked_by_backlog_then_key(self):
        v = grant_view(backlogs={("d", 0): 2, ("c", 0): 2, ("e", 0): 9})
        order = list(OwnerFirstReclaim().grant_order(v))
        # owner, releaser (not registered), then e (backlog 9), c, d
        assert order[-3:] == [("e", 0), ("c", 0), ("d", 0)]

    def test_others_ranked_only_when_reached(self):
        v = self._view()
        order = iter(OwnerFirstReclaim().grant_order(v))
        assert next(order) == ("a", 0)
        assert next(order) == ("b", 0)
        assert v.backlog_reads == []
        assert list(order) == [("c", 0), ("d", 0)]
        assert sorted(v.backlog_reads) == [("c", 0), ("d", 0)]


class TestArbiterUsesPolicies:
    def test_hoard_suppresses_voluntary_lending(self):
        _, eager_arbiter, _ = make_arbiter(num_cores=4)
        eager_arbiter.initialize_ownership({("a", 0): 2, ("b", 0): 2})
        assert eager_arbiter.lend_idle_cores(("a", 0)) == 2

        node, arbiter, ports = make_arbiter(num_cores=4)
        arbiter.lend_policy = HoardLend()
        arbiter.initialize_ownership({("a", 0): 2, ("b", 0): 2})
        assert arbiter.lend_idle_cores(("a", 0)) == 0
        assert arbiter.lends == 0

    def test_reserve_one_lends_all_but_one(self):
        _, arbiter, _ = make_arbiter(num_cores=4)
        arbiter.lend_policy = ReserveOneLend()
        arbiter.initialize_ownership({("a", 0): 3, ("b", 0): 1})
        assert arbiter.lend_idle_cores(("a", 0)) == 2

    def test_releaser_first_lets_borrower_keep_warm_core(self):
        # b's core is borrowed by a; both have ready work at release time.
        # owner-first hands it back to b (a reclaim); releaser-first lets
        # a keep it (a borrow).
        for policy, expect_reclaims in ((OwnerFirstReclaim(), 1),
                                        (ReleaserFirstReclaim(), 0)):
            _, arbiter, ports = make_arbiter(num_cores=2)
            arbiter.reclaim_policy = policy
            arbiter.initialize_ownership({("a", 0): 1, ("b", 0): 1})
            arbiter.lend_idle_cores(("b", 0))
            ports["a"].ready = 3
            own = arbiter.acquire_core(ports["a"])
            own.start(("a", 0))
            borrowed = arbiter.acquire_core(ports["a"])
            assert borrowed is not None and borrowed.owner == ("b", 0)
            borrowed.start(("a", 0))
            ports["a"].ready = 1
            ports["b"].ready = 1
            borrowed.stop(("a", 0))
            arbiter.release_core(borrowed, ("a", 0))
            assert arbiter.reclaims == expect_reclaims
            winner = ("b", 0) if expect_reclaims else ("a", 0)
            assert borrowed.occupant == winner

    def test_default_policy_names_exposed(self):
        _, arbiter, _ = make_arbiter()
        assert arbiter.lend_policy.name == "eager"
        assert arbiter.reclaim_policy.name == "owner-first"

    def test_owner_grant_reads_no_other_backlog(self):
        # The arbiter consumes grant_order lazily: when the owner takes
        # the released core, the others are never ranked by backlog.
        _, arbiter, ports = make_arbiter(num_cores=3, workers=("a", "b", "c"))
        arbiter.initialize_ownership({("a", 0): 1, ("b", 0): 1, ("c", 0): 1})
        reads = []
        for port in ports.values():
            port.ready = 2
            port.ready_count = (lambda p=port: reads.append(p.key) or p.ready)
        core = arbiter.acquire_core(ports["b"])
        core.start(("b", 0))
        core.stop(("b", 0))
        arbiter.release_core(core, ("b", 0))
        assert core.occupant == ("b", 0)
        assert reads == []
