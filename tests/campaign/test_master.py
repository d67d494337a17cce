"""Orchestrator recovery paths: resume, quarantine, chaos, timeouts.

These tests spawn real worker processes (``spawn`` context), so each
campaign pays ~1-2 s of interpreter startup per worker; the grids are
tiny so the cells themselves are sub-second.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.campaign import (JOURNAL_NAME, RESULTS_NAME, CampaignGrid,
                            ChaosPlan, run_campaign)
from repro.campaign.journal import CampaignJournal
from repro.campaign.master import _Master
from repro.errors import CampaignError

SMOKE = "app=synthetic;scale=tiny;nodes=2;degree=1,2;imbalance=1.5,2.0;seed=0..1"


def read_journal(out_dir):
    path = out_dir / JOURNAL_NAME
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestHappyPath:
    def test_complete_campaign(self, tmp_path):
        grid = CampaignGrid.parse(SMOKE)
        report = run_campaign(grid, tmp_path, workers=2)
        assert report.exit_code == 0
        assert report.completed == report.total == len(grid.cells())
        assert report.computed == report.total
        assert report.resumed == 0
        assert not report.quarantined
        assert (tmp_path / RESULTS_NAME).exists()
        assert (tmp_path / "report.json").exists()
        # one done record per cell, no duplicates
        done = [r["cell"] for r in read_journal(tmp_path)
                if r["kind"] == "done"]
        assert sorted(done) == sorted(c.cell_id for c in grid.cells())

    def test_report_rows_in_grid_order(self, tmp_path):
        grid = CampaignGrid.parse(SMOKE)
        report = run_campaign(grid, tmp_path, workers=3)
        cells = [row["cell"] for row in report.table.rows]
        assert cells == [c.cell_id for c in grid.cells()]

    def test_summary_is_one_greppable_line(self, tmp_path):
        grid = CampaignGrid.parse("app=synthetic;scale=tiny;nodes=2;seed=0")
        report = run_campaign(grid, tmp_path, workers=1)
        assert report.summary().startswith("# campaign:")
        assert "\n" not in report.summary()


class TestResume:
    def test_resume_recomputes_nothing(self, tmp_path):
        grid = CampaignGrid.parse(SMOKE)
        first = run_campaign(grid, tmp_path, workers=2)
        csv = (tmp_path / RESULTS_NAME).read_bytes()
        second = run_campaign(grid, tmp_path, workers=2)
        assert second.computed == 0
        assert second.resumed == first.total
        assert second.exit_code == 0
        assert (tmp_path / RESULTS_NAME).read_bytes() == csv

    def test_resume_with_different_grid_refused(self, tmp_path):
        run_campaign(CampaignGrid.parse(
            "app=synthetic;scale=tiny;nodes=2;seed=0"), tmp_path, workers=1)
        with pytest.raises(CampaignError, match="different grid"):
            run_campaign(CampaignGrid.parse(
                "app=synthetic;scale=tiny;nodes=2;seed=1"),
                tmp_path, workers=1)

    def test_partial_journal_resumes_rest(self, tmp_path):
        grid = CampaignGrid.parse(SMOKE)
        cells = grid.cells()
        # fabricate a journal that already has half the cells done
        from repro.campaign import CampaignJournal
        from repro.campaign.cells import run_cell
        with CampaignJournal.open(tmp_path / JOURNAL_NAME,
                                  grid.fingerprint(), grid.spec) as journal:
            for cell in cells[: len(cells) // 2]:
                journal.record_done(cell.cell_id, 1, run_cell(cell), 0.0)
        report = run_campaign(grid, tmp_path, workers=2)
        assert report.resumed == len(cells) // 2
        assert report.computed == len(cells) - len(cells) // 2
        assert report.completed == len(cells)


class TestQuarantine:
    def test_poison_cell_quarantined_campaign_completes(self, tmp_path):
        # crash:node=0 kills the home node: unrecoverable, every attempt
        grid = CampaignGrid.parse(
            "app=synthetic;scale=tiny;nodes=2;degree=2;imbalance=1.5,2.0;"
            "faults=none|crash:node=0,t=0.01")
        report = run_campaign(grid, tmp_path, workers=2, max_failures=2,
                              backoff_base=0.05)
        assert report.exit_code == 3
        assert len(report.quarantined) == 2      # both poisoned imbalances
        for record in report.quarantined.values():
            assert "NodeFailedError" in " ".join(record.get("errors", []))
        # the healthy cells still completed
        assert report.completed == report.total - 2
        quarantined_resume = run_campaign(grid, tmp_path, workers=2,
                                          max_failures=2)
        assert quarantined_resume.computed == 0   # quarantine is remembered


class TestChaos:
    def test_chaos_results_bit_identical(self, tmp_path):
        grid = CampaignGrid.parse(SMOKE)
        clean_dir, chaos_dir = tmp_path / "clean", tmp_path / "chaos"
        clean = run_campaign(grid, clean_dir, workers=2)
        chaos = run_campaign(grid, chaos_dir, workers=2, cell_timeout=5.0,
                             heartbeat_timeout=5.0, backoff_base=0.05,
                             chaos=True, chaos_seed=7)
        assert clean.exit_code == chaos.exit_code == 0
        counters = chaos.metrics["counters"]
        assert counters.get("campaign.chaos_kills", 0) >= 1
        assert counters.get("campaign.chaos_hangs", 0) >= 1
        assert ((clean_dir / RESULTS_NAME).read_bytes()
                == (chaos_dir / RESULTS_NAME).read_bytes())

    def test_hung_cell_times_out_and_retries_clean(self, tmp_path):
        grid = CampaignGrid.parse(
            "app=synthetic;scale=tiny;nodes=2;seed=0..2")
        cells = grid.cells()
        plan = ChaosPlan(kill_after=(), seed=0,
                         hang_cells=frozenset({cells[0].cell_id}))
        report = run_campaign(grid, tmp_path, workers=2, cell_timeout=3.0,
                              heartbeat_timeout=30.0, backoff_base=0.05,
                              chaos=plan)
        assert report.exit_code == 0
        assert report.completed == report.total
        counters = report.metrics["counters"]
        assert counters.get("campaign.cells_timed_out", 0) >= 1
        assert counters.get("campaign.requeues", 0) >= 1
        requeued = [r for r in read_journal(tmp_path)
                    if r["kind"] == "requeued"]
        assert any(r["cell"] == cells[0].cell_id for r in requeued)

    def test_worker_kill_requeues_and_respawns(self, tmp_path):
        grid = CampaignGrid.parse(SMOKE)
        plan = ChaosPlan(kill_after=(1,), hang_cells=frozenset(), seed=3)
        report = run_campaign(grid, tmp_path, workers=2, backoff_base=0.05,
                              chaos=plan)
        assert report.exit_code == 0
        assert report.completed == report.total
        counters = report.metrics["counters"]
        assert counters.get("campaign.chaos_kills", 0) == 1
        assert counters.get("campaign.workers_crashed", 0) >= 1
        assert (counters.get("campaign.workers_spawned", 0)
                > min(2, len(grid.cells())))


class TestResultChannels:
    def test_kill_mid_send_spares_other_workers(self, tmp_path):
        """A SIGKILL landing while a worker sends must not block the rest.

        The victim heartbeats in a tight loop, so the kill lands mid-send;
        the survivor's ``done`` must still reach the master.
        """
        grid = CampaignGrid.parse("app=synthetic;scale=tiny;nodes=2;seed=0")
        master = _Master(grid=grid, out_dir=tmp_path, workers=2,
                         cell_timeout=60.0, heartbeat_interval=0.0,
                         heartbeat_timeout=60.0, max_failures=3,
                         max_requeues=10, backoff_base=0.05, check=False,
                         chaos=None, progress=None)
        journal = master.journal = CampaignJournal.open(
            tmp_path / JOURNAL_NAME, grid.fingerprint(), grid.spec)
        deadline = time.monotonic() + 60.0
        try:
            victim = master.spawn_worker(0)
            master.heartbeat_interval = 0.5
            survivor = master.spawn_worker(1)
            spawned = victim.last_seen
            while victim.last_seen == spawned:
                assert time.monotonic() < deadline, "victim never beat"
                master.drain_results()
            master.kill_worker(victim, "heartbeat-lost")
            del master.slots[victim.slot]
            cell = grid.cells()[0]
            survivor.assignment = (cell, 1, time.monotonic())
            survivor.task_queue.put({"cell": cell.to_json(), "attempt": 1})
            while cell.cell_id not in journal.done:
                assert time.monotonic() < deadline, "survivor's done lost"
                master.drain_results()
            assert survivor.assignment is None
        finally:
            master.shutdown_workers(graceful=False)
            journal.close()


class TestValidation:
    def test_bad_parameters_one_line_errors(self, tmp_path):
        grid = CampaignGrid.parse("app=synthetic;scale=tiny;nodes=2;seed=0")
        with pytest.raises(CampaignError, match="worker"):
            run_campaign(grid, tmp_path, workers=0)
        with pytest.raises(CampaignError, match="timeout"):
            run_campaign(grid, tmp_path, cell_timeout=0.0)
        with pytest.raises(CampaignError, match="budget"):
            run_campaign(grid, tmp_path, max_failures=0)
