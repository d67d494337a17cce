"""Golden byte output of a real run's trace exports.

Pins, by sha256, two artefacts of the SMALL ``synthetic`` and
``resilience`` trace targets (``python -m repro trace <target> --scale
small``):

* the busy-only CSV (``trace_to_csv(..., metrics=("busy",))``);
* the Paraver ``.prv`` state records, busy-count records (type 90000001)
  and point-event records (type 90000003), in file order.

Owned-core records (type 90000002) are left out on purpose: they are
checked against the arbiters' ground truth in
``tests/obs/test_ownership_series.py``. Any other change to these digests
changes what a user's Paraver or CSV tooling reads, and must be justified
as a bug fix.
"""

import hashlib

import pytest

from repro.experiments import traced
from repro.experiments.base import SMALL
from repro.metrics.export import trace_to_csv
from repro.metrics.paraver import BUSY_EVENT_TYPE, POINT_EVENT_TYPE

GOLDEN = {
    "synthetic": {
        "busy_csv": "52cebcf43427b002460ffdb8dd2b363f"
                    "6d9a2d8030df29a0fd44255c08525e46",
        "prv": "fa30ee892587c3d60e8284f317b3b4d7"
               "dfda6b93e3eaf8c2de3bd3b44e23f2aa",
        "records": 1524,
        "points": 0,
    },
    "resilience": {
        "busy_csv": "870a87c3d33a6125f0f99fae6cdc4d67"
                    "a6fcbc68d259d4c7e17e269e6dcbd7a8",
        "prv": "71052818003468a6dc70bfb2411bb818"
               "0582b9f0554f34af0c42062fd3393018",
        "records": 211,
        "points": 3,
    },
}

PINNED_TYPES = {str(BUSY_EVENT_TYPE), str(POINT_EVENT_TYPE)}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned_records(prv_text: str) -> list[str]:
    """State records plus busy and point events, header dropped."""
    return [line for line in prv_text.splitlines()[1:]
            if line.startswith("1:")
            or (line.startswith("2:") and line.split(":")[6] in PINNED_TYPES)]


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_exports_match_golden_digests(target, tmp_path):
    golden = GOLDEN[target]
    run = traced.run(target, SMALL, paraver=tmp_path / target)
    busy_csv = trace_to_csv(run.obs.trace, metrics=("busy",))
    assert _sha256(busy_csv) == golden["busy_csv"]
    records = _pinned_records(run.paraver_paths["prv"].read_text())
    assert len(records) == golden["records"]
    assert sum(f":{POINT_EVENT_TYPE}:" in r for r in records) \
        == golden["points"]
    assert _sha256("\n".join(records) + "\n") == golden["prv"]
