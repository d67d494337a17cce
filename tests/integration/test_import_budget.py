"""``import repro`` loads only what every run needs.

Checked in a fresh interpreter, because this test session imports the
optional modules freely.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def test_import_repro_skips_networkx_and_obs():
    code = ("import sys\n"
            "import repro\n"
            "loaded = [m for m in ('networkx', 'repro.obs') "
            "if m in sys.modules]\n"
            "assert not loaded, loaded\n")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": SRC_DIR}, timeout=300)
