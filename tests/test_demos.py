"""Smoke test of the demo scripts.

Each `demos/*.py` runs in a fresh interpreter with the package on its path
and must exit 0.  The stdout of the law-suite demo is pinned, because it
runs every check of `laws.DEFAULT_CHECKS` on a corpus model and on a
random-model stream.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import csi_graphlab

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# sha256 of stdout, per demo whose output is pinned
STDOUT_DIGESTS = {
    "06_model_laws.py": "62f0d99cf264da03893219e6aea606967606e9b6aa2af1444d3ef31cd892b58c",
}


def _run_demo(path: Path) -> subprocess.CompletedProcess:
    package_root = str(Path(csi_graphlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, cwd=path.parent
    )


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name):
    proc = _run_demo(DEMOS / name)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout
    if name in STDOUT_DIGESTS:
        assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_DIGESTS[name]


def test_law_suite_demo_is_pinned():
    assert "06_model_laws.py" in STDOUT_DIGESTS
    assert (DEMOS / "06_model_laws.py").exists()
