"""Golden gate: ``repro-taxonomy report`` reproduces ``artifacts/`` byte for byte.

The committed 23-file bundle (Tables I-III, Fig. 1-7, Eq. 1/Eq. 2 costs,
the resilience sweep, JSON exports, the audit) is the paper as this
repository reproduces it. The command runs in a fresh interpreter, so
the gate also covers the order in which the lazily loaded packages
import.
"""

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACTS = REPO_ROOT / "artifacts"


def test_report_reproduces_the_committed_bundle(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    outdir = tmp_path / "bundle"
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "report", str(outdir)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == f"wrote 23 artifact files to {outdir}"
    written = sorted(path.name for path in outdir.iterdir())
    assert len(written) == 23
    differing = [
        name
        for name in written
        if (outdir / name).read_bytes() != (ARTIFACTS / name).read_bytes()
    ]
    assert differing == []
