"""Each demo runs to completion from any working directory, writes nothing
to stderr and prints the recorded bytes: the sha256 of its stdout, as printed
before the CSV, INI and report-row code was shared across modules.  Demo 02's
was recorded again when its f column took the engine's ``byzantine_count``
(5 of 15 at alpha 0.3, where ``round`` printed 4); no other byte changed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

DEMO_STDOUT_SHA256 = {
    "01_sign_vote_basics": "135abf5a886950d325b7bc7b1efa79af67a01a8c04d8731f886653053c32cde4",
    "02_blind_adversaries": "0075e4d350de3205ddc7dca402848a73d0dd90b354b91481afec3c244bb50d13",
    "03_byzantine_collusion": "10db3d6fbfcc9cb3b401f1e8bb591b45220bbbbf9db4dd93c552fc11ddbed3f0",
    "04_inverse_sum_attack": "8c3aa8de614a2b288274dce947a5d5774bd28105871cf96ffa0beb7198b19cea",
    "05_sign_error_bounds": "0ad8d773bf4a4fa1036b95510cb7d3006f73636b1bbdb55fe518f36143f336db",
    "06_vote_failure_and_rates": "bf11537576ff8a0379409220b1e7268fdc7a43fe4573ed8402445775bba91092",
    "07_estimate_p_from_data": "bd1cde8491ddbef9f21406b228b6635f53c5c125ae81725bbe68d7059fb2e682",
}


def test_every_demo_is_pinned():
    assert sorted(path.stem for path in (REPO / "demos").glob("*.py")) == sorted(DEMO_STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_as_recorded(tmp_path, name):
    """Run from an empty directory: a demo finds the bundled configs from its own path."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, str(REPO / "demos" / f"{name}.py")],
                          capture_output=True, env=env, cwd=tmp_path, timeout=300)
    assert (done.returncode, done.stderr) == (0, b"")
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
