"""The answers pinned: the digests that scripts/cli_digest.py and
scripts/sat_digest.py print, and sat_digest's budget tick total, which
decides where a budget runs out.  A change that means to alter an answer
updates the pins and says why."""

import os
import subprocess
import sys

from helpers import ROOT

CLI_SHA256 = "2118ddbd5e4aba374e8a5e2b84c5caf039bb2e30d5bca2e4c64ce11ec171f16f"
SAT_SHA256 = "5aba26c021ae7cfe89491bfa9c3023b5e8e6dc6c4527c6d0cc1b6e577ce5e79d"
SAT_SUMMARY = "calls 24000  satisfiable 21258  raised 0  budget 1000000  ticks 468785"


def _start(script: str, path: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, str(ROOT / "scripts" / script)], env=env,
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_digests_are_pinned():
    # fresh processes, side by side
    cli = _start("cli_digest.py", "src")
    sat = _start("sat_digest.py", os.pathsep.join(("src", "tests")))
    cli_out, cli_err = cli.communicate(timeout=300)
    sat_out, sat_err = sat.communicate(timeout=300)
    assert cli.returncode == 0, cli_err
    assert cli_out.splitlines()[-1] == f"sha256 {CLI_SHA256}"
    assert sat.returncode == 0, sat_err
    assert sat_out.splitlines() == [SAT_SUMMARY, f"sha256 {SAT_SHA256}"]
