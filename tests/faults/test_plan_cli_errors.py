"""A bad or missing fault plan is one ``error:`` line and exit 1 at both
command lines that take one, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

CLIS = {
    "faults-demo": ["-m", "repro.faults", "{plan}"],
    "streamer": ["-m", "repro.streamer", "--faults", "{plan}", "describe"],
}


#: plan text -> the one line expected on stderr (None: a missing file)
BAD_PLANS = {
    '{"faults": 1.5}': "error: 'faults' must be a list, got float",
    '{"seed": "7", "faults": []}':
        "error: plan seed must be an integer, got '7'",
}


@pytest.mark.parametrize("plan_text", [*BAD_PLANS, None],
                         ids=["faults-not-a-list", "seed-not-an-integer",
                              "missing-file"])
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_bad_plan_is_one_error_line(cli, plan_text, tmp_path):
    plan = tmp_path / "plan.json"
    if plan_text is not None:
        plan.write_text(plan_text)
    args = [a.format(plan=plan) for a in CLIS[cli]]
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if plan_text is not None:
        assert lines[0] == BAD_PLANS[plan_text]
