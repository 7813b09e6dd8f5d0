"""The fault-plan demo driver (``python -m repro.faults PLAN``)."""

from pathlib import Path

from repro.faults.__main__ import main

PLANS = Path(__file__).resolve().parents[2] / "examples" / "faultplans"


def test_flaky_link_demo(capsys):
    assert main([str(PLANS / "flaky-link.json")]) == 0
    out = capsys.readouterr().out
    assert ("  stats: reads=64 writes=32 retries=7 timeouts=0 "
            "backoff=5468ns errors_surfaced=1\n") in out
    counters = out.split("injected-fault counters:\n", 1)[1].splitlines()
    assert counters == ["  faults.injected.device_timeout: 4",
                        "  faults.injected.link_flap: 3",
                        "  faults.injected.poison: 1"]
