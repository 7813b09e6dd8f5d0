"""Model cross-validation: analytic solver vs discrete-event simulation.

The figures' credibility rests on the bandwidth model.  This bench runs
every configuration of the paper's evaluation — single-target BIND
placements, interleaved / weighted multi-target policies and the Optane
DCPMM baseline, whose asymmetric media is checked under copy as well as
triad because its capacity depends on the read mix — through BOTH the
closed-form engine and the independent event-driven simulator and
reports the deviation.  Acceptance: within 5 % everywhere (the DES reads
the plan's snoop weighting, clamps and blended capacities, so the old
DDR4 carve-out is gone).

Output: results/model_validation.txt.
"""

import os

import pytest

from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1, setup1_with_dcpmm, setup2
from repro.memsim.des import simulate_stream_des
from repro.memsim.engine import AccessMode, simulate_stream

CONFIGS = [
    # (label, testbed key, policy, threads, app_direct, kernel)
    ("1a local DDR5 AD", "setup1", NumaPolicy.bind(0), 10, True, "triad"),
    ("1b remote DDR5 AD", "setup1", NumaPolicy.bind(1), 10, True, "triad"),
    ("1b CXL AD", "setup1", NumaPolicy.bind(2), 10, True, "triad"),
    ("2a remote DDR5 NUMA", "setup1", NumaPolicy.bind(1), 10, False,
     "triad"),
    ("2a CXL NUMA", "setup1", NumaPolicy.bind(2), 10, False, "triad"),
    ("2a remote DDR4 NUMA", "setup2", NumaPolicy.bind(1), 10, False,
     "triad"),
    ("CXL 1 thread", "setup1", NumaPolicy.bind(2), 1, False, "triad"),
    ("CXL 3 threads", "setup1", NumaPolicy.bind(2), 3, False, "triad"),
    ("local 1 thread", "setup1", NumaPolicy.bind(0), 1, False, "triad"),
    ("local 2 threads", "setup1", NumaPolicy.bind(0), 2, False, "triad"),
    # multi-target policies: until the DES grew split reissue streams
    # these were solver-only; now both models cover them
    ("il DDR5+CXL", "setup1", NumaPolicy.interleave(0, 2), 10, False,
     "triad"),
    ("il 3-node", "setup1", NumaPolicy.interleave(0, 1, 2), 6, False,
     "triad"),
    ("weighted 3:1 DDR5:CXL", "setup1",
     NumaPolicy.weighted({0: 3, 2: 1}), 10, False, "triad"),
    # the Optane baseline (node 3): asymmetric media blended by the
    # kernel's read mix, so copy and triad see different capacities
    *[(f"{label} {kernel}", "setup1_with_dcpmm", policy, 10, app_direct,
       kernel)
      for kernel in ("copy", "triad")
      for label, policy, app_direct in (
          ("DCPMM NUMA", NumaPolicy.bind(3), False),
          ("DCPMM AD", NumaPolicy.bind(3), True),
          ("il DDR5+DCPMM", NumaPolicy.interleave(0, 3), False))],
]

#: analytic-vs-DES acceptance tolerance (uniform — see module docstring)
TOLERANCE = 0.05


def _validate_all(sim_ns: float = 200_000.0) -> dict[str,
                                                     tuple[float, float]]:
    testbeds = {"setup1": setup1(), "setup2": setup2(),
                "setup1_with_dcpmm": setup1_with_dcpmm()}
    out: dict[str, tuple[float, float]] = {}
    for label, tb_key, policy, n, app_direct, kernel in CONFIGS:
        m = testbeds[tb_key].machine
        cores = place_threads(m, n, sockets=[0])
        mode = AccessMode.APP_DIRECT if app_direct else AccessMode.NUMA
        analytic = simulate_stream(m, kernel, cores, policy,
                                   mode).reported_gbps
        des = simulate_stream_des(m, kernel, cores, policy,
                                  app_direct=app_direct,
                                  sim_ns=sim_ns).reported_gbps
        out[label] = (analytic, des)
    return out


def test_model_validation(benchmark, results_dir):
    data = benchmark(_validate_all)

    lines = ["=== model cross-validation: analytic vs discrete-event "
             "(reported GB/s; triad unless the label names a kernel) ===",
             f"{'configuration':<24}{'analytic':>10}{'DES':>10}{'dev':>8}"]
    worst = 0.0
    for label, (analytic, des) in data.items():
        dev = abs(des - analytic) / analytic
        worst = max(worst, dev)
        lines.append(f"{label:<24}{analytic:>10.2f}{des:>10.2f}"
                     f"{dev:>7.1%}")
    lines.append(f"worst-case deviation: {worst:.1%}")
    with open(os.path.join(results_dir, "model_validation.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    for label, (analytic, des) in data.items():
        assert des == pytest.approx(analytic, rel=TOLERANCE), label


def test_model_validation_long_window():
    """Tolerances hold at a 10x longer simulated window (the fast DES
    backend makes this affordable in a smoke run)."""
    for label, (analytic, des) in _validate_all(sim_ns=2_000_000.0).items():
        assert des == pytest.approx(analytic, rel=TOLERANCE), label


def test_des_reproduces_the_saturation_knee(benchmark):
    """The knee of the CXL curve (concurrency-limited → capacity-limited)
    lands at the same thread count in both models."""
    tb = setup1()
    m = tb.machine

    def knees():
        analytic_curve, des_curve = [], []
        for n in range(1, 9):
            cores = place_threads(m, n, sockets=[0])
            analytic_curve.append(simulate_stream(
                m, "triad", cores, NumaPolicy.bind(2)).reported_gbps)
            des_curve.append(simulate_stream_des(
                m, "triad", cores, NumaPolicy.bind(2)).reported_gbps)
        return analytic_curve, des_curve

    analytic_curve, des_curve = benchmark(knees)

    def knee(curve, sat_frac=0.98):
        ceiling = curve[-1]
        for i, v in enumerate(curve):
            if v >= sat_frac * ceiling:
                return i + 1
        return len(curve)

    assert knee(analytic_curve) == knee(des_curve)
