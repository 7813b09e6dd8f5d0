"""The discrete-event simulator and its agreement with the analytic model."""

import pytest

from repro import compiled
from repro.errors import SimulationError
from repro.machine.affinity import place_threads
from repro.machine.numa import NumaPolicy
from repro.machine.presets import setup1, setup1_with_dcpmm
from repro.memsim import des_jit
from repro.memsim.concurrency import PREFETCH_BOOST
from repro.memsim.des import DES_VECTORIZE_THRESHOLD, simulate_stream_des
from repro.memsim.engine import AccessMode, simulate_stream


def _both(tb, node, n, kernel="triad", app_direct=False, sockets=(0,),
          policy=None):
    m = tb.machine
    cores = place_threads(m, n, sockets=list(sockets))
    mode = AccessMode.APP_DIRECT if app_direct else AccessMode.NUMA
    policy = policy or NumaPolicy.bind(node)
    analytic = simulate_stream(m, kernel, cores, policy, mode).reported_gbps
    des = simulate_stream_des(m, kernel, cores, policy,
                              app_direct=app_direct).reported_gbps
    return analytic, des


@pytest.fixture(scope="module")
def tb_dcpmm():
    """Setup #1 plus the emulated Optane DCPMM node 3."""
    return setup1_with_dcpmm()


class TestAgreementWithAnalyticModel:
    @pytest.mark.parametrize("node,n", [
        (0, 1), (0, 2), (0, 4), (0, 10),
        (1, 1), (1, 4), (1, 10),
        (2, 1), (2, 2), (2, 4), (2, 10),
    ])
    def test_setup1_within_five_percent(self, tb1, node, n):
        analytic, des = _both(tb1, node, n)
        assert des == pytest.approx(analytic, rel=0.05), (node, n)

    @pytest.mark.parametrize("kernel", ["copy", "scale", "add", "triad"])
    def test_all_kernels_agree(self, tb1, kernel):
        analytic, des = _both(tb1, 2, 6, kernel=kernel)
        assert des == pytest.approx(analytic, rel=0.05)

    def test_app_direct_agrees(self, tb1):
        analytic, des = _both(tb1, 2, 8, app_direct=True)
        assert des == pytest.approx(analytic, rel=0.05)

    def test_setup2_remote_path(self, tb2):
        """The DES carries the engine's snoop weighting, so the Xeon Gold
        remote path now agrees within the standard tolerance."""
        analytic, des = _both(tb2, 1, 6)
        assert des == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("policy", [
        NumaPolicy.interleave(0, 2),
        NumaPolicy.interleave(0, 1, 2),
        NumaPolicy.weighted({0: 3, 2: 1}),
    ])
    def test_multi_target_policies_agree(self, tb1, policy):
        """Interleaved / weighted policies split each thread's reissue
        stream across routes; both models must land on the same figure."""
        m = tb1.machine
        cores = place_threads(m, 6, sockets=[0])
        analytic = simulate_stream(m, "triad", cores, policy,
                                   AccessMode.NUMA).reported_gbps
        des = simulate_stream_des(m, "triad", cores, policy).reported_gbps
        assert des == pytest.approx(analytic, rel=0.05)

    @pytest.mark.parametrize("kernel", ["copy", "triad"])
    @pytest.mark.parametrize("policy,n,app_direct", [
        (NumaPolicy.bind(3), 2, False), (NumaPolicy.bind(3), 10, False),
        (NumaPolicy.bind(3), 2, True), (NumaPolicy.bind(3), 10, True),
        (NumaPolicy.interleave(0, 3), 10, False),
    ], ids=["bind3-t2", "bind3-t10", "bind3-t2-ad", "bind3-t10-ad",
            "il03-t10"])
    def test_dcpmm_baseline_agrees(self, tb_dcpmm, kernel, policy, n,
                                   app_direct):
        """The Optane baseline's asymmetric media: both models blend its
        read and write rates by the kernel's read mix, so copy and triad
        land on the same figures."""
        analytic, des = _both(tb_dcpmm, None, n, kernel=kernel,
                              app_direct=app_direct, policy=policy)
        assert des == pytest.approx(analytic, rel=0.05)


class TestDesMechanics:
    def test_concurrency_limited_regime(self, tb1):
        """One thread on the CXL path: throughput ≈ MLP × 64B / latency."""
        m = tb1.machine
        cores = place_threads(m, 1, sockets=[0])
        r = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2))
        latency = m.route(0, 2).latency_ns
        expected = round(16 * PREFETCH_BOOST) * 64 / latency
        assert r.actual_gbps == pytest.approx(expected, rel=0.10)

    def test_saturation_pins_bottleneck_utilization(self, tb1):
        m = tb1.machine
        cores = place_threads(m, 10, sockets=[0])
        r = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2))
        assert r.station_utilization["cxl0.mc"] > 0.95
        assert r.station_utilization["cxl0.link"] < 0.5

    def test_symmetric_threads_share_fairly(self, tb1):
        m = tb1.machine
        cores = place_threads(m, 8, sockets=[0])
        r = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(0))
        rates = list(r.per_thread_gbps.values())
        assert max(rates) - min(rates) < 0.05 * max(rates)

    def test_mixed_paths_respect_bottlenecks(self, tb1):
        """Threads on both sockets targeting node 0: the shared memory
        controller (not the roomier UPI) binds everyone, so local and
        remote halves end up with near-equal shares summing to the MC
        capacity — the same outcome the max-min solver produces (the DES
        now applies the same snoop weighting to the remote half)."""
        m = tb1.machine
        cores = place_threads(m, 20)     # close: 10 local + 10 remote
        r = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(0))
        analytic = simulate_stream(m, "triad", cores, NumaPolicy.bind(0))
        local = sum(v for k, v in r.per_thread_gbps.items() if k < 10)
        remote = sum(v for k, v in r.per_thread_gbps.items() if k >= 10)
        assert local + remote == pytest.approx(analytic.actual_gbps,
                                               rel=0.05)
        assert remote == pytest.approx(local, rel=0.15)
        assert r.station_utilization["s0.mc"] > 0.95
        assert r.station_utilization["upi.1->0"] < 0.9

    def test_accounting_balance(self, tb1):
        """Every issued request is either completed or still outstanding
        when the window closes — nothing is silently dropped (the popped
        in-flight event used to vanish at the ``now > sim_ns`` break)."""
        m = tb1.machine
        for n, sim_ns in ((1, 50_000.0), (4, 73_123.4), (10, 200_000.0)):
            cores = place_threads(m, n, sockets=[0])
            for backend in ("scalar", "vector"):
                r = simulate_stream_des(m, "triad", cores,
                                        NumaPolicy.bind(2), sim_ns=sim_ns,
                                        warmup_ns=sim_ns / 10,
                                        des_backend=backend)
                assert r.total_issued == (r.total_completed
                                          + r.total_outstanding)
                assert r.total_outstanding == n * round(16 * PREFETCH_BOOST)

    def test_backend_dispatch_and_equivalence(self, tb1):
        """On a single route, auto uses the vector backend once the primed
        window reaches DES_VECTORIZE_THRESHOLD requests and the compiled
        loop (vector without a C compiler) below it; all agree exactly."""
        m = tb1.machine
        below = "compiled" if des_jit.available() else "vector"
        small = place_threads(m, 1, sockets=[0])    # 26 requests
        large = place_threads(m, 5, sockets=[0])    # 130 requests
        assert 26 < DES_VECTORIZE_THRESHOLD <= 130
        for cores, expected in ((small, below), (large, "vector")):
            results = {}
            for backend in ("auto", "scalar", "vector"):
                results[backend] = simulate_stream_des(
                    m, "triad", cores, NumaPolicy.bind(2),
                    des_backend=backend)
                if backend == "auto":
                    assert compiled.selected()["des"] == expected
            assert results["scalar"] == results["vector"]
            assert results["auto"] == results["scalar"]

    def test_validation_errors(self, tb1):
        m = tb1.machine
        cores = place_threads(m, 2, sockets=[0])
        with pytest.raises(SimulationError):
            simulate_stream_des(m, "triad", [], NumaPolicy.bind(0))
        with pytest.raises(SimulationError):
            simulate_stream_des(m, "triad", cores, NumaPolicy.bind(0),
                                sim_ns=100.0, warmup_ns=200.0)
        with pytest.raises(SimulationError):
            simulate_stream_des(m, "triad", cores, NumaPolicy.bind(0),
                                des_backend="simd")

    def test_oversubscribed_core_rejected(self, tb1):
        """Three threads on one 2-way SMT core fail in the DES as they do
        in the analytic engine (one in-flight rule serves both)."""
        m = tb1.machine
        core = m.socket(0).cores[0]
        placement = [core] * (core.smt + 1)
        with pytest.raises(SimulationError):
            simulate_stream(m, "triad", placement, NumaPolicy.bind(0))
        with pytest.raises(SimulationError):
            simulate_stream_des(m, "triad", placement, NumaPolicy.bind(0))

    def test_bad_calibration_rejected(self):
        """A machine carrying something other than a CalibrationProfile
        fails in the DES as it does in the analytic engine."""
        m = setup1().machine
        m.metadata["calibration"] = "bogus"
        cores = place_threads(m, 2, sockets=[0])
        with pytest.raises(SimulationError):
            simulate_stream(m, "triad", cores, NumaPolicy.bind(0))
        with pytest.raises(SimulationError):
            simulate_stream_des(m, "triad", cores, NumaPolicy.bind(0))

    def test_longer_simulation_converges(self, tb1):
        m = tb1.machine
        cores = place_threads(m, 4, sockets=[0])
        short = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                                    sim_ns=50_000.0,
                                    warmup_ns=10_000.0).reported_gbps
        long = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2),
                                   sim_ns=400_000.0,
                                   warmup_ns=80_000.0).reported_gbps
        assert long == pytest.approx(short, rel=0.05)

    def test_deterministic(self, tb1):
        m = tb1.machine
        cores = place_threads(m, 4, sockets=[0])
        a = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2))
        b = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2))
        assert a.reported_gbps == b.reported_gbps


class TestLoadedLatency:
    def test_idle_latency_at_one_thread(self, tb1):
        m = tb1.machine
        cores = place_threads(m, 1, sockets=[0])
        r = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2))
        assert r.mean_latency_ns == pytest.approx(
            m.route(0, 2).latency_ns, rel=0.02)

    def test_latency_grows_past_saturation(self, tb1):
        m = tb1.machine
        lat = []
        for n in (1, 4, 10):
            cores = place_threads(m, n, sockets=[0])
            lat.append(simulate_stream_des(
                m, "triad", cores, NumaPolicy.bind(2)).mean_latency_ns)
        assert lat[0] < lat[1] < lat[2]
        # the queueing tail dominates at full load
        assert lat[2] > 3 * lat[0]

    def test_littles_law_holds_in_the_des(self, tb1):
        """Throughput x latency = outstanding x 64B (Little's law) — an
        internal-consistency check the DES must satisfy exactly."""
        m = tb1.machine
        cores = place_threads(m, 6, sockets=[0])
        r = simulate_stream_des(m, "triad", cores, NumaPolicy.bind(2))
        mlp = round(16 * PREFETCH_BOOST)
        outstanding = 6 * mlp
        predicted = outstanding * 64 / r.mean_latency_ns
        assert r.actual_gbps == pytest.approx(predicted, rel=0.05)
