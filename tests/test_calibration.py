import math
import sys
import threading
import time

import numpy as np
import pytest

import linphot.calibration as calibration
import linphot.pipeline as pipeline
from linphot import (
    DarkNoiseModel,
    EtaSeriesPoint,
    InvalidParameterError,
    VoltageEnsemble,
    analytic_voltage_moments,
    apply_bernoulli,
    eta_point_from_samples,
    fit_fano_line,
    gain_scaling_check,
    make_fock,
    make_gain,
    make_poisson,
    make_thermal,
    mean_constancy_check,
    sample_moments,
    self_consistency_check,
    simulate_ensemble,
)
from linphot.calibration import iter_ensembles, sweep_draws
from linphot.config import from_dict
from linphot.moments import _SUM_BLOCK
from linphot.streams import DARK, ETA_SERIES, RECONSTRUCTION
from oracles import default_eta_series, fsum_eta_point, simulated_points

GAIN = 100.0


def synthetic_points(slope, intercept, xs, se=1.0):
    return [
        EtaSeriesPoint(
            eta=0.1 * (i + 1),
            mean_v=x,
            fano_v=intercept + slope * x,
            se_mean_v=1.0,
            se_fano_v=se,
            n_samples=1000,
        )
        for i, x in enumerate(xs)
    ]


class TestEtaPoint:
    def test_hand_statistics(self):
        point = eta_point_from_samples(0.5, [100.0, 200.0, 300.0], dark_variance=0.0)
        assert point.mean_v == pytest.approx(200.0)
        # mu2 = (100^2 + 0 + 100^2)/3
        assert point.fano_v == pytest.approx((20000.0 / 3) / 200.0)
        assert point.se_mean_v == pytest.approx(math.sqrt(20000.0 / 3 / 3))
        # d = (-100, 0, 100) and F = 100/3 give d (d - F) = (40000/3, 0, 20000/3),
        # whose plug-in sd (20000/3) sqrt(2/3) over 200 sqrt(3) is 100 sqrt(2) / 9
        assert point.se_fano_v == pytest.approx(100.0 * math.sqrt(2.0) / 9.0, rel=1e-12)

    def test_dark_subtraction(self):
        rng = np.random.default_rng(41)
        x = rng.normal(50.0, 3.0, 20000)
        point = eta_point_from_samples(0.2, x, dark_variance=4.0)
        assert point.fano_v == pytest.approx((np.var(x) - 4.0) / x.mean(), rel=1e-9)
        assert point.se_fano_v > 0

    def test_a_radicand_rounding_below_zero_gives_a_zero_se(self):
        # F = 0 leaves mu4 - mu2^2, which rounds to -4.2e-22 on this two-point
        # ensemble; np.std of d (d - F) is 0 there, and so is the moment form
        x = [81.73214424133191, 81.80685947473147] * 2
        dark_variance = sample_moments(x, order=2).central[0]
        assert eta_point_from_samples(0.5, x, dark_variance).se_fano_v == 0.0
        assert fsum_eta_point(0.5, x, dark_variance).se_fano_v == 0.0

    def test_too_few_samples(self):
        with pytest.raises(InvalidParameterError):
            eta_point_from_samples(0.1, [1.0])

    @pytest.mark.parametrize("samples", [[-1.0, 1.0], [0.0] * 5], ids=["symmetric", "zeros"])
    def test_a_zero_mean_names_eta(self, samples):
        # the fano ratio (mu2 - D) / mean divided by zero
        with pytest.raises(InvalidParameterError, match=r"eta=0\.3: the mean voltage is exactly 0"):
            eta_point_from_samples(0.3, samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_raise(self, bad):
        # a raw array with NaN used to give an all-NaN point
        with pytest.raises(InvalidParameterError, match="finite"):
            eta_point_from_samples(0.5, [100.0, bad, 300.0])


def test_a_reconstruction_reduces_its_ensemble_as_a_sweep_point(monkeypatch):
    # mean_v and the SE of mean_v that the self-consistency tolerance takes
    # are a sweep point's, bit for bit, on the same samples
    samples = np.random.default_rng(11).normal(1000.0, 40.0, 100_001)
    seen = {}

    def spy(result, mean_v, **kwargs):
        seen.update(kwargs)
        return self_consistency_check(result, mean_v, **kwargs)

    monkeypatch.setattr(pipeline, "self_consistency_check", spy)
    ensemble = VoltageEnsemble(samples=samples, eta=0.5, n_samples=samples.size, seed=0)
    metrics = pipeline.reconstruction_metrics(ensemble, 100.0, 0.0, "given")[1]
    point = eta_point_from_samples(0.5, samples)
    assert metrics.mean_v.hex() == point.mean_v.hex()
    assert seen["se_mean_v"].hex() == point.se_mean_v.hex()


def exact_se_fano(source, eta, gain, dark, n):
    """The delta-method SE of fano_v from the exact voltage moments."""
    mset = analytic_voltage_moments(apply_bernoulli(source, eta), gain, dark, order=4)
    mu2, mu3, mu4 = (mset.central_moment(r) for r in (2, 3, 4))
    fano = (mu2 - dark.sigma0**2) / mset.mean
    return math.sqrt((mu4 - mu2**2 - 2 * fano * mu3 + fano**2 * mu2) / n) / abs(mset.mean)


class TestFanoStandardError:
    # ``scatter`` is the between-seed relative sd of se_fano_v (300 seeds)
    @pytest.mark.parametrize("eta", [0.05, 0.5])
    @pytest.mark.parametrize(
        "source,gain,n,scatter",
        [
            (make_poisson(100.0), make_gain("gaussian", GAIN, 2.0), 3 * 10**4, 0.013),
            (make_thermal(100.0), make_gain("gamma", GAIN, 5.0), 10**4, 0.084),
        ],
        ids=["poisson", "thermal"],
    )
    def test_matches_exact_moments(self, source, gain, n, scatter, eta):
        dark = DarkNoiseModel(10.0)
        ens = simulate_ensemble(source, eta, gain, dark, n, seed=31)
        point = eta_point_from_samples(eta, ens.samples, dark_variance=dark.sigma0**2)
        exact = exact_se_fano(source, eta, gain, dark, n)
        assert point.se_fano_v == pytest.approx(exact, rel=5 * scatter)

    def test_covers_the_spread_of_fano_v(self):
        src = make_poisson(100.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        points = [
            eta_point_from_samples(
                0.5, simulate_ensemble(src, 0.5, gain, dark, 10**4, seed).samples, 100.0
            )
            for seed in range(200)
        ]
        empirical = np.std([p.fano_v for p in points], ddof=1)
        mean_se = np.mean([p.se_fano_v for p in points])
        # 200 ensembles give the sd to about 6%, so 0.25 is 4 of its SEs
        assert empirical / mean_se == pytest.approx(1.0, abs=0.25)


class TestFitFanoLine:
    def test_exact_line_recovered(self):
        pts = synthetic_points(0.3, 7.0, [10.0, 25.0, 40.0, 80.0])
        fit = fit_fano_line(pts)
        assert fit.slope == pytest.approx(0.3, abs=1e-12)
        assert fit.intercept == pytest.approx(7.0, abs=1e-12)
        assert fit.chi2_dof == pytest.approx(0.0, abs=1e-12)
        assert fit.valid

    def test_weighting_prefers_precise_points(self):
        pts = synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0])
        noisy = EtaSeriesPoint(0.9, 40.0, 500.0, 1.0, 1e9, 1000)
        fit = fit_fano_line(list(pts) + [noisy])
        assert fit.intercept == pytest.approx(10.0, abs=1e-6)

    def test_negative_intercept_flagged_not_clamped(self):
        pts = synthetic_points(1.0, -5.0, [10.0, 20.0, 30.0])
        fit = fit_fano_line(pts)
        assert not fit.valid
        assert fit.intercept == pytest.approx(-5.0, abs=1e-10)

    def test_spread_correction(self):
        pts = synthetic_points(0.0, 101.0, [10.0, 20.0, 30.0])
        fit = fit_fano_line(pts, sigma2_rel=0.01)
        assert fit.gamma_bar_corrected == pytest.approx(101.0 / 1.01, rel=1e-12)

    def test_errors(self):
        pts = synthetic_points(0.3, 7.0, [10.0, 25.0, 40.0])
        with pytest.raises(InvalidParameterError, match="need at least 3 points"):
            fit_fano_line(pts[:2])
        degenerate = synthetic_points(0.0, 7.0, [10.0, 10.0, 10.0])
        with pytest.raises(InvalidParameterError, match="all mean_v values coincide"):
            fit_fano_line(degenerate)
        bad_se = synthetic_points(0.3, 7.0, [10.0, 25.0, 40.0], se=0.0)
        with pytest.raises(InvalidParameterError):
            fit_fano_line(bad_se)


class TestRunEtaSeries:
    """The simulated sweep, and the design checks of the gain-scaling check's re-simulation."""

    def test_preconditions(self):
        src = make_poisson(10.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        baseline = fit_fano_line(synthetic_points(0.0, GAIN, [10.0, 30.0, 50.0]))
        etas = [p.eta for p in baseline.points]

        def check(eta_list, n_samples):
            gain_scaling_check(src, gain, dark, eta_list, [2.0], n_samples, seed=1, baseline=baseline)

        with pytest.raises(InvalidParameterError, match="need at least 3 distinct eta values"):
            check([0.5, 0.5, 0.5], 10**4)
        with pytest.raises(InvalidParameterError, match=r"eta_list\[2\]: must be in \(0, 1\]"):
            check([0.1, 0.5, 1.5], 10**4)
        with pytest.raises(InvalidParameterError, match="n_samples must be >= 10000"):
            check(etas, 100)

    def test_coherent_fano_flat(self):
        src = make_poisson(100.0)
        pts = simulated_points(
            src, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
            [0.1, 0.2, 0.3, 0.4, 0.5], 2 * 10**4, seed=2,
        )
        fit = fit_fano_line(pts)
        assert abs(fit.slope) < 3 * fit.slope_se

    def test_thermal_mean_doubles_with_eta(self):
        src = make_thermal(50.0)
        pts = simulated_points(
            src, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
            [0.2, 0.4, 0.6], 5 * 10**4, seed=3,
        )
        ratio = pts[1].mean_v / pts[0].mean_v
        se = ratio * math.sqrt(
            (pts[1].se_mean_v / pts[1].mean_v) ** 2 + (pts[0].se_mean_v / pts[0].mean_v) ** 2
        )
        assert ratio == pytest.approx(2.0, abs=5 * se)

    def test_fock_noiseless_fano_line(self):
        src = make_fock(10)
        pts = simulated_points(
            src, make_gain("gaussian", GAIN, 0.0), DarkNoiseModel(0.0),
            [0.2, 0.5, 0.8], 5 * 10**4, seed=4,
        )
        for p in pts:
            assert p.fano_v == pytest.approx(GAIN * (1 - p.eta), abs=5 * p.se_fano_v)


SWEEP = (make_poisson(20.0), make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0))
SWEEP_ETAS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
SWEEP_DRAWS = sweep_draws(SWEEP_ETAS, 2000)


def set_cores(monkeypatch, cores):
    """Make the ensemble streams see ``cores`` usable cores, so they run that many workers."""
    monkeypatch.setattr(calibration.os, "sched_getaffinity", lambda pid: set(range(cores)))


def new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


class TestSweepPool:
    """``iter_ensembles`` draws a sweep's ensembles on one thread per core and yields them in sweep order."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 16])
    def test_each_point_is_the_serial_point(self, monkeypatch, cores):
        # the stream yields ensembles only: each is the serial draw of its point
        set_cores(monkeypatch, cores)
        got = list(iter_ensembles(*SWEEP, SWEEP_DRAWS, seed=5))
        assert len(got) == len(SWEEP_ETAS)
        source, gain, dark = SWEEP
        for i, (eta, ens) in enumerate(zip(SWEEP_ETAS, got)):
            serial = simulate_ensemble(source, eta, gain, dark, 2000, 5, stream_key=(ETA_SERIES, i))
            assert ens.eta == eta and np.array_equal(ens.samples, serial.samples)

    @pytest.mark.parametrize("cores", [1, 3])
    def test_never_more_jobs_than_workers_at_once(self, monkeypatch, cores):
        set_cores(monkeypatch, cores)
        lock = threading.Lock()
        running = peak = started = 0

        def counted(*args, **kwargs):
            nonlocal running, peak, started
            with lock:
                running += 1
                started += 1
                peak = max(peak, running)
            try:
                time.sleep(0.02)  # long enough for every worker to start a job
                return simulate_ensemble(*args, **kwargs)
            finally:
                with lock:
                    running -= 1

        monkeypatch.setattr(calibration, "simulate_ensemble", counted)
        etas = []
        ahead = 0
        for j, ens in enumerate(iter_ensembles(*SWEEP, SWEEP_DRAWS, seed=5)):
            time.sleep(0.03)  # a slow consumer: the workers must not run ahead of it
            consumed = j + 1  # the point held here is consumed
            with lock:
                # one job on each worker and one finished result waiting its turn
                assert started <= consumed + cores + 1
                ahead = max(ahead, started - consumed)
            etas.append(ens.eta)
        assert etas == SWEEP_ETAS
        assert peak == cores
        assert ahead == cores + 1

    @pytest.mark.parametrize("k", [0, 3, 7])
    def test_an_error_at_point_k_follows_the_points_before_it(self, monkeypatch, k):
        set_cores(monkeypatch, 2)

        def failing(*args, stream_key, **kwargs):
            if stream_key[-1] == k:
                raise InvalidParameterError(f"point {k}")
            return simulate_ensemble(*args, stream_key=stream_key, **kwargs)

        monkeypatch.setattr(calibration, "simulate_ensemble", failing)
        before = threading.enumerate()
        etas = []
        with pytest.raises(InvalidParameterError, match=f"point {k}"):
            for ens in iter_ensembles(*SWEEP, SWEEP_DRAWS, seed=5):
                etas.append(ens.eta)
        assert etas == SWEEP_ETAS[:k]
        assert new_threads(before) == []

    def test_closing_after_the_first_point_leaves_no_thread(self, monkeypatch):
        set_cores(monkeypatch, 2)
        before = threading.enumerate()
        sweep = iter_ensembles(*SWEEP, SWEEP_DRAWS, seed=5)
        assert next(sweep).eta == SWEEP_ETAS[0]
        assert new_threads(before)  # the pool is still drawing the next points
        sweep.close()
        assert new_threads(before) == []

    def test_without_an_affinity_call_the_cpu_count_sets_the_workers(self, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        expected = list(iter_ensembles(*SWEEP, SWEEP_DRAWS, seed=5))
        monkeypatch.delattr(calibration.os, "sched_getaffinity")
        got = list(iter_ensembles(*SWEEP, SWEEP_DRAWS, seed=5))
        assert [ens.samples.tobytes() for ens in got] == [ens.samples.tobytes() for ens in expected]

    def test_many_tiny_jobs_on_more_workers_than_cores_arrive_in_order(self):
        n = 5000
        got = []

        def job(x):
            if x % 7 == 0:
                time.sleep(0)  # hand the interpreter to another thread mid-stream
            return x * x

        def consume():
            got.extend(calibration._in_order(job, range(n), workers=8))

        before = threading.enumerate()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            consumer.join(timeout=60)
            assert not consumer.is_alive(), "the stream stalled"
        finally:
            sys.setswitchinterval(interval)
        assert got == [x * x for x in range(n)]
        assert new_threads(before) == []


RUN = {
    "schema_version": 1,
    "source": {"kind": "poisson", "mean": 20.0},
    "gain": {"family": "gaussian", "gamma_bar": GAIN, "sigma": 2.0},
    "dark": {"sigma0": 10.0},
    "eta_series": [0.1, 0.3, 0.5],
    "n_samples": 10_000,
    "reconstruct_eta": 0.4,
    "reconstruction_n_samples": 3000,
    "seed": 5,
}
# run's stream: the dark record, the sweep, then the reconstruction ensemble
RUN_KEYS = [(DARK,)] + [(ETA_SERIES, i) for i in range(3)] + [(RECONSTRUCTION,)]
RUN_NAMES = [
    "dark.npy",
    "ensemble_00_eta_0.100000.npy",
    "ensemble_01_eta_0.300000.npy",
    "ensemble_02_eta_0.500000.npy",
    "reconstruction_eta_0.400000.npy",
]


def record_writes(monkeypatch, fail_at=None):
    """Record the names ``pipeline.write_ensemble`` writes, in order; raise OSError at write ``fail_at``."""
    written = []
    real = pipeline.write_ensemble

    def write(path, ens, sha):
        if len(written) == fail_at:
            raise OSError("disk full")
        written.append(path.name)
        return real(path, ens, sha)

    monkeypatch.setattr(pipeline, "write_ensemble", write)
    return written


class TestRunStream:
    """``run`` draws the dark record, the sweep and the reconstruction ensemble in one ordered stream."""

    @pytest.mark.parametrize("cores", [1, 2, 3, 16])
    def test_each_ensemble_is_the_serial_ensemble_in_order(self, tmp_path, monkeypatch, cores):
        set_cores(monkeypatch, cores)
        written = record_writes(monkeypatch)
        models = pipeline.Models(from_dict(RUN))
        dark_moments, points, rec_ens, files = pipeline.simulate_sweep(models, tmp_path, reconstruction=True)
        assert written == RUN_NAMES
        source, gain, dark = models.source, models.gain, models.dark
        serial = simulate_ensemble(source, 0.0, gain, dark, 10_000, 5, stream_key=(DARK,))
        assert np.load(files["dark"]).tobytes() == serial.samples.tobytes()
        assert dark_moments == sample_moments(serial.samples, order=2)
        serial = simulate_ensemble(source, 0.4, gain, dark, 3000, 5, stream_key=(RECONSTRUCTION,))
        assert rec_ens.samples.tobytes() == serial.samples.tobytes()
        for i, (eta, point) in enumerate(zip(RUN["eta_series"], points)):
            serial = simulate_ensemble(source, eta, gain, dark, 10_000, 5, stream_key=(ETA_SERIES, i))
            # zero-set by the dark record's measured mean, reduced with its measured variance
            zeroed = serial.samples - dark_moments.mean
            assert point == eta_point_from_samples(eta, zeroed, dark_variance=dark_moments.central_moment(2))
            assert np.load(files[f"ensemble_{i}"]).tobytes() == serial.samples.tobytes()

    @pytest.mark.parametrize("k", range(len(RUN_KEYS)))
    def test_an_error_at_ensemble_k_follows_the_ensembles_before_it(self, tmp_path, monkeypatch, k):
        set_cores(monkeypatch, 2)
        written = record_writes(monkeypatch)

        def failing(*args, stream_key, **kwargs):
            if stream_key == RUN_KEYS[k]:
                raise InvalidParameterError(f"ensemble {k}")
            return simulate_ensemble(*args, stream_key=stream_key, **kwargs)

        monkeypatch.setattr(calibration, "simulate_ensemble", failing)
        before = threading.enumerate()
        with pytest.raises(InvalidParameterError, match=f"ensemble {k}"):
            pipeline.simulate_sweep(pipeline.Models(from_dict(RUN)), tmp_path, reconstruction=True)
        assert written == RUN_NAMES[:k]
        assert new_threads(before) == []

    def test_a_failed_first_write_leaves_no_thread(self, tmp_path, monkeypatch):
        set_cores(monkeypatch, 2)
        written = record_writes(monkeypatch, fail_at=1)
        before = threading.enumerate()
        with pytest.raises(OSError, match="disk full") as excinfo:
            pipeline.simulate_sweep(pipeline.Models(from_dict(RUN)), tmp_path, reconstruction=True)
        assert written == ["dark.npy"]
        # excinfo keeps the traceback alive, and with it the frame that holds the stream
        assert excinfo.traceback
        assert new_threads(before) == []


class TestSlopeSign:
    @pytest.mark.parametrize(
        "source,sign",
        [(make_poisson(100.0), 0), (make_thermal(50.0), 1), (make_fock(50), -1)],
        ids=["coherent", "thermal", "fock"],
    )
    def test_mandel_classification(self, source, sign):
        pts = simulated_points(
            source, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
            default_eta_series(0.5, 6), 2 * 10**4, seed=5,
        )
        fit = fit_fano_line(pts)
        z = fit.slope / fit.slope_se
        if sign == 0:
            assert abs(z) < 3
        elif sign > 0:
            assert z > 3
        else:
            assert z < -3


def test_intercept_invariant_under_eta_subrange():
    src = make_poisson(100.0)
    pts = simulated_points(
        src, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
        default_eta_series(0.5, 10), 2 * 10**4, seed=6,
    )
    full = fit_fano_line(pts)
    for sub in (pts[:6], pts[4:]):
        part = fit_fano_line(sub)
        combined = math.sqrt(full.intercept_se**2 + part.intercept_se**2)
        assert abs(part.intercept - full.intercept) < 3 * combined


def test_intercept_bias_and_correction():
    sigma_rel = 0.1  # inflation (1 + 0.01)
    src = make_poisson(100.0)
    pts = simulated_points(
        src, make_gain("gaussian", GAIN, sigma_rel * GAIN), DarkNoiseModel(10.0),
        default_eta_series(0.5, 10), 10**5, seed=7,
    )
    fit = fit_fano_line(pts, sigma2_rel=sigma_rel**2)
    assert fit.intercept == pytest.approx(GAIN * 1.01, abs=3 * fit.intercept_se)
    assert fit.gamma_bar_corrected == pytest.approx(GAIN, abs=3 * fit.intercept_se)


class TestMeanConstancy:
    def test_clean_chain_passes(self):
        src = make_poisson(100.0)
        etas = default_eta_series(0.5, 6)
        pts = simulated_points(
            src, make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
            etas, 2 * 10**4, seed=8,
        )
        fit = fit_fano_line(pts, sigma2_rel=4e-4)
        report = mean_constancy_check(
            pts, fit.intercept, [e * 100.0 for e in etas], sigma2_rel=4e-4
        )
        assert report.passed
        for row in report.rows:
            assert 99.0 < row.ratio < 101.0

    def test_saturating_detector_fails(self):
        src = make_poisson(100.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        etas = default_eta_series(0.5, 6)
        vmax = 3000.0
        pts = []
        for i, eta in enumerate(etas):
            ens = simulate_ensemble(src, eta, gain, dark, 2 * 10**4, seed=9, stream_key=(9, i))
            clipped = vmax * np.tanh(ens.samples / vmax)  # nonlinear response
            pts.append(eta_point_from_samples(eta, clipped, dark_variance=100.0))
        report = mean_constancy_check(pts, GAIN, [e * 100.0 for e in etas])
        assert not report.passed

    def test_reference_length_mismatch(self):
        pts = synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0])
        with pytest.raises(InvalidParameterError):
            mean_constancy_check(pts, 10.0, [1.0, 2.0])


class TestGainScaling:
    def test_unity_factor_exact_and_doubling_within_se(self):
        src = make_poisson(60.0)
        gain = make_gain("gaussian", GAIN, 2.0)
        dark = DarkNoiseModel(10.0)
        etas = default_eta_series(0.5, 5)
        baseline = fit_fano_line(simulated_points(src, gain, dark, etas, 2 * 10**4, seed=10))
        report = gain_scaling_check(
            src, gain, dark, etas, [1.0, 2.0], 2 * 10**4, seed=10, baseline=baseline,
        )
        row1, row2 = report.rows
        assert report.baseline_intercept == baseline.intercept
        assert report.baseline_intercept_se == baseline.intercept_se
        assert row1.ratio == 1.0 and row1.passed
        assert row2.passed and abs(row2.ratio - 2.0) <= 3 * row2.ratio_se
        assert all(c.passed for c in report.mean_constancy)

    def test_invalid_factor(self):
        with pytest.raises(InvalidParameterError):
            gain_scaling_check(
                make_poisson(10.0), make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0),
                [0.1, 0.3, 0.5], [0.0], 10**4, seed=11,
                baseline=fit_fano_line(synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0])),
            )

    def test_baseline_must_be_valid_and_match_the_sweep(self):
        args = (make_poisson(10.0), make_gain("gaussian", GAIN, 2.0), DarkNoiseModel(10.0))
        etas = [p.eta for p in synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0])]
        negative = fit_fano_line(synthetic_points(0.0, -10.0, [10.0, 20.0, 30.0]))
        with pytest.raises(InvalidParameterError, match="invalid"):
            gain_scaling_check(*args, etas, [2.0], 10**4, seed=12, baseline=negative)
        valid = fit_fano_line(synthetic_points(0.0, 10.0, [10.0, 20.0, 30.0]))
        with pytest.raises(InvalidParameterError, match="efficiencies"):
            gain_scaling_check(*args, [0.1, 0.3, 0.5], [2.0], 10**4, seed=12, baseline=valid)


def test_eta_point_is_the_fsum_point_over_three_blocks():
    # the oracle's fano SE is np.std of d (d - F), the package's a closed form
    # of the same exact moments: equal to rounding, the rest bit for bit
    gain, dark = make_gain("gaussian", GAIN, 5.0), DarkNoiseModel(10.0)
    ens = simulate_ensemble(make_poisson(2000.0), 0.5, gain, dark, 3 * _SUM_BLOCK + 17, 7)
    point, want = eta_point_from_samples(0.5, ens.samples, 100.0), fsum_eta_point(0.5, ens.samples, 100.0)
    assert point._replace(se_fano_v=0.0) == want._replace(se_fano_v=0.0)
    assert point.se_fano_v == pytest.approx(want.se_fano_v, rel=1e-12, abs=0)
