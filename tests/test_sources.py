import ast
import math
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linphot import (
    InvalidParameterError,
    from_pmf,
    make_fock,
    make_multimode_thermal,
    make_poisson,
    make_thermal,
    sample_n,
)
from linphot import sources
from linphot.sources import DEFAULT_TAIL_EPS
from linphot.streams import substream
from oracles import mandel_q, validate


def tv_distance(a, b):
    size = max(a.size, b.size)
    a = np.pad(a, (0, size - a.size))
    b = np.pad(b, (0, size - b.size))
    return 0.5 * np.abs(a - b).sum()


class TestPoisson:
    def test_vacuum(self):
        d = make_poisson(0.0)
        assert d.pmf.tolist() == [1.0]
        assert mandel_q(d) is None
        assert d.mean_n == 0.0

    def test_mean50_is_poissonian(self):
        assert mandel_q(make_poisson(50.0)) == pytest.approx(0.0, abs=1e-10)

    def test_pmf5_direct_formula(self):
        # oracle: e^-5 5^5 / 5!
        expected = math.exp(-5) * 5**5 / math.factorial(5)
        assert expected == pytest.approx(0.1754673697678507, rel=1e-12)
        assert make_poisson(5.0).pmf[5] == pytest.approx(expected, rel=1e-10)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            make_poisson(-1.0)
        with pytest.raises(InvalidParameterError):
            make_poisson(float("nan"))
        with pytest.raises(InvalidParameterError):
            make_poisson(float("inf"))


class TestThermal:
    def test_vacuum(self):
        assert make_thermal(0.0).pmf.tolist() == [1.0]

    def test_mean1_geometric_halving(self):
        d = make_thermal(1.0)
        assert d.pmf[0] == pytest.approx(0.5, rel=1e-12)
        assert d.pmf[1] == pytest.approx(0.25, rel=1e-12)

    def test_mean10_mandel_q(self):
        assert mandel_q(make_thermal(10.0)) == pytest.approx(10.0, abs=1e-8)


class TestMultimodeThermal:
    def test_single_mode_identical_to_thermal(self):
        for mean in (0.5, 7.3, 40.0):
            a = make_thermal(mean)
            b = make_multimode_thermal(mean, 1)
            assert np.array_equal(a.pmf, b.pmf)

    def test_fifty_modes_unit_q(self):
        assert mandel_q(make_multimode_thermal(50.0, 50)) == pytest.approx(1.0, abs=1e-8)

    def test_many_modes_converges_to_poisson(self):
        d = make_multimode_thermal(50.0, 10**5)
        assert tv_distance(d.pmf, make_poisson(50.0).pmf) < 1e-3

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            make_multimode_thermal(5.0, 0)
        with pytest.raises(InvalidParameterError):
            make_multimode_thermal(5.0, 1.5)


class TestFock:
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_point_mass(self, n):
        d = make_fock(n)
        assert d.pmf[n] == 1.0
        assert d.mean_n == float(n)
        if n >= 1:
            assert mandel_q(d) == pytest.approx(-1.0, abs=1e-14)
        else:
            assert mandel_q(d) is None

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            make_fock(-1)
        with pytest.raises(InvalidParameterError):
            make_fock(2.5)


class TestFromPmf:
    def test_vacuum(self):
        assert from_pmf([1.0]).pmf.tolist() == [1.0]

    def test_normalizes(self):
        d = from_pmf([0.0, 2.0])
        assert d.pmf.tolist() == [0.0, 1.0]

    def test_uniform_four(self):
        d = from_pmf([1, 1, 1, 1])
        assert d.mean_n == pytest.approx(1.5)
        # mu2 = 1.25 by direct sum
        assert mandel_q(d) == pytest.approx((1.25 - 1.5) / 1.5, rel=1e-12)

    def test_errors(self):
        with pytest.raises(InvalidParameterError):
            from_pmf([0.0, 0.0])
        with pytest.raises(InvalidParameterError):
            from_pmf([1.0, -0.5])
        with pytest.raises(InvalidParameterError):
            from_pmf([1.0, float("inf")])
        with pytest.raises(InvalidParameterError):
            from_pmf([])


@pytest.mark.parametrize(
    "dist",
    [
        make_poisson(50.0),
        make_thermal(10.0),
        make_multimode_thermal(30.0, 5),
        make_fock(9),
        from_pmf([0.1, 0.4, 0.3, 0.2]),
    ],
    ids=["poisson", "thermal", "multimode", "fock", "table"],
)
def test_normalization_invariant(dist):
    total = math.fsum(dist.pmf)
    assert 1.0 - DEFAULT_TAIL_EPS - 1e-15 <= total <= 1.0 + 1e-15
    validate(dist)


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30).filter(
        lambda t: sum(t) > 0
    )
)
def test_from_pmf_properties(table):
    d = from_pmf(table)
    assert math.fsum(d.pmf) == pytest.approx(1.0, abs=1e-12)
    assert d.pmf[d.n_max] > 0  # trailing zeros stripped
    mean = sum(i * p for i, p in enumerate(d.pmf))
    assert d.mean_n == pytest.approx(mean, rel=1e-12, abs=1e-15)


class TestSampling:
    def test_vacuum_always_zero(self):
        d = make_poisson(0.0)
        assert np.all(sample_n(d, substream(1), size=100) == 0)

    def test_fock_always_n(self):
        d = make_fock(3)
        draws = sample_n(d, substream(2), size=1000)
        assert np.all(draws == 3)

    def test_poisson_clt_mean(self):
        d = make_poisson(50.0)
        draws = sample_n(d, substream(3), size=10**6)
        assert draws.mean() == pytest.approx(50.0, abs=5 * math.sqrt(50 / 10**6))

    @pytest.mark.parametrize(
        "dist", [make_poisson(50.0), make_thermal(10.0)], ids=["poisson", "thermal"]
    )
    def test_empirical_pmf_within_binomial_errors(self, dist):
        n = 10**6
        draws = sample_n(dist, substream(4), size=n)
        counts = np.bincount(draws, minlength=dist.n_max + 1)
        expected = n * dist.pmf
        check = expected >= 100
        err = np.sqrt(expected[check] * (1 - dist.pmf[check]))
        assert np.all(np.abs(counts[check] - expected[check]) <= 5 * err)


# Reference laws at 40 digits.  Upper tails P(X > k) are regularized
# incomplete gamma (Poisson) and beta (negative binomial) functions.
def poisson_pmf_mp(k, mean):
    mean = mpmath.mpf(mean)
    return mpmath.exp(k * mpmath.log(mean) - mean - mpmath.loggamma(k + 1))


def nbinom_pmf_mp(k, modes, x):
    x = mpmath.mpf(x)
    log_c = mpmath.loggamma(k + modes) - mpmath.loggamma(modes) - mpmath.loggamma(k + 1)
    return mpmath.exp(log_c + k * mpmath.log(x / (1 + x)) - modes * mpmath.log1p(x))


def binom_pmf_mp(k, n, p):
    p = mpmath.mpf(p)
    log_c = mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
    return mpmath.exp(log_c + k * mpmath.log(p) + (n - k) * mpmath.log1p(-p))


def poisson_tail_mp(k, mean):
    return mpmath.gammainc(k + 1, 0, mean, regularized=True)


def nbinom_tail_mp(k, modes, mean):
    x = mpmath.mpf(mean) / modes
    return mpmath.betainc(k + 1, modes, 0, x / (1 + x), regularized=True)


def probe_points(mean, sd, top):
    """The mean and mean +- 5 and 20 sd, clipped to 0..top."""
    return sorted({min(max(round(mean + z * sd), 0), top) for z in (0, -5, 5, -20, 20)})


def assert_matches_mp(values, ks, reference):
    with mpmath.workdps(40):
        for k, value in zip(ks, values):
            expected = reference(k)
            assert abs(value / expected - 1) <= 1e-13, (k, value, float(expected))


@pytest.mark.parametrize("mean", [3.0, 100.0, 1e4, 1e6])
def test_poisson_law_matches_mpmath(mean):
    ks = probe_points(mean, math.sqrt(mean), 2 * int(mean) + 200)
    values = sources._poisson_pmf(np.array(ks), mean)
    assert_matches_mp(values, ks, partial(poisson_pmf_mp, mean=mean))


@pytest.mark.parametrize("modes,mean", [(1, 10.0), (1, 1e3), (40, 1e5), (40, 1e6)])
def test_nbinom_law_matches_mpmath(modes, mean):
    x = mean / modes
    ks = probe_points(mean, math.sqrt(mean * (1 + x)), 10 * int(mean))
    pmf = sources._nbinom_law(modes, mean).pmf
    assert_matches_mp(pmf(np.array(ks)), ks, partial(nbinom_pmf_mp, modes=modes, x=x))


@pytest.mark.parametrize("eta", [0.01, 0.5, 0.99])
@pytest.mark.parametrize("n", [100, 10**4, 10**6])
def test_fock_thinning_matches_mpmath(n, eta):
    ks = probe_points(n * eta, math.sqrt(n * eta * (1 - eta)), n)
    values = sources._on_grid(sources._binom_law(n, eta), n)[ks]
    assert_matches_mp(values, ks, partial(binom_pmf_mp, n=n, p=eta))


@pytest.mark.parametrize("eps", [1e-12, 1e-40])
@pytest.mark.parametrize(
    "mean,modes",
    [(100.0, None), (1400.0, None), (1e4, None), (1e5, None), (100.0, 1), (1e4, 1), (1e5, 40)],
    ids=["poisson-1e2", "poisson-1400", "poisson-1e4", "poisson-1e5", "thermal-1e2", "thermal-1e4", "thermal40-1e5"],
)
def test_the_mass_past_the_cut_is_at_most_eps(mean, modes, eps):
    # n_max is the farthest photon number whose Chernoff bound is at most
    # -log(eps), so the exact mass past it is below eps
    if modes is None:
        dist, tail = make_poisson(mean, eps), partial(poisson_tail_mp, mean=mean)
    else:
        dist, tail = make_multimode_thermal(mean, modes, eps), partial(nbinom_tail_mp, modes=modes, mean=mean)
    bound = dist._law(1.0).bound
    assert bound(dist.n_max) <= -math.log(eps) < bound(dist.n_max + 1)
    with mpmath.workdps(40):
        assert tail(dist.n_max) <= eps
    validate(dist, eps)


NAMED_SOURCES = {
    "poisson-0": lambda: make_poisson(0.0),
    "poisson-1e2": lambda: make_poisson(100.0),
    "poisson-1e5-eps-1e-40": lambda: make_poisson(1e5, 1e-40),
    "thermal-0": lambda: make_thermal(0.0),
    "thermal-50": lambda: make_thermal(50.0),
    "thermal3-200": lambda: make_multimode_thermal(200.0, 3),
    "thermal40-1e5": lambda: make_multimode_thermal(1e5, 40),
    "fock-0": lambda: make_fock(0),
    "fock-300": lambda: make_fock(300),
}


@pytest.mark.parametrize("name", sorted(NAMED_SOURCES))
def test_a_named_source_is_its_law_on_its_grid(name):
    dist = NAMED_SOURCES[name]()
    assert dist.pmf.tobytes() == sources._on_grid(dist._law(1.0), dist.n_max).tobytes()


def test_a_bright_single_mode_thermal_source_is_admitted():
    # a mean past 2.3e5 needs the cut at the bound itself: at eps 0.5 it is
    # at 2.7 <n>, and 40 nats further (45 <n>) passes MAX_N_MAX
    dist = make_thermal(5e5, tail_eps=0.5)
    assert dist.n_max == 1339174
    validate(dist, 0.5)


def test_the_single_mode_thermal_ceiling_is_named():
    with pytest.raises(
        InvalidParameterError,
        match=r"^a source of mean 530000 is too large to tabulate: its PMF reaches photon number "
        r"1\.70129e\+07, past MAX_N_MAX = 16777216$",
    ):
        make_thermal(5.3e5)


def test_one_table_evaluator():
    # every table is _on_grid's: no second evaluator of a law's PMF
    package = Path(sources.__file__).parent
    callers = [
        (path.name, function.name)
        for path in sorted(package.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if (isinstance(node, ast.Name) and node.id == "_evaluate")
        or (isinstance(node, ast.Attribute) and node.attr == "_evaluate")
    ]
    assert callers == [("sources.py", "_on_grid")]
