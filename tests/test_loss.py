import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from linphot import (
    InvalidParameterError,
    apply_bernoulli,
    from_pmf,
    make_fock,
    make_multimode_thermal,
    make_poisson,
    make_thermal,
    sample_m,
)
from linphot.loss import KERNEL_EPS, detected_as_source
from linphot.streams import substream
from oracles import UndefinedStatisticError, detected_fano

SOURCES = {
    "poisson": make_poisson(8.0),
    "thermal": make_thermal(6.0),
    "multimode": make_multimode_thermal(12.0, 4),
    "fock": make_fock(9),
    "bright": make_poisson(1e4),  # eta**m underflowed above ~1074 counts
}


# sources of every sampling path, each with its detected law from
# scipy.stats as a function of eta: a named family draws from its thinned
# law, a table (from_pmf, detected_as_source) by inverse CDF, then
# Binomial(n, eta)
LAW_SOURCES = {
    "poisson": (make_poisson(30.0), lambda eta: stats.poisson(eta * 30.0)),
    "thermal": (make_thermal(20.0), lambda eta: stats.nbinom(1, 1 / (1 + eta * 20.0))),
    "thermal40": (
        make_multimode_thermal(200.0, 40),
        lambda eta: stats.nbinom(40, 1 / (1 + eta * 200.0 / 40)),
    ),
    "fock": (make_fock(40), lambda eta: stats.binom(40, eta)),
    "table": (from_pmf([0.1, 0.0, 0.3, 0.05, 0.25, 0.0, 0.0, 0.3]), None),
    "detected": (
        detected_as_source(apply_bernoulli(make_multimode_thermal(60.0, 3), 0.7)),
        None,
    ),
}
LAW_NAMES = sorted(LAW_SOURCES)
LAW_ETAS = [0.0, 0.05, 0.5, 1.0]
LAW_SHOTS = 200_000


def chi_square_pvalue(m, pmf, min_expected=20.0):
    """Pearson chi-square p-value of the counts m against pmf.

    Cells with at least ``min_expected`` expected counts are kept; every
    other count, including any past the end of pmf, goes into one rest
    cell, which joins the last kept cell when it expects fewer.  A law
    with one cell is a point mass: the p-value is 1 if every count is in
    it and 0 otherwise.
    """
    n = m.size
    counts = np.bincount(m, minlength=pmf.size)[: pmf.size].astype(float)
    expected = n * pmf
    keep = np.flatnonzero(expected >= min_expected)
    obs, exp = counts[keep], expected[keep]
    rest_obs, rest_exp = n - obs.sum(), max(0.0, n - exp.sum())
    if rest_exp >= min_expected:
        obs, exp = np.append(obs, rest_obs), np.append(exp, rest_exp)
    else:
        obs[-1] += rest_obs
        exp[-1] += rest_exp
    if obs.size == 1:
        return float(obs[0] == n)
    return stats.chisquare(obs, exp * (n / exp.sum())).pvalue


def max_entry_gap(a, b):
    size = max(a.size, b.size)
    return np.max(np.abs(np.pad(a, (0, size - a.size)) - np.pad(b, (0, size - b.size))))


def test_fock1_half_efficiency_is_single_bernoulli_trial():
    det = apply_bernoulli(make_fock(1), 0.5)
    assert det.pmf[0] == pytest.approx(0.5, rel=1e-14)
    assert det.pmf[1] == pytest.approx(0.5, rel=1e-14)


def test_poisson_thinning_closure():
    det = apply_bernoulli(make_poisson(50.0), 0.2)
    assert max_entry_gap(det.pmf, make_poisson(10.0).pmf) < 1e-10


def test_thermal_thinning_closure():
    det = apply_bernoulli(make_thermal(10.0), 0.3)
    assert max_entry_gap(det.pmf, make_thermal(3.0).pmf) < 1e-10


def test_eta_one_is_identity():
    src = make_thermal(4.0)
    det = apply_bernoulli(src, 1.0)
    assert np.array_equal(det.pmf, src.pmf)


def test_eta_zero_collapses_to_vacuum():
    det = apply_bernoulli(make_poisson(12.0), 0.0)
    assert det.pmf[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(det.pmf[1:] == 0)
    assert det.mean_m == 0.0


@pytest.mark.parametrize("name", sorted(SOURCES))
@pytest.mark.parametrize("eta", [0.05, 0.2, 0.4, 0.6, 0.8, 1.0])
def test_mean_and_fano_identities(name, eta):
    src = SOURCES[name]
    det = apply_bernoulli(src, eta)
    assert det.mean_m == pytest.approx(eta * src.mean_n, rel=1e-9)
    if det.mean_m > 0:
        expected = eta * src.mandel_q + 1.0
        if expected == 0.0:  # fock at eta = 1: variance exactly zero
            assert detected_fano(det) == pytest.approx(0.0, abs=1e-12)
        else:
            assert detected_fano(det) == pytest.approx(expected, rel=1e-9)


def test_bright_poisson_thins_to_poisson():
    det = apply_bernoulli(make_poisson(1e4), 0.5)
    expected = stats.poisson.pmf(np.arange(det.pmf.size), 5000.0)
    assert np.max(np.abs(det.pmf - expected)) <= 1e-12


@pytest.mark.parametrize(
    "src",
    [make_thermal(1000.0), make_multimode_thermal(3000.0, 4)],
    ids=["thermal", "multimode"],
)
def test_bright_thermal_keeps_mass_and_mean(src):
    det = apply_bernoulli(src, 0.5)
    # thinning keeps at least the mass the truncated source had
    assert 1.0 - src.tail_mass - 1e-15 <= math.fsum(det.pmf) <= 1.0 + 1e-15
    assert det.tail_mass == pytest.approx(1.0 - math.fsum(det.pmf), abs=1e-15)
    assert det.mean_m == pytest.approx(0.5 * src.mean_n, rel=1e-9)


@pytest.mark.parametrize(
    "src", [make_poisson(1500.0), make_thermal(1000.0)], ids=["poisson", "thermal"]
)
def test_table_kernel_matches_closed_form(src):
    table = from_pmf(src.pmf)
    det = apply_bernoulli(table, 0.5)
    assert np.max(np.abs(det.pmf - apply_bernoulli(src, 0.5).pmf)) <= 1e-12
    assert abs(math.fsum(det.pmf) - 1.0) <= 1e-12


@pytest.mark.parametrize("eta", [0.01, 0.5, 0.99])
def test_table_kernel_is_exact_at_extreme_efficiencies(eta):
    # a 2000-photon Fock table: one kernel column, far into the range where
    # eta**m and (1 - eta)**n underflow; entries the kernel band leaves out
    # are below its dropped mass
    det = apply_bernoulli(from_pmf(make_fock(2000).pmf), eta)
    expected = stats.binom.pmf(np.arange(2001), 2000, eta)
    kept = expected >= KERNEL_EPS
    assert np.max(np.abs(det.pmf[kept] / expected[kept] - 1.0)) < 1e-12
    assert np.all(det.pmf[~kept] <= KERNEL_EPS)


@settings(max_examples=30, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=1.0),
    st.floats(min_value=0.05, max_value=1.0),
)
def test_composition_property(eta1, eta2):
    src = make_poisson(3.0)
    twice = apply_bernoulli(detected_as_source(apply_bernoulli(src, eta1)), eta2)
    once = apply_bernoulli(src, eta1 * eta2)
    assert max_entry_gap(twice.pmf, once.pmf) < 1e-10


def test_detected_fano_examples():
    assert detected_fano(apply_bernoulli(make_poisson(20.0), 0.37)) == pytest.approx(
        1.0, abs=1e-9
    )
    assert detected_fano(apply_bernoulli(make_thermal(10.0), 0.3)) == pytest.approx(
        4.0, abs=1e-8
    )
    assert detected_fano(apply_bernoulli(make_fock(5), 0.5)) == pytest.approx(
        0.5, abs=1e-9
    )


def test_errors():
    with pytest.raises(InvalidParameterError):
        apply_bernoulli(make_poisson(5.0), 1.2)
    with pytest.raises(InvalidParameterError):
        apply_bernoulli(make_poisson(5.0), -0.1)
    with pytest.raises(UndefinedStatisticError):
        detected_fano(apply_bernoulli(make_poisson(5.0), 0.0))


def test_m_max_inherits_parent_support():
    src = make_poisson(5.0)
    det = apply_bernoulli(src, 0.2)
    assert det.m_max == src.n_max
    assert det.pmf.size == src.pmf.size


class TestSampleM:
    def test_eta_zero_always_dark(self):
        m = sample_m(make_poisson(9.0), 0.0, substream(10), size=500)
        assert np.all(m == 0)

    @pytest.mark.parametrize("name", LAW_NAMES)
    def test_eta_one_draws_the_source_law(self, name):
        src, _ = LAW_SOURCES[name]
        m = sample_m(src, 1.0, substream(11, (LAW_NAMES.index(name),)), size=LAW_SHOTS)
        assert chi_square_pvalue(m, src.pmf) > 0.001

    def test_binomial_clt_mean(self):
        m = sample_m(make_fock(100), 0.25, substream(12), size=10**6)
        se = math.sqrt(18.75 / 10**6)  # var = 100 * 0.25 * 0.75
        assert m.mean() == pytest.approx(25.0, abs=5 * se)

    @pytest.mark.parametrize("eta", LAW_ETAS)
    @pytest.mark.parametrize("name", LAW_NAMES)
    def test_draws_follow_the_detected_law(self, name, eta):
        src, scipy_law = LAW_SOURCES[name]
        key = (LAW_NAMES.index(name), LAW_ETAS.index(eta))
        m = sample_m(src, eta, substream(14, key), size=LAW_SHOTS)
        assert chi_square_pvalue(m, apply_bernoulli(src, eta).pmf) > 0.001
        if scipy_law is not None:
            k = np.arange(max(src.n_max, m.max()) + 1)
            assert chi_square_pvalue(m, scipy_law(eta).pmf(k)) > 0.001

    @pytest.mark.parametrize(
        "src",
        [make_poisson(1e5), make_multimode_thermal(1e5, 40)],
        ids=["poisson", "thermal40"],
    )
    def test_bright_sample_mean_and_variance(self, src):
        # at <n> = 1e5 the chi-square cells are too many to fill; the first
        # two moments, each within 5 standard errors
        n = 10**5
        det = apply_bernoulli(src, 0.5)
        mu2, _, mu4, _ = det.central_moments
        m = sample_m(src, 0.5, substream(15), size=n).astype(float)
        assert abs(m.mean() - det.mean_m) <= 5 * math.sqrt(mu2 / n)
        assert abs(m.var(ddof=1) - mu2) <= 5 * math.sqrt((mu4 - mu2**2) / n)

    def test_marginal_law_chi_square(self):
        src = make_poisson(50.0)
        eta = 0.4
        n = 10**6
        m = sample_m(src, eta, substream(13), size=n)
        det = apply_bernoulli(src, eta)
        counts = np.bincount(m, minlength=det.pmf.size).astype(float)
        expected = n * det.pmf
        keep = expected >= 100
        obs = np.append(counts[keep], counts[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        obs *= exp.sum() / obs.sum()  # guard fp mass mismatch in chisquare
        _, pvalue = stats.chisquare(obs, exp)
        assert pvalue > 0.001
