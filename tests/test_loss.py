import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from linphot import (
    InvalidParameterError,
    UndefinedStatisticError,
    apply_bernoulli,
    detected_fano,
    from_pmf,
    make_fock,
    make_multimode_thermal,
    make_poisson,
    make_thermal,
    sample_m,
    sample_n,
)
from linphot.loss import KERNEL_EPS, detected_as_source
from linphot.streams import substream

SOURCES = {
    "poisson": make_poisson(8.0),
    "thermal": make_thermal(6.0),
    "multimode": make_multimode_thermal(12.0, 4),
    "fock": make_fock(9),
    "bright": make_poisson(1e4),  # eta**m underflowed above ~1074 counts
}


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

    def test_eta_one_equals_photon_number_draws(self):
        src = make_thermal(5.0)
        expected_n = sample_n(src, substream(11), size=2000)
        m = sample_m(src, 1.0, substream(11), size=2000)
        assert np.array_equal(m, expected_n)

    def test_binomial_clt_mean(self):
        m = sample_m(make_fock(100), 0.25, substream(12), size=10**6)
        se = math.sqrt(18.75 / 10**6)  # var = 100 * 0.25 * 0.75
        assert m.mean() == pytest.approx(25.0, abs=5 * se)

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
