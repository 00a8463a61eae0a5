import math

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
from linphot.streams import substream


def tv_distance(a, b):
    size = max(a.size, b.size)
    a = np.pad(a, (0, size - a.size))
    b = np.pad(b, (0, size - b.size))
    return 0.5 * np.abs(a - b).sum()


class TestPoisson:
    def test_vacuum(self):
        d = make_poisson(0.0)
        assert d.pmf.tolist() == [1.0]
        assert d.mandel_q is None
        assert d.mean_n == 0.0

    def test_mean50_is_poissonian(self):
        assert make_poisson(50.0).mandel_q == pytest.approx(0.0, abs=1e-10)

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
        assert make_thermal(10.0).mandel_q == pytest.approx(10.0, abs=1e-8)


class TestMultimodeThermal:
    def test_single_mode_identical_to_thermal(self):
        for mean in (0.5, 7.3, 40.0):
            a = make_thermal(mean)
            b = make_multimode_thermal(mean, 1)
            assert np.array_equal(a.pmf, b.pmf)
            assert a.tail_mass == b.tail_mass

    def test_fifty_modes_unit_q(self):
        assert make_multimode_thermal(50.0, 50).mandel_q == pytest.approx(1.0, abs=1e-8)

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
            assert d.mandel_q == pytest.approx(-1.0, abs=1e-14)
        else:
            assert d.mandel_q is None

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
        assert d.mandel_q == pytest.approx((1.25 - 1.5) / 1.5, rel=1e-12)

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
    assert 1.0 - dist.tail_mass - 1e-15 <= total <= 1.0 + 1e-15
    assert dist.tail_mass <= 1e-12
    dist.validate()


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
