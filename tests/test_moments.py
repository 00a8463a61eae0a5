import ast
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from linphot import (
    InvalidParameterError,
    MomentSet,
    analytic_voltage_moments,
    apply_bernoulli,
    make_gain,
    make_poisson,
    make_multimode_thermal,
    pmf_moments,
    sample_moments,
)
import linphot.moments
from linphot.config import from_dict
from linphot.detector import DarkNoiseModel, simulate_ensemble
from linphot.moments import (
    ORDER_MAX,
    ORDER_MIN,
    _SUM_BLOCK,
    compound_cumulants,
    cumulants_from_raw,
    exact_sum,
    raw_moments_from_cumulants,
)
from linphot.pipeline import Models
from oracles import (
    CumulantSet,
    block_jackknife_se,
    cumulants_from_moments,
    fsum_pmf_statistics,
    fsum_sample_moments,
    gain_central_moments,
    mixture_voltage_moments,
    moment_set_from_raw,
    moments_from_cumulants,
)

finite_kappa = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_recursion_matches_order5_polynomials_symbolically():
    k1, k2, k3, k4, k5 = sympy.symbols("k1 k2 k3 k4 k5")
    raw = raw_moments_from_cumulants([k1, k2, k3, k4, k5])
    expected = [
        k1,
        k2 + k1**2,
        k3 + 3 * k2 * k1 + k1**3,
        k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4,
        k5
        + 5 * k4 * k1
        + 10 * k3 * k2
        + 10 * k3 * k1**2
        + 15 * k2**2 * k1
        + 10 * k2 * k1**3
        + k1**5,
    ]
    for got, want in zip(raw, expected):
        assert sympy.expand(got - want) == 0


def test_recursion_exact_on_rationals():
    rng = np.random.default_rng(7)
    for _ in range(25):
        kappa = [Fraction(int(rng.integers(-50, 50)), int(rng.integers(1, 9))) for _ in range(5)]
        k1, k2, k3, k4, k5 = kappa
        raw = raw_moments_from_cumulants(kappa)
        assert raw[3] == k4 + 4 * k3 * k1 + 3 * k2**2 + 6 * k2 * k1**2 + k1**4
        assert raw[4] == (
            k5 + 5 * k4 * k1 + 10 * k3 * k2 + 10 * k3 * k1**2
            + 15 * k2**2 * k1 + 10 * k2 * k1**3 + k1**5
        )
        assert cumulants_from_raw(raw) == kappa  # exact round trip


def test_point_mass_moments():
    mu = 3.5
    mset = moments_from_cumulants(CumulantSet.from_kappa([mu, 0, 0, 0, 0]))
    for j in range(1, 6):
        assert mset.raw[j - 1] == pytest.approx(mu**j, rel=1e-14)
    assert mset.central == pytest.approx((0, 0, 0, 0), abs=1e-12)


def test_standard_gaussian_moments():
    mset = moments_from_cumulants(CumulantSet.from_kappa([0, 1, 0, 0, 0]))
    assert mset.raw == pytest.approx((0, 1, 0, 3, 0), abs=1e-14)


def test_poisson_moments_against_bruteforce():
    lam = 2.0
    mset = moments_from_cumulants(CumulantSet.from_kappa([lam] * 5))
    assert mset.raw[1] == pytest.approx(lam + lam**2, rel=1e-12)
    assert mset.raw[2] == pytest.approx(lam + 3 * lam**2 + lam**3, rel=1e-12)
    # independent oracle: direct sums over the Poisson PMF
    n = np.arange(0, 60)
    pmf = np.exp(-lam) * lam**n / np.array([math.factorial(int(k)) for k in n])
    for j in range(1, 6):
        brute = float(np.sum(n**j * pmf))
        assert mset.raw[j - 1] == pytest.approx(brute, rel=1e-10)


def test_gamma_cumulants_round_trip_against_analytic():
    # Gamma(shape=4, scale=1): kappa_r = 4 (r-1)!; raw moments are the
    # rising products 4*5*...*(4+j-1)
    kappa = [4.0 * math.factorial(r - 1) for r in range(1, 6)]
    mset = moments_from_cumulants(CumulantSet.from_kappa(kappa))
    for j in range(1, 6):
        analytic = math.prod(4 + i for i in range(j))
        assert mset.raw[j - 1] == pytest.approx(analytic, rel=1e-10)
    back = cumulants_from_moments(mset)
    assert back.kappa == pytest.approx(tuple(kappa), rel=1e-12)


def test_gaussian_momentset_has_vanishing_high_cumulants():
    mu, s2 = 1.7, 2.3
    mset = MomentSet.from_central(mu, (s2, 0.0, 3 * s2**2, 0.0))
    kap = cumulants_from_moments(mset).kappa
    assert kap[0] == pytest.approx(mu)
    assert kap[1] == pytest.approx(s2)
    assert kap[2:] == pytest.approx((0, 0, 0), abs=1e-10)


def test_kappa4_identity_case():
    mset = MomentSet.from_central(0.0, (2.0, 0.5, 3 * 2.0**2, 1.0))
    kap = cumulants_from_moments(mset).kappa
    assert kap[3] == pytest.approx(0.0, abs=1e-12)  # mu4 = 3 mu2^2
    assert kap[4] == pytest.approx(1.0 - 10 * 2.0 * 0.5, rel=1e-12)


@settings(max_examples=100)
@given(st.tuples(finite_kappa, finite_kappa, finite_kappa, finite_kappa, finite_kappa))
def test_round_trip_hypothesis(kappa):
    back = cumulants_from_moments(moments_from_cumulants(CumulantSet.from_kappa(kappa)))
    for a, b in zip(back.kappa, kappa):
        assert a == pytest.approx(b, rel=1e-12, abs=1e-9)


def test_round_trip_thousand_random_sets():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        kappa = rng.uniform(-10, 10, 5)
        back = cumulants_from_moments(
            moments_from_cumulants(CumulantSet.from_kappa(kappa))
        )
        np.testing.assert_allclose(back.kappa, kappa, rtol=1e-12, atol=1e-9)


def test_momentset_raw_central_consistency():
    rng = np.random.default_rng(3)
    x = rng.gamma(2.0, 3.0, 5000)
    mset = sample_moments(x, 5)
    rebuilt = moment_set_from_raw(mset.raw)
    np.testing.assert_allclose(rebuilt.central, mset.central, rtol=1e-10)


def test_sample_moments_constant_and_two_point():
    mset = sample_moments([4.2, 4.2, 4.2], 4)
    assert mset.mean == pytest.approx(4.2)
    assert mset.central == pytest.approx((0, 0, 0), abs=1e-12)
    mset = sample_moments([0.0, 2.0], 4)
    assert mset.mean == 1.0
    assert mset.central == pytest.approx((1.0, 0.0, 1.0))


def test_sample_moments_gaussian_million(rng):
    x = rng.standard_normal(10**6)
    mset = sample_moments(x, 4)
    assert mset.central_moment(2) == pytest.approx(1.0, abs=0.01)
    assert mset.central_moment(3) == pytest.approx(0.0, abs=0.02)
    assert mset.central_moment(4) == pytest.approx(3.0, abs=0.1)


def test_sample_moments_errors():
    with pytest.raises(InvalidParameterError, match="need at least 2 samples"):
        sample_moments([1.0], 2)
    with pytest.raises(InvalidParameterError, match=r"order must be in \[2, 5\]"):
        sample_moments([1.0, 2.0], 6)
    with pytest.raises(InvalidParameterError, match=r"order must be in \[2, 5\]"):
        sample_moments([1.0, 2.0], 1)
    with pytest.raises(InvalidParameterError):
        sample_moments([1.0, np.inf], 2)


# subnormals, both zeros and magnitudes out to 1e+-300; 5 blocks of them
# sum to at most 8.2e304, so no example overflows
wide_floats = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308]),
)


def _same_float(a: float, b: float) -> bool:
    return a.hex() == b.hex()  # bit for bit, the sign of zero included


@settings(max_examples=60, deadline=None)
@given(
    pool=st.lists(wide_floats, min_size=1, max_size=40),
    size=st.integers(0, 5 * _SUM_BLOCK),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_sum_is_fsum_across_blocks(pool, size, seed):
    x = np.random.default_rng(seed).choice(np.array(pool), size)
    assert _same_float(exact_sum(x), math.fsum(x))


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 100), elements=wide_floats))
def test_exact_sum_is_fsum_on_short_arrays(x):
    assert _same_float(exact_sum(x), math.fsum(x))
    assert _same_float(exact_sum(np.concatenate([x, -x])), math.fsum(np.concatenate([x, -x])))


@pytest.mark.parametrize(
    "values", [[], [-0.0], [-0.0, -0.0], [0.0, -0.0], [np.inf, 1.0], [-np.inf, 1e308], [np.nan, 1.0]]
)
def test_exact_sum_edge_cases_are_fsum(values):
    assert _same_float(exact_sum(np.array(values)), math.fsum(values))


def test_exact_sum_raises_where_fsum_raises():
    with pytest.raises(ValueError):
        math.fsum([np.inf, -np.inf])
    with pytest.raises(ValueError):
        exact_sum([np.inf, -np.inf])
    with pytest.raises(OverflowError):  # the sum is past the float range
        math.fsum([1e308, 1e308])
    with pytest.raises(OverflowError):
        exact_sum([1e308, 1e308])


def test_exact_sum_has_no_intermediate_overflow():
    # the one difference: fsum overflows on the partial 2e308, the exact sum is 1e308
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum([1e308, 1e308, -1e308])
    assert exact_sum([1e308, 1e308, -1e308]) == 1e308


def _uses(tree, name: str) -> list:
    """The enclosing function (None at module level) of each mention of ``name``."""
    uses = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        named = (
            (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.Name) and node.id == name)
            or (isinstance(node, ast.alias) and node.name == name)
        )
        if named:
            uses.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return uses


def test_exact_sum_is_the_one_summation_path():
    # every exact statistic goes through the one kernel: fsum is left only
    # its fallback there, and only _rounded divides by the 2^-1074 unit
    package = Path(__file__).resolve().parents[1] / "src" / "linphot"
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    for name, allowed in (("fsum", {"moments.py": ["_exact_totals"]}), ("_UNIT", {"moments.py": [None, "_rounded"]})):
        uses = {file: _uses(tree, name) for file, tree in trees.items()}
        assert {file: scopes for file, scopes in uses.items() if scopes} == allowed, name


def test_exact_sum_matches_fsum_on_a_pmf_over_hundreds_of_exponents():
    # k p of a bright Poisson spans hundreds of binades, far more than one
    # block's two extractions reach; the rest is bounded and the sum settles
    dist = make_poisson(1400)
    x = np.arange(dist.pmf.size) * dist.pmf
    assert np.unique(np.frexp(x[x != 0])[1]).size > 700
    assert exact_sum(x) == math.fsum(x.tolist())


@pytest.fixture
def slices(monkeypatch):
    """The list of calls of the extraction step, one entry per slice taken."""
    calls = []
    step = linphot.moments._slice

    def counted(*args):
        calls.append(None)
        return step(*args)

    monkeypatch.setattr(linphot.moments, "_slice", counted)
    return calls


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_a_tie_that_only_a_far_lower_term_breaks_takes_more_slices(sign, slices):
    # 1 + 2^-53 lies on a tie that rounds to 1; only the 2^-200 sends it up,
    # and two slices of a block stop 2 x 50 bits below 1
    tie = sign * np.array([1.0, 2.0**-53, 2.0**-200])
    assert _same_float(exact_sum(tie), sign * (1.0 + 2.0**-52))
    assert len(slices) > 2
    split = np.zeros(_SUM_BLOCK + 3)
    split[[0, _SUM_BLOCK, -1]] = tie  # 1 in the first block, the rest in the second
    assert _same_float(exact_sum(split), math.fsum(split.tolist()))
    assert _same_float(exact_sum(split), sign * (1.0 + 2.0**-52))


def test_exact_sum_is_fsum_on_subnormals_only():
    rng = np.random.default_rng(5)
    x = np.ldexp(rng.integers(-(2**52) + 1, 2**52, 2 * _SUM_BLOCK + 9).astype(float), -1074)
    assert np.abs(x).max() < np.finfo(float).smallest_normal
    for values in (x, x[:7], np.abs(x), np.concatenate([x, -x[:-1]])):
        assert _same_float(exact_sum(values), math.fsum(values.tolist()))


def test_exact_sum_keeps_the_low_bits_of_a_block_near_overflow():
    # a block whose largest value is near the float range is summed scaled
    # down; its subnormals must still count
    x = np.zeros(_SUM_BLOCK + 4)
    x[[0, 5, 9, _SUM_BLOCK, -1]] = [1.7e308, 5e-324, -1.7e308, 1e308, 3e-320]
    assert _same_float(exact_sum(x), math.fsum(x.tolist()))
    assert exact_sum(x[:_SUM_BLOCK]) == 5e-324
    with pytest.raises(OverflowError):
        exact_sum(np.full(3, 1.7e308))


@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf])
def test_exact_sum_is_fsum_with_a_special_only_in_the_last_block(special):
    x = np.ones(2 * _SUM_BLOCK + 5)
    x[-1] = special
    assert _same_float(exact_sum(x), math.fsum(x.tolist()))
    x[0] = -special
    if np.isnan(special):
        assert np.isnan(exact_sum(x))
    else:
        with pytest.raises(ValueError):
            exact_sum(x)


@pytest.mark.parametrize("size", [_SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1])
def test_exact_sum_is_fsum_at_the_block_size(size):
    rng = np.random.default_rng(size)
    wide = rng.standard_normal(size) * np.exp2(rng.integers(-1000, 990, size))
    top = np.full(size, np.nextafter(1.0, 0.0))  # every value at the top of its binade
    signs = rng.choice([-1.0, 1.0], size)
    for x in (wide, np.abs(wide), top, top * signs, rng.normal(5000.0, 80.0, size)):
        assert _same_float(exact_sum(x), math.fsum(x.tolist()))


def _same_moments(got, want) -> bool:
    return got.order == want.order and [v.hex() for v in (got.mean, *got.central, *got.raw)] == [
        v.hex() for v in (want.mean, *want.central, *want.raw)
    ]


sample_values = st.one_of(
    st.floats(min_value=-1e50, max_value=1e50, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0]),
)


@settings(max_examples=150, deadline=None)
@given(hnp.arrays(np.float64, st.integers(2, 60), elements=sample_values), st.integers(ORDER_MIN, ORDER_MAX))
def test_sample_moments_is_the_full_array_oracle(x, order):
    assert _same_moments(sample_moments(x, order), fsum_sample_moments(x, order))


@settings(max_examples=25, deadline=None)
@given(
    pool=st.lists(sample_values, min_size=1, max_size=20),
    size=st.integers(2, 3 * _SUM_BLOCK),
    seed=st.integers(0, 2**32 - 1),
    order=st.integers(ORDER_MIN, ORDER_MAX),
)
def test_sample_moments_is_the_full_array_oracle_across_blocks(pool, size, seed, order):
    x = np.random.default_rng(seed).choice(np.array(pool), size)
    assert _same_moments(sample_moments(x, order), fsum_sample_moments(x, order))


# one ensemble of each benchmark workload (perfbench/run.py), drawn at its
# reconstruction point
GAUSSIAN_GAIN = {"family": "gaussian", "gamma_bar": 100.0, "sigma": 2.0}
WORKLOADS = {
    "reference": {"source": {"kind": "poisson", "mean": 100.0}, "gain": GAUSSIAN_GAIN, "n_samples": 100_000},
    "bright": {"source": {"kind": "poisson", "mean": 1400.0}, "gain": GAUSSIAN_GAIN, "n_samples": 30_000},
    "thermal": {
        "source": {"kind": "thermal", "mean": 100.0},
        "gain": {"family": "gamma", "gamma_bar": 100.0, "sigma": 5.0},
        "n_samples": 10_000,
        "tail_epsilon": 1e-40,
    },
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_sample_moments_is_the_full_array_oracle_on_a_workload_ensemble(name):
    config = from_dict({"schema_version": 1, "eta_series": [0.5], "seed": 1, **WORKLOADS[name]})
    models = Models(config)
    ens = simulate_ensemble(models.source, 0.5, models.gain, models.dark, config.n_samples, config.seed)
    for order in range(ORDER_MIN, ORDER_MAX + 1):
        assert _same_moments(sample_moments(ens.samples, order), fsum_sample_moments(ens.samples, order)), order


def test_sample_moments_is_the_full_array_oracle_with_powers_filling_their_bound():
    # full-length significands up to the bound of every power: the extraction
    # has no spare bit if that bound is taken too low
    x = np.random.default_rng(8).uniform(-2.0, 2.0, 3 * _SUM_BLOCK)
    for order in range(ORDER_MIN, ORDER_MAX + 1):
        assert _same_moments(sample_moments(x, order), fsum_sample_moments(x, order)), order


def test_sample_moments_allocates_blocks_not_full_length_arrays():
    x = np.random.default_rng(6).normal(5000.0, 80.0, 10**5)
    tracemalloc.start()
    try:
        sample_moments(x, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2


def test_a_reference_like_ensemble_settles_within_two_slices(slices):
    # normal 5000 +- 80 and 10^5 shots, as a sweep point of the reference
    # workload: the mean and every power settle on each block's two slices
    x = np.random.default_rng(7).normal(5000.0, 80.0, 10**5)
    sample_moments(x, ORDER_MAX)
    blocks = -(-x.size // _SUM_BLOCK)
    assert len(slices) == 2 * blocks * (1 + ORDER_MAX - 1)


# the types that validate their input or hold an array; every other record is
# a NamedTuple, since a dataclass execs generated code at each import
MODEL_TYPES = {"GainModel", "DarkNoiseModel", "VoltageEnsemble", "PhotonNumberDistribution", "ReconstructionResult"}


def test_only_the_model_types_are_dataclasses():
    package = Path(__file__).resolve().parents[1] / "src" / "linphot"
    decorated = {
        node.name
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    }
    assert decorated == MODEL_TYPES


def _numpy_reductions(tree) -> list:
    """The enclosing function and name of each call of ``mean``, ``std`` or ``var`` (``x.mean()``, ``np.std(x)``)."""
    calls = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("mean", "std", "var"):
                calls.append((scope, name))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, None)
    return calls


def test_sample_moments_is_the_one_ensemble_reducer():
    # every statistic of a voltage ensemble, the fit weight of a sweep point
    # too, is a closed form of its sample_moments: no numpy reduction is left
    package = Path(__file__).resolve().parents[1] / "src" / "linphot"
    calls = {
        path.name: _numpy_reductions(ast.parse(path.read_text()))
        for path in sorted(package.glob("*.py"))
    }
    assert {name: found for name, found in calls.items() if found} == {}


def test_compound_map_with_fixed_count_scales_gain_cumulants():
    # m fixed at k (kappa_1 = k, higher cumulants 0): v is a sum of k i.i.d. draws
    gain = [100.0, 4.0, 0.5, 0.25, 0.125]
    for k in (0, 1, 3):
        assert compound_cumulants([k, 0, 0, 0, 0], gain) == [k * x for x in gain]


def test_compound_map_matches_series_composition_symbolically():
    # kappa_r(v) = r! [t^r] (K_m(K_X(t)) + s t^2 / 2), composed as power series
    a = sympy.symbols("a1:6")  # cumulants of m
    b = sympy.symbols("b1:6")  # cumulants of one gain draw
    s, t = sympy.symbols("s t")
    k_x = sum(b[r - 1] * t**r / sympy.factorial(r) for r in range(1, 6))
    k_v = sympy.expand(
        sum(a[j - 1] * k_x**j / sympy.factorial(j) for j in range(1, 6)) + s * t**2 / 2
    )
    got = compound_cumulants(list(a), list(b), s)
    for r in range(1, 6):
        want = sympy.factorial(r) * k_v.coeff(t, r)
        assert sympy.expand(got[r - 1] - want) == 0


def test_compound_map_exact_on_rationals():
    # Poisson(lam) counts of Gamma(shape 2, scale 1/3) draws: kappa_r(m) = lam,
    # so kappa_r(v) = lam E[X^r], the raw moments of X
    lam = Fraction(7, 2)
    kappa_x = [2 * Fraction(1, 3) ** r * math.factorial(r - 1) for r in range(1, 6)]
    got = compound_cumulants([lam] * 5, kappa_x, Fraction(1, 5))
    raw_x = raw_moments_from_cumulants(kappa_x)
    assert got == [lam * raw_x[0], lam * raw_x[1] + Fraction(1, 5), *(lam * x for x in raw_x[2:])]


def test_pmf_moments_hand_case():
    mean, central = pmf_moments([0.25, 0.25, 0.25, 0.25], order=2)
    assert mean == pytest.approx(1.5)
    assert central[0] == pytest.approx(1.25)


def test_analytic_moments_degenerate_gain_saturates_scaling():
    # a point-mass gain and no dark noise: v = gamma_bar m exactly
    det = apply_bernoulli(make_poisson(30), 0.4)
    gain = make_gain("gaussian", 100.0, 0.0)
    dark = DarkNoiseModel(sigma0=0.0)
    exact = analytic_voltage_moments(det, gain, dark, 5)
    assert exact.mean == pytest.approx(100.0 * det.mean_n, rel=1e-13)
    scaled = [100.0**r * det.central_moments[r - 2] for r in range(2, 6)]
    np.testing.assert_allclose(exact.central, scaled, rtol=1e-12)


def test_analytic_moments_r2_r3_closed_forms():
    det = apply_bernoulli(make_poisson(30), 0.4)
    dark = DarkNoiseModel(sigma0=7.0)
    for family, sigma in (("gaussian", 5.0), ("gamma", 5.0)):
        gain = make_gain(family, 100.0, sigma)
        mset = analytic_voltage_moments(det, gain, dark, 3)
        gb = gain.gamma_bar
        mu2 = gb**2 * det.central_moments[0] + det.mean_n * gain.sigma2 + dark.sigma0**2
        assert mset.central_moment(2) == pytest.approx(mu2, rel=1e-12)
        # mu3(v) = gb^3 mu3(m) + 3 sigma^2 gb sum_k p_k k (k - <m>) + <m> mu3_gain
        k = np.arange(det.pmf.size)
        cross = float(np.sum(det.pmf * k * (k - det.mean_n)))
        mu3 = (
            gb**3 * det.central_moments[1]
            + 3 * gain.sigma2 * gb * cross
            + det.mean_n * gain_central_moments(gain)[1]
        )
        assert mset.central_moment(3) == pytest.approx(mu3, rel=1e-11)


def test_narrow_gain_examples():
    det = apply_bernoulli(make_poisson(50), 0.5)  # coherent, <m> = 25
    kappa_m = [det.mean_n, *cumulants_from_raw([0.0, *det.central_moments])[1:]]
    approx = compound_cumulants(kappa_m, [100.0, 0, 0, 0, 0])
    assert approx[1] == pytest.approx(25e4, rel=1e-9)
    unit = analytic_voltage_moments(det, make_gain("gaussian", 1.0, 0.0), DarkNoiseModel(0.0), 5)
    np.testing.assert_allclose(unit.central, det.central_moments, rtol=1e-13)


def test_order_cap():
    with pytest.raises(InvalidParameterError, match=r"order must be in \[2, 5\]"):
        CumulantSet.from_kappa([1.0] * 6)
    with pytest.raises(InvalidParameterError, match=r"order must be in \[2, 5\]"):
        MomentSet.from_central(0.0, (1.0,) * 5)
    det = apply_bernoulli(make_poisson(5), 0.5)
    with pytest.raises(InvalidParameterError, match=r"order must be in \[2, 5\]"):
        analytic_voltage_moments(det, make_gain("gaussian", 1.0, 0.0), DarkNoiseModel(0.0), 6)


@pytest.fixture(scope="module")
def bright_detected():
    return {
        "poisson": apply_bernoulli(make_poisson(1e5), 0.5),
        "thermal40": apply_bernoulli(make_multimode_thermal(1e5, 40), 0.5),
    }


@pytest.mark.parametrize("sigma0", [0.0, 10.0])
@pytest.mark.parametrize("family,sigma", [("gaussian", 5.0), ("gamma", 5.0), ("gaussian", 0.0)])
@pytest.mark.parametrize("source_name", ["poisson", "thermal40"])
def test_analytic_moments_match_mixture_sum_in_bright_light(
    bright_detected, source_name, family, sigma, sigma0
):
    # <n> = 1e5 at eta = 0.5: the mixture sum runs over ~1e5 (Poisson) and
    # ~2.5e5 (thermal) components, the compound-cumulant map over none
    det = bright_detected[source_name]
    gain = make_gain(family, 100.0, sigma)
    dark = DarkNoiseModel(sigma0)
    mean, central = mixture_voltage_moments(det, gain, dark, 5)
    for order in range(2, 6):
        got = analytic_voltage_moments(det, gain, dark, order)
        assert got.mean == pytest.approx(mean, rel=1e-12)
        np.testing.assert_allclose(got.central, central[: order - 1], rtol=1e-12, atol=0)


def test_bright_thermal_statistics_are_the_fsum_statistics(bright_detected):
    # 40-mode thermal <n> = 1e5 at eta = 0.5: ~2.5e5 PMF entries, 15 blocks
    det = bright_detected["thermal40"]
    mean, central, tail = fsum_pmf_statistics(det.pmf, order=5)
    assert _same_float(det.mean_n, mean)
    assert all(_same_float(a, b) for a, b in zip(det.central_moments, central, strict=True))
    assert _same_float(det.tail_mass, tail)


def test_block_jackknife_se_matches_classic_formula():
    rng = np.random.default_rng(5)
    x = rng.normal(10.0, 2.0, 4000)
    se = block_jackknife_se(x, np.mean, n_blocks=20)
    assert se == pytest.approx(x.std(ddof=1) / math.sqrt(x.size), rel=0.35)


def _sample_kappa(x, order=3):
    return cumulants_from_moments(sample_moments(x, order)).kappa[:order]


def _np_kappa3(x):
    m = x.mean()
    d = x - m
    return np.array([m, np.mean(d * d), np.mean(d * d * d)])


def test_cumulant_additivity_of_summed_samples():
    # independent draws from two different gain models: each sample cumulant
    # of x + y must equal the sum of the individual sample cumulants
    from linphot.streams import substream

    n = 10**6
    gain_a = make_gain("gamma", 100.0, 10.0)
    gain_b = make_gain("gaussian", 50.0, 5.0)
    x = gain_a.sample_sums(substream(71), np.ones(n, dtype=np.int64))
    y = gain_b.sample_sums(substream(72), np.ones(n, dtype=np.int64))
    diff = np.array(_sample_kappa(x + y)) - np.array(_sample_kappa(x)) - np.array(
        _sample_kappa(y)
    )
    stacked = np.column_stack([x, y])
    for r in range(1, 4):

        def gap(rows, r=r):
            xs, ys = rows[:, 0], rows[:, 1]
            return (
                _np_kappa3(xs + ys)[r - 1]
                - _np_kappa3(xs)[r - 1]
                - _np_kappa3(ys)[r - 1]
            )

        se = block_jackknife_se(stacked, gap, n_blocks=20)
        assert abs(diff[r - 1]) <= 5 * se


@pytest.mark.parametrize("source_name", ["poisson", "thermal"])
@pytest.mark.parametrize("eta", [0.25, 0.8])
@pytest.mark.parametrize("sigma_rel", [0.02, 0.1])
def test_oracle_agreement_grid(source_name, eta, sigma_rel):
    from linphot import make_thermal, simulate_ensemble

    src = make_poisson(40.0) if source_name == "poisson" else make_thermal(20.0)
    gain = make_gain("gaussian", 100.0, sigma_rel * 100.0)
    dark = DarkNoiseModel(sigma0=10.0)
    ens = simulate_ensemble(src, eta, gain, dark, 10**5, seed=73)
    exact = analytic_voltage_moments(apply_bernoulli(src, eta), gain, dark, 4)
    sampled = sample_moments(ens.samples, 4)
    se_mean = ens.samples.std(ddof=1) / math.sqrt(ens.n_samples)
    assert sampled.mean == pytest.approx(exact.mean, abs=5 * se_mean)
    for r in (2, 3, 4):
        se = block_jackknife_se(
            ens.samples, lambda v, r=r: np.mean((v - v.mean()) ** r), n_blocks=20
        )
        assert sampled.central_moment(r) == pytest.approx(exact.central_moment(r), abs=5 * se)


def test_sample_scaling_ratio_with_degenerate_gain():
    # sigma = sigma0 = 0: mu_r(v)/<v> over mu_r(m)/<m> is exactly gamma^(r-1)
    # up to the sampling noise of the shared draws
    from linphot import make_fock, simulate_ensemble

    gamma_bar = 50.0
    src = make_fock(10)
    gain = make_gain("gaussian", gamma_bar, 0.0)
    ens = simulate_ensemble(src, 0.7, gain, DarkNoiseModel(0.0), 10**6, seed=74)
    det = apply_bernoulli(src, 0.7)
    for r in (2, 3):
        ref = det.central_moments[r - 2] / det.mean_n

        def ratio(v, r=r, ref=ref):
            return (np.mean((v - v.mean()) ** r) / v.mean()) / ref

        got = ratio(ens.samples)
        se = block_jackknife_se(ens.samples, ratio, n_blocks=20)
        assert got == pytest.approx(gamma_bar ** (r - 1), abs=5 * se)
