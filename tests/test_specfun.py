"""Unit tests for the confluent hypergeometric kernel.

M is checked against a local power-series oracle, U against direct
quadrature of its Laplace integral representation, and both against the
closed-form Wronskian.  mpmath supplies a handful of high-precision spot
values.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from cirmort.errors import DomainError, RangeOverflowError
from cirmort.specfun import (_ALPHA_STEP, HypergeometricParams,
                             _kummer_m_scaled, _tricomi_u_raw, kummer_m,
                             kummer_m_prime, log_gamma, tricomi_u,
                             tricomi_u_prime, wronskian_mu)

PAIRS = [(0.2, 0.5), (0.2, 3.0), (0.5, 1.5), (1.0, 1.0), (1.0, 4.0),
         (2.5, 2.0), (3.0, 8.0), (5.0, 5.5), (8.0, 24.0)]


def m_series(alpha, gamma, z, terms=400):
    """Independent power-series oracle for M, summed to machine convergence."""
    total = term = 1.0
    for n in range(terms):
        term *= (alpha + n) * z / ((gamma + n) * (n + 1))
        total += term
        if abs(term) <= 1e-18 * abs(total):
            return total
    raise AssertionError("series oracle did not converge")


def u_quad(alpha, gamma, z):
    """Independent quadrature oracle: Laplace integral of U for alpha > 0."""
    def f(t):
        return math.exp(-z * t + (alpha - 1.0) * math.log(t)
                        + (gamma - alpha - 1.0) * math.log1p(t))
    with warnings.catch_warnings():
        # the t^{alpha-1} endpoint is integrable; quad's roundoff complaint
        # is benign at this tolerance
        warnings.simplefilter("ignore")
        val, _ = quad(f, 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
    return val / math.gamma(alpha)


# ---------------------------------------------------------------------------
# log_gamma

def test_log_gamma_examples():
    assert log_gamma(1.0) == 0.0
    assert abs(log_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-12
    assert abs(log_gamma(10.0) - math.log(362880.0)) <= 1e-12 * 12.81


def test_log_gamma_domain():
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-3.0)


# ---------------------------------------------------------------------------
# Kummer M

def test_m_alpha_zero_is_one():
    assert kummer_m(HypergeometricParams(0.0, 2.0), 5.0) == pytest.approx(1.0)


def test_m_identity_e_minus_one():
    got = kummer_m(HypergeometricParams(1.0, 2.0), 1.0)
    assert abs(got - (math.e - 1.0)) <= 1e-10 * (math.e - 1.0)


def test_m_negative_argument_erf_value():
    # M(1/2, 3/2, -1) = (sqrt(pi)/2) erf(1)
    want = 0.5 * math.sqrt(math.pi) * math.erf(1.0)
    got = kummer_m(HypergeometricParams(0.5, 1.5), -1.0)
    assert abs(got - want) <= 1e-10 * want
    assert abs(got - 0.7468) <= 1e-4


@pytest.mark.parametrize("alpha,gamma", PAIRS)
def test_m_matches_series_oracle(alpha, gamma):
    params = HypergeometricParams(alpha, gamma)
    for z in (-5.0, -1.0, 0.0, 0.3, 2.0, 10.0, 40.0):
        want = m_series(alpha, gamma, z)
        got = kummer_m(params, z)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_m_at_zero_exact():
    for alpha, gamma in PAIRS:
        assert kummer_m(HypergeometricParams(alpha, gamma), 0.0) == 1.0


def test_m_gamma_nonpositive_integer_rejected():
    with pytest.raises(DomainError):
        kummer_m(HypergeometricParams(1.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        kummer_m(HypergeometricParams(1.0, -2.0), 1.0)


def test_m_overflow_is_an_error():
    with pytest.raises(RangeOverflowError):
        kummer_m(HypergeometricParams(5.0, 1.0), 1e4)


def test_m_asymptotic_growth():
    # M ~ (Gamma(gamma)/Gamma(alpha)) z^{alpha-gamma} e^z for large z
    for alpha, gamma in [(0.5, 1.5), (1.0, 4.0), (2.5, 2.0)]:
        z = 200.0
        log_lead = (log_gamma(gamma) - log_gamma(alpha)
                    + (alpha - gamma) * math.log(z) + z)
        got = kummer_m(HypergeometricParams(alpha, gamma), z)
        assert abs(got / math.exp(log_lead) - 1.0) <= 0.05


def test_kummer_m_ratio_matches_mpmath(primary_solution):
    # M'/M = (alpha/gamma) M(alpha+1, gamma+1, z) / M(alpha, gamma, z) from
    # ln(e^{-z} M): by hyp1f1 where it is in range, by the large-z series
    # beyond; at gamma = 1111 and z = 5554 M itself exceeds float range
    d = primary_solution.consts
    points = [(0.033092, 530.04, 713.54), (0.019999, 1111.1, 5554.5),
              (1.0, 180.0, 1e-3), (d.alpha, d.gamma, primary_solution.z_star)]
    for alpha, gamma, z in points:
        got = (alpha / gamma) * math.exp(
            _kummer_m_scaled(alpha + 1.0, gamma + 1.0, z)
            - _kummer_m_scaled(alpha, gamma, z))
        with mpmath.workdps(30):
            a, g = mpmath.mpf(alpha), mpmath.mpf(gamma)
            want = float(a / g * mpmath.hyp1f1(a + 1, g + 1, z, maxterms=10**6)
                         / mpmath.hyp1f1(a, g, z, maxterms=10**6))
        assert abs(got - want) <= 1e-11 * want, (alpha, gamma, z)


# ---------------------------------------------------------------------------
# Tricomi U

def test_u_power_identity():
    # U(a, a+1, z) = z^{-a}
    got = tricomi_u(HypergeometricParams(0.5, 1.5), 4.0)
    assert abs(got - 0.5) <= 1e-10


def test_u_exponential_integral_value():
    # U(1, 1, 1) = e E_1(1)
    want = float(mpmath.e * mpmath.e1(1))
    got = tricomi_u(HypergeometricParams(1.0, 1.0), 1.0)
    assert abs(got - want) <= 1e-8 * want
    assert abs(got - 0.596347) <= 1e-6


def test_u_large_z_asymptotics():
    got = tricomi_u(HypergeometricParams(2.0, 3.0), 100.0)
    assert abs(got * 100.0 ** 2 - 1.0) <= 0.05
    for alpha, gamma in [(0.5, 1.5), (1.0, 4.0), (3.0, 8.0)]:
        z = 250.0
        got = tricomi_u(HypergeometricParams(alpha, gamma), z)
        assert abs(got * z ** alpha - 1.0) <= 0.05


@pytest.mark.parametrize("alpha,gamma", PAIRS)
def test_u_matches_quadrature_oracle(alpha, gamma):
    params = HypergeometricParams(alpha, gamma)
    for z in (0.02, 0.1, 0.5, 1.0, 5.0, 50.0, 400.0):
        want = u_quad(alpha, gamma, z)
        got = tricomi_u(params, z)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_u_reflection_cross_check():
    # For non-integer gamma, U is a fixed M-combination.  The combination
    # cancels catastrophically in float64 for z beyond ~18, so the series
    # route runs at 40 digits; the integral route must match it.
    for alpha, gamma in [(0.5, 1.7), (1.3, 2.4), (2.5, 0.6)]:
        pa = HypergeometricParams(alpha, gamma)
        for z in np.geomspace(0.5, 50.0, 7):
            with mpmath.workdps(40):
                # shifted parameters must be formed in mpf arithmetic: a
                # one-ulp mismatch between the two terms is amplified by
                # their near-cancellation at large z
                a, b, zz = map(mpmath.mpf, (alpha, gamma, float(z)))
                want = float(
                    mpmath.gamma(1 - b) / mpmath.gamma(a - b + 1)
                    * mpmath.hyp1f1(a, b, zz)
                    + mpmath.gamma(b - 1) / mpmath.gamma(a)
                    * zz ** (1 - b) * mpmath.hyp1f1(a - b + 1, 2 - b, zz))
            got = tricomi_u(pa, float(z))
            assert abs(got - want) <= 1e-8 * abs(want), (alpha, gamma, z)


def test_u_mpmath_spot_values():
    for alpha, gamma, z in [(0.19441758, 3.0, 0.53), (8.0, 24.0, 0.05),
                            (5.0, 5.5, 12.0), (0.2, 0.5, 0.01),
                            (20.0, 0.5, 0.6)]:
        want = float(mpmath.hyperu(alpha, gamma, z))
        got = tricomi_u(HypergeometricParams(alpha, gamma), z)
        assert abs(got - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("alpha", [0.03, 0.2, 1.0, 3.0, 8.0, 20.0, 21.0])
def test_u_matches_mpmath_on_array_and_points(alpha):
    # one rule for every z: arrays spanning both sides of z = 0.5 and
    # single points, out to z = 500 where the integrand decays like
    # t^{alpha-1} e^{-z t} and the rule must reach far enough in t
    zs = np.array([0.01, 0.04, 0.15, 0.45, 0.6, 2.0, 8.0, 30.0, 120.0, 500.0])
    for gamma in (0.5, alpha + 1.0, 2.0 * alpha + 1.0, 24.0, 41.0):
        params = HypergeometricParams(alpha, gamma)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyperu(alpha, gamma, z))
                             for z in zs])
        got = tricomi_u(params, zs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), gamma
        for z, w in zip(zs, want):
            got = tricomi_u(params, float(z))
            assert abs(got - w) <= 1e-12 * abs(w), (gamma, z)


@pytest.mark.parametrize("alpha", [8.3e-4, 2.1e-3, 8.9e-3])
def test_u_at_small_alpha_matches_mpmath(alpha):
    # below _ALPHA_STEP the Laplace rule cannot resolve t^{alpha-1}, and the
    # backward recurrence step in a takes over; on arrays and single points
    assert alpha < _ALPHA_STEP
    zs = np.geomspace(1e-3, 500.0, 12)
    for gamma in (0.0043, 0.5, 3.0):
        params = HypergeometricParams(alpha, gamma)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyperu(alpha, gamma, z))
                             for z in zs])
        got = tricomi_u(params, zs)
        assert np.all(np.abs(got - want) <= 1e-11 * want), gamma
        for z, w in zip(zs, want):
            assert abs(tricomi_u(params, float(z)) - w) <= 1e-11 * w, \
                (gamma, z)


def test_log_u_stays_finite_where_u_overflows():
    # at gamma = 133 and z = 1e-3, U is about 1e-3^{-132} Gamma(132) /
    # Gamma(alpha): far beyond float range, while ln U is not
    alpha, gamma, z = 0.05, 133.0, 1e-3
    with pytest.raises(RangeOverflowError):
        tricomi_u(HypergeometricParams(alpha, gamma), z)
    got = float(_tricomi_u_raw(alpha, gamma, np.array([z]))[0])
    with mpmath.workdps(30):
        want = float(mpmath.log(mpmath.hyperu(alpha, gamma, z)))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_u_empty_input():
    got = tricomi_u(HypergeometricParams(1.0, 2.0), np.array([]))
    assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_u_domain_errors():
    with pytest.raises(DomainError):
        tricomi_u(HypergeometricParams(1.0, 2.0), 0.0)
    with pytest.raises(DomainError):
        tricomi_u(HypergeometricParams(1.0, 2.0), -1.0)
    for z in (math.nan, math.inf, np.array([1.0, math.nan])):
        for fn in (tricomi_u, tricomi_u_prime):
            with pytest.raises(DomainError, match="z must be finite"):
                fn(HypergeometricParams(1.0, 2.0), z)


# ---------------------------------------------------------------------------
# derivatives

def test_m_prime_alpha_zero():
    assert kummer_m_prime(HypergeometricParams(0.0, 2.0), 3.0) == 0.0


def test_u_prime_power_identity():
    got = tricomi_u_prime(HypergeometricParams(0.5, 1.5), 4.0)
    assert abs(got - (-0.5 * 4.0 ** -1.5)) <= 1e-10


def test_m_prime_shifted_value():
    want = 0.5 * kummer_m(HypergeometricParams(2.0, 3.0), 1.0)
    got = kummer_m_prime(HypergeometricParams(1.0, 2.0), 1.0)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("alpha,gamma", PAIRS)
def test_derivative_identities_vs_finite_difference(alpha, gamma):
    params = HypergeometricParams(alpha, gamma)
    for z in (0.5, 2.0, 20.0):
        h = 1e-6 * max(1.0, z)
        fd_m = (kummer_m(params, z + h) - kummer_m(params, z - h)) / (2 * h)
        got_m = kummer_m_prime(params, z)
        assert abs(got_m - fd_m) <= 1e-5 * max(1.0, abs(fd_m))
        fd_u = (tricomi_u(params, z + h) - tricomi_u(params, z - h)) / (2 * h)
        got_u = tricomi_u_prime(params, z)
        assert abs(got_u - fd_u) <= 1e-5 * max(abs(fd_u), 1e-12)


# ---------------------------------------------------------------------------
# Wronskian

def test_wronskian_examples():
    got = wronskian_mu(HypergeometricParams(1.0, 1.0), 1.0)
    assert abs(got - (-math.e)) <= 1e-12 * math.e
    want = -(1.0 / math.gamma(0.5)) * 0.25 * math.exp(2.0)
    got = wronskian_mu(HypergeometricParams(0.5, 2.0), 2.0)
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(got - (-1.04221)) <= 1e-4


@pytest.mark.parametrize("alpha,gamma", PAIRS)
def test_wronskian_identity_on_log_grid(alpha, gamma):
    params = HypergeometricParams(alpha, gamma)
    zs = np.geomspace(0.1, 50.0, 25)
    ref = wronskian_mu(params, zs)
    num = (kummer_m(params, zs) * tricomi_u_prime(params, zs)
           - kummer_m_prime(params, zs) * tricomi_u(params, zs))
    assert np.max(np.abs(num - ref) / np.abs(ref)) <= 1e-8


def test_wronskian_domain_and_overflow():
    with pytest.raises(DomainError):
        wronskian_mu(HypergeometricParams(1.0, 2.0), 0.0)
    for z in (math.nan, math.inf):
        with pytest.raises(DomainError, match="z must be finite"):
            wronskian_mu(HypergeometricParams(1.0, 2.0), z)
    with pytest.raises(RangeOverflowError):
        wronskian_mu(HypergeometricParams(1.0, 2.0), 1e4)


@given(st.floats(0.1, 8.0), st.floats(0.3, 12.0), st.floats(0.1, 50.0))
def test_wronskian_identity_property(alpha, gamma, z):
    params = HypergeometricParams(alpha, gamma)
    ref = wronskian_mu(params, z)
    num = (kummer_m(params, z) * tricomi_u_prime(params, z)
           - kummer_m_prime(params, z) * tricomi_u(params, z))
    assert abs(num - ref) <= 1e-8 * abs(ref)
