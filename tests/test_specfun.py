"""Unit tests for the confluent hypergeometric kernel: ln U, U'/U and
U''/U, ln(e^{-z} M) and M'/M, and the log of their Wronskian.

M is checked against a local power-series oracle, U against direct
quadrature of its Laplace integral representation, and both against the
closed-form Wronskian.  mpmath supplies high-precision values of U, U'/U,
U''/U and M'/M.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from cirmort import specfun
from cirmort.errors import DomainError
from cirmort.specfun import (_kummer_m_scaled, _log_msc_and_ratio,
                             _tricomi_u_raw, log_wronskian)

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


def _u_parts(alpha, gamma, z):
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    parts = _tricomi_u_raw(alpha, gamma, zs)
    if np.ndim(z) == 0:
        return tuple(float(part[0]) for part in parts)
    return parts


def u(alpha, gamma, z):
    """U at one z or at each z of an array, from ln U."""
    return np.exp(_u_parts(alpha, gamma, z)[0])


def u_ratio(alpha, gamma, z):
    """U'/U at one z or at each z of an array."""
    return _u_parts(alpha, gamma, z)[1]


def u_ratio2(alpha, gamma, z):
    """U''/U at one z or at each z of an array."""
    return _u_parts(alpha, gamma, z)[2]


def u_ratio_mp(alpha, gamma, z):
    """U'/U = -alpha U(alpha+1, gamma+1, z) / U(alpha, gamma, z), 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        return float(-a * mpmath.hyperu(a + 1, gamma + 1, z)
                     / mpmath.hyperu(a, gamma, z))


def u_ratio2_mp(alpha, gamma, z):
    """U''/U = alpha (alpha+1) U(alpha+2, gamma+2, z) / U(alpha, gamma, z),
    30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        return float(a * (a + 1) * mpmath.hyperu(a + 2, gamma + 2, z)
                     / mpmath.hyperu(a, gamma, z))


def log_m(alpha, gamma, z):
    """ln M at one z >= 0, from ln(e^{-z} M)."""
    return _kummer_m_scaled(alpha, gamma, z) + z


def m_ratio(alpha, gamma, z):
    """M'/M at one z >= 0, as c2's 2x2 solve forms it."""
    return float(_log_msc_and_ratio(alpha, gamma, [z])[1][0])


def log_wronskian_num(alpha, gamma, zs):
    """ln |M U (U'/U - M'/M)| at each z of zs: the Wronskian M U' - M' U
    from the functions the solver calls."""
    log_u, ratio, _ = _tricomi_u_raw(alpha, gamma, zs)
    log_msc, m_ratio = _log_msc_and_ratio(alpha, gamma, zs)
    return log_msc + zs + log_u + np.log(m_ratio - ratio)


# ---------------------------------------------------------------------------
# ln Gamma, as the normalisation of the Laplace rule

def test_log_gamma_examples():
    # U(a, a+1, 1) = 1: the rule's sum of e^{-t} t^{a-1} is Gamma(a), which
    # ln U divides out with math.lgamma
    for a in (1.0, 0.5, 10.0):
        assert abs(_u_parts(a, a + 1.0, 1.0)[0]) <= 1e-12 * max(
            1.0, math.lgamma(a)), a


# ---------------------------------------------------------------------------
# Kummer M

def test_m_alpha_zero_is_one():
    assert math.exp(log_m(0.0, 2.0, 5.0)) == pytest.approx(1.0)


def test_m_identity_e_minus_one():
    got = math.exp(log_m(1.0, 2.0, 1.0))
    assert abs(got - (math.e - 1.0)) <= 1e-10 * (math.e - 1.0)


@pytest.mark.parametrize("alpha,gamma", PAIRS)
def test_m_matches_series_oracle(alpha, gamma):
    for z in (0.0, 0.3, 2.0, 10.0, 40.0):
        want = m_series(alpha, gamma, z)
        got = math.exp(log_m(alpha, gamma, z))
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_m_at_zero_exact():
    for alpha, gamma in PAIRS:
        assert _kummer_m_scaled(alpha, gamma, 0.0) == 0.0


def test_m_asymptotic_growth():
    # M ~ (Gamma(gamma)/Gamma(alpha)) z^{alpha-gamma} e^z for large z
    for alpha, gamma in [(0.5, 1.5), (1.0, 4.0), (2.5, 2.0)]:
        z = 200.0
        log_lead = (math.lgamma(gamma) - math.lgamma(alpha)
                    + (alpha - gamma) * math.log(z) + z)
        got = math.exp(log_m(alpha, gamma, z) - log_lead)
        assert abs(got - 1.0) <= 0.05


def test_kummer_m_ratio_matches_mpmath(primary_solution):
    # M'/M = (alpha/gamma) M(alpha+1, gamma+1, z) / M(alpha, gamma, z) from
    # ln(e^{-z} M): by hyp1f1 where it is in range, by the large-z series
    # beyond; at gamma = 1111 and z = 5554 M itself exceeds float range
    d = primary_solution.consts
    points = [(0.033092, 530.04, 713.54), (0.019999, 1111.1, 5554.5),
              (1.0, 180.0, 1e-3), (d.alpha, d.gamma, primary_solution.z_star)]
    for alpha, gamma, z in points:
        got = m_ratio(alpha, gamma, z)
        with mpmath.workdps(30):
            a, g = mpmath.mpf(alpha), mpmath.mpf(gamma)
            want = float(a / g * mpmath.hyp1f1(a + 1, g + 1, z, maxterms=10**6)
                         / mpmath.hyp1f1(a, g, z, maxterms=10**6))
        assert abs(got - want) <= 1e-11 * want, (alpha, gamma, z)


# ---------------------------------------------------------------------------
# Tricomi U

def test_u_power_identity():
    # U(a, a+1, z) = z^{-a}
    got = u(0.5, 1.5, 4.0)
    assert abs(got - 0.5) <= 1e-10


def test_u_exponential_integral_value():
    # U(1, 1, 1) = e E_1(1)
    want = float(mpmath.e * mpmath.e1(1))
    got = u(1.0, 1.0, 1.0)
    assert abs(got - want) <= 1e-8 * want
    assert abs(got - 0.596347) <= 1e-6


def test_u_large_z_asymptotics():
    got = u(2.0, 3.0, 100.0)
    assert abs(got * 100.0 ** 2 - 1.0) <= 0.05
    for alpha, gamma in [(0.5, 1.5), (1.0, 4.0), (3.0, 8.0)]:
        z = 250.0
        got = u(alpha, gamma, z)
        assert abs(got * z ** alpha - 1.0) <= 0.05


@pytest.mark.parametrize("alpha,gamma", PAIRS)
def test_u_matches_quadrature_oracle(alpha, gamma):
    for z in (0.02, 0.1, 0.5, 1.0, 5.0, 50.0, 400.0):
        want = u_quad(alpha, gamma, z)
        got = u(alpha, gamma, z)
        assert abs(got - want) <= 1e-8 * abs(want)


def test_u_reflection_cross_check():
    # For non-integer gamma, U is a fixed M-combination.  The combination
    # cancels catastrophically in float64 for z beyond ~18, so the series
    # route runs at 40 digits; the integral route must match it.
    for alpha, gamma in [(0.5, 1.7), (1.3, 2.4), (2.5, 0.6)]:
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
            got = u(alpha, gamma, float(z))
            assert abs(got - want) <= 1e-8 * abs(want), (alpha, gamma, z)


def test_u_mpmath_spot_values():
    for alpha, gamma, z in [(0.19441758, 3.0, 0.53), (8.0, 24.0, 0.05),
                            (5.0, 5.5, 12.0), (0.2, 0.5, 0.01),
                            (20.0, 0.5, 0.6)]:
        want = float(mpmath.hyperu(alpha, gamma, z))
        got = u(alpha, gamma, z)
        assert abs(got - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("alpha", [8.3e-4, 2.1e-3, 8.9e-3, 0.03, 0.2, 1.0,
                                   3.0, 8.0, 20.0, 21.0])
def test_u_matches_mpmath_on_array_and_points(alpha):
    # one rule for every z: arrays spanning both sides of z = 0.5 and
    # single points, out to z = 500 where the integrand decays like
    # t^{alpha-1} e^{-z t} and the rule must reach far enough in t; U'/U
    # and U''/U come from the same pass
    zs = np.array([0.01, 0.04, 0.15, 0.45, 0.6, 2.0, 8.0, 30.0, 120.0, 500.0])
    for gamma in (0.5, alpha + 1.0, 2.0 * alpha + 1.0, 24.0, 41.0):
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyperu(alpha, gamma, z))
                             for z in zs])
        want_ratio = np.array([u_ratio_mp(alpha, gamma, z) for z in zs])
        want_ratio2 = np.array([u_ratio2_mp(alpha, gamma, z) for z in zs])
        got = u(alpha, gamma, zs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), gamma
        got_ratio = u_ratio(alpha, gamma, zs)
        assert np.all(np.abs(got_ratio - want_ratio)
                      <= 1e-12 * np.abs(want_ratio)), gamma
        got_ratio2 = u_ratio2(alpha, gamma, zs)
        assert np.all(np.abs(got_ratio2 - want_ratio2)
                      <= 1e-12 * want_ratio2), gamma
        for z, w, wr, wr2 in zip(zs, want, want_ratio, want_ratio2):
            got = u(alpha, gamma, float(z))
            assert abs(got - w) <= 1e-12 * abs(w), (gamma, z)
            got_ratio = u_ratio(alpha, gamma, float(z))
            assert abs(got_ratio - wr) <= 1e-12 * abs(wr), (gamma, z)
            got_ratio2 = u_ratio2(alpha, gamma, float(z))
            assert abs(got_ratio2 - wr2) <= 1e-12 * wr2, (gamma, z)


@pytest.mark.parametrize("alpha", [8.3e-4, 2.1e-3, 8.9e-3])
def test_u_at_small_alpha_matches_mpmath(alpha):
    # the weight t^{alpha-1} puts most of U's mass next to t = 0, which the
    # inner rule's node at t = 0 carries; on arrays and single points
    zs = np.geomspace(1e-3, 500.0, 12)
    for gamma in (0.0043, 0.5, 3.0):
        with mpmath.workdps(30):
            want = np.array([float(mpmath.hyperu(alpha, gamma, z))
                             for z in zs])
        want_ratio = np.array([u_ratio_mp(alpha, gamma, z) for z in zs])
        want_ratio2 = np.array([u_ratio2_mp(alpha, gamma, z) for z in zs])
        got = u(alpha, gamma, zs)
        assert np.all(np.abs(got - want) <= 1e-11 * want), gamma
        got_ratio = u_ratio(alpha, gamma, zs)
        assert np.all(np.abs(got_ratio - want_ratio)
                      <= 1e-11 * np.abs(want_ratio)), gamma
        got_ratio2 = u_ratio2(alpha, gamma, zs)
        assert np.all(np.abs(got_ratio2 - want_ratio2)
                      <= 1e-11 * want_ratio2), gamma
        for z, w, wr, wr2 in zip(zs, want, want_ratio, want_ratio2):
            assert abs(u(alpha, gamma, float(z)) - w) <= 1e-11 * w, \
                (gamma, z)
            assert abs(u_ratio(alpha, gamma, float(z)) - wr) \
                <= 1e-11 * abs(wr), (gamma, z)
            assert abs(u_ratio2(alpha, gamma, float(z)) - wr2) \
                <= 1e-11 * wr2, (gamma, z)


@pytest.mark.parametrize("alpha", [8.3e-4, 2.1e-3, 8.9e-3])
def test_u_at_small_alpha_and_large_gamma_matches_mpmath(alpha):
    # large gamma, where z < gamma puts the mass at large t; ln U absolute,
    # U'/U and U''/U relative, on arrays and single points
    zs = np.geomspace(1e-3, 500.0, 12)
    for gamma in (40.0, 180.0):
        tol = 1e-11 * gamma
        with mpmath.workdps(30):
            want = np.array([float(mpmath.log(mpmath.hyperu(alpha, gamma, z)))
                             for z in zs])
        want_ratios = np.array([[u_ratio_mp(alpha, gamma, z) for z in zs],
                                [u_ratio2_mp(alpha, gamma, z) for z in zs]])
        points = np.array([_u_parts(alpha, gamma, float(z)) for z in zs]).T
        for got in (_u_parts(alpha, gamma, zs), points):
            assert np.all(np.abs(got[0] - want) <= tol), gamma
            assert np.all(np.abs(got[1:] - want_ratios)
                          <= tol * np.abs(want_ratios)), gamma


def test_u_is_continuous_across_the_panel_seams():
    # the inner rule has 16 Gauss-Jacobi nodes at every alpha, and its node
    # at t = 0 up to alpha = 10 (beyond, its weight may round to <= 0 and it
    # drops), so U's rule has no seams; at the two alpha where graded
    # u-panels once gained a panel, U, U'/U and U''/U agree between adjacent
    # floats, on arrays and at single points
    zs = np.geomspace(0.01, 500.0, 10)

    def nodes(alpha):
        return specfun._LaplaceRule(alpha, 1.0).t_unit
    for alpha in np.geomspace(1e-14, 2000.0, 241):
        t = nodes(alpha)
        assert np.count_nonzero(t) == specfun._JACOBI_NODES, alpha
        assert t.size == specfun._JACOBI_NODES + 1 or alpha > 10.0, alpha
    for seam in (10.0 / 3.0 ** 5, 10.0 / 3.0 ** 8):
        below = seam
        above = np.nextafter(below, np.inf)
        assert nodes(below).size == nodes(above).size, seam
        for gamma in (0.0043, 0.5, 3.0, 24.0, 41.0):
            for z in (zs, *zs):
                at, under = (np.array(_u_parts(alpha, gamma, z))
                             for alpha in (above, below))
                assert np.all(np.abs(at[0] - under[0]) <= 2e-12), (gamma, z)
                assert np.all(np.abs(at[1:] - under[1:])
                              <= 2e-12 * np.abs(at[1:])), (gamma, z)


@pytest.mark.parametrize("alpha", [1e-14, 8.3e-4, 0.37, 1.0, 21.0, 1840.0])
def test_inner_rule_is_exact_for_powers(alpha):
    # the inner nodes x = t/t_split and weights W of U's rule stand for
    # int_0^1 x^{alpha-1} g(x) dx, so sum W x^j = 1/(alpha + j): at j = 0
    # through the node at x = 0, above through the Gauss-Jacobi rule's
    # degree; summed at 30 digits.  Every weight is positive
    rule = specfun._LaplaceRule(alpha, 1.0)
    weights = np.exp(rule.e_unit)
    assert np.all(weights > 0.0)
    with mpmath.workdps(30):
        x = [mpmath.mpf(v) for v in rule.t_unit]
        w = [mpmath.mpf(v) for v in weights]
        for j in range(32):
            got = mpmath.fsum(wi * xi ** j for wi, xi in zip(w, x))
            assert abs(got * (alpha + j) - 1) <= 1e-14, j


def test_u_at_tiny_alpha_matches_mpmath():
    # far below the supported box (alpha >= 1.2e-4) the inner rule keeps
    # its 17 nodes, and its node at t = 0 weighs 1/alpha - O(1); on arrays
    # and single points
    alpha = 1e-10
    zs = np.geomspace(1e-3, 500.0, 6)
    for gamma in (0.0043, 0.5, 3.0, 41.0):
        with mpmath.workdps(20):
            want = np.array([[float(mpmath.log(mpmath.hyperu(alpha, gamma, z)))
                              for z in zs],
                             [u_ratio_mp(alpha, gamma, z) for z in zs],
                             [u_ratio2_mp(alpha, gamma, z) for z in zs]])
        points = np.array([_u_parts(alpha, gamma, float(z)) for z in zs]).T
        for got in (np.array(_u_parts(alpha, gamma, zs)), points):
            assert np.all(np.abs(got[0] - want[0]) <= 1e-12), gamma
            assert np.all(np.abs(got[1:] - want[1:])
                          <= 1e-12 * np.abs(want[1:])), gamma


@pytest.mark.parametrize("alpha,gamma,window", [
    (0.19, 3.0, None), (8.3e-4, 180.0, None), (2.5, 0.5, None),
    (0.19, 3.0, (1e-2, 10.0)),
], ids=["0.19-3.0", "0.00083-180.0", "2.5-0.5", "0.19-3.0-window"])
def test_reused_rule_matches_a_fresh_rule(alpha, gamma, window):
    # one rule, passed z stepping down by decades and then a 64-z chunk at
    # large z, changes its span at every pass outside its window; each such
    # pass equals a fresh rule's exactly, and the rule holds the nodes of one
    # span only.  A pass inside the window takes the window's span: it
    # matches a fresh rule to rounding, and all such passes share that span
    rule = specfun._LaplaceRule(alpha, gamma, window)
    passes = ([np.array([z]) for z in 10.0 ** np.arange(2.0, -7.0, -1.0)]
              + [np.geomspace(50.0, 5000.0, 64)])
    window_spans = set()
    for zs in passes:
        got = np.array(_tricomi_u_raw(alpha, gamma, zs, rule=rule))
        fresh = specfun._LaplaceRule(alpha, gamma)
        want = np.array(_tricomi_u_raw(alpha, gamma, zs, rule=fresh))
        if window and window[0] <= zs.min() and zs.max() <= window[1]:
            assert np.all(np.abs(got[0] - want[0]) <= 1e-13), zs
            assert np.all(np.abs(got[1:] - want[1:])
                          <= 1e-13 * np.abs(want[1:])), zs
            window_spans.add(rule.span)
            continue
        assert np.array_equal(got, want), zs
        assert rule.span == fresh.span, zs
        assert rule.nodes.shape == fresh.nodes.shape, zs
    assert len(window_spans) == (1 if window else 0)


@pytest.mark.parametrize("alpha,gamma", [(0.19, 3.0), (8.3e-4, 180.0),
                                         (2.5, 0.5)])
def test_a_0d_z_matches_a_one_element_array(alpha, gamma):
    # a single z may come as a 0-d array, for which a pass returns scalars
    rule = specfun._LaplaceRule(alpha, gamma)
    for z in 10.0 ** np.arange(2.0, -7.0, -1.0):
        got = _tricomi_u_raw(alpha, gamma, np.float64(z), rule=rule)
        want = _tricomi_u_raw(alpha, gamma, np.array([z]), rule=rule)
        assert all(np.ndim(g) == 0 for g in got), z
        assert abs(got[0] - want[0][0]) <= 1e-14 * max(1.0, abs(want[0][0]))
        for g, w in zip(got[1:], want[1:]):
            assert abs(g - w[0]) <= 1e-14 * abs(w[0]), z


@pytest.mark.parametrize("alpha", [0.5, 0.03, 0.029, 8.3e-4])
def test_one_evaluation_makes_one_rule_pass_at_alpha(monkeypatch, alpha):
    # ln U, U'/U and U''/U share one pass of the Laplace rule, at alpha
    # itself at every alpha
    calls = []
    rule = specfun._LaplaceRule.moments

    def counted(*args):
        calls.append(args[0].alpha)
        return rule(*args)
    monkeypatch.setattr(specfun._LaplaceRule, "moments", counted)
    _tricomi_u_raw(alpha, 2.0, np.geomspace(0.01, 100.0, 16))
    assert calls == [alpha]


def test_log_u_stays_finite_where_u_overflows():
    # at gamma = 133 and z = 1e-3, U is about 1e-3^{-132} Gamma(132) /
    # Gamma(alpha): far beyond float range, while ln U is not
    alpha, gamma, z = 0.05, 133.0, 1e-3
    got = _u_parts(alpha, gamma, z)[0]
    assert got > math.log(np.finfo(float).max)
    with mpmath.workdps(30):
        want = float(mpmath.log(mpmath.hyperu(alpha, gamma, z)))
    assert abs(got - want) <= 1e-13 * abs(want)


def test_u_empty_input():
    for got in _tricomi_u_raw(1.0, 2.0, np.array([])):
        assert isinstance(got, np.ndarray) and got.shape == (0,)


def test_u_domain_errors():
    for z in (0.0, -1.0):
        with pytest.raises(DomainError):
            _tricomi_u_raw(1.0, 2.0, np.array([z]))
    with pytest.raises(DomainError):
        _tricomi_u_raw(0.0, 2.0, np.array([1.0]))
    for zs in ([math.nan], [math.inf], [1.0, math.nan]):
        with pytest.raises(DomainError, match="z must be finite"):
            _tricomi_u_raw(1.0, 2.0, np.array(zs))


# ---------------------------------------------------------------------------
# derivatives: U'/U and M'/M

def test_m_prime_alpha_zero():
    assert m_ratio(0.0, 2.0, 3.0) == 0.0


def test_u_prime_power_identity():
    # U = z^{-1/2}, so U'/U = -1/(2 z)
    got = u_ratio(0.5, 1.5, 4.0)
    assert abs(got - (-0.5 / 4.0)) <= 1e-10


def test_m_prime_shifted_value():
    # M(1, 2, z) = (e^z - 1)/z, so M'/M at z = 1 is 1/(e - 1)
    want = 1.0 / (math.e - 1.0)
    got = m_ratio(1.0, 2.0, 1.0)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("alpha,gamma", PAIRS)
def test_derivative_identities_vs_finite_difference(alpha, gamma):
    # M'/M and U'/U against central differences of ln M and ln U
    for z in (0.5, 2.0, 20.0):
        h = 1e-6 * max(1.0, z)
        fd_m = (log_m(alpha, gamma, z + h) - log_m(alpha, gamma, z - h)) \
            / (2 * h)
        got_m = m_ratio(alpha, gamma, z)
        assert abs(got_m - fd_m) <= 1e-5 * max(1.0, abs(fd_m))
        fd_u = (_u_parts(alpha, gamma, z + h)[0]
                - _u_parts(alpha, gamma, z - h)[0]) / (2 * h)
        got_u = u_ratio(alpha, gamma, z)
        assert abs(got_u - fd_u) <= 1e-5 * max(abs(fd_u), 1e-12)


# ---------------------------------------------------------------------------
# Wronskian

def test_wronskian_examples():
    got = math.exp(log_wronskian(1.0, 1.0, np.array([1.0]))[0])
    assert abs(got - math.e) <= 1e-12 * math.e
    want = (1.0 / math.gamma(0.5)) * 0.25 * math.exp(2.0)
    got = math.exp(log_wronskian(0.5, 2.0, np.array([2.0]))[0])
    assert abs(got - want) <= 1e-12 * abs(want)
    assert abs(got - 1.04221) <= 1e-4


@pytest.mark.parametrize("alpha,gamma", PAIRS)
def test_wronskian_identity_on_log_grid(alpha, gamma):
    zs = np.geomspace(0.1, 50.0, 25)
    gap = log_wronskian_num(alpha, gamma, zs) - log_wronskian(alpha, gamma,
                                                              zs)
    assert np.max(np.abs(np.expm1(gap))) <= 1e-8


def test_wronskian_domain_and_overflow():
    with pytest.raises(DomainError):
        log_wronskian(1.0, 2.0, np.array([0.0]))
    for alpha, gamma in ((0.0, 2.0), (1.0, -1.0)):
        with pytest.raises(DomainError):
            log_wronskian(alpha, gamma, np.array([1.0]))
    for z in (math.nan, math.inf):
        with pytest.raises(DomainError, match="z must be finite"):
            log_wronskian(1.0, 2.0, np.array([z]))
    # W = -e^z / z^2 leaves float range at z = 1e4; ln |W| does not
    got = log_wronskian(1.0, 2.0, np.array([1e4]))[0]
    assert got == pytest.approx(1e4 - 2.0 * math.log(1e4), rel=1e-15)


@given(st.floats(0.1, 8.0), st.floats(0.3, 12.0), st.floats(0.1, 50.0))
def test_wronskian_identity_property(alpha, gamma, z):
    zs = np.array([z])
    gap = log_wronskian_num(alpha, gamma, zs) - log_wronskian(alpha, gamma,
                                                              zs)
    assert abs(np.expm1(gap[0])) <= 1e-8
