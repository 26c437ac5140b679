"""Unit tests for parameter containers, derived constants, and the balance
function."""

import math
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cirmort.errors import ValidationError
from cirmort.model import (CirParams, ContractParams, FellerWarning, balance,
                           derive_constants)

rates = st.floats(0.01, 2.0, allow_nan=False)


def test_validation_names_offending_field():
    for field, kwargs in [
        ("k", dict(k=-1.0, theta=0.06, sigma=0.1)),
        ("theta", dict(k=0.25, theta=0.0, sigma=0.1)),
        ("sigma", dict(k=0.25, theta=0.06, sigma=float("inf"))),
    ]:
        with pytest.raises(ValidationError) as exc:
            CirParams(**kwargs)
        assert exc.value.field == field


def test_contract_validation():
    with pytest.raises(ValidationError) as exc:
        ContractParams(c=0.0, m=0.05)
    assert exc.value.field == "c"
    with pytest.raises(ValidationError) as exc:
        ContractParams(c=0.05, m=-1.0)
    assert exc.value.field == "m"


def test_sigma_zero_rejected():
    # the sigma -> 0 limit sends gamma to infinity; the constructor must
    # reject it rather than let derive_constants emit infinities
    with pytest.raises(ValidationError):
        CirParams(k=1.0, theta=1.0, sigma=0.0)


def test_feller_flag_and_warning():
    ok = CirParams(k=0.25, theta=0.06, sigma=0.1)    # 2ktheta = 0.03 > 0.01
    assert ok.feller_satisfied
    with pytest.warns(FellerWarning):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            bad = CirParams(k=0.1, theta=0.03, sigma=0.2)
    assert not bad.feller_satisfied


def test_derive_constants_unit_example():
    d = derive_constants(CirParams(k=1.0, theta=1.0, sigma=1.0))
    assert d.s == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert d.lam == pytest.approx(1.0 - math.sqrt(3.0), rel=1e-10)
    assert d.p == pytest.approx(2.0 * math.sqrt(3.0), rel=1e-12)
    assert d.alpha == pytest.approx(1.0 - 1.0 / math.sqrt(3.0), rel=1e-10)
    assert d.gamma == pytest.approx(2.0, rel=1e-12)
    assert d.a_exp == pytest.approx(0.5 - 0.5 / math.sqrt(3.0), rel=1e-10)


def test_derive_constants_primary_fixture():
    # note: alpha = (k theta / sigma^2)(1 - k/s) = 1.5 * (1 - 0.870388...)
    # = 0.194418 for these inputs (the value 0.01943 sometimes quoted for
    # this set drops a factor of 10 in k theta / sigma^2)
    d = derive_constants(CirParams(k=0.25, theta=0.06, sigma=0.1))
    s = math.sqrt(0.0825)
    assert d.s == pytest.approx(s, rel=1e-12)
    assert d.lam == pytest.approx((0.25 - s) / 0.01, rel=1e-12)
    assert d.p == pytest.approx(2.0 * s / 0.01, rel=1e-12)
    assert d.alpha == pytest.approx(1.5 * (1.0 - 0.25 / s), rel=1e-12)
    assert d.alpha == pytest.approx(0.1944176, rel=1e-6)
    assert d.gamma == pytest.approx(3.0, rel=1e-12)


@given(st.builds(CirParams, k=rates, theta=rates, sigma=rates))
def test_derived_invariants(cir):
    d = derive_constants(cir)
    assert d.lam < 0
    assert d.p > 0
    assert 0 < d.a_exp < 0.5
    assert d.alpha > 0
    assert d.gamma > 0
    assert d.a_exp == pytest.approx(-d.lam / d.p, rel=1e-12)


def test_derive_constants_deterministic():
    cir = CirParams(k=0.3, theta=0.07, sigma=0.12)
    assert derive_constants(cir) == derive_constants(cir)


def test_balance_examples():
    con = ContractParams(c=0.06, m=1200.0)
    assert balance(con, 0.0) == 0.0
    got = balance(con, 10.0)
    assert got == pytest.approx(20000.0 * (1.0 - math.exp(-0.6)), rel=1e-12)
    assert got == pytest.approx(9023.77, abs=0.01)


def test_balance_limit_with_m_equal_c():
    con = ContractParams(c=0.05, m=0.05)
    assert balance(con, 1e6) == pytest.approx(1.0, rel=1e-12)


@given(st.floats(0.0, 200.0), st.floats(0.01, 0.2), st.floats(0.01, 5.0))
def test_balance_properties(tau, c, m):
    con = ContractParams(c=c, m=m)
    b = balance(con, tau)
    assert 0.0 <= b <= m / c + 1e-12
    assert balance(con, tau + 1.0) >= b


@given(st.floats(0.01, 100.0), st.floats(0.01, 0.2))
def test_balance_satisfies_the_defining_ode(tau, c):
    # M'(tau) = m - c M in time-to-expiry
    con = ContractParams(c=c, m=1.0)
    h = 1e-6 * max(1.0, tau)
    dm = (balance(con, tau + h) - balance(con, tau - h)) / (2.0 * h)
    assert abs(dm - (con.m - c * balance(con, tau))) <= 1e-6 * con.m


def test_balance_rejects_negative_tau():
    with pytest.raises(ValidationError):
        balance(ContractParams(c=0.05, m=0.05), -1.0)
