"""Unit tests for parameter containers, the unit-balance rule and derived
constants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cirmort.errors import ValidationError
from cirmort.model import (CirParams, ContractParams, FellerWarning,
                           derive_constants, require_unit_balance)

rates = st.floats(0.01, 2.0, allow_nan=False)


def test_validation_names_offending_field():
    for field, kwargs in [
        ("k", dict(k=-1.0, theta=0.06, sigma=0.1)),
        ("theta", dict(k=0.25, theta=0.0, sigma=0.1)),
        ("sigma", dict(k=0.25, theta=0.06, sigma=float("inf"))),
        # a bool is not a number, though Python counts it as an int
        ("k", dict(k=True, theta=0.06, sigma=0.1)),
    ]:
        with pytest.raises(ValidationError) as exc:
            CirParams(**kwargs)
        assert exc.value.field == field
    # any other real, numpy scalars included, is stored as a float
    for k in (np.float32(0.25), np.int64(1), 1):
        cir = CirParams(k=k, theta=0.06, sigma=np.float32(0.1))
        assert type(cir.k) is float and cir.k == float(k)
        assert type(cir.sigma) is float and cir.sigma == float(np.float32(0.1))


def test_contract_validation():
    with pytest.raises(ValidationError) as exc:
        ContractParams(c=0.0, m=0.05)
    assert exc.value.field == "c"
    with pytest.raises(ValidationError) as exc:
        ContractParams(c=0.05, m=-1.0)
    assert exc.value.field == "m"
    with pytest.raises(ValidationError) as exc:
        ContractParams(c=0.05, m=True)
    assert exc.value.field == "m"
    con = ContractParams(c=np.float32(0.05), m=np.int64(1))
    assert (type(con.c), type(con.m)) == (float, float)
    assert (con.c, con.m) == (float(np.float32(0.05)), 1.0)


def test_unit_balance_rule():
    # m = c to rounding passes; anything else is rejected, naming m
    require_unit_balance(ContractParams(c=0.05, m=0.05))
    require_unit_balance(ContractParams(c=0.05, m=0.05 * (1.0 + 2e-16)))
    for m in (0.06, 0.05 * (1.0 + 1e-14), 0.04):
        with pytest.raises(ValidationError) as exc:
            require_unit_balance(ContractParams(c=0.05, m=m))
        assert exc.value.field == "m" and "m/c" in str(exc.value)


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
