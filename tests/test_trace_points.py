"""The names through which perfbench/tracing.py counts the package's work.

The tracer replaces these module attributes for the length of a traced run
and skips a name that no longer exists, so a renamed name, or one that the
package stops calling through, leaves its metric at 0 without failing
anything.  These checks fail instead: each name exists where the tracer
looks, and a solve and cirmort verify's closed-form checks call through
them."""

import collections
import types

from cirmort import cli, closed_form, oracles, specfun

# wrapped as spans (IMPORTED), counted (value, value_derivative) and
# asserted on by perfbench's self-test (value, _tricomi_u_raw)
CLOSED_FORM_NAMES = ("value", "value_derivative", "_tricomi_u_raw",
                     "find_root_bracketed")


def test_the_traced_names_exist_where_the_tracer_looks():
    for name in CLOSED_FORM_NAMES:
        assert isinstance(getattr(closed_form, name, None),
                          types.FunctionType), name
    assert isinstance(closed_form._Workspace.residual_scaled,
                      types.FunctionType)
    # the module references the tracer swaps for proxies
    assert (cli.closed_form, cli.specfun, cli.oracles) == (
        closed_form, specfun, oracles)


def test_the_package_calls_through_the_traced_names(monkeypatch, primary_cir,
                                                    primary_contract):
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in CLOSED_FORM_NAMES:
        monkeypatch.setattr(closed_form, name,
                            counting(name, getattr(closed_form, name)))
    monkeypatch.setattr(closed_form._Workspace, "residual_scaled",
                        counting("residual_scaled",
                                 closed_form._Workspace.residual_scaled))
    sol = closed_form.solve_boundary(primary_cir, primary_contract)
    assert calls["find_root_bracketed"] == 1
    assert calls["residual_scaled"] > 0 and calls["_tricomi_u_raw"] > 0
    cli._closed_form_checks(
        cli.RunConfig(cir=primary_cir, contract=primary_contract), sol)
    assert calls["value"] == 1
