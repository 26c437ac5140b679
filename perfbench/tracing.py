"""Spans and work counts at the package's layer boundaries.

The tracer replaces, for the length of the traced run, the names one module
of the package calls in another: what `closed_form` imports from `numerics`
and `specfun`, what `oracles` imports from `numerics` and `scipy.linalg`,
and the module objects `cli` and the benchmark call through.  Callables
passed into `numerics` (integrands, residuals, ODE right-hand sides) are
wrapped as spans of the caller's layer, so a layer's self time excludes the
work it calls back into.  A few work counts inside a layer (residual
evaluations, IU~ cache hits, U points per evaluation branch) are taken by
counting wrappers that record no span.

A name that no longer exists is skipped: its metric reads 0.
"""

from __future__ import annotations

import collections
import json
import time
import types

import numpy as np

# (module holding the name, name, layer of the callee)
IMPORTED = (
    ("closed_form", "integrate_adaptive", "numerics"),
    ("closed_form", "find_root_bracketed", "numerics"),
    ("closed_form", "_tricomi_u_raw", "specfun"),
    ("closed_form", "_kummer_m_scaled", "specfun"),
    ("closed_form", "_kummer_m_prime_scaled", "specfun"),
    ("oracles", "ode_integrate", "numerics"),
    ("oracles", "solve_banded", "scipy"),
)

# (module holding a reference to another module of the package, its name)
MODULE_REFS = (
    ("cli", "closed_form"), ("cli", "oracles"), ("cli", "specfun"),
    ("bench", "closed_form"), ("bench", "oracles"), ("bench", "cli"),
)


def _points(args, index):
    return int(np.size(args[index])) if len(args) > index else 0


def _hook_quad(counts, args, result):
    counts["quad_evals"] += getattr(result, "evaluations", 0)


def _hook_fd(counts, args, result):
    counts["fd_steps"] += getattr(result, "steps_to_steady", 0)


def _hook_mc(counts, args, result):
    # mc_optimality_probe returns one report per boundary, on common paths
    first = result[0] if isinstance(result, tuple) else result
    counts["mc_paths"] += getattr(first, "paths", 0)


_HOOKS = {
    "numerics.integrate_adaptive": _hook_quad,
    "oracles.fd_steady_state": _hook_fd,
    "oracles.mc_value": _hook_mc,
    "oracles.mc_optimality_probe": _hook_mc,
}


class _LayerProxy:
    """Stands in for a module object; its functions come back traced."""

    def __init__(self, tracer, module, caller):
        self._tracer = tracer
        self._module = module
        self._layer = module.__name__.rsplit(".", 1)[-1]
        self._caller = caller
        self._wrapped = {}

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if not isinstance(attr, types.FunctionType):
            return attr
        if name not in self._wrapped:
            self._wrapped[name] = self._tracer.span(
                self._layer, name, attr, self._caller)
        return self._wrapped[name]


class Tracer:
    def __init__(self):
        # one list per span: [name, parent index or -1, op, start, end]
        self.spans = []
        self.counts = collections.Counter()
        # points (size of the z argument) carried by each specfun call
        self.points = collections.Counter()
        self.op = -1
        self._stack = []
        self._patches = []
        self._laguerre_rule = None
        self._laguerre_misses = 0

    # -- wrappers --------------------------------------------------------

    def span(self, layer, name, fn, caller=None):
        full = f"{layer}.{name}"
        hook = _HOOKS.get(full)
        spans, stack, counts = self.spans, self._stack, self.counts
        points = self.points if layer == "specfun" else None
        wrap_callbacks = layer == "numerics" and caller is not None
        tracer = self

        def traced(*args, **kwargs):
            if wrap_callbacks:
                args = tuple(tracer._callback(caller, a) for a in args)
                kwargs = {k: tracer._callback(caller, v)
                          for k, v in kwargs.items()}
            rec = [full, stack[-1] if stack else -1, tracer.op, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            if points is not None:
                points[full] += _points(args, len(args) - 1)
            return result

        # solve_ivp reads `terminal` and `direction` off event functions
        traced.__dict__.update(getattr(fn, "__dict__", {}))
        return traced

    def _callback(self, caller, obj):
        if isinstance(obj, (tuple, list)) and obj and all(
                callable(o) for o in obj):
            return type(obj)(self._callback(caller, o) for o in obj)
        if callable(obj) and not isinstance(obj, type):
            return self.span(caller, getattr(obj, "__name__", "callback"),
                             obj)
        return obj

    def _count(self, key, fn, points_arg=None):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            if points_arg is not None:
                counts[key + "_points"] += _points(args, points_arg)
            return fn(*args, **kwargs)
        return counted

    def _count_iu(self, fn):
        counts = self.counts

        def iu_tilde(ws, z, *args, **kwargs):
            counts["iu_calls"] += 1
            if float(z) in getattr(ws, "_iu_cache", ()):
                counts["iu_hits"] += 1
            return fn(ws, z, *args, **kwargs)
        return iu_tilde

    # -- installation ----------------------------------------------------

    def _patch(self, obj, name, make):
        if obj is None or not hasattr(obj, name):
            return
        old = getattr(obj, name)
        self._patches.append((obj, name, old))
        setattr(obj, name, make(old))

    def install(self, modules: dict) -> None:
        """Patch the boundaries; `modules` maps cli, closed_form, specfun,
        oracles and bench to their module objects."""
        cf = modules["closed_form"]
        sf = modules["specfun"]
        ws_class = getattr(cf, "_Workspace", None)
        # counters first, so the spans below wrap the counting versions
        self._patch(ws_class, "residual_scaled",
                    lambda f: self._count("residual_calls", f))
        self._patch(ws_class, "iu_tilde", self._count_iu)
        for name in ("value", "value_derivative"):
            self._patch(cf, name, lambda f: self._count("value", f, 1))
        self._patch(sf, "_u_laguerre",
                    lambda f: self._count("u_laguerre", f, 2))
        self._patch(sf, "_u_panels", lambda f: self._count("u_panel", f, 2))
        for holder, name, layer in IMPORTED:
            self._patch(modules[holder], name,
                        lambda f, layer=layer, holder=holder, name=name:
                        self.span(layer, name, f, holder))
        for holder, name in MODULE_REFS:
            self._patch(modules[holder], name,
                        lambda m, holder=holder: _LayerProxy(self, m, holder))
        self._laguerre_rule = getattr(sf, "_laguerre_rule", None)
        self._laguerre_misses = _misses(self._laguerre_rule)

    def uninstall(self) -> None:
        self.counts["laguerre_rule_misses"] += (
            _misses(self._laguerre_rule) - self._laguerre_misses)
        for obj, name, old in reversed(self._patches):
            setattr(obj, name, old)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics, per operation of the traced run, as
        {name: {"value": ..., "unit": ...}}."""
        spans, counts = self.spans, self.counts
        covered = collections.Counter()
        for name, parent, _, start, end in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls = collections.Counter()
        incl = collections.Counter()
        self_s = collections.Counter()
        layer_self = collections.Counter()
        brent_iters = shoot_ivps = 0
        for i, (name, parent, _, start, end) in enumerate(spans):
            calls[name] += 1
            incl[name] += end - start
            own = end - start - covered[i]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            if parent >= 0 and spans[parent][0] == \
                    "numerics.find_root_bracketed":
                brent_iters += 1
            if name == "numerics.ode_integrate" and self._under(
                    i, "oracles.shoot_solve"):
                shoot_ivps += 1

        def total(stat, part):
            return sum(v for k, v in stat.items()
                       if k.startswith("specfun.") and part in k)

        mc_s = incl["oracles.mc_value"] + incl["oracles.mc_optimality_probe"]
        n = max(n_ops, 1)
        per_op = {
            "closed_form.residual_calls": counts["residual_calls"],
            "closed_form.iu_calls": counts["iu_calls"],
            "closed_form.value_points": counts["value_points"],
            "closed_form.self_s": layer_self["closed_form"],
            "numerics.quad_calls": calls["numerics.integrate_adaptive"],
            "numerics.quad_evals": counts["quad_evals"],
            "numerics.quad_self_s": self_s["numerics.integrate_adaptive"],
            "numerics.brent_iters": brent_iters,
            "numerics.ode_calls": calls["numerics.ode_integrate"],
            "numerics.ode_s": self_s["numerics.ode_integrate"],
            "specfun.u_calls": total(calls, "tricomi_u"),
            "specfun.u_points": total(self.points, "tricomi_u"),
            "specfun.u_laguerre_points": counts["u_laguerre_points"],
            "specfun.u_panel_points": counts["u_panel_points"],
            "specfun.u_self_s": total(self_s, "tricomi_u"),
            "specfun.m_points": total(self.points, "kummer_m"),
            "specfun.m_self_s": total(self_s, "kummer_m"),
            "specfun.laguerre_rule_misses": counts["laguerre_rule_misses"],
            "oracles.shoot_ivps": shoot_ivps,
            "oracles.shoot_s": incl["oracles.shoot_solve"],
            "oracles.fd_steps": counts["fd_steps"],
            "oracles.fd_banded_solves": calls["scipy.solve_banded"],
            "oracles.fd_s": incl["oracles.fd_steady_state"],
            "oracles.mc_s": mc_s,
            "cli.self_s": layer_self["cli"],
        }
        out = {k: {"value": v / n, "unit": "s/op" if k.endswith("_s")
                   else "count/op"} for k, v in per_op.items()}
        out["closed_form.iu_hit_ratio"] = {
            "value": (counts["iu_hits"] / counts["iu_calls"]
                      if counts["iu_calls"] else 0.0),
            "unit": "ratio"}
        out["oracles.mc_us_per_path"] = {
            "value": (1e6 * mc_s / counts["mc_paths"] if counts["mc_paths"]
                      else 0.0),
            "unit": "us/path"}
        return out

    def _under(self, i, ancestor):
        parent = self.spans[i][1]
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path) -> None:
        base = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, parent, op, start, end) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": op, "name": name,
                    "start": start - base, "end": end - base}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts),
                                 "points": dict(self.points)}) + "\n")


def _misses(rule) -> int:
    info = getattr(rule, "cache_info", None)
    return info().misses if info is not None else 0
