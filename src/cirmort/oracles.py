"""Independent numerical oracles for the closed-form solution:

* shooting/bisection on the steady ODE,
* a finite-difference obstacle solver on the tridiagonal generator: policy
  iteration on the stationary problem, or implicit time steps of the
  time-dependent one up to a finite horizon,
* Monte Carlo valuation of the threshold prepayment policy with exact CIR
  transition sampling.

Shooting geometry (empirical, asserted by the classifier tests): starting the
IVP at V = 1, V' = 0 from a candidate BELOW the true boundary produces a
trajectory that dives down (classified "decayed"); a candidate ABOVE it picks
up the growing mode and exits upward ("diverged_up").  The classification is
monotone in the candidate, so bisection on the decayed -> diverged_up
transition converges to the boundary.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_banded

from .errors import ConvergenceError, NoBracketError, ValidationError
from .model import CirParams, ContractParams, balance
from .numerics import ode_integrate

__all__ = [
    "ShootingReport",
    "GridSpec",
    "FdReport",
    "McReport",
    "CflWarning",
    "shoot_classify",
    "shoot_solve",
    "fd_steady_state",
    "mc_value",
    "mc_optimality_probe",
]


class CflWarning(UserWarning):
    """Advisory: the time step is coarse relative to the advection term."""


# ---------------------------------------------------------------------------
# Shooting

DIVERGED_UP = "diverged_up"
DECAYED = "decayed"

_V_UP_BAND = 2.0
_V_DOWN_BAND = 0.0


@dataclass(frozen=True)
class ShootingReport:
    r_star: float
    iterations: int
    classification_trace: tuple          # of (candidate, label)
    bracket: tuple                       # (lo, hi) at exit


def shoot_classify(cir: CirParams, contract: ContractParams,
                   r_candidate: float, x_max: float | None = None,
                   ode_tol: float = 1e-10) -> str:
    """Integrate the steady ODE from (r, V=1, V'=0) and classify the exit.

    Returns DIVERGED_UP if V exits through the upper band (candidate above
    the boundary: the IVP start V = 1 overshoots the true value and excites
    the growing mode) or DECAYED if V crosses below zero / settles onto the
    c/x tail (candidate at or below the boundary).
    """
    if x_max is None:
        x_max = 50.0 * max(cir.theta, contract.c)
    if not (0.0 < r_candidate < x_max):
        raise ValidationError(
            "r_candidate", f"must lie in (0, {x_max!r}), got {r_candidate!r}")
    k, theta, sigma2, c = cir.k, cir.theta, cir.sigma ** 2, contract.c

    def rhs(x, y):
        v, vp = y
        return (vp, (x * v - c - k * (theta - x) * vp) / (0.5 * sigma2 * x))

    def hit_up(x, y):
        return y[0] - _V_UP_BAND

    def hit_down(x, y):
        return y[0] - _V_DOWN_BAND

    hit_up.terminal = True
    hit_down.terminal = True
    traj = ode_integrate(rhs, r_candidate, (1.0, 0.0), x_max,
                         tol=ode_tol, events=(hit_up, hit_down))
    if len(traj.event_xs[0]) > 0:
        return DIVERGED_UP
    if len(traj.event_xs[1]) > 0:
        return DECAYED
    # no band exit before x_max: compare the endpoint against the c/x tail
    v_end = traj.states[-1, 0]
    return DIVERGED_UP if v_end > 2.0 * c / x_max else DECAYED


def shoot_solve(cir: CirParams, contract: ContractParams,
                tol: float = 1e-8, x_max: float | None = None,
                ode_tol: float = 1e-10) -> ShootingReport:
    """Bisection on shoot_classify over a geometric candidate scan."""
    if not tol >= 1e-10:
        raise ValidationError("tol", f"must be >= 1e-10, got {tol!r}")
    scan = np.geomspace(1e-4 * min(cir.theta, contract.c),
                        2.0 * max(cir.theta, contract.c), 24)
    trace = []
    labels = []
    for r in scan:
        label = shoot_classify(cir, contract, float(r), x_max, ode_tol)
        trace.append((float(r), label))
        labels.append(label)
    flips = [i for i in range(len(labels) - 1)
             if labels[i] != labels[i + 1]]
    if not flips:
        raise NoBracketError(
            f"all {len(scan)} scan candidates classified {labels[0]}",
            scan_points=scan, scan_values=labels)
    if len(flips) > 1 or labels[0] != DECAYED:
        raise ConvergenceError(
            "classification is not a monotone decayed -> diverged_up step",
            trace=tuple(trace))
    lo, hi = float(scan[flips[0]]), float(scan[flips[0] + 1])

    iterations = 0
    while hi - lo > tol * 0.5 * (lo + hi):
        mid = 0.5 * (lo + hi)
        label = shoot_classify(cir, contract, mid, x_max, ode_tol)
        trace.append((mid, label))
        if label == DECAYED:
            lo = mid
        else:
            hi = mid
        iterations += 1
        if iterations > 200:
            raise ConvergenceError("bisection failed to close the bracket",
                                   trace=tuple(trace))
    return ShootingReport(r_star=0.5 * (lo + hi), iterations=iterations,
                          classification_trace=tuple(trace),
                          bracket=(lo, hi))


# ---------------------------------------------------------------------------
# Finite differences

@dataclass(frozen=True)
class GridSpec:
    x_max: float
    n_nodes: int

    def __post_init__(self):
        if not self.x_max > 0:
            raise ValidationError("x_max", "must be positive")
        if self.n_nodes < 10:
            raise ValidationError("n_nodes", "need at least 10 nodes")


@dataclass(frozen=True)
class FdReport:
    grid: np.ndarray
    v_steady: np.ndarray
    h_trace: np.ndarray                 # rows (tau, h(tau))
    steps_to_steady: int


def _operator_coeffs(cir: CirParams, xs: np.ndarray, dx: float):
    """Tridiagonal coefficients of the generator on interior nodes, central
    where that keeps the scheme monotone, upwind otherwise."""
    diff = 0.5 * cir.sigma ** 2 * xs / dx ** 2
    adv = cir.k * (cir.theta - xs)
    lo_c = diff - adv / (2.0 * dx)
    up_c = diff + adv / (2.0 * dx)
    central_ok = (lo_c >= 0) & (up_c >= 0)
    pos = adv >= 0
    lo = np.where(central_ok, lo_c, np.where(pos, diff, diff - adv / dx))
    up = np.where(central_ok, up_c, np.where(pos, diff + adv / dx, diff))
    dg = np.where(central_ok, -2.0 * diff,
                  np.where(pos, -2.0 * diff - adv / dx,
                           -2.0 * diff + adv / dx)) - xs
    return lo, dg, up


def _howard(band: np.ndarray, rhs: np.ndarray, obstacle: float,
            contact: np.ndarray):
    """Policy iteration for the discrete obstacle problem
    min(obstacle - v, rhs - B v) = 0, B tridiagonal in `solve_banded` form
    with a Dirichlet last row.

    Contact rows are pinned to the obstacle and the rest solved exactly;
    each row then keeps whichever constraint binds.  B is an M-matrix, so
    this settles in at most n + 1 iterations (Bokanowski, Maroso & Zidani,
    SIAM J. Numer. Anal. 47, 2009).  Returns (v, contact set).
    """
    n = rhs.size
    for _ in range(n + 1):
        pinned = band.copy()
        pinned[1] = np.where(contact, 1.0, band[1])
        pinned[0, 1:] = np.where(contact[:-1], 0.0, band[0, 1:])
        pinned[2, :-1] = np.where(contact[1:], 0.0, band[2, :-1])
        v = solve_banded((1, 1), pinned, np.where(contact, obstacle, rhs))
        bv = band[1] * v
        bv[:-1] += band[0, 1:] * v[1:]
        bv[1:] += band[2, :-1] * v[:-1]
        new_contact = obstacle - v < rhs - bv
        new_contact[-1] = False
        if np.array_equal(new_contact, contact):
            v[:-1] = np.minimum(v[:-1], obstacle)
            return v, contact
        contact = new_contact
    raise ConvergenceError(
        f"policy iteration did not settle in {n + 1} iterations")


def _contact_edge(xs: np.ndarray, v: np.ndarray, obstacle: float) -> float:
    """Right edge of the contiguous run from x = 0 where v touches the
    obstacle (the free boundary), or 0 when v does not touch at x = 0."""
    touching = (obstacle - v) <= 1e-9 * max(1.0, obstacle)
    if not touching[0]:
        return 0.0
    edge = int(np.argmin(touching)) - 1 if not touching.all() else xs.size - 1
    return float(xs[max(edge, 0)])


def fd_steady_state(cir: CirParams, contract: ContractParams,
                    grid_spec: GridSpec, dtau: float = 0.05,
                    tau_max: float | None = None,
                    steady_tol: float = 1e-10) -> FdReport:
    """Finite-difference obstacle solver on the tridiagonal generator.

    With tau_max None, the stationary problem min(m/c - v, c - M v) = 0,
    M = -A, is solved directly by policy iteration; the report carries
    h_trace = [[inf, h]] and steps_to_steady = 0.  With a finite tau_max,
    the time-dependent problem is marched by implicit steps of size dtau
    against the balance obstacle (m/c)(1 - e^{-c tau}), each step the same
    policy iteration on (I + dtau M) v = v_old + dtau c, until the update
    falls below steady_tol or tau reaches tau_max.  At x = 0 the operator
    degenerates to first order and is discretized one-sided; at x_max a
    Dirichlet value c/x_max (the tail of the steady solution) is imposed.
    """
    if not dtau > 0:
        raise ValidationError("dtau", "must be positive")
    n = grid_spec.n_nodes
    xs = np.linspace(0.0, grid_spec.x_max, n)
    dx = xs[1] - xs[0]
    c = contract.c

    # banded M = -A; row 0 is the degenerate one-sided equation, the last
    # row (zero here) carries the Dirichlet condition
    lo_i, dg_i, up_i = _operator_coeffs(cir, xs[1:-1], dx)
    adv0 = cir.k * cir.theta / dx
    m_band = np.zeros((3, n))
    m_band[0, 1] = -adv0
    m_band[0, 2:] = -up_i
    m_band[1, 0] = adv0
    m_band[1, 1:-1] = -dg_i
    m_band[2, :-2] = -lo_i
    rhs = np.full(n, c)
    rhs[-1] = c / grid_spec.x_max
    no_contact = np.zeros(n, dtype=bool)

    if tau_max is None:
        m_band[1, -1] = 1.0
        obstacle = balance(contract, math.inf)
        v, _ = _howard(m_band, rhs, obstacle, no_contact)
        return FdReport(grid=xs, v_steady=v,
                        h_trace=np.array([[math.inf,
                                           _contact_edge(xs, v, obstacle)]]),
                        steps_to_steady=0)

    adv_cfl = dtau * np.max(np.abs(cir.k * (cir.theta - xs))) / dx
    if adv_cfl > 100.0:
        warnings.warn(
            f"dtau advects across {adv_cfl:.0f} cells per step; "
            f"consider a smaller dtau", CflWarning, stacklevel=2)
    step_band = dtau * m_band
    step_band[1] += 1.0
    v = np.zeros(n)
    contact = no_contact
    h_trace = []
    n_steps = int(math.ceil(tau_max / dtau))
    steps_taken = n_steps
    for step in range(1, n_steps + 1):
        tau = step * dtau
        obstacle = balance(contract, tau)
        v_old = v
        step_rhs = v + dtau * rhs
        step_rhs[-1] = rhs[-1]
        v, contact = _howard(step_band, step_rhs, obstacle, contact)
        h_trace.append((tau, _contact_edge(xs, v, obstacle)))
        if float(np.max(np.abs(v - v_old))) <= steady_tol:
            steps_taken = step
            break
    return FdReport(grid=xs, v_steady=v, h_trace=np.array(h_trace),
                    steps_to_steady=steps_taken)


# ---------------------------------------------------------------------------
# Monte Carlo

@dataclass(frozen=True)
class McReport:
    x0: float
    boundary_used: float
    value_estimate: float
    std_error: float
    paths: int
    dt: float
    seed: int
    path_steps: int     # path-steps simulated by the run (all its boundaries)


# Russian-roulette tail schedule (years): unbiased geometric thinning of
# long-lived paths so deep-tail discounted payments need not be truncated.
_ROULETTE_START = 30.0
_ROULETTE_PERIOD = 15.0


def _simulate_threshold(cir: CirParams, contract: ContractParams, x0: float,
                        boundaries: Sequence[float], paths: int, dt: float,
                        horizon: float, seed: int):
    """Common-path valuation of several threshold policies at once.

    Exact CIR transition: x' = cbar * noncentral-chi2(df, nc) with
    cbar = sigma^2 (1 - e^{-k dt})/(4k), df = 4 k theta / sigma^2,
    nc = x e^{-k dt} / cbar.  Discounting uses trapezoidal accrual of the
    rate integral.  The deep tail is handled by Russian-roulette
    resampling: past _ROULETTE_START, every _ROULETTE_PERIOD years each
    live path is kept with probability 1/2 and its weight doubled,
    which keeps the estimator unbiased while the working set (and cost)
    decays geometrically.  A path is also dropped once its weighted
    discount factor is below 1e-8; the horizon is a final hard cap with
    truncation error bounded by the surviving weighted discount.

    A path stops for a boundary at its first step at or below it, so the
    live sets are nested: a path is live while it is live for the lowest
    boundary (by value, not position), and it carries the highest boundary
    it is still live for.  The working set drops its dead paths at each
    roulette and whenever at most half of it is live, which keeps the
    copying amortised O(paths); the loop ends when no path is live.  Dead
    paths left in the set still draw random numbers, so the stream, and
    with it each estimate, depends on when paths retire.
    """
    if not dt > 0:
        raise ValidationError("dt", "must be positive")
    if not horizon >= dt:
        raise ValidationError("horizon", "must be at least dt")
    if paths < 1:
        raise ValidationError("paths", "need at least one path")
    if not x0 > 0:
        raise ValidationError("x0", "must be positive")
    rng = np.random.Generator(np.random.SFC64(seed))
    k, sigma2, c = cir.k, cir.sigma ** 2, contract.c
    edt = math.exp(-k * dt)
    cbar = sigma2 * (1.0 - edt) / (4.0 * k)
    df = 4.0 * k * cir.theta / sigma2
    bvec = np.asarray(boundaries, dtype=float)
    # levels[searchsorted(sorted b, y)] is the highest boundary below y
    levels = np.concatenate(([-np.inf], np.sort(bvec)))
    pay_rate = c * dt * 0.5

    # full-size accumulators indexed by original path id
    pay = np.zeros((bvec.size, paths))
    payoff = np.zeros((bvec.size, paths))
    payoff[x0 <= bvec, :] = 1.0

    # working set: every live path, and at most as many dead ones
    ids = np.arange(paths)
    x = np.full(paths, x0, dtype=float)
    disc = np.ones(paths)
    log_disc = np.zeros(paths)
    accrual = np.zeros(paths)           # running payments at unit weight
    top = np.full(paths, levels[np.searchsorted(levels[1:], x0)])
    n_live = paths if top[0] > -np.inf else 0
    weight = 1.0                        # shared: roulette doubles every path

    def stop(rows, xs):
        # working rows stop at xs for each live boundary at or above it,
        # banking their payments; returns the (boundary, row) stops
        jj, kk = ((bvec[:, None] <= top[rows])
                  & (bvec[:, None] >= xs)).nonzero()
        pay[jj, ids[rows[kk]]] = accrual[rows[kk]]
        top[rows] = levels[np.searchsorted(levels[1:], xs)]
        return jj, rows[kk]

    n_steps = int(round(horizon / dt))
    roulette_every = max(1, int(round(_ROULETTE_PERIOD / dt)))
    roulette_from = int(round(_ROULETTE_START / dt))
    shape_g = 0.5 * (df - 1.0)
    step = path_steps = 0
    while n_live and step < n_steps:
        step += 1
        n_act = ids.size
        path_steps += n_act
        if df > 1.0:
            zn = rng.standard_normal(n_act, dtype=np.float32)
            g = rng.standard_gamma(shape_g, n_act)
            xn = cbar * (2.0 * g + (zn + np.sqrt(x * (edt / cbar))) ** 2)
        else:
            mix = rng.poisson(0.5 * x * (edt / cbar))
            g = rng.standard_gamma(0.5 * df + mix)
            xn = cbar * 2.0 * g
        ln = log_disc + (0.5 * dt) * (x + xn)
        dn = np.exp(-ln)
        accrual += (pay_rate * weight) * (disc + dn)
        hit = (xn <= top).nonzero()[0]
        if hit.size:
            jj, rows = stop(hit, xn[hit])
            payoff[jj, ids[rows]] = weight * dn[rows]
            n_live -= int(np.count_nonzero(top[hit] == -np.inf))
        x, log_disc, disc = xn, ln, dn
        roulette = step >= roulette_from and step % roulette_every == 0
        if roulette:
            # keep each live path with probability 1/2 at doubled weight;
            # payments accrued so far are banked at full weight either way
            drop = (weight * disc < 1e-8) | (rng.random(n_act) >= 0.5)
            out = ((top > -np.inf) & drop).nonzero()[0]
            stop(out, -np.inf)
            n_live -= out.size
            weight *= 2.0
        if roulette or 2 * n_live <= ids.size:
            sel = (top > -np.inf).nonzero()[0]
            ids, x, disc, log_disc, accrual, top = (
                ids[sel], x[sel], disc[sel], log_disc[sel], accrual[sel],
                top[sel])

    # paths live at the horizon contribute their accrued payments
    stop((top > -np.inf).nonzero()[0], -np.inf)
    return [McReport(x0=x0, boundary_used=float(b),
                     value_estimate=float(totals.mean()),
                     std_error=(float(totals.std(ddof=1)) / math.sqrt(paths)
                                if paths > 1 else 0.0),
                     paths=paths, dt=dt, seed=seed, path_steps=path_steps)
            for b, totals in zip(boundaries, pay + payoff)]


def mc_value(cir: CirParams, contract: ContractParams, x0: float,
             boundary: float, paths: int, dt: float, horizon: float,
             seed: int = 0) -> McReport:
    """Value of the threshold policy: pay c continuously, prepay 1 at the
    first step where the rate is at or below the boundary."""
    return _simulate_threshold(cir, contract, x0, [boundary], paths, dt,
                               horizon, seed)[0]


def mc_optimality_probe(cir: CirParams, contract: ContractParams, x0: float,
                        boundary: float, delta: float, paths: int, dt: float,
                        horizon: float, seed: int = 0):
    """Common-random-number valuation at boundary - delta, boundary, and
    boundary + delta; the borrower minimizes, so the middle estimate should
    not exceed the neighbors by more than noise when boundary is optimal."""
    if not boundary - delta > 0:
        raise ValidationError("delta", "requires boundary - delta > 0")
    return tuple(_simulate_threshold(
        cir, contract, x0, [boundary - delta, boundary, boundary + delta],
        paths, dt, horizon, seed))
