"""Independent numerical oracles for the closed-form solution:

* a backward Riccati sweep (invariant imbedding) of the steady ODE,
* a finite-difference obstacle solver: policy iteration on the stationary
  problem over the tridiagonal generator, on [0, 50 theta], an extent it
  sets itself next to its Dirichlet value c/(50 theta) there,
* Monte Carlo valuation of the threshold prepayment policy with exact CIR
  transition sampling (Glasserman, Monte Carlo Methods in Financial
  Engineering, 2004, sec. 3.4), on three SFC64 streams spawned from the
  seed (normals, gammas, roulette uniforms): a block of steps draws its
  normals and its gammas in one call each, and stopped paths leave the
  working set at segment ends and roulettes.

Riccati sweep.  With D = sigma^2 x / 2 and K = k (theta - x), the steady ODE
D V'' + K V' - x V + c = 0 on x >= x* is written V' = q V + phi, with
q = W'/W < 0 of the decaying homogeneous solution W.  q and phi blow up as
x -> 0; in u = ln x, L = ln(-x q) and Y = -phi / q do not, and obey

    dL/du = 1 - 2 k (theta - x) / sigma^2 - 2 x^2 e^{-L} / sigma^2 + e^L,
    dY/du = -2 x (c - x Y) e^{-L} / sigma^2,

stable towards x = 0 (Meyer & van der Hoek, Adv. Futures Options Res. 9,
1997; Ascher, Mattheij & Russell, SIAM 1995).  Y = A - A'/q is the value at
x of the decaying solution with zero slope there, so smooth pasting is the
event Y = 1, and Y -> A(0) as x -> 0 decides, with no special function,
whether a boundary exists (A(0) > 1, see closed_form).  The sweep runs from
X down to model.RATE_FLOOR, and its first event is x*.  It starts from the
tails q = lam - alpha / X and A = c/X + k c/X^2, A' = -c/X^2 - 2 k c/X^3,
whose errors decay like exp(-(k + s)(X - x) / sigma^2), so X = max(50
max(theta, c), 30 sigma^2 / (k + s)) leaves at most e^{-30} of them at the
boundary even where sigma^2 is large against k + s.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import solve_banded

from .errors import ConvergenceError, NoBracketError, ValidationError
from .model import (RATE_FLOOR, CirParams, ContractParams, derive_constants,
                    require_unit_balance)

__all__ = [
    "ShootingReport",
    "FdReport",
    "McReport",
    "shoot_solve",
    "fd_steady_state",
    "mc_value",
    "mc_optimality_probe",
]


def _integer(field: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(
            field, f"must be an integer, got {value!r}") from None


# ---------------------------------------------------------------------------
# Shooting

@dataclass(frozen=True)
class ShootingReport:
    r_star: float
    rhs_calls: int


def shoot_solve(cir: CirParams, contract: ContractParams,
                tol: float = 1e-8) -> ShootingReport:
    """The boundary as the first x where Y = 1 in one backward LSODA sweep
    of (L, Y) in u = ln x, from X down to RATE_FLOOR; NoBracketError,
    carrying Y at the floor, if there is none.  The sweep runs at rtol
    1e-4 tol, and tol >= 1e-9 keeps that above scipy's floor."""
    if not (tol >= 1e-9 and math.isfinite(tol)):
        raise ValidationError("tol",
                              f"must be finite and >= 1e-9, got {tol!r}")
    require_unit_balance(contract)
    k, theta, sigma2, c = cir.k, cir.theta, cir.sigma ** 2, contract.c
    consts = derive_constants(cir)
    x_hi = max(50.0 * max(theta, c), 30.0 * sigma2 / (k + consts.s))

    def rhs(u, y):
        ell, big_y = y
        # 2 x e^{-L} / sigma^2 and x times it; e^{-L} alone overflows
        w1 = 2.0 / sigma2 * math.exp(u - ell)
        w2 = w1 * math.exp(u)
        return (1.0 - 2.0 * k * (theta - math.exp(u)) / sigma2 - w2
                + math.exp(ell), big_y * w2 - c * w1)

    def pasting(u, y):
        return y[1] - 1.0

    pasting.terminal = True
    q0 = consts.lam - consts.alpha / x_hi
    ann = c / x_hi + k * c / x_hi ** 2
    ann_x = -c / x_hi ** 2 - 2.0 * k * c / x_hi ** 3
    sol = solve_ivp(rhs, (math.log(x_hi), math.log(RATE_FLOOR)),
                    (math.log(-x_hi * q0), ann - ann_x / q0),
                    method="LSODA", events=pasting,
                    rtol=1e-4 * tol, atol=1e-14)
    if sol.status == -1:
        raise ConvergenceError(
            f"sweep failed near x = {math.exp(sol.t[-1])!r}: {sol.message}")
    if sol.t_events[0].size == 0:
        raise NoBracketError(f"Y < 1 down to x = {RATE_FLOOR!r}",
                             annuity_at_zero=float(sol.y[1, -1]))
    return ShootingReport(r_star=math.exp(float(sol.t_events[0][0])),
                          rhs_calls=int(sol.nfev))


# ---------------------------------------------------------------------------
# Finite differences

@dataclass(frozen=True)
class FdReport:
    grid: np.ndarray
    v_steady: np.ndarray
    boundary: float                     # right edge of the contact set


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


def _howard(band: np.ndarray, rhs: np.ndarray, obstacle: float):
    """Policy iteration for the discrete obstacle problem
    min(obstacle - v, rhs - B v) = 0, B tridiagonal in `solve_banded` form
    with a Dirichlet last row.

    Starting from an empty contact set, contact rows are pinned to the
    obstacle and the rest solved exactly; each row then keeps whichever
    constraint binds.  B is an M-matrix, so this settles in at most n + 1
    iterations (Bokanowski, Maroso & Zidani, SIAM J. Numer. Anal. 47, 2009).
    """
    n = rhs.size
    contact = np.zeros(n, dtype=bool)
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
            return v
        contact = new_contact
    raise ConvergenceError(
        f"policy iteration did not settle in {n + 1} iterations")


def _contact_edge(xs: np.ndarray, v: np.ndarray) -> float:
    """Right edge of the contiguous run from x = 0 where v touches the unit
    obstacle (the free boundary), or 0 when v does not touch at x = 0."""
    touching = (1.0 - v) <= 1e-9
    if not touching[0]:
        return 0.0
    edge = int(np.argmin(touching)) - 1 if not touching.all() else xs.size - 1
    return float(xs[max(edge, 0)])


def fd_steady_state(cir: CirParams, contract: ContractParams,
                    n_nodes: int) -> FdReport:
    """Finite-difference solve of the stationary obstacle problem
    min(1 - v, c - M v) = 0, M = -A, at unit balance m = c, by policy
    iteration on the monotone tridiagonal generator, on n_nodes equally
    spaced nodes over [0, x_max], x_max = 50 theta.  At x = 0 the operator
    degenerates to first order and is discretized one-sided; at x_max a
    Dirichlet value c/x_max (the tail of the steady solution) is imposed."""
    require_unit_balance(contract)
    n = _integer("n_nodes", n_nodes)
    if n < 10:
        raise ValidationError("n_nodes", "need at least 10 nodes")
    x_max = 50.0 * cir.theta
    xs = np.linspace(0.0, x_max, n)
    dx = xs[1] - xs[0]
    c = contract.c

    # banded M = -A; row 0 is the degenerate one-sided equation, the last
    # row carries the Dirichlet condition
    lo_i, dg_i, up_i = _operator_coeffs(cir, xs[1:-1], dx)
    adv0 = cir.k * cir.theta / dx
    m_band = np.zeros((3, n))
    m_band[0, 1] = -adv0
    m_band[0, 2:] = -up_i
    m_band[1, 0] = adv0
    m_band[1, 1:-1] = -dg_i
    m_band[1, -1] = 1.0
    m_band[2, :-2] = -lo_i
    rhs = np.full(n, c)
    rhs[-1] = c / x_max
    v = _howard(m_band, rhs, 1.0)
    return FdReport(grid=xs, v_steady=v, boundary=_contact_edge(xs, v))


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

# Steps in one segment of the simulation loop: stopped paths leave the
# working set at segment ends, on absolute step multiples, and at roulettes.
_SEGMENT = 32

# Path-steps in one block of the simulation loop (a block has at least one
# step and lies inside a segment): each of its buffers stays at 256 KiB.
_BLOCK_ELEMENTS = 1 << 15


def _running_sums(a: np.ndarray) -> None:
    """Replace each row of `a` by the sum of the rows up to it, in place,
    adding one row at a time as a per-step update would.  np.add.accumulate
    runs down each column with a strided inner loop, several times slower
    per element than a contiguous add; a loop over rows pays one call per
    row instead, which is cheaper once rows hold a few hundred elements."""
    if a.shape[1] >= 256:
        for m in range(1, a.shape[0]):
            np.add(a[m - 1], a[m], out=a[m])
    else:
        np.add.accumulate(a, axis=0, out=a)


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
    it is still live for.  Stopped paths leave the working set only at the
    end of each segment of _SEGMENT steps and at each roulette; the loop
    ends when none is left.

    Three SFC64 generators, spawned from the seed in this order, draw the
    normals, the gammas and the roulette uniforms.  The loop runs in blocks
    of steps inside a segment, of at most _BLOCK_ELEMENTS path-steps.  For
    df > 1 a block draws all its normals (float32) and all its
    gamma((df - 1)/2, 2) values g in one call each, and a step forms
    x' = cbar ((zn + sqrt(nc))^2 + g); for df <= 1 a step makes one
    noncentral_chisquare call on the normals stream.  Then the
    log-discount, discount and accrual of every row are formed as running
    sums, in the order of a per-step update, and each boundary's first
    passage in the block banks the payments.  The working set changes only
    at segment ends and roulettes, so each stream is consumed in the same
    order however a segment is cut into blocks: the block length changes
    no report.
    """
    require_unit_balance(contract)
    if not (dt > 0 and math.isfinite(dt)):
        raise ValidationError("dt", "must be positive and finite")
    if not (horizon >= dt and math.isfinite(horizon)):
        raise ValidationError("horizon", "must be finite and at least dt")
    paths = _integer("paths", paths)
    if paths < 1:
        raise ValidationError("paths", "need at least one path")
    if not (x0 > 0 and math.isfinite(x0)):
        raise ValidationError("x0", "must be positive and finite")
    seed = _integer("seed", seed)
    if seed < 0:
        raise ValidationError("seed", f"must be >= 0, got {seed!r}")
    bvec = np.asarray(boundaries, dtype=float)
    if np.isnan(bvec).any():
        raise ValidationError("boundary", "must not be NaN")
    normals, gammas, uniforms = (
        np.random.Generator(np.random.SFC64(s))
        for s in np.random.SeedSequence(seed).spawn(3))
    k, sigma2, c = cir.k, cir.sigma ** 2, contract.c
    edt = math.exp(-k * dt)
    cbar = sigma2 * (1.0 - edt) / (4.0 * k)
    df = 4.0 * k * cir.theta / sigma2
    # levels[searchsorted(sorted b, y)] is the highest boundary below y
    levels = np.concatenate(([-np.inf], np.sort(bvec)))
    pay_rate = c * dt * 0.5

    # full-size accumulators indexed by original path id
    pay = np.zeros((bvec.size, paths))
    payoff = np.zeros((bvec.size, paths))
    payoff[x0 <= bvec, :] = 1.0

    # working set: the paths live at the last compaction
    top0 = levels[np.searchsorted(levels[1:], x0)]
    ids = np.arange(paths if top0 > -np.inf else 0)
    x = np.full(ids.size, x0, dtype=float)
    disc = np.ones(ids.size)
    log_disc = np.zeros(ids.size)
    accrual = np.zeros(ids.size)        # running payments at unit weight
    top = np.full(ids.size, top0)
    weight = 1.0                        # shared: roulette doubles every path

    def retire(rows):
        # working rows stop for every boundary they are live for, banking
        # their payments
        jj, kk = (bvec[:, None] <= top[rows]).nonzero()
        pay[jj, ids[rows[kk]]] = accrual[rows[kk]]
        top[rows] = -np.inf

    n_steps = int(round(horizon / dt))
    roulette_every = max(1, int(round(_ROULETTE_PERIOD / dt)))
    roulette_from = int(round(_ROULETTE_START / dt))
    shape_g = 0.5 * (df - 1.0)
    drift = edt / cbar
    step = path_steps = 0
    while ids.size and step < n_steps:
        n_act = ids.size
        # the block ends by the segment end, the first roulette step after
        # this one and the horizon
        next_roulette = (-(-max(step + 1, roulette_from) // roulette_every)
                         * roulette_every)
        shape = (min(max(1, _BLOCK_ELEMENTS // n_act), n_steps - step,
                     next_roulette - step, _SEGMENT - step % _SEGMENT), n_act)
        if df > 1.0:
            zn = normals.standard_normal(shape, dtype=np.float32)
            xs = gammas.gamma(shape_g, 2.0, shape)
        else:
            xs = np.empty(shape)
        root = np.empty(n_act)
        prev = x
        for m, row in enumerate(xs):
            np.multiply(prev, drift, out=root)
            if df > 1.0:
                # cbar * ((zn + sqrt(x drift))^2 + row), row drawn from
                # gamma(shape_g, 2)
                np.sqrt(root, out=root)
                np.add(zn[m], root, out=root)
                np.square(root, out=root)
                row += root
                row *= cbar
            else:
                np.multiply(normals.noncentral_chisquare(df, root), cbar,
                            out=row)
            prev = row
        step += xs.shape[0]
        path_steps += xs.size

        # log-discount, discount and accrual after each step of the block
        ld = np.empty_like(xs)
        np.add(x, xs[0], out=ld[0])
        np.add(xs[:-1], xs[1:], out=ld[1:])
        ld *= 0.5 * dt
        ld[0] += log_disc
        _running_sums(ld)
        d = np.negative(ld)
        np.exp(d, out=d)
        acc = np.empty_like(xs)
        np.add(disc, d[0], out=acc[0])
        np.add(d[:-1], d[1:], out=acc[1:])
        acc *= pay_rate * weight
        acc[0] += accrual
        _running_sums(acc)

        # first passages, on the paths whose lowest rate in the block is at
        # or below the highest boundary they are live for
        x_min = xs[0] if xs.shape[0] == 1 else xs.min(axis=0)
        hit = (x_min <= top).nonzero()[0]
        if hit.size:
            jj, kk = ((bvec[:, None] <= top[hit])
                      & (bvec[:, None] >= x_min[hit])).nonzero()
            cols = hit[kk]
            first = (xs[:, cols] <= bvec[jj]).argmax(axis=0)
            pay[jj, ids[cols]] = acc[first, cols]
            payoff[jj, ids[cols]] = weight * d[first, cols]
            top[hit] = levels[np.searchsorted(levels[1:], x_min[hit])]
        # the state after the block; copies from a longer block let its
        # buffers go before the next block allocates its own
        x, log_disc, disc, accrual = (a[0] if a.shape[0] == 1 else a[-1].copy()
                                      for a in (xs, ld, d, acc))
        del xs, ld, d, acc

        roulette = step >= roulette_from and step % roulette_every == 0
        if roulette:
            # keep each live path with probability 1/2 at doubled weight;
            # payments accrued so far are banked at full weight either way
            drop = (weight * disc < 1e-8) | (uniforms.random(n_act) >= 0.5)
            retire(((top > -np.inf) & drop).nonzero()[0])
            weight *= 2.0
        if roulette or step % _SEGMENT == 0:
            sel = (top > -np.inf).nonzero()[0]
            ids, x, disc, log_disc, accrual, top = (
                ids[sel], x[sel], disc[sel], log_disc[sel], accrual[sel],
                top[sel])

    # paths live at the horizon contribute their accrued payments
    retire((top > -np.inf).nonzero()[0])
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
    if math.isnan(boundary):
        raise ValidationError("boundary", "must not be NaN")
    if not boundary - delta > 0:
        raise ValidationError("delta", "requires boundary - delta > 0")
    return tuple(_simulate_threshold(
        cir, contract, x0, [boundary - delta, boundary, boundary + delta],
        paths, dt, horizon, seed))
