"""Blockwise coordinate descent at a single penalty level.

Each predictor j owns a block (beta_j, theta_j) penalized by

    (1-alpha) lam (||(beta_j, theta_j)||_2 + ||theta_j||_2)
    + alpha lam ||theta_j||_1 .

Every pull of a residual r on a block D_j = [x_j, x_j o Z] comes from one
identity, D_j'r / N = (A'/N)(x_j o r) with A = [1, Z]: a visit takes it for
its group, the screening sweep for all groups in one product.  Every visit
works in Gram form: it takes the pull of the partial residual from the
running residual and the block's Gram matrix G_j = D_j'D_j / N (all of
them held in one workspace array), and the residual takes one update,
r -= x_j o (A (g - g0)).  A group with a theta row first tries an exact
solve of the joint block on the support and signs of that row (when the
group penalty is positive); then, on the same pull, come a soft-threshold
update for beta_j with theta_j pinned at zero and a proximal gradient loop
on the joint block.  With a single modifier (K = 1) one exact block solve
replaces all of these, so no prox iteration runs and ``n_prox_capped`` is
always 0.

Each pass refreshes the unpenalized intercepts (beta0, theta0) by least
squares on (1, Z), then visits a list of groups.  An active pass visits the
groups with a nonzero block.  A full pass starts with the KKT report, one
sweep of pulls over all groups: it returns the iterate if the report
certifies it at ``tol_kkt``, else it visits the active groups and those the
report finds failing their zero certificate.  The first pass is full, and
so is the pass after one that settles, moving the residual by at most
``_SETTLE * tol_kkt`` in RMS, or finds nothing active.

With K >= 2 modifiers and a positive group penalty, the first pass (full
or active) that ends with the sign pattern of beta and theta it started
with is followed by one Newton step over every active block at once, on
that support and those signs (``_solve_active``); the objective is smooth
there, where the passes contract slowly.  The step runs at most once per
fit.  If it is accepted, the next pass is full, and its KKT report decides
whether the fit is returned.  Data is assumed standardized (see
preprocess); nothing here rescales.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .model import (Dataset, PliableFit, _check_int, _check_penalty,
                    _linear_predictor, predict)

__all__ = [
    "SolverConfig",
    "KktReport",
    "FitDiagnostics",
    "ConvergenceError",
    "ProxSolveError",
    "Workspace",
    "soft_threshold",
    "prox_group",
    "fit_single_lambda",
    "check_kkt",
]


class ConvergenceError(RuntimeError):
    """Solver hit its pass cap; carries the best iterate and its KKT report."""

    def __init__(self, message, fit=None, kkt=None):
        super().__init__(message)
        self.fit = fit
        self.kkt = kkt


class ProxSolveError(RuntimeError):
    """Proximal map produced a non-finite value; carries the inputs."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings.

    ``tol_kkt`` is the only stopping tolerance: a fit is returned when the
    KKT report of the returned iterate has no subgradient violation above
    it.
    ``max_prox_iters`` bounds only the joint-block loop, the fallback of
    the exact solve on the warm theta support (which has its own small
    Newton cap).  The loop returns a certified fixed point of the block's
    prox-gradient map or, cut at ``max_prox_iters`` steps and counted in
    ``n_prox_capped``, the lower of its last iterate and its start.  At K = 1
    the exact block solve replaces the loop, so ``max_prox_iters`` is
    unused.  The standardization flags are consumed by the path/CV drivers,
    not by fit_single_lambda.
    """

    alpha: float = 0.5
    tol_kkt: float = 1e-4
    max_outer_iters: int = 1000
    max_prox_iters: int = 500
    standardize_x: bool = True
    standardize_z: bool = True
    center_y: bool = True

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not (math.isfinite(self.tol_kkt) and self.tol_kkt > 0):
            raise ValueError(
                f"tol_kkt must be positive and finite, got {self.tol_kkt}")
        _check_int(self.max_outer_iters, "max_outer_iters", 1)
        _check_int(self.max_prox_iters, "max_prox_iters", 1)


@dataclass(frozen=True)
class KktReport:
    """Largest subgradient violations of a fit at (lam, alpha).

    For zero blocks the entry is the slack in the zero certificate; for
    active blocks it is the max-norm residual of the stationarity equations
    with optimal subgradient choices on zero theta entries.  ``intercept``
    measures residual orthogonality to (1, Z).
    """

    per_group: np.ndarray
    intercept: float
    max_violation: float
    worst_group: int


@dataclass(frozen=True)
class FitDiagnostics:
    """What one fit did: its passes, including the last one, which only
    certifies; the KKT report of the returned iterate; and the joint-block
    solves cut at max_prox_iters, which the outer passes revisit."""

    n_passes: int
    kkt: KktReport
    n_prox_capped: int = 0


def soft_threshold(x, t):
    """S(x, t) = sign(x) max(|x| - t, 0) on each entry of the array x.
    Requires 0 <= t < inf."""
    if not t >= 0:
        raise ValueError(f"threshold must be >= 0, got {t}")
    if t == math.inf:
        raise ValueError("threshold must be finite, got inf")
    return np.copysign(np.maximum(np.abs(x) - t, 0.0), x)


def _zero_budget(a, rho):
    """Theta-side bound of the joint zero certificate at beta pull ``a``:
    the group-norm ball can spend only sqrt(rho^2 - a^2) on theta once it
    absorbs the beta pull, plus rho from the theta-only norm."""
    return rho + np.sqrt(np.maximum(rho * rho - np.square(a), 0.0))


def _design(Z):
    """The intercept design A = [1, Z]."""
    return np.column_stack([np.ones(Z.shape[0]), Z])


def _pulls(X, at, r):
    """(a, q) = (X'r / N, X'(Z o r) / N): the pull of residual r on each
    group's main effect and on its modifier row, one row per column of X,
    from one product with ``at`` = A'/N."""
    pull = (at * r) @ X
    return pull[0], pull[1:].T


def _zero_slack(a, q, rho, mu):
    """Zero-certificate slack of blocks with pulls (a, q), <= 0 exactly
    where the block certifies zero:

        max(|a| - rho, ||S(q, mu)||_2 - rho - sqrt(max(rho^2 - a^2, 0))).

    ``q`` has one row per entry of ``a`` (a scalar ``a`` takes a 1-d ``q``);
    ``rho`` = (1-alpha) lam and ``mu`` = alpha lam are scalars or one value
    per group."""
    excess = np.maximum(np.abs(q) - np.asarray(mu)[..., None], 0.0)
    norm = np.sqrt(np.square(excess).sum(axis=-1))
    return np.maximum(np.abs(a) - rho, norm - _zero_budget(a, rho))


def prox_group(z, c, l1):
    """Proximal map of c (||g||_2 + ||theta||_2) + l1 ||theta||_1 at the
    stacked block z = (beta, theta), returned as one array like z.

    The three penalty pieces nest (entries of theta, theta, the whole
    block), so the map is their composition from the inside out (Jenatton,
    Mairal, Obozinski and Bach 2011): soft-threshold the theta entries by
    l1, group-shrink theta by c, then group-shrink the block by c.  Theta
    takes both shrink factors in one product.  Requires 0 <= c < inf; the
    theta soft-threshold checks l1.
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"c must be >= 0 and finite, got {c}")
    z = np.asarray(z, dtype=float)
    t1 = soft_threshold(z[1:], l1)
    g2 = math.sqrt(t1 @ t1)
    # the theta norm after its group shrink, and the block norm before its own
    tn = g2 - c if g2 > c else 0.0
    root = math.hypot(z[0], tn)
    # a NaN or inf in theta or in beta shows in g2 or root; while both are
    # finite, so is every entry of g
    if not math.isfinite(g2 + root):
        raise ProxSolveError(
            "proximal map produced non-finite values",
            diagnostics={"z": z, "c": c, "l1": l1})
    if root <= c:
        return np.zeros_like(z)
    scale = (root - c) / root
    g = np.empty_like(z)
    g[0] = z[0] * scale
    b = tn * scale
    g[1:] = t1 * (b / g2) if b > 0.0 else 0.0
    return g


# ---------------------------------------------------------------------------
# workspace shared across penalty levels


class Workspace:
    """Per-dataset caches reused across a path: the intercept design
    A = [1, Z] (also as A'/N) with its pseudoinverse, every block's Gram
    matrix G_j = D_j'D_j / N, and the eigenbases of the exact joint solve
    per group and theta support.  Nothing here has one entry per sample
    and group."""

    def __init__(self, data: Dataset):
        self.data = data
        A = _design(data.Z)
        self.design = A
        # A'/N: D_j'v / N = (A'/N)(x_j o v) for every group j
        self.at = A.T / data.n_samples
        # gram[j] = A' diag(x_j^2) A / N, one product for all groups; its
        # entry (0, 0) is ||x_j||^2 / N
        n, k1 = A.shape
        pairs = (A[:, :, None] * A[:, None, :]).reshape(n, k1 * k1)
        self.gram = (np.square(data.X).T @ pairs / n).reshape(-1, k1, k1)
        # pseudoinverse handles a rank-deficient Z (e.g. Z identically zero)
        # with the minimum-norm intercepts instead of failing mid-fit
        self._a_pinv = np.linalg.pinv(A)
        self._support: dict[tuple, tuple] = {}

    def support(self, j: int, row):
        """(pos, off, V, lam, h) for the support S (the nonzero entries) of
        group j's theta row ``row``: the positions in the stacked block of
        S and of the other theta entries, the eigenbasis
        G_SS = V diag(lam) V' of the block Gram matrix on S, and
        h = V'G_S0, the last two as plain floats."""
        mask = row != 0.0
        key = (j, mask.tobytes())
        got = self._support.get(key)
        if got is None:
            gram = self.gram[j]
            pos = np.flatnonzero(mask) + 1
            off = np.flatnonzero(~mask) + 1
            lam, vec = np.linalg.eigh(gram[np.ix_(pos, pos)])
            got = (pos, off, vec, np.maximum(lam, 0.0).tolist(),
                   (gram[pos, 0] @ vec).tolist())
            self._support[key] = got
        return got

    def solve_intercepts(self, target):
        return self._a_pinv @ target


# ---------------------------------------------------------------------------
# joint block minimization (inner loop)


def _block_value(gram, c, g, rho, mu):
    """The block objective at g, less the constant r'r/2N of the loss."""
    th = g[1:]
    tn = math.sqrt(th @ th)
    return (0.5 * float(g @ (gram @ g)) - float(c @ g)
            + rho * (math.hypot(g[0], tn) + tn) + mu * float(np.abs(th).sum()))


def _block_minimize(gram, c, g0, rho, mu, cfg: SolverConfig):
    """Minimize the block objective from g0 by proximal gradient with the
    fixed step t = 1/L and momentum restarted by the gradient test of
    O'Donoghue and Candes (2015).  Returns the block and whether the loop
    stopped before ``cfg.max_prox_iters``.  A block returned with True is a
    certified fixed point of the prox-gradient map T.  Momentum steps need
    not descend, so one returned with False is the lower of the last iterate
    and g0, the only objective values the solve evaluates.

    With D = [X_j, W_j] and partial residual r, the loss ||r - D g||^2 / 2N
    is 0.5 g'G g - c'g + const for G = D'D/N (``gram``) and c = D'r/N, so
    every iteration works on (K+1)-vectors only, and L, the largest
    eigenvalue of G, bounds its curvature exactly.  Each step takes
    g_new = T(y) at the momentum point y, with
    T(y) = prox_group(y - t (G y - c), t rho, t mu)
    on the stacked block, so no step splits or restacks g.  T is
    nonexpansive for t <= 1/L, so ||T(g_new) - g_new||_2 <= ||g_new - y||_2
    and a small move from y certifies g_new.  Otherwise momentum restarts
    when the step points against the last move, (y - g_new)'(g_new - g) > 0;
    the step is kept either way.
    """
    lip = float(np.linalg.eigvalsh(gram)[-1])
    t = 1.0 / lip if lip > 0 else 1.0
    g = np.array(g0, dtype=float)
    g_prev = g
    k = 1
    tol = 0.05 * cfg.tol_kkt * t
    # the gradient step y - t (G y - c) as one affine map
    a_mat = np.eye(c.size) - t * gram
    tc = t * c
    t_rho, t_mu = t * rho, t * mu
    for _ in range(cfg.max_prox_iters):
        if k > 1:
            y = g + ((k - 1.0) / (k + 2.0)) * (g - g_prev)
        else:
            y = g
        g_new = prox_group(a_mat @ y + tc, t_rho, t_mu)
        step = g_new - y
        if np.abs(step).max() <= tol:
            return g_new, True
        # restart when the step from y points against the move g -> g_new
        k = 1 if step @ (g_new - g) < 0.0 else k + 1
        g_prev = g
        g = g_new
    if _block_value(gram, c, g, rho, mu) > _block_value(gram, c, g0, rho, mu):
        g = np.array(g0, dtype=float)
    return g, False


# an active pass settles, so the next pass is full, when it moved the
# residual by at most _SETTLE * tol_kkt in RMS; by Cauchy-Schwarz that bounds
# how far the pull of every unit-RMS column moved.  3 balances passes
# against sweeps on the benchmark inputs: at 1 there are more passes and
# visits, at larger factors more full passes that do not certify
_SETTLE = 3.0
# Newton steps the exact joint solve takes before it leaves the block to the
# prox loop, and the largest log-norm residual it accepts
_NEWTON_CAP = 8
_NEWTON_TOL = 1e-12
_MIN_NORMAL = sys.float_info.min


def _solve_on_support(gram, c, g0, rho, mu, support):
    """Exact minimizer of the joint block objective if its theta row has
    the support S and the signs s of g0's, else None; ``support`` is
    ``Workspace.support`` of g0's theta row and rho > 0.

    Off S theta is zero and on S the l1 term is linear, so the block's
    stationarity conditions on T = {0} u S read

        (G_TT + u I + v P_S) g_T = c_T - mu (0, s),
        u = rho / ||g||_2,   v = rho / ||theta_S||_2,

    with P_S the projection on S (Friedman, Hastie and Tibshirani 2010, for
    one group).  In the eigenbasis G_SS = V diag(lam) V', theta_S = V phi
    with phi_i = (w_i - h_i b) / d_i, d_i = lam_i + u + v, w = V'(c_S - mu s)
    and h = V'G_S0, and b comes from the scalar Schur complement

        b = (c_0 - sum_i h_i w_i / d_i) / (G_00 + u - sum_i h_i^2 / d_i).

    Newton on the two norm equations log(u ||g|| / rho) = 0 and
    log(v ||theta|| / rho) = 0 in (log u, log v), started from g0's own u
    and v, takes O(|S|) float arithmetic per step.  The block is returned
    only if Newton converges within ``_NEWTON_CAP`` steps with ||theta||^2
    a normal float (so both equations keep their precision), every theta entry
    on S is nonzero with its sign in s, and every entry off S has
    |c_k - (G g)_k| <= mu.  Those are all the block's subgradient
    conditions, so by convexity the result is the block minimizer."""
    pos, off, vec, lam, h = support
    th0 = g0[pos]
    s = np.sign(th0)
    tn = math.sqrt(th0 @ th0)
    log_rho = math.log(rho)
    # the iterate (x, y) = (log u, log v)
    x = log_rho - math.log(math.hypot(g0.item(0), tn))
    y = log_rho - math.log(tn)
    c0 = c.item(0)
    g00 = gram.item(0, 0)
    terms = list(zip(lam, h, ((c[pos] - mu * s) @ vec).tolist()))
    for _ in range(_NEWTON_CAP):
        # keeps u and v normal positive floats; also false for a NaN step
        if not (abs(x) < 700.0 and abs(y) < 700.0):
            return None
        u, v = math.exp(x), math.exp(y)
        uv = u + v
        num, den = c0, g00 + u
        inv = []
        for lam_i, h_i, w_i in terms:
            e = 1.0 / (lam_i + uv)
            num -= h_i * w_i * e
            den -= h_i * h_i * e
            inv.append(e)
        # den >= u > 0 in exact arithmetic, so rounding has swamped it here
        if not den > 0.0:
            return None
        b = num / den
        phi = []
        m = p_sum = nt2 = 0.0
        for (_, h_i, w_i), e in zip(terms, inv):
            f = (w_i - h_i * b) * e
            phi.append(f)
            m += h_i * e * f
            p_sum += e * f * f
            nt2 += f * f
        # below the normal range the squares, and so both norm equations,
        # lose their precision; a minimizer at the zero block on this
        # support drives Newton there
        if not nt2 >= _MIN_NORMAL:
            return None
        ng2 = b * b + nt2
        f1 = x + 0.5 * math.log(ng2) - log_rho
        f2 = y + 0.5 * math.log(nt2) - log_rho
        if abs(f1) <= _NEWTON_TOL and abs(f2) <= _NEWTON_TOL:
            break
        # the Jacobian of (f1, f2) in (log u, log v), from db/du = (m - b)/den,
        # db/dv = m/den and d phi_i = -(h_i db + phi_i) / d_i (du + dv)
        b_u, b_v = (m - b) / den, m / den
        nt2_u = -2.0 * (b_u * m + p_sum)
        nt2_v = -2.0 * (b_v * m + p_sum)
        j11 = 1.0 + 0.5 * u * (2.0 * b * b_u + nt2_u) / ng2
        j12 = 0.5 * v * (2.0 * b * b_v + nt2_v) / ng2
        j21 = 0.5 * u * nt2_u / nt2
        j22 = 1.0 + 0.5 * v * nt2_v / nt2
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            return None
        x -= (f1 * j22 - f2 * j12) / det
        y -= (f2 * j11 - f1 * j21) / det
    else:
        return None
    theta = vec @ np.array(phi)
    if not (theta * s).min() > 0.0:
        return None
    g = np.zeros_like(c)
    g[0] = b
    g[pos] = theta
    if off.size and not np.abs(c[off] - gram[off] @ g).max() <= mu:
        return None
    return g


def _k1_joint(e1, e2, cs, sn, c0, c1, rho):
    """Stationary point of 0.5 g'G g - c'g + rho ||g||_2 with g != 0, or
    None when there is none; G = V diag(e1, e2) V' with V's first column
    (cs, sn).  Stationarity reads (G + I/u) g = c with u = ||g|| / rho, so in
    the eigenbasis, with w = V'c, g_i = u w_i / (1 + e_i u) and u solves

        phi(u) = ||(w_i / (1 + e_i u))||_2 = rho.

    1/phi is increasing and concave in u, so Newton started at a lower bound
    of the root climbs to it from below; the bracket [lo, hi] only guards
    against rounding."""
    w1 = cs * c0 + sn * c1
    w2 = cs * c1 - sn * c0
    if rho == 0.0:
        # unpenalized: the minimum-norm solution of G g = c
        y1 = w1 / e1 if e1 > 0.0 else 0.0
        y2 = w2 / e2 if e2 > 0.0 else 0.0
    else:
        wn = math.hypot(w1, w2)
        if wn <= rho:
            return None
        if e2 == 0.0:
            # phi(u)^2 = w1^2 / (1 + e1 u)^2 + w2^2 has the root in closed form
            if abs(w2) >= rho or e1 == 0.0:
                return None
            u = (abs(w1) / math.sqrt(rho * rho - w2 * w2) - 1.0) / e1
        else:
            # phi lies between ||w|| / (1 + e u) and ||G^-1 w|| / (u + 1/e)
            # at e = e1 and at e = e2, which brackets the root
            gw = math.hypot(w1 / e1, w2 / e2) / rho
            lo = max((wn / rho - 1.0) / e1, gw - 1.0 / e2, 0.0)
            hi = min((wn / rho - 1.0) / e2, gw - 1.0 / e1)
            u = lo
            for _ in range(100):
                q1 = 1.0 / (1.0 + e1 * u)
                q2 = 1.0 / (1.0 + e2 * u)
                f1 = w1 * q1
                f2 = w2 * q2
                p2 = f1 * f1 + f2 * f2
                phi = math.sqrt(p2)
                if phi > rho:
                    lo = u
                else:
                    hi = u
                # Newton on 1/phi(u) = 1/rho; (1/phi)' = slope / phi^3
                slope = e1 * f1 * f1 * q1 + e2 * f2 * f2 * q2
                u_new = u + (1.0 / rho - 1.0 / phi) * p2 * phi / slope
                if not lo <= u_new <= hi:
                    u_new = 0.5 * (lo + hi)
                if abs(u_new - u) <= 1e-14 * u_new:
                    u = u_new
                    break
                u = u_new
        y1 = u * w1 / (1.0 + e1 * u)
        y2 = u * w2 / (1.0 + e2 * u)
    return cs * y1 - sn * y2, sn * y1 + cs * y2


def _solve_k1(gram, c, rho, mu):
    """Exact minimizer (b, t) of the K = 1 block objective

        0.5 g'G g - c'g + rho ||(b, t)||_2 + (rho + mu) |t|,    g = (b, t),

    as plain floats.  The block is convex, so one of two cases is
    self-consistent.  Either t = 0 and b is the scalar soft-threshold
    b = S(c_0, rho) / G_00, which holds when the soft-thresholded theta pull
    at (b, 0) is at most its budget: rho once b != 0, and at b = 0 the zero
    certificate's rho + sqrt(rho^2 - c_0^2), as in the K >= 2 visit.  Or
    t != 0 with sign s, where (rho + mu)|t| is linear and the block is a
    group lasso with c - (rho + mu) s e_2 (Friedman, Hastie and Tibshirani
    2010), solved in the eigenbasis of G, which may be singular (x_j o z
    proportional to x_j).  Should rounding leave no case self-consistent,
    the candidate with the lowest block objective is returned."""
    (g00, g01), (_, g11) = gram
    c0, c1 = c
    # an all-zero x_j has c = 0, so b = 0 and G_00 is never divided by
    b = math.copysign(abs(c0) - rho, c0) / g00 if abs(c0) > rho else 0.0
    pull = c1 - g01 * b
    if max(abs(pull) - mu, 0.0) <= (
            rho if b else rho + math.sqrt(max(rho * rho - c0 * c0, 0.0))):
        return b, 0.0
    rm = rho + mu
    cands = [(0.0, 0.0), (b, 0.0)]
    s = 1.0 if pull > 0.0 else -1.0
    half = 0.5 * (g00 - g11)
    r = math.hypot(half, g01)
    e1 = 0.5 * (g00 + g11) + r
    e2 = max(0.5 * (g00 + g11) - r, 0.0)
    ang = 0.5 * math.atan2(g01, half)
    cs, sn = math.cos(ang), math.sin(ang)
    # min over b of the objective is convex in t and falls as t leaves 0 in
    # the direction of the t pull at the beta-only point, so the minimizer's
    # t has the sign of that pull; the other sign is a guard against rounding
    for sign in (s, -s):
        g = _k1_joint(e1, e2, cs, sn, c0, c1 - rm * sign, rho)
        if g is None:
            continue
        if g[1] * sign > 0.0:
            return g
        cands.append(g)
    gram, c = np.asarray(gram), np.asarray(c)
    return min(cands, key=lambda g: _block_value(gram, c, np.array(g), rho, mu))


# ---------------------------------------------------------------------------
# KKT / subgradient residuals


def _kkt_arrays(data: Dataset, at, r, beta, theta, lam, alpha) -> KktReport:
    """KKT report at residual r of the dense coefficients beta (p,) and
    theta (p, K), with ``at`` = A'/N for the intercept design A = [1, Z].
    Zero blocks take their zero-certificate slack; each active block j
    takes the larger of

        |rho b / gn - a|                                   (beta_j)
        max(||S(q, mu)||_2 - rho, 0)            if theta_j = 0, else
        max_k |rho th_k (1/gn + 1/tn) - q_k + mu sign(th_k)|   (th_k != 0)
              max(|q_k| - mu, 0)                               (th_k == 0)

    with (a, q) the pulls of group j, tn = ||theta_j||_2 and
    gn = ||(beta_j, theta_j)||_2.  ``intercept`` is max |A'r / N|."""
    rho = (1.0 - alpha) * lam
    mu = alpha * lam
    a_all, q_all = _pulls(data.X, at, r)
    per = np.maximum(_zero_slack(a_all, q_all, rho, mu), 0.0)
    act = np.flatnonzero((beta != 0.0) | theta.any(axis=1))
    b, th, q = beta[act], theta[act], q_all[act]
    tn = np.sqrt(np.square(th).sum(axis=1))
    gn = np.hypot(b, tn)
    res_b = np.abs(rho * b / gn - a_all[act])
    excess = np.maximum(np.abs(q) - mu, 0.0)
    no_row = tn == 0.0
    # rows of theta that are zero take the beta-only theta residual
    scale = 1.0 / gn + 1.0 / np.where(no_row, 1.0, tn)
    res_th = np.where(th != 0.0,
                      np.abs(rho * th * scale[:, None] - q + mu * np.sign(th)),
                      excess).max(axis=1, initial=0.0)
    res_zero = np.maximum(np.sqrt(np.square(excess).sum(axis=1)) - rho, 0.0)
    per[act] = np.maximum(res_b, np.where(no_row, res_zero, res_th))
    intercept = float(np.abs(at @ r).max())
    return KktReport(per_group=per, intercept=intercept,
                     max_violation=max(float(per.max()), intercept),
                     worst_group=int(np.argmax(per)))


def check_kkt(fit: PliableFit, data: Dataset, lam=None, alpha=None) -> KktReport:
    """Subgradient residuals of ``fit`` on ``data`` at (lam, alpha)."""
    lam, alpha = _check_penalty(fit.lam if lam is None else lam,
                                fit.alpha if alpha is None else alpha)
    r = data.y - predict(fit, data.X, data.Z)
    at = _design(data.Z).T / data.n_samples
    return _kkt_arrays(data, at, r, fit.beta, fit.theta, lam, alpha)


# ---------------------------------------------------------------------------
# Newton step over all active blocks

# the step stops once the restricted gradient is at most _ACTIVE_TOL * tol_kkt
# in max-norm, after _ACTIVE_CAP Newton iterations, or when an iteration is
# cut or backtracked below _ACTIVE_MIN_STEP
_ACTIVE_TOL = 1e-3
_ACTIVE_CAP = 20
_ACTIVE_MIN_STEP = 1e-3
# the Armijo fraction of the predicted decrease, and the rounding allowance
# of the test relative to the penalty at the start: near a tight tol_kkt the
# predicted decrease falls below the rounding of the objective (at
# tol_kkt = 1e-9 the allowance kept 20 of 293 steps from declining on three
# boot_df benchmark inputs)
_ARMIJO = 1e-4
_ARMIJO_ROUND = 1e-14


def _solve_active(ft):
    """Newton's method on every active block of the fitter ``ft`` at once,
    with the support of each theta row and every sign held fixed (Li, Sun
    and Toh 2018; Massias, Gramfort and Salmon 2018).  Returns (accepted,
    Newton iterations taken); ``ft`` changes only when the step is
    accepted.  Requires rho > 0.

    The variables x are each active group's beta_j and the theta entries on
    its row's support, with columns M = X[:, j] o A[:, k] for A = [1, Z].
    Projecting the intercepts out, QM = M - A(A^+ M), the objective in
    d = x - x0 is, up to a constant,

        0.5 d'H0 d - c'd + rho sum_j (||g_j||_2 + ||theta_jS||_2)
        + mu sum |theta_jS|,      H0 = QM'QM / N,  c = QM'r / N,

    smooth while every theta_jS entry and the beta of every group without a
    row keep their signs (a row group's beta may cross zero).  Each
    iteration solves with the Hessian, H0 plus rho (I/||v|| - vv'/||v||^3)
    for v = g_j on its block and v = theta_jS on its entries, cuts the
    step to 0.99 of the first sign crossing and backtracks to the Armijo
    condition.  It stops at a gradient of at most ``_ACTIVE_TOL * tol_kkt``,
    after ``_ACTIVE_CAP`` iterations, or when an iteration stalls: a cut or
    backtrack below ``_ACTIVE_MIN_STEP``, or a solve that fails or gives no
    finite descent direction (a singular Hessian, as with collinear
    columns).  A stall at the first iteration declines the step; otherwise
    the last iterate the Armijo test accepted is installed, which keeps
    every support and sign and has the lowest objective of the step.
    An accepted step moves r by -QM d and the intercepts by -A^+ M d, so the
    fit's objective falls by the restricted objective's decrease."""
    data, ws, rho = ft.data, ft.ws, ft.rho
    act = np.flatnonzero(ft._active())
    if not act.size:
        return False, 0
    coef = np.column_stack((ft.beta, ft.theta))
    sup = coef[act] != 0.0
    sup[:, 0] = True
    grp, kk = np.nonzero(sup)
    jj = act[grp]
    x0 = coef[jj, kk]
    th = kk > 0
    has_row = ft.rows[act]
    # the entries that may not cross zero
    fixed = th | ~has_row[grp]
    mu_s = np.where(th, ft.mu * np.sign(x0), 0.0)
    cols = data.X[:, jj] * ws.design[:, kk]
    proj = ws.solve_intercepts(cols)
    qm = cols - ws.design @ proj
    n = data.n_samples
    h0 = qm.T @ qm / n
    c = ft.r @ qm / n
    same = grp[:, None] == grp[None, :]

    def group_norms(x):
        """Each active group's block norm and theta norm."""
        x2 = x * x
        return (np.sqrt(np.bincount(grp, x2, act.size)),
                np.sqrt(np.bincount(grp, np.where(th, x2, 0.0), act.size)))

    def value(x):
        """The restricted objective at x, up to a constant."""
        d = x - x0
        gn, tn = group_norms(x)
        return float(d @ (0.5 * (h0 @ d) - c)) + (
            rho * float(gn.sum() + tn.sum()) + float(mu_s @ x))

    x = x0
    f = value(x0)
    slack = _ARMIJO_ROUND * f
    tol = _ACTIVE_TOL * ft.cfg.tol_kkt
    for it in range(_ACTIVE_CAP + 1):
        d = x - x0
        gn, tn = group_norms(x)
        # per variable; a group without a row has no theta norm
        gn, tn = gn[grp], np.where(has_row, tn, np.inf)[grp]
        u, v = x / gn, np.where(th, x, 0.0) / tn
        grad = h0 @ d - c + rho * (u + v) + mu_s
        if it == _ACTIVE_CAP or np.abs(grad).max() <= tol:
            break
        hess = h0 + rho * (np.diag(1.0 / gn + th / tn) - same * (
            np.outer(u, u / gn) + np.outer(v, v / tn)))
        moved = _newton_move(x, f, grad, hess, fixed, value, slack)
        if moved is None:
            if not it:
                return False, 0
            break
        x, f = moved
    ft.beta[jj[~th]] = x[~th]
    ft.theta[jj[th], kk[th] - 1] = x[th]
    ft.r -= qm @ d
    shift = proj @ d
    ft.beta0 -= float(shift[0])
    ft.theta0 = ft.theta0 - shift[1:]
    return True, it


def _newton_move(x, f, grad, hess, fixed, value, slack):
    """One iteration of ``_solve_active`` from x, whose objective ``value``
    is f: (x_new, value(x_new)) after the Newton step cut to 0.99 of the
    first zero crossing of a ``fixed`` entry and backtracked to the Armijo
    condition, or None when it stalls (a cut or backtrack below
    ``_ACTIVE_MIN_STEP``, or no finite descent direction)."""
    try:
        step = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return None
    slope = float(grad @ step)
    # also false for a NaN step
    if not slope < 0.0:
        return None
    cross = fixed & (step * x < 0.0)
    t = min(1.0, 0.99 * float((-x[cross] / step[cross]).min())) \
        if cross.any() else 1.0
    # also false for a NaN cut
    while t >= _ACTIVE_MIN_STEP:
        x_new = x + t * step
        f_new = value(x_new)
        if f_new <= f + _ARMIJO * t * slope + slack:
            return x_new, f_new
        t *= 0.5
    return None


# ---------------------------------------------------------------------------
# the fitter


class _Fitter:
    def __init__(self, data, lam, cfg, warm, ws):
        self.data = data
        self.lam = lam
        self.cfg = cfg
        self.ws = ws
        self.rho = (1.0 - cfg.alpha) * lam
        self.mu = cfg.alpha * lam
        p, k = data.n_predictors, data.n_modifiers
        if warm is None:  # a cold start is the all-zero warm start
            warm = PliableFit.zeros(p, k)
        elif warm.n_predictors != p or warm.n_modifiers != k:
            raise ValueError("warm start has wrong dimensions")
        self.beta = warm.beta.copy()
        self.theta = warm.theta
        self.beta0 = warm.beta0
        self.theta0 = warm.theta0.copy()
        # groups whose theta row is nonzero; every write to theta updates it
        self.rows = self.theta.any(axis=1)
        self.r = data.y - _linear_predictor(warm, data.X, data.Z)
        self.n_passes = 0
        self.n_prox_capped = 0

    def _refresh_intercepts(self):
        target = self.r + self.beta0 + self.data.Z @ self.theta0
        coef = self.ws.solve_intercepts(target)
        self.beta0 = float(coef[0])
        self.theta0 = coef[1:]
        self.r = target - self.beta0 - self.data.Z @ self.theta0

    def _active(self):
        return (self.beta != 0.0) | self.rows

    def _update_group(self, j):
        """One K != 1 block visit, in Gram form like the K = 1 visit: the
        pull of the partial residual is c = (A'/N)(x_j o r) + G_j g0 at the
        current block g0, so r_{-j} is never formed.  On that c, in order:
        the exact solve on the row's support (``_solve_on_support``; rows
        only, at rho > 0), the beta-only soft-threshold
        b = S(c_0, rho) / G_00 with theta pinned at zero, and the joint prox
        loop.  The beta-only test is the subgradient condition of (b, 0), so
        at b = 0 it is the zero certificate, and the visit needs no
        certificate of its own.  The residual takes one update."""
        ws, rho = self.ws, self.rho
        x_j = self.data.X[:, j]
        gram = ws.gram[j]
        b_old = self.beta.item(j)
        g0 = np.zeros(gram.shape[0])
        g0[0] = b_old
        if self.rows[j]:
            g0[1:] = self.theta[j]
        c = ws.at @ (x_j * self.r) + gram @ g0
        g = None
        if self.rows[j] and rho > 0.0:
            g = _solve_on_support(gram, c, g0, rho, self.mu,
                                  ws.support(j, self.theta[j]))
        if g is None:
            if gram.item(0, 0) == 0.0:
                raise ValueError(f"X column {j} is identically zero")
            c0 = c.item(0)
            b = (math.copysign(abs(c0) - rho, c0) / gram.item(0, 0)
                 if abs(c0) > rho else 0.0)
            # the theta pull at (b, 0) and its budget: rho once b != 0, the
            # zero certificate's at b = 0
            sq = soft_threshold((c - b * gram[:, 0])[1:], self.mu)
            if math.sqrt(sq @ sq) <= (rho if b else _zero_budget(c0, rho)):
                if not self.rows[j]:
                    self.beta[j] = b
                    self.r -= x_j * (b - b_old)
                    return
                g = np.zeros_like(c)
                g[0] = b
        if g is None:
            g, stopped = _block_minimize(gram, c, g0, rho, self.mu, self.cfg)
            self.n_prox_capped += not stopped
        self.beta[j] = g[0]
        self.rows[j] = has_row = bool(g[1:].any())
        self.theta[j] = g[1:] if has_row else 0.0
        self._move(x_j, g - g0)

    def _move(self, x_j, step):
        """r -= D_j step = x_j o (A step) for a change ``step`` of block j."""
        self.r -= x_j * (self.ws.design @ step)

    def _update_k1(self, j):
        """The K = 1 block update: one exact solve (``_solve_k1``) in place
        of the three moves, so no prox iteration runs.  The pull of the
        partial residual is (A'/N)(x_j o r) + G g_old, so r_{-j} is never
        formed."""
        x_j = self.data.X[:, j]
        b_old, t_old = self.beta.item(j), self.theta.item(j, 0)
        c0, c1 = (self.ws.at @ (x_j * self.r)).tolist()
        gram = self.ws.gram[j].tolist()
        (g00, g01), (_, g11) = gram
        if b_old or t_old:
            if g00 == 0.0:
                raise ValueError(f"X column {j} is identically zero")
            c0 += g00 * b_old + g01 * t_old
            c1 += g01 * b_old + g11 * t_old
        b, t = _solve_k1(gram, (c0, c1), self.rho, self.mu)
        if b != b_old or t != t_old:
            self._move(x_j, np.array((b - b_old, t - t_old)))
            self.beta[j] = b
            self.theta[j, 0] = t
            self.rows[j] = t != 0.0

    def _kkt(self):
        return _kkt_arrays(self.data, self.ws.at, self.r, self.beta,
                           self.theta, self.lam, self.cfg.alpha)

    def _build_fit(self):
        return PliableFit.from_dense(self.beta0, self.theta0, self.beta,
                                     self.theta, self.lam, self.cfg.alpha)

    def run(self):
        """Passes until a full pass's KKT report certifies the iterate at
        ``tol_kkt``; returns (fit, FitDiagnostics), or raises
        ConvergenceError after ``max_outer_iters`` passes.

        At K >= 2 and rho > 0, the first pass that ends with the signs of
        beta and theta it started with is followed by ``_solve_active``,
        once per fit, whether or not it is accepted.  An accepted step
        moves the iterate, so the next pass is full: its report returns the
        fit or names the groups to visit."""
        cfg = self.cfg
        # the settle bound on ||r_end - r_start||_2^2
        settle = (_SETTLE * cfg.tol_kkt) ** 2 * self.data.n_samples
        full_pass = True
        update = (self._update_k1 if self.data.n_modifiers == 1
                  else self._update_group)
        # the Newton step is still to come
        newton = self.data.n_modifiers > 1 and self.rho > 0.0
        while self.n_passes < cfg.max_outer_iters:
            self.n_passes += 1
            # _refresh_intercepts rebinds self.r, so r_start keeps its values
            r_start = self.r
            self._refresh_intercepts()
            visit = [] if full_pass else np.flatnonzero(
                self._active()).tolist()
            if not visit:
                # a full pass; the report is the certificate, not a quiet
                # support, which can flip by one ulp forever at a tie
                report = self._kkt()
                if report.max_violation <= cfg.tol_kkt:
                    return self._build_fit(), FitDiagnostics(
                        self.n_passes, report, self.n_prox_capped)
                visit = np.flatnonzero(
                    self._active() | (report.per_group > 0.0)).tolist()
            if newton:
                signs = np.sign(self.beta), np.sign(self.theta)
            for j in visit:
                update(j)
            move = self.r - r_start
            full_pass = move @ move <= settle
            if newton and np.array_equal(signs[0], np.sign(self.beta)) \
                    and np.array_equal(signs[1], np.sign(self.theta)):
                newton = False
                full_pass |= _solve_active(self)[0]
        report = self._kkt()
        raise ConvergenceError(
            f"no convergence in {cfg.max_outer_iters} passes "
            f"(lam={self.lam:.6g}, alpha={cfg.alpha}, "
            f"kkt_max={report.max_violation:.3g}, "
            f"worst_group={report.worst_group}, "
            f"n_prox_capped={self.n_prox_capped})",
            fit=self._build_fit(), kkt=report)


def fit_single_lambda(data: Dataset, lam: float, config: SolverConfig | None = None,
                      warm: PliableFit | None = None,
                      workspace: Workspace | None = None,
                      return_diagnostics: bool = False):
    """Fit the model at one penalty level on (already standardized) data.

    Parameters
    ----------
    data : standardized Dataset (see preprocess.standardize).
    lam : penalty level, >= 0.
    config : SolverConfig; defaults used when omitted.
    warm : optional warm-start fit with matching dimensions.
    workspace : optional Workspace built on ``data``, reused across levels.
    return_diagnostics : also return pass counts and the final KKT report.
    """
    cfg = config if config is not None else SolverConfig()
    lam, _ = _check_penalty(lam, cfg.alpha)
    ws = workspace if workspace is not None else Workspace(data)
    if ws.data is not data:
        raise ValueError("workspace was built for a different dataset")
    fit, diag = _Fitter(data, lam, cfg, warm, ws).run()
    return (fit, diag) if return_diagnostics else fit
