"""Blockwise coordinate descent at a single penalty level.

Each predictor j owns a block (beta_j, theta_j) penalized by

    (1-alpha) lam (||(beta_j, theta_j)||_2 + ||theta_j||_2)
    + alpha lam ||theta_j||_1 .

A block visit tries, in order: a cheap certificate that the whole block is
zero, a soft-threshold update for beta_j with theta_j pinned at zero, and a
proximal gradient loop on the joint block.  Intercepts (beta0, theta0) are
unpenalized and refreshed by least squares on (1, Z) at the start of every
pass.  Data is assumed standardized (see preprocess); nothing here rescales.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, PliableFit, _penalty_sums, interaction_block, predict

__all__ = [
    "SolverConfig",
    "KktReport",
    "FitDiagnostics",
    "ConvergenceError",
    "ProxSolveError",
    "Workspace",
    "soft_threshold",
    "solve_norm_system",
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

    ``tol_obj`` bounds the relative objective change over a full pass and
    ``tol_kkt`` the largest subgradient violation; both must hold to declare
    convergence.  ``screen`` toggles the zero-block certificate; the joint
    block loop always runs momentum with restart.  The standardization flags
    are consumed by the path/CV drivers, not by fit_single_lambda.
    """

    alpha: float = 0.5
    tol_obj: float = 1e-7
    tol_kkt: float = 1e-4
    max_outer_iters: int = 1000
    max_prox_iters: int = 500
    screen: bool = True
    standardize_x: bool = True
    standardize_z: bool = True
    center_y: bool = True

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must lie in [0, 1), got {self.alpha}")
        if self.tol_obj <= 0 or self.tol_kkt <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_outer_iters < 1 or self.max_prox_iters < 1:
            raise ValueError("iteration caps must be >= 1")


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
    n_passes: int
    kkt: KktReport
    objective_per_pass: tuple = ()
    # joint-block solves cut at max_prox_iters; the outer passes revisit them
    n_prox_capped: int = 0


def soft_threshold(x, t):
    """S(x, t) = sign(x) max(|x| - t, 0), elementwise.  Requires t >= 0."""
    if t < 0:
        raise ValueError(f"threshold must be >= 0, got {t}")
    if type(x) is not np.ndarray or not x.ndim:  # n-d arrays skip the checks
        if np.isscalar(x) or np.ndim(x) == 0:
            x = float(x)
            return np.sign(x) * max(abs(x) - t, 0.0)
        x = np.asarray(x, dtype=float)
    return np.copysign(np.maximum(np.abs(x) - t, 0.0), x)


def _zero_budget(a, rho):
    """Theta-side bound of the joint zero certificate at beta pull ``a``:
    the group-norm ball can spend only sqrt(rho^2 - a^2) on theta once it
    absorbs the beta pull, plus rho from the theta-only norm."""
    return rho + np.sqrt(np.maximum(rho * rho - np.square(a), 0.0))


def _pulls(X, Z, r):
    """(a, q) = (X'r / N, X'(Z o r) / N): the pull of residual r on each
    group's main effect and on its modifier row, one row per column of X.
    For K = 0, q has shape (p, 0)."""
    n = r.shape[0]
    a = X.T @ r / n
    q = X.T @ (Z * r[:, None]) / n
    return a, q


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


def solve_norm_system(g1: float, g2: float, c: float):
    """Solve for the block magnitudes a = |beta|, b = ||theta|| satisfying

        (1 + c / s) a = g1,      (1 + c (1/b + 1/s)) b = g2,

    with s = sqrt(a^2 + b^2).  Eliminating a and b through the shared factor
    s/(s + c) gives s = sqrt(g1^2 + (g2 - c)^2) - c in the interior; the
    boundary branches are b = 0 when g2 <= c and a = b = 0 when the joint
    magnitude falls below c.  Inputs must be nonnegative.
    """
    if min(g1, g2, c) < 0:
        raise ValueError("solve_norm_system inputs must be nonnegative")
    bb = g2 - c if g2 > c else 0.0
    root = math.hypot(g1, bb)
    if root <= c:
        return 0.0, 0.0
    scale = (root - c) / root
    return g1 * scale, bb * scale


def prox_group(zeta_beta: float, zeta_theta: np.ndarray, c: float, l1: float):
    """Proximal map of c (||(b, t)||_2 + ||t||_2) + l1 ||t||_1 at (zeta_beta, zeta_theta).

    The three penalty pieces nest (entries of theta, theta, the whole block),
    so the map composes: soft-threshold theta entries, group-shrink theta,
    group-shrink the joint block.  The magnitudes solve the norm system above.
    """
    zb = float(zeta_beta)
    zt = np.asarray(zeta_theta, dtype=float)
    t1 = soft_threshold(zt, l1)
    g2 = math.sqrt(t1 @ t1)
    a, b = solve_norm_system(abs(zb), g2, c)
    if a == 0.0 and b == 0.0:
        return 0.0, np.zeros_like(zt)
    beta = a if zb >= 0.0 else -a
    theta = t1 * (b / g2) if b > 0.0 else np.zeros_like(zt)
    if not (math.isfinite(beta) and np.isfinite(theta).all()):
        raise ProxSolveError(
            "proximal map produced non-finite values",
            diagnostics={"zeta_beta": zeta_beta, "g2": g2, "c": c, "l1": l1})
    return beta, theta


# ---------------------------------------------------------------------------
# workspace shared across penalty levels


class Workspace:
    """Per-dataset caches reused across a path: the joint-move blocks of
    groups that take one, column norms, and the intercept projector."""

    def __init__(self, data: Dataset):
        self.data = data
        X = data.X
        self.xnorm2 = np.einsum("ij,ij->j", X, X)
        A = np.column_stack([np.ones(data.n_samples), data.Z])
        # pseudoinverse handles a rank-deficient Z (e.g. Z identically zero)
        # with the minimum-norm intercepts instead of failing mid-fit
        self._a_pinv = np.linalg.pinv(A)
        self._block: dict[int, tuple] = {}

    def block(self, j: int):
        """(D_j, G_j, 1/L_j) with D_j = [X_j, W_j], G_j = D_j'D_j / N and L_j
        the largest eigenvalue of G_j, the exact Lipschitz constant of the
        block loss gradient."""
        got = self._block.get(j)
        if got is None:
            data = self.data
            d = np.empty((data.n_samples, data.n_modifiers + 1))
            d[:, 0] = data.X[:, j]
            d[:, 1:] = interaction_block(data.X, data.Z, j)
            gram = d.T @ d / data.n_samples
            lip = float(np.linalg.eigvalsh(gram)[-1])
            got = (d, gram, 1.0 / lip if lip > 0 else 1.0)
            self._block[j] = got
        return got

    def solve_intercepts(self, target):
        return self._a_pinv @ target


# ---------------------------------------------------------------------------
# joint block minimization (inner loop)


def _block_minimize(gram, c, half_rr, g0, rho, mu, t, cfg: SolverConfig):
    """Minimize the block objective from g0 by proximal gradient with the
    fixed step t = 1/L and restarted momentum.  Monotone in the block
    objective.  Returns the minimizer and whether the loop stopped before
    ``cfg.max_prox_iters``.

    With D = [X_j, W_j] and partial residual r, the loss ||r - D g||^2 / 2N
    is 0.5 g'G g - c'g + half_rr for G = D'D/N, c = D'r/N and
    half_rr = r'r/2N, so every iteration works on (K+1)-vectors only.  Since
    L bounds the curvature of that quadratic exactly, the sufficient-decrease
    test of a backtracking search always passes at t = 1/L.
    """

    def total(g):
        th = g[1:]
        tn = math.sqrt(th @ th)
        return (0.5 * float(g @ (gram @ g)) - float(c @ g) + half_rr
                + rho * (math.hypot(g[0], tn) + tn)
                + mu * float(np.abs(th).sum()))

    g = np.array(g0, dtype=float)
    f = total(g)
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
        z = a_mat @ y + tc
        beta_new, theta_new = prox_group(z[0], z[1:], t_rho, t_mu)
        g_new = np.empty_like(g)
        g_new[0] = beta_new
        g_new[1:] = theta_new
        f_new = total(g_new)
        if f_new > f + 1e-12 * max(1.0, abs(f)):
            if k > 1:
                # momentum overshot; restart the sequence from the incumbent
                k = 1
                g_prev = g
                continue
            return g, True
        # after a momentum step a small move from the incumbent does not
        # make g_new stationary; a small move from y, where the gradient was
        # taken, does: the prox-gradient map T is nonexpansive for t <= 1/L,
        # so ||T(g_new) - g_new||_2 <= ||g_new - y||_2
        done = (np.abs(g_new - g).max() <= tol
                and (y is g or np.abs(g_new - y).max() <= tol))
        g_prev = g
        g = g_new
        f = f_new
        k += 1
        if done:
            return g, True
    return g, False


# ---------------------------------------------------------------------------
# KKT / subgradient residuals


def _kkt_arrays(data: Dataset, r, beta, theta, lam, alpha) -> KktReport:
    """KKT report at residual r of the dense coefficients beta (p,) and
    theta (p, K).  Zero blocks take their zero-certificate slack; each
    active block j takes the larger of

        |rho b / gn - a|                                   (beta_j)
        max(||S(q, mu)||_2 - rho, 0)            if theta_j = 0, else
        max_k |rho th_k (1/gn + 1/tn) - q_k + mu sign(th_k)|   (th_k != 0)
              max(|q_k| - mu, 0)                               (th_k == 0)

    with (a, q) the pulls of group j, tn = ||theta_j||_2 and
    gn = ||(beta_j, theta_j)||_2."""
    n, p = data.n_samples, data.n_predictors
    rho = (1.0 - alpha) * lam
    mu = alpha * lam
    a_all, q_all = _pulls(data.X, data.Z, r)
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
    intercept = abs(float(r.mean()))
    if data.n_modifiers:
        intercept = max(intercept, float(np.abs(data.Z.T @ r).max()) / n)
    worst = int(np.argmax(per)) if p else 0
    return KktReport(per_group=per, intercept=intercept,
                     max_violation=max(float(per.max()) if p else 0.0, intercept),
                     worst_group=worst)


def check_kkt(fit: PliableFit, data: Dataset, lam=None, alpha=None) -> KktReport:
    """Subgradient residuals of ``fit`` on ``data`` at (lam, alpha)."""
    lam = fit.lam if lam is None else float(lam)
    alpha = fit.alpha if alpha is None else float(alpha)
    r = data.y - predict(fit, data.X, data.Z)
    return _kkt_arrays(data, r, fit.beta, fit.theta, lam, alpha)


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
        if warm is not None:
            if warm.n_predictors != p or warm.n_modifiers != k:
                raise ValueError("warm start has wrong dimensions")
            self.beta = warm.beta.copy()
            self.theta = warm.theta
            self.beta0 = warm.beta0
            self.theta0 = warm.theta0.copy()
        else:
            self.beta = np.zeros(p)
            self.theta = np.zeros((p, k))
            self.beta0 = 0.0
            self.theta0 = np.zeros(k)
        # groups whose theta row is nonzero; every write to theta updates it
        self.rows = self.theta.any(axis=1)
        self.r = (data.y - predict(warm, data.X, data.Z) if warm is not None
                  else data.y.copy())
        self.n_passes = 0
        self.n_prox_capped = 0

    def _objective(self):
        loss = float(self.r @ self.r) / (2.0 * self.data.n_samples)
        group, l1 = _penalty_sums(self.beta, self.theta)
        return loss + self.rho * group + self.mu * l1

    def _refresh_intercepts(self):
        target = self.r + self.beta0
        if self.data.n_modifiers:
            target = target + self.data.Z @ self.theta0
        coef = self.ws.solve_intercepts(target)
        self.beta0 = float(coef[0])
        self.theta0 = coef[1:]
        self.r = target - self.beta0
        if self.data.n_modifiers:
            self.r -= self.data.Z @ self.theta0

    def _active(self):
        return (self.beta != 0.0) | self.rows

    def _full_visit(self):
        if not self.cfg.screen:
            return range(self.data.n_predictors)
        a, q = _pulls(self.data.X, self.data.Z, self.r)
        fail = _zero_slack(a, q, self.rho, self.mu) > 0.0
        return np.flatnonzero(self._active() | fail).tolist()

    def _update_group(self, j):
        data = self.data
        n = data.n_samples
        x_j = data.X[:, j]
        b_old = self.beta[j]
        had_row = self.rows[j]
        was_active = b_old != 0.0 or had_row
        if was_active:
            r_mj = self.r + x_j * b_old
            if had_row:
                r_mj += self.ws.block(j)[0][:, 1:] @ self.theta[j]
        else:
            r_mj = self.r
        if self.cfg.screen:
            a = float(x_j @ r_mj) / n
            if not was_active and abs(a) <= self.rho and _zero_slack(
                    a, data.Z.T @ (x_j * r_mj) / n, self.rho, self.mu) <= 0.0:
                return False
            if self.ws.xnorm2[j] == 0.0:
                raise ValueError(f"X column {j} is identically zero")
            bhat = soft_threshold(a, self.rho) * n / self.ws.xnorm2[j]
            resid_b = r_mj - x_j * bhat
            sq = soft_threshold(data.Z.T @ (x_j * resid_b) / n, self.mu)
            if math.sqrt(sq @ sq) <= self.rho:
                changed = ((bhat != 0.0) != (b_old != 0.0)) or had_row
                self.beta[j] = bhat
                self.theta[j] = 0.0
                self.rows[j] = False
                self.r = resid_b
                return changed
        d, gram, t = self.ws.block(j)
        g0 = np.concatenate(([b_old], self.theta[j]))
        g, stopped = _block_minimize(gram, d.T @ r_mj / n,
                                     0.5 * float(r_mj @ r_mj) / n,
                                     g0, self.rho, self.mu, t, self.cfg)
        self.n_prox_capped += not stopped
        b_new = g[0]
        row_new = g[1:]
        has_row = bool(row_new.any())
        changed = ((b_new != 0.0) != (b_old != 0.0)) or has_row != had_row
        self.beta[j] = b_new
        self.theta[j] = row_new if has_row else 0.0
        self.rows[j] = has_row
        self.r = r_mj - d @ g
        return changed

    def _kkt(self):
        return _kkt_arrays(self.data, self.r, self.beta, self.theta,
                           self.lam, self.cfg.alpha)

    def _build_fit(self):
        return PliableFit.from_dense(self.beta0, self.theta0, self.beta,
                                     self.theta, self.lam, self.cfg.alpha)

    def run(self):
        cfg = self.cfg
        j_prev = np.inf
        full_pass = True
        obj_trace = []
        while self.n_passes < cfg.max_outer_iters:
            self.n_passes += 1
            self._refresh_intercepts()
            visit = (self._full_visit() if full_pass
                     else np.flatnonzero(self._active()).tolist())
            for j in visit:
                self._update_group(j)
            j_now = self._objective()
            obj_trace.append(j_now)
            rel = (j_prev - j_now) / max(1.0, abs(j_now))
            if full_pass:
                # the KKT report is the certificate; don't gate it on a
                # quiet support, which can flip by one ulp forever when a
                # group's pull ties its threshold exactly
                if rel < cfg.tol_obj:
                    report = self._kkt()
                    if report.max_violation <= cfg.tol_kkt:
                        return self._build_fit(), FitDiagnostics(
                            self.n_passes, report, tuple(obj_trace),
                            self.n_prox_capped)
                full_pass = not self._active().any()
            elif rel < cfg.tol_obj:
                full_pass = True
            j_prev = j_now
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
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0:
        raise ValueError(f"lam must be >= 0 and finite, got {lam}")
    cfg = config if config is not None else SolverConfig()
    ws = workspace if workspace is not None else Workspace(data)
    if ws.data is not data:
        raise ValueError("workspace was built for a different dataset")
    fit, diag = _Fitter(data, lam, cfg, warm, ws).run()
    return (fit, diag) if return_diagnostics else fit
