"""Independent reference implementations used only by the tests.

Everything here is written from the underlying math, on purpose without
importing any package internals, so agreement between the two routes is
meaningful.  Slow loops and long bisections are fine; these run on tiny
problems.
"""

import numpy as np


def soft(x, t):
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.maximum(np.abs(x) - t, 0.0)
    return float(out) if out.ndim == 0 else out


def lasso_cd(X, y, lam, tol=1e-13, max_iter=50000, init=None):
    """Plain lasso with intercept: (1/2N)||y - b0 - Xb||^2 + lam ||b||_1,
    by cyclic coordinate descent.  ``init`` warm-starts from (b0, b)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    col_ss = (X ** 2).sum(axis=0) / n
    if init is None:
        b0 = 0.0
        b = np.zeros(p)
        r = y.copy()
    else:
        b0 = float(init[0])
        b = np.array(init[1], dtype=float)
        r = y - b0 - X @ b
    for _ in range(max_iter):
        delta = 0.0
        shift = r.mean()
        b0 += shift
        r -= shift
        delta = abs(shift)
        for j in range(p):
            if col_ss[j] == 0.0:
                continue
            rho = X[:, j] @ r / n + col_ss[j] * b[j]
            new = soft(rho, lam) / col_ss[j]
            if new != b[j]:
                r -= X[:, j] * (new - b[j])
                delta = max(delta, abs(new - b[j]))
                b[j] = new
        if delta < tol:
            break
    return b0, b


def prox_objective(beta, theta, zeta_beta, zeta_theta, c, l1):
    """Objective of the block proximal problem, evaluated with plain loops."""
    theta = np.asarray(theta, dtype=float)
    zeta_theta = np.asarray(zeta_theta, dtype=float)
    val = 0.5 * (beta - zeta_beta) ** 2
    for i in range(theta.size):
        val += 0.5 * (theta[i] - zeta_theta[i]) ** 2
    tn = float(np.sqrt((theta ** 2).sum()))
    val += c * (float(np.sqrt(beta ** 2 + tn ** 2)) + tn)
    for i in range(theta.size):
        val += l1 * abs(theta[i])
    return val


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zero_threshold_oracle(X, Z, r, alpha):
    """Smallest lam at which every block certifies zero at residual r.

    Per group j, with a = x_j'r/N, q = (x_j o Z)'r/N and rho = (1-alpha) lam,
    the certificate is

        |a| <= rho   and   ||S(q, alpha lam)||_2 <= rho + sqrt(rho^2 - a^2);

    each group's threshold is found by its own scalar bisection.
    """
    n, p = X.shape
    k = Z.shape[1]
    best = 0.0
    for j in range(p):
        a = 0.0
        q = [0.0] * k
        for i in range(n):
            a += X[i, j] * r[i] / n
            for m in range(k):
                q[m] += X[i, j] * Z[i, m] * r[i] / n

        def violation(lam):
            rho = (1.0 - alpha) * lam
            excess = 0.0
            for v in q:
                excess += max(abs(v) - alpha * lam, 0.0) ** 2
            budget = rho + np.sqrt(max(rho * rho - a * a, 0.0))
            return max(abs(a) - rho, np.sqrt(excess) - budget)

        # at rho = 2 max(|a|, ||q||) both bounds hold with room to spare
        hi = 2.0 * max(abs(a), np.sqrt(sum(v * v for v in q))) / (1.0 - alpha)
        if hi > 0.0:
            best = max(best, _bisect(violation, 0.0, hi))
    return best


def lambda_max_per_group(X, Z, y, alpha):
    """The smallest all-zero penalty with one bisection per group.

    After the intercept-only least squares on (1, Z), with a and q the
    beta and theta pulls of the residual, group j is bisected on its own
    bracket, from |a_j|/(1-alpha), where it certifies unless its theta
    pull breaks the certificate, to max(|a_j|, ||q_j||)/(1-alpha), until
    the bracket is narrower than 1e-10 of its upper end.  Each group
    keeps the end of its bracket that certifies; the largest, times
    1 + 1e-12, is returned.
    """
    n, p = X.shape
    A = np.column_stack([np.ones(n), Z])
    r = y - A @ (np.linalg.pinv(A) @ y)
    scale = 1.0 - alpha
    best = 0.0
    for j in range(p):
        a = X[:, j] @ r / n
        q = (X[:, j] * r) @ Z / n

        def slack(lam):
            rho = scale * lam
            excess = np.maximum(np.abs(q) - alpha * lam, 0.0)
            budget = rho + np.sqrt(max(rho * rho - a * a, 0.0))
            return max(abs(a) - rho, np.sqrt(excess @ excess) - budget)

        lo = abs(a) / scale
        hi = lo if slack(lo) <= 0.0 else max(lo, np.sqrt(q @ q) / scale)
        while hi - lo > 1e-10 * hi:
            mid = 0.5 * (lo + hi)
            if slack(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        best = max(best, hi)
    return best * (1.0 + 1e-12)


def prox_oracle(zeta_beta, zeta_theta, c, l1):
    """Nested-bisection solution of the block proximal problem.

    Builds the zero, theta-free, and joint candidates from the stationarity
    equations in the magnitudes a = |beta|, b = ||theta||, each scalar solved
    by long bisection, then returns the candidate with the smallest objective.
    """
    zeta_theta = np.asarray(zeta_theta, dtype=float)
    st = soft(zeta_theta, l1)
    g1 = abs(float(zeta_beta))
    g2 = float(np.sqrt((st ** 2).sum()))
    sgn = 1.0 if zeta_beta >= 0 else -1.0
    zero_theta = np.zeros_like(zeta_theta)
    candidates = [(0.0, zero_theta)]
    if g1 > c:
        # theta = 0 branch: a + c = g1
        a = _bisect(lambda t: t + c - g1, 0.0, g1)
        candidates.append((sgn * a, zero_theta))
    big = float(np.hypot(g1, g2))
    if g2 > c and big > c:
        # joint branch: the magnitudes scale the thresholded pulls by
        # s/(s+c); the fixed point of s solves hypot(g1, g2-c) s/(s+c) = s
        def gap(s):
            k = s / (s + c)
            return float(np.hypot(g1 * k, (g2 - c) * k)) - s

        if gap(big * 1e-14) > 0:
            s = _bisect(gap, big * 1e-14, big)
            a = g1 * s / (s + c)
            b = (g2 - c) * s / (s + c)
            if b > 0:
                denom = 1.0 + c / s + c / b
                candidates.append((sgn * a, st / denom))
    best = min(candidates,
               key=lambda cand: prox_objective(cand[0], cand[1], zeta_beta,
                                               zeta_theta, c, l1))
    return best


def norm_equation_residuals(a, b, g1, g2, c):
    """Residuals of the two coupled magnitude equations at (a, b), both > 0."""
    s = float(np.hypot(a, b))
    r1 = (1.0 + c / s) * a - g1
    r2 = (1.0 + c * (1.0 / b + 1.0 / s)) * b - g2
    return abs(r1), abs(r2)


def residual_loops(beta0, theta0, beta, theta, y, X, Z):
    """y - yhat, one row at a time with explicit loops over the groups."""
    n, p = X.shape
    k = Z.shape[1] if Z is not None else 0
    r = []
    for i in range(n):
        yhat = beta0
        for m in range(k):
            yhat += Z[i, m] * theta0[m]
        for j in range(p):
            yhat += X[i, j] * beta[j]
            for m in range(k):
                yhat += X[i, j] * Z[i, m] * theta[j, m]
        r.append(y[i] - yhat)
    return r


def objective_loops(beta0, theta0, beta, theta, y, X, Z, lam, alpha):
    """Model objective computed with explicit loops over rows and groups."""
    n, p = X.shape
    k = Z.shape[1] if Z is not None else 0
    loss = 0.0
    for e in residual_loops(beta0, theta0, beta, theta, y, X, Z):
        loss += e ** 2
    loss /= 2.0 * n
    group = 0.0
    l1 = 0.0
    for j in range(p):
        tn = 0.0
        for m in range(k):
            tn += theta[j, m] ** 2
            l1 += abs(theta[j, m])
        tn = np.sqrt(tn)
        group += np.sqrt(beta[j] ** 2 + tn ** 2) + tn
    return loss + (1.0 - alpha) * lam * group + alpha * lam * l1


def satisfies_hierarchy(fit):
    """True when every stored modifier row has a nonzero main effect."""
    return all(fit.beta[j] != 0.0 for j in fit.theta_rows)


def block_residual_oracle(a, q, b, theta_j, rho, mu):
    """Subgradient residual of one block (b, theta_j) with pulls a (on b)
    and q (on theta_j), with plain loops:

    - a zero block takes the zero-certificate slack
      max(|a| - rho, ||S(q, mu)|| - rho - sqrt(max(rho^2 - a^2, 0)), 0);
    - otherwise the larger of |rho b / gn - a| and the theta residual:
      max(||S(q, mu)|| - rho, 0) when theta_j = 0, else the largest of
      |rho theta_k (1/gn + 1/tn) - q_k + mu sign(theta_k)| over nonzero
      entries and max(|q_k| - mu, 0) over zero entries,

    where tn = ||theta_j|| and gn = ||(b, theta_j)||.
    """
    k = len(q)
    excess = [max(abs(v) - mu, 0.0) for v in q]
    s_norm = np.sqrt(sum(e * e for e in excess))
    tn = np.sqrt(sum(theta_j[m] ** 2 for m in range(k)))
    if b == 0.0 and not any(theta_j[m] != 0.0 for m in range(k)):
        budget = rho + np.sqrt(max(rho * rho - a * a, 0.0))
        return max(abs(a) - rho, s_norm - budget, 0.0)
    gn = np.sqrt(b * b + tn * tn)
    res = abs(rho * b / gn - a)
    if tn == 0.0:
        return max(res, s_norm - rho, 0.0)
    for m in range(k):
        t = theta_j[m]
        if t != 0.0:
            res = max(res, abs(rho * t * (1.0 / gn + 1.0 / tn) - q[m]
                               + mu * np.sign(t)))
        else:
            res = max(res, excess[m])
    return res


def kkt_per_group_oracle(y, X, Z, beta0, theta0, beta, theta, lam, alpha):
    """Per-group subgradient residuals (``block_residual_oracle``), one
    group at a time with plain loops, at the pulls a = x_j'r/N and
    q = (x_j o Z)'r/N of the residual r, with rho = (1-alpha) lam and
    mu = alpha lam."""
    n, p = X.shape
    k = Z.shape[1]
    r = residual_loops(beta0, theta0, beta, theta, y, X, Z)
    rho = (1.0 - alpha) * lam
    mu = alpha * lam
    out = []
    for j in range(p):
        a = 0.0
        q = [0.0] * k
        for i in range(n):
            a += X[i, j] * r[i] / n
            for m in range(k):
                q[m] += X[i, j] * Z[i, m] * r[i] / n
        out.append(block_residual_oracle(a, q, beta[j], theta[j], rho, mu))
    return np.array(out)
