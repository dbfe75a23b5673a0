"""Numerical trainers for linear classifiers.

train_logistic drives the max-norm of the penalized logistic gradient below
a tolerance by damped, then pure, Newton steps, and raises ConvergenceError
rather than returning a silently unconverged fit.
train_hinge solves the average-hinge-loss minimization exactly as a linear
program.
"""

import numpy as np
from scipy.special import expit


class ConvergenceError(RuntimeError):
    """Raised when the logistic trainer cannot meet its gradient tolerance."""

    def __init__(self, message, grad_norm):
        super().__init__(message)
        self.grad_norm = float(grad_norm)


def _logistic_objective(w, x1, y, lam, mask):
    m = y * (x1 @ w)
    loss = float(np.mean(np.logaddexp(0.0, -m)))
    return loss + lam * float(np.sum(mask * w * w))


def _logistic_grad(w, x1, y, lam, mask):
    m = y * (x1 @ w)
    # d/dm softplus(-m) = -sigmoid(-m); chain through m = y * x w.
    s = expit(-m)
    g = -(x1 * (y * s)[:, None]).mean(axis=0)
    return g + 2.0 * lam * mask * w


def train_logistic(x1, y, penalty_mask, lam, tol, max_iter):
    """Minimize mean logistic loss + lam * ||mask . w||^2 over weights.

    Newton's method (Boyd & Vandenberghe, Convex Optimization, 9.5): damped
    steps backtrack on the objective (Armijo, c = 1e-4); once that decrease
    rounds away in float64, the full step is taken only if it lowers the
    gradient max-norm, and the loop stops when it does not.

    Args:
        x1: (n, p) design matrix, intercept column included by the caller.
        y: (n,) labels in {-1, +1}.
        penalty_mask: (p,) 0/1 vector; penalized coordinates only.
        lam: ridge strength (applies as lam * sum(mask_j * w_j^2)).
        tol: required max-norm of the gradient at the returned weights.
        max_iter: iteration budget.

    Returns:
        (p,) weight vector with gradient max-norm at most tol.
    """
    x1 = np.asarray(x1, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = np.asarray(penalty_mask, dtype=float)
    n, p = x1.shape
    w = np.zeros(p)
    # Aim well below the contracted tolerance so downstream near-equality
    # checks at 10 * tol have slack.
    target = tol / 100.0
    obj = _logistic_objective(w, x1, y, lam, mask)
    g = _logistic_grad(w, x1, y, lam, mask)
    gnorm = float(np.abs(g).max())
    for _ in range(int(max_iter)):
        if gnorm <= target:
            break
        m = y * (x1 @ w)
        s = expit(-np.abs(m))
        # sigma(m) * sigma(-m) computed stably from |m|.
        curv = s * (1.0 - s)
        h = (x1.T * curv) @ x1 / n + np.diag(2.0 * lam * mask)
        h[np.diag_indices_from(h)] += 1e-10
        try:
            step = np.linalg.solve(h, g)
        except np.linalg.LinAlgError:
            step = g
        if not np.all(np.isfinite(step)):
            step = g
        if obj - 1e-4 * float(g @ step) == obj:
            # Pure phase: the objective cannot rank steps; the gradient can.
            cand = w - step
            cand_g = _logistic_grad(cand, x1, y, lam, mask)
            cand_norm = float(np.abs(cand_g).max())
            if not cand_norm < gnorm:
                break
            w, g, gnorm = cand, cand_g, cand_norm
            obj = _logistic_objective(w, x1, y, lam, mask)
            continue
        # Damped phase: backtrack on the objective (Armijo with c = 1e-4).
        t = 1.0
        for _ in range(30):
            cand = w - t * step
            cand_obj = _logistic_objective(cand, x1, y, lam, mask)
            if cand_obj <= obj - 1e-4 * t * float(g @ step):
                break
            t *= 0.5
        else:
            break
        w, obj = cand, cand_obj
        g = _logistic_grad(w, x1, y, lam, mask)
        gnorm = float(np.abs(g).max())
    if gnorm > tol:
        raise ConvergenceError(
            f"logistic trainer stopped with gradient max-norm {gnorm:.3e} "
            f"above tolerance {tol:.3e}", gnorm)
    return w


def train_hinge(x1, y, lam):
    """Exactly minimize mean hinge loss via a linear program.

    Variables are (w, b) split into positive parts plus slacks xi_i with
    xi_i >= 1 - y_i * (x_i . w), xi_i >= 0, objective mean(xi). Requires
    lam == 0; the hinge route has no ridge term.

    Args:
        x1: (n, p) design matrix with intercept column included.
        y: (n,) labels in {-1, +1}.
        lam: must be 0.0.

    Returns:
        (p,) weight vector attaining the minimum average hinge loss.
    """
    if lam != 0.0:
        raise ValueError("hinge training requires l2_penalty == 0")
    from scipy import sparse
    from scipy.optimize import linprog
    x1 = np.asarray(x1, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = x1.shape
    # Columns: w_plus (p), w_minus (p), xi (n).
    c = np.concatenate([np.zeros(2 * p), np.ones(n) / n])
    signed = x1 * y[:, None]
    # The slack block is an identity; sparse keeps the LP linear in n.
    a_ub = sparse.hstack([sparse.csr_array(np.hstack([-signed, signed])),
                          -sparse.identity(n, format="csr")], format="csr")
    b_ub = -np.ones(n)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"hinge linear program failed: {res.message}")
    sol = res.x
    return sol[:p] - sol[p:2 * p]
