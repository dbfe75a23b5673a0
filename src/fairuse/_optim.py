"""Numerical trainers for linear classifiers.

cell_margins is the trainer's form of the linear margin, x·w_base +
cells[code]·w_cell, with one design row per group cell in `cells` and one
cell code per training row. train_logistic fits it: it drives the
max-norm of the penalized logistic gradient below a tolerance by damped,
then pure, Newton steps, and raises ConvergenceError rather than
returning a silently unconverged fit.
train_hinge solves the average-hinge-loss minimization exactly as a linear
program. expit is the logistic sigmoid that the trainer and every score
use, and softplus the logistic loss kernel that the trainer's objective
and theory.trained_loss use; both are numpy's vectorized exp (and
log1p), so an audit loads no scipy module.
"""

import numpy as np


class ConvergenceError(RuntimeError):
    """Raised when the logistic trainer cannot meet its gradient tolerance."""

    def __init__(self, message, grad_norm):
        super().__init__(message)
        self.grad_norm = float(grad_norm)


def expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), scipy.special.expit's formula.

    Margins beyond about +-709 overflow or underflow exp and give the
    limits 1 and 0 without a warning, as scipy's version does.
    """
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softplus(z):
    """log(1 + exp(z)) as max(z, 0) + log1p(exp(-|z|)).

    exp underflows quietly past about -745, leaving max(z, 0) exact; NaN
    propagates and +-inf give inf and 0.
    """
    with np.errstate(under="ignore"):
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def cell_margins(w, x, codes, cells):
    """x @ w[:d] + cells[codes] @ w[d:], summed per cell before the gather."""
    d = x.shape[1]
    return x @ w[:d] + (cells @ w[d:]).take(codes)


def _logistic_objective(m, w, d, lam):
    """Mean logistic loss at m = y * margins, plus lam * ||w[:d]||^2."""
    loss = float(np.mean(softplus(-m)))
    return loss + lam * float(np.sum(w[:d] ** 2))


def _logistic_grad(w, x, codes, cells, y, lam, m=None):
    """Gradient of the penalized loss at w; m, y * margins at w, is taken
    from the caller when it has it."""
    if m is None:
        m = y * cell_margins(w, x, codes, cells)
    # d/dm softplus(-m) = -sigmoid(-m); chain through m = y * margin.
    r = -y * expit(-m) / y.size
    return np.concatenate([x.T @ r + 2.0 * lam * w[:x.shape[1]],
                           cells.T @ np.bincount(codes, r, cells.shape[0])])


def train_logistic(x, codes, cells, y, lam, tol, max_iter):
    """Minimize mean logistic loss + lam * ||w[:d]||^2 over weights.

    Newton's method (Boyd & Vandenberghe, Convex Optimization, 9.5): damped
    steps backtrack on the objective (Armijo, c = 1e-4); once that decrease
    rounds away in float64, the full step is taken only if it lowers the
    gradient max-norm, and the loop stops when it does not. The cell part
    of the gradient and Hessian is summed per cell with np.bincount.

    Args:
        x: (n, d) base features.
        codes: (n,) cell code of each row, an index into cells.
        cells: (m, k) design row per cell, intercept column included.
        y: (n,) labels in {-1, +1}.
        lam: ridge strength on the d base weights; cell weights are free.
        tol: required max-norm of the gradient at the returned weights.
        max_iter: iteration budget.

    Returns:
        (d + k,) weight vector with gradient max-norm at most tol.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    # Each Hessian's products curv * x.T run along the rows of a
    # contiguous copy of x.T, into a buffer laid out as x.T * curv would
    # be (column-major), so cx @ x stays the same BLAS call.
    xt = np.ascontiguousarray(x.T)
    cx = np.empty((d, n), order="F")
    w = np.zeros(d + cells.shape[1])
    # Aim well below the contracted tolerance so downstream near-equality
    # checks at 10 * tol have slack.
    target = tol / 100.0
    # y * margins at w, made once per iterate and read by the objective,
    # the gradient and the Hessian.
    m = y * cell_margins(w, x, codes, cells)
    obj = _logistic_objective(m, w, d, lam)
    g = _logistic_grad(w, x, codes, cells, y, lam, m)
    gnorm = float(np.abs(g).max())
    for _ in range(int(max_iter)):
        if gnorm <= target:
            break
        # sigma(m) * sigma(-m) computed stably from |m|.
        s = expit(-np.abs(m))
        curv = s * (1.0 - s) / n
        np.multiply(xt, curv, out=cx)
        # Per-cell sums of curv and curv * x stand in for cells[codes].
        sums = np.array([np.bincount(codes, c, len(cells))
                         for c in (curv, *cx)])
        cross = sums[1:] @ cells
        h = np.block([[cx @ x + 2.0 * lam * np.eye(d), cross],
                      [cross.T, (cells.T * sums[0]) @ cells]])
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
            cand_m = y * cell_margins(cand, x, codes, cells)
            cand_g = _logistic_grad(cand, x, codes, cells, y, lam, cand_m)
            cand_norm = float(np.abs(cand_g).max())
            if not cand_norm < gnorm:
                break
            w, m, g, gnorm = cand, cand_m, cand_g, cand_norm
            obj = _logistic_objective(m, w, d, lam)
            continue
        # Damped phase: backtrack on the objective (Armijo with c = 1e-4).
        t = 1.0
        for _ in range(30):
            cand = w - t * step
            cand_m = y * cell_margins(cand, x, codes, cells)
            cand_obj = _logistic_objective(cand_m, cand, d, lam)
            if cand_obj <= obj - 1e-4 * t * float(g @ step):
                break
            t *= 0.5
        else:
            break
        w, m, obj = cand, cand_m, cand_obj
        g = _logistic_grad(w, x, codes, cells, y, lam, m)
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
