"""Extreme eigenvalue estimation for the operator and the preconditioned
operator, plus a preconditioned conjugate gradient solver.

The generalized solver runs the Lanczos iteration for the pencil (A, M) in
the M inner product, tracking both the M-orthonormal basis and its image
under M so that only products with A and solves with M are needed.  Full
reorthogonalization keeps desk-scale runs clean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterDomainError
from .orthopoly import _tridiag_eig

__all__ = ["EigEstimate", "extreme_eigs_generalized", "extreme_eigs", "pcg"]


@dataclass(frozen=True)
class EigEstimate:
    lambda_min: float
    lambda_max: float
    residual_norms: tuple
    iterations: int


class _Op:
    """Uniform wrapper around GalerkinOperator / sparse / dense / callable."""

    def __init__(self, a, n=None):
        if isinstance(a, _Op):
            self.apply = a.apply
            self.n = a.n
        elif hasattr(a, "matvec") and hasattr(a, "shape"):
            self.apply = a.matvec
            self.n = a.shape[0]
        elif callable(a):
            if n is None:
                raise ParameterDomainError("callable operators need an explicit size")
            self.apply = a
            self.n = n
        else:
            mat = a
            self.apply = lambda v: mat @ v
            self.n = mat.shape[0]


def _ritz_extremes(alphas, betas):
    t_diag = np.asarray(alphas)
    t_off = np.asarray(betas)
    w, z = _tridiag_eig(t_diag, t_off, vectors=True)
    return w, np.abs(z[-1, :])


def _lanczos(a, m, tol, max_iter, rng, which="both", check_every=5, return_basis=False):
    """Lanczos for the pencil (A, M); M=None means the identity.

    Returns (EigEstimate, basis or None).  ``which`` selects which end must
    meet the residual tolerance.
    """
    op = _Op(a) if not isinstance(a, _Op) else a
    n = op.n
    max_iter = min(max_iter, n)
    p = rng.standard_normal(n)
    q = m.solve(p) if m is not None else p.copy()
    norm = np.sqrt(q @ p)
    if not norm > 0.0:
        raise ConvergenceError("Lanczos start vector degenerated")
    q /= norm
    p /= norm
    qs = np.empty((n, max_iter + 1))
    ps = np.empty((n, max_iter + 1))
    qs[:, 0] = q
    ps[:, 0] = p
    alphas = []
    betas = []
    exhausted = False
    estimate = None
    for j in range(max_iter):
        z = op.apply(qs[:, j])
        alpha = float(qs[:, j] @ z)
        alphas.append(alpha)
        pt = z - alpha * ps[:, j]
        if j > 0:
            pt -= betas[-1] * ps[:, j - 1]
        for _ in range(2):  # full reorthogonalization, twice
            coeffs = qs[:, : j + 1].T @ pt
            pt -= ps[:, : j + 1] @ coeffs
        qt = m.solve(pt) if m is not None else pt
        b2 = float(qt @ pt)
        scale = max(abs(alpha), betas[-1] if betas else 0.0, 1e-300)
        if b2 <= (1e-14 * scale) ** 2:
            exhausted = True
            break
        beta = np.sqrt(b2)
        betas.append(beta)
        qs[:, j + 1] = qt / beta
        ps[:, j + 1] = pt / beta
        if (j + 1) % check_every == 0 or j + 1 == max_iter:
            w, last = _ritz_extremes(alphas, betas[:-1])
            res_lo = beta * last[0] / max(abs(w[0]), 1e-300)
            res_hi = beta * last[-1] / max(abs(w[-1]), 1e-300)
            estimate = EigEstimate(float(w[0]), float(w[-1]), (res_lo, res_hi), j + 1)
            ok_lo = res_lo <= tol or which == "max"
            ok_hi = res_hi <= tol or which == "min"
            if ok_lo and ok_hi and j >= 1:
                basis = (qs[:, : j + 2], ps[:, : j + 2]) if return_basis else None
                return estimate, basis
    if exhausted:
        w, _ = _ritz_extremes(alphas, betas)
        estimate = EigEstimate(float(w[0]), float(w[-1]), (0.0, 0.0), len(alphas))
        basis = (qs[:, : len(alphas)], ps[:, : len(alphas)]) if return_basis else None
        return estimate, basis
    raise ConvergenceError(
        f"Lanczos did not reach tolerance {tol:g} in {max_iter} iterations",
        estimate=estimate,
    )


def extreme_eigs_generalized(
    a,
    m,
    tol: float = 1e-8,
    max_iter: int = 300,
    seed: int = 42,
    return_basis: bool = False,
):
    """Extreme eigenvalues of the pencil (A, M) with M positive definite.

    ``m`` must expose solve(); None means the identity.  Returns an
    EigEstimate (and the Lanczos basis pair when requested)."""
    rng = np.random.default_rng(seed)
    estimate, basis = _lanczos(a, m, tol, max_iter, rng, return_basis=return_basis)
    if return_basis:
        return estimate, basis
    return estimate


def extreme_eigs(
    a,
    tol: float = 1e-6,
    max_iter: int = 400,
    accel=None,
    dense_cap: int = 6000,
    seed: int = 42,
) -> EigEstimate:
    """Extreme eigenvalues of the operator itself.

    The largest eigenvalue comes from a plain Lanczos run.  The smallest is
    found on the inverted operator, applied through conjugate gradients
    preconditioned by ``accel`` when one is supplied; without an accelerator
    a dense solve is used up to ``dense_cap`` and plain Lanczos beyond it.
    """
    op = _Op(a)
    rng = np.random.default_rng(seed)
    est_hi, _ = _lanczos(op, None, tol, max_iter, rng, which="max")
    iterations = est_hi.iterations
    if accel is not None:
        inner_tol = min(1e-10, tol * 1e-2)

        def apply_inv(v):
            x, _, _ = pcg(op, accel, v, tol=inner_tol, max_iter=10 * max_iter)
            return x

        est_inv, _ = _lanczos(
            _Op(apply_inv, n=op.n), None, tol, max_iter, rng, which="max"
        )
        lam_min = 1.0 / est_inv.lambda_max
        res_lo = est_inv.residual_norms[1]
        iterations += est_inv.iterations
    elif op.n <= dense_cap and hasattr(a, "assemble_dense"):
        lam = np.linalg.eigvalsh(a.assemble_dense(cap=dense_cap))
        lam_min = float(lam[0])
        res_lo = 0.0
    else:
        est_lo, _ = _lanczos(op, None, tol, max_iter, rng, which="min")
        lam_min = est_lo.lambda_min
        res_lo = est_lo.residual_norms[0]
        iterations += est_lo.iterations
    return EigEstimate(lam_min, est_hi.lambda_max, (res_lo, est_hi.residual_norms[1]), iterations)


def pcg(a, m, b, tol: float = 1e-8, max_iter: int = 1000, callback=None):
    """Preconditioned conjugate gradients for A x = b.

    Returns (x, iterations, residual_history) where the history holds the
    relative residual after every iteration.  Raises ConvergenceError with
    the history attached when max_iter is exhausted.
    """
    op = _Op(a)
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    norm_b = math.sqrt(b @ b)
    if norm_b == 0.0:
        return x, 0, [0.0]
    r = b.copy()
    z = m.solve(r) if m is not None else r.copy()
    p = z.copy()
    rz = float(r @ z)
    history = []
    for it in range(1, max_iter + 1):
        ap = op.apply(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            raise ConvergenceError("conjugate gradients hit a nonpositive curvature direction",
                                   history=history)
        step = rz / denom
        x += step * p
        r -= step * ap
        if callback is not None:
            callback(x.copy())
        rel = math.sqrt(r @ r) / norm_b
        history.append(rel)
        if rel <= tol:
            return x, it, history
        z = m.solve(r) if m is not None else r
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients did not reach {tol:g} in {max_iter} iterations", history=history
    )
