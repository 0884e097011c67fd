"""Extreme eigenvalue estimation for the preconditioned operator and for the
operator itself, plus a preconditioned conjugate gradient solver.

The generalized solver runs the Lanczos iteration for the pencil (A, M) in
the M inner product, tracking both the M-orthonormal basis and its image
under M so that only products with A and solves with M are needed.  Full
reorthogonalization keeps desk-scale runs clean.  A run can stop once one
end alone has converged, for a pencil whose other end is known: the
Schur-complement pencil of the two-block Gauss-Seidel sweep is bounded
above by 1, so only its low end is iterated to tolerance.

For kappa(A) the largest eigenvalue of A comes from the same Lanczos
iteration with M the identity, and the smallest from LOBPCG (Knyazev 2001)
preconditioned by solves with a block preconditioner the caller has
already factored.

Every operator passed in exposes ``matvec`` and ``shape``; every
preconditioner exposes ``solve`` (M^-1 r).  One object may be both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, lobpcg

from .errors import ConvergenceError, UsageError
from .orthopoly import _tridiag_eig

__all__ = ["EigEstimate", "extreme_eigs_generalized", "extreme_eigs", "pcg"]

CHECK_EVERY = 5  # Lanczos steps between two Ritz solves of the tridiagonal matrix
ENDS = ("both", "min", "max")  # the values of ``which``


@dataclass(frozen=True)
class EigEstimate:
    lambda_min: float
    lambda_max: float
    residual_norms: tuple
    iterations: int


def _ritz_extremes(alphas, betas):
    t_diag = np.asarray(alphas)
    t_off = np.asarray(betas)
    w, z = _tridiag_eig(t_diag, t_off, vectors=True)
    return w, np.abs(z[-1, :])


def _lanczos(a, m, tol, max_iter, rng, which="both", return_basis=False):
    """Lanczos for the pencil (A, M); M=None means the identity.

    Returns (EigEstimate, basis or None).  ``which`` is "both", "min" or
    "max": the ends that must meet the residual tolerance.  The estimate
    always carries both extreme Ritz values and both residuals.
    """
    if which not in ENDS:
        raise UsageError(f"which must be one of {', '.join(ENDS)}, not {which!r}")
    n = a.shape[0]
    max_iter = min(max_iter, n)
    p = rng.standard_normal(n)
    q = m.solve(p) if m is not None else p.copy()
    norm = np.sqrt(q @ p)
    if not norm > 0.0:
        raise ConvergenceError("Lanczos start vector degenerated")
    q /= norm
    p /= norm
    # column-major, so that only the columns a run fills become resident
    qs = np.empty((n, max_iter + 1), order="F")
    ps = np.empty((n, max_iter + 1), order="F") if m is not None else qs  # without M, q_j = p_j
    qs[:, 0] = q
    ps[:, 0] = p
    alphas = []
    betas = []
    exhausted = False
    estimate = None
    for j in range(max_iter):
        z = a.matvec(qs[:, j])
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
        if (j + 1) % CHECK_EVERY == 0 or j + 1 == max_iter:
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
    which: str = "both",
):
    """Extreme eigenvalues of the pencil (A, M) with M positive definite.

    ``m`` must expose solve(); None means the identity.  ``which`` names the
    ends that must meet ``tol``: "both", or "min" or "max" when the other
    end is known by other means.  Returns an EigEstimate (and the Lanczos
    basis pair when requested)."""
    rng = np.random.default_rng(seed)
    estimate, basis = _lanczos(a, m, tol, max_iter, rng, which, return_basis)
    if return_basis:
        return estimate, basis
    return estimate


def extreme_eigs(
    a,
    accel,
    tol: float = 1e-6,
    max_iter: int = 400,
    seed: int = 42,
) -> EigEstimate:
    """Extreme eigenvalues of the operator itself.

    The largest comes from a plain Lanczos run.  The smallest comes from
    single-vector LOBPCG preconditioned by ``accel.solve``, started from the
    smooth vector M^-1 1 plus a small seeded perturbation: the low end of A's
    spectrum clusters, and a purely random start makes the iteration count
    depend strongly on the seed.  ``max_iter`` caps both the Lanczos steps
    and the LOBPCG iterations (scipy's LOBPCG takes ``maxiter + 1``
    preconditioned steps, so it gets ``max_iter - 1``).  LOBPCG only warns
    when it stops short, so the relative residual
    ||Ax - theta x|| / (|theta| ||x||) is checked here and ConvergenceError
    raised, with the estimate attached, above ``tol``.

    ``iterations`` counts the Lanczos steps plus the LOBPCG iterations;
    ``residual_norms`` is (LOBPCG relative residual, Lanczos lambda_max
    residual).
    """
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    est_hi, _ = _lanczos(a, None, tol, max_iter, rng, which="max")
    solves = 0

    def precondition(r):
        nonlocal solves
        solves += 1
        z = accel.solve(r)
        if not np.isfinite(z).all():
            raise ConvergenceError("the LOBPCG preconditioner returned a NaN or inf")
        return z

    x0 = precondition(np.ones(n)) + 1e-3 * rng.standard_normal(n)
    solves = 0  # count LOBPCG iterations only
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lam, x = lobpcg(
            LinearOperator(a.shape, matvec=a.matvec, dtype=float),
            x0[:, None],
            M=LinearOperator(a.shape, matvec=precondition, dtype=float),
            largest=False,
            tol=1e-2 * tol,
            maxiter=max_iter - 1,
        )
    lam_min = float(lam[0])
    x = x[:, 0]
    r = a.matvec(x) - lam_min * x
    res_lo = math.sqrt(r @ r) / (abs(lam_min) * math.sqrt(x @ x))
    estimate = EigEstimate(
        lam_min, est_hi.lambda_max, (res_lo, est_hi.residual_norms[1]), est_hi.iterations + solves
    )
    if not res_lo <= tol:
        raise ConvergenceError(
            f"LOBPCG for the smallest eigenvalue stopped after {solves} iterations at "
            f"relative residual {res_lo:.3g}, above tolerance {tol:g}",
            estimate=estimate,
        )
    return estimate


def pcg(a, m, b, tol: float = 1e-8, max_iter: int = 1000, callback=None):
    """Preconditioned conjugate gradients for A x = b.

    Returns (x, iterations, residual_history) where the history holds the
    relative residual after every iteration.  Raises ConvergenceError with
    the history attached when max_iter is exhausted.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros_like(b)
    norm_b = math.sqrt(b @ b)
    if norm_b == 0.0:
        return x, 0, [0.0]
    r = b.copy()
    z = m.solve(r)
    p = z.copy()
    rz = float(r @ z)
    history = []
    for it in range(1, max_iter + 1):
        ap = a.matvec(p)
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
        z = m.solve(r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise ConvergenceError(
        f"conjugate gradients did not reach {tol:g} in {max_iter} iterations", history=history
    )
