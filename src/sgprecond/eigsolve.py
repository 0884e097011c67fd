"""Extreme eigenvalue estimation for the preconditioned operator and for the
operator itself, plus a preconditioned conjugate gradient solver.

The generalized solver runs the Lanczos iteration for the pencil (A, M) in
the M inner product, tracking both the M-orthonormal basis and its image
under M so that only products with A and solves with M are needed.  Every
step reorthogonalizes fully by one classical Gram-Schmidt pass, and by a
second only when the first cancels more than 1 - 1/sqrt(2) of the vector's
Euclidean norm (the test of Daniel, Gragg, Kaufman & Stewart 1976).  A run
stops once its low end has converged: the Schur-complement pencils it is
given have spectrum 1 - sigma_i^2, and their low end alone gives both
extremes of the preconditioned operator.  A run starts from a seeded random
vector or, when the caller knows a vector near the wanted eigenvector, from
that vector with a seeded perturbation of 1e-2 of its norm.

For kappa(A) the largest eigenvalue of A comes from ARPACK's implicitly
restarted Lanczos (Lehoucq, Sorensen & Yang 1998, through scipy's eigsh),
and the smallest from a single-vector LOBPCG loop of its own (Knyazev 2001)
preconditioned by solves with a block preconditioner the caller has already
factored: one product with A, one solve and a 3 x 3 Rayleigh-Ritz step per
iteration.  LOBPCG starts near the separable vector s (x) u that minimizes
A's Rayleigh quotient for u the finite-element part of M^-1 1, read off A's
terms sum_k G_k (x) F_k.

Every operator passed in exposes ``matvec`` and ``shape``; every
preconditioner exposes ``solve`` (M^-1 r).  One object may be both.
``extreme_eigs`` also reads the terms ``gs`` and ``fs`` and the size
``n_fe`` of a GalerkinOperator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import eigh
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import ConvergenceError
from .orthopoly import _tridiag_eig

__all__ = ["EigEstimate", "extreme_eigs_generalized", "extreme_eigs", "pcg"]

CHECK_EVERY = 5  # Lanczos steps between two Ritz solves of the tridiagonal matrix
# LOBPCG recomputes A x once its carried residual lies within FLOOR_FACTOR eps
# ||A|| of the rounding floor and has reached no new minimum for STALL iterations
FLOOR_FACTOR = 1e3
STALL = 5


@dataclass(frozen=True)
class EigEstimate:
    lambda_min: float
    lambda_max: float
    residual_norms: tuple
    iterations: int
    vector_min: np.ndarray | None = field(default=None, compare=False, repr=False)


def extreme_eigs_generalized(a, m, tol: float = 1e-8, max_iter: int = 300, seed: int = 42,
                             return_basis: bool = False, start=None):
    """Extreme Ritz values of the pencil (A, M) with M positive definite.

    ``m`` must expose solve().  The run stops once the smallest Ritz value
    meets ``tol``; the largest is then a lower bound of the largest
    eigenvalue, with its own Ritz estimate.  ``max_iter`` caps the Lanczos
    steps, which ``iterations`` counts; ``residual_norms`` are the Ritz
    estimates for (lambda_min, lambda_max), and ``vector_min`` the Ritz
    vector of lambda_min.  With ``return_basis`` the Lanczos vectors q_j and
    p_j = M q_j come back too, as (estimate, (Q, P)).

    The first vector is p_0 = M q_0.  It is the seeded generator's first
    draw g, or with a nonzero ``start``, start/||start|| + 1e-2 g/||g||: a
    start near a known vector, perturbed so that no eigenvector is missing
    from it, as for LOBPCG in ``extreme_eigs``.  A perturbation of 1e-3
    could leave a near-degenerate lowest pair so lopsided that the run met
    ``tol`` on the second eigenvalue first; 1e-2 makes that less likely but
    cannot rule it out.
    """
    rng = np.random.default_rng(seed)
    n = a.shape[0]
    max_iter = min(max_iter, n)
    p = rng.standard_normal(n)
    if start is not None and start @ start > 0.0:
        p = start / math.sqrt(start @ start) + 1e-2 * p / math.sqrt(p @ p)
    q = m.solve(p)
    b2 = float(q @ p)
    if not b2 > 0.0:  # M is not positive definite at p, or p is NaN
        raise ConvergenceError("Lanczos start vector degenerated")
    norm = math.sqrt(b2)
    # column-major, so that only the columns a run fills become resident
    qs = np.empty((n, max_iter + 1), order="F")
    ps = np.empty((n, max_iter + 1), order="F")
    qs[:, 0] = q / norm
    ps[:, 0] = p / norm
    alphas = []
    betas = []
    estimate = None
    for j in range(max_iter):
        z = a.matvec(qs[:, j])
        alpha = float(qs[:, j] @ z)
        alphas.append(alpha)
        pt = z - alpha * ps[:, j]
        if j > 0:
            pt -= betas[-1] * ps[:, j - 1]
        # full reorthogonalization, repeated only when the first pass leaves
        # less than 1/sqrt(2) of pt's Euclidean norm (the DGKS test)
        before = pt @ pt
        pt -= ps[:, : j + 1] @ (qs[:, : j + 1].T @ pt)
        if 2.0 * (pt @ pt) < before:
            pt -= ps[:, : j + 1] @ (qs[:, : j + 1].T @ pt)
        qt = m.solve(pt)
        b2 = float(qt @ pt)
        scale = max(abs(alpha), betas[-1] if betas else 0.0, 1e-300)
        # an exhausted Krylov space is invariant: its Ritz values are exact
        exhausted = b2 <= (1e-14 * scale) ** 2
        beta = 0.0 if exhausted else np.sqrt(b2)
        if exhausted or (j + 1) % CHECK_EVERY == 0 or j + 1 == max_iter:
            w, z = _tridiag_eig(np.asarray(alphas), np.asarray(betas), vectors=True)
            last = np.abs(z[-1, :])
            res_lo = beta * last[0] / max(abs(w[0]), 1e-300)
            res_hi = beta * last[-1] / max(abs(w[-1]), 1e-300)
            estimate = EigEstimate(float(w[0]), float(w[-1]), (res_lo, res_hi), j + 1)
            if exhausted or (res_lo <= tol and j >= 1):
                estimate = replace(estimate, vector_min=qs[:, : j + 1] @ z[:, 0])
                return (estimate, (qs[:, : j + 1], ps[:, : j + 1])) if return_basis else estimate
        betas.append(beta)
        qs[:, j + 1] = qt / beta
        ps[:, j + 1] = pt / beta
    raise ConvergenceError(
        f"Lanczos did not reach tolerance {tol:g} in {max_iter} iterations",
        estimate=estimate,
    )


def extreme_eigs(
    a,
    accel,
    tol: float = 1e-6,
    max_iter: int = 400,
    seed: int = 42,
) -> EigEstimate:
    """Extreme eigenvalues of the operator itself.

    The largest comes from ARPACK's implicitly restarted Lanczos (scipy's
    ``eigsh``), started from the seeded generator's first draw and stopped by
    ARPACK's own Ritz estimate at ``tol``; any ARPACK failure, including
    running out of restarts, raises ConvergenceError, and so does a NaN or
    inf product, before ARPACK sees it.  The smallest comes from
    single-vector LOBPCG preconditioned by ``accel.solve``.  Its start is one
    Rayleigh-Ritz step of A on the rank-one tensor space: u is the first
    ``a.n_fe`` entries of M^-1 1, s the lowest eigenvector of the
    N_P x N_P matrix H = sum_k (u^T F_k u) G_k built from ``a.gs`` and
    ``a.fs``, and LOBPCG starts from s (x) u plus a seeded perturbation of
    1e-3 of its largest entry.  M^-1 1 alone is smooth in space but flat
    across the stochastic indices, and took up to 2.5 times the iterations;
    a purely random start makes the count depend strongly on the seed.  A
    NaN or inf H raises ConvergenceError.  ``max_iter`` caps both ARPACK's
    restarts and the LOBPCG iterations, each one preconditioned step.
    LOBPCG stops once ||Ax - theta x|| <= 1e-2 ``tol`` with ||x|| = 1, the
    rule of scipy's lobpcg, or once its residual stops falling at the
    rounding floor; its relative residual
    ||Ax - theta x|| / (|theta| ||x||) is then checked here and
    ConvergenceError raised, with the estimate attached, above ``tol``.

    ``iterations`` counts ARPACK's products with A plus the LOBPCG
    iterations; ``residual_norms`` holds the true relative residuals of
    (lambda_min, lambda_max) in that same form.  A 1 x 1 operator is its own
    eigenvalue and is answered with one product.
    """
    n = a.shape[0]
    if n == 1:  # ARPACK needs k < n
        lam = float(a.matvec(np.ones(1))[0])
        if not math.isfinite(lam):
            raise ConvergenceError("the 1 x 1 operator is NaN or inf")
        return EigEstimate(lam, lam, (0.0, 0.0), 1)
    rng = np.random.default_rng(seed)
    products = 0

    def product(v):
        nonlocal products
        products += 1
        z = a.matvec(v)
        if not np.isfinite(z).all():  # before ARPACK's LAPACK sees it
            raise ConvergenceError("the operator returned a NaN or inf")
        return z

    try:
        lam_hi, x_hi = eigsh(LinearOperator(a.shape, matvec=product, dtype=float), k=1,
                             which="LA", tol=tol, maxiter=max_iter, v0=rng.standard_normal(n))
    except ArpackError as err:
        raise ConvergenceError(f"ARPACK did not find the largest eigenvalue: {err}") from err
    lam_max = float(lam_hi[0])
    res_hi = _relative_residual(a.matvec(x_hi[:, 0]), lam_max, x_hi[:, 0])
    solves = 0

    def precondition(r):
        nonlocal solves
        solves += 1
        z = accel.solve(r)
        if not np.isfinite(z).all():
            raise ConvergenceError("the LOBPCG preconditioner returned a NaN or inf")
        return z

    # Rayleigh-Ritz on the tensor space {s (x) u}, u the FE part of M^-1 1
    u = precondition(np.ones(n))[: a.n_fe]
    h = sum(float(u @ (f @ u)) * g.toarray() for g, f in zip(a.gs, a.fs))
    if not np.isfinite(h).all():
        raise ConvergenceError("the stochastic Rayleigh quotient matrix is NaN or inf")
    start = np.kron(eigh(h, subset_by_index=[0, 0])[1][:, 0], u)
    x0 = start + 1e-3 * np.abs(start).max() * rng.standard_normal(n)
    solves = 0  # count LOBPCG iterations only
    lam_min, x, ax = _lobpcg_min(a, x0, precondition, 1e-2 * tol, max_iter)
    res_lo = _relative_residual(ax, lam_min, x)
    estimate = EigEstimate(lam_min, lam_max, (res_lo, res_hi), products + solves)
    if not res_lo <= tol:
        raise ConvergenceError(
            f"LOBPCG for the smallest eigenvalue stopped after {solves} iterations at "
            f"relative residual {res_lo:.3g}, above tolerance {tol:g}",
            estimate=estimate,
        )
    return estimate


def _lobpcg_min(a, x, precondition, tol, max_iter):
    """Single-vector LOBPCG (Knyazev 2001) for the smallest eigenvalue of A.

    Each iteration takes one product with A and one ``precondition`` of the
    residual, w, then a Rayleigh-Ritz step on an orthonormal basis of
    span{x, p, w}: w is orthogonalized twice against x and the previous
    direction p ("twice is enough"), and the new p, the part of the new x
    along p and w, once against the new x.  The images of x and p under A
    are carried, so w's is the only product.  The run stops once
    ||A x - theta x|| <= ``tol`` with ||x|| = 1, scipy's rule, or when
    nothing of w is left outside x and p, each judged on a fresh product
    A x: a carried image drifts from it by rounding, so when the carried
    residual passes, w vanishes or the Rayleigh-Ritz step stays on x, A x
    is recomputed, and the run goes on from x with p dropped unless the
    fresh residual passes too.  A fresh residual no smaller than the fresh
    one before it has reached its rounding floor (about eps ||A||), and the
    run stops there, above ``tol``; the caller judges the result against
    its own tolerance.  Near that floor the carried residual only bounces,
    so A x is also recomputed once the carried residual lies within
    ``FLOOR_FACTOR`` eps s, s the largest ||A v|| of a unit basis vector v
    so far, and has reached no new minimum since the last fresh product for
    ``STALL`` iterations.  Far above the floor a carried residual can stall
    longer than that while it still falls.  It also stops after
    ``max_iter`` iterations, or once the basis spans the space (n <= 3).
    Returns (theta, x, A x), with A x a fresh product.
    """
    basis = np.empty((x.size, 3), order="F")  # x, p, w
    images = np.empty((x.size, 3), order="F")  # A x, A p, A w
    basis[:, 0] = x / math.sqrt(x @ x)
    images[:, 0] = a.matvec(basis[:, 0])
    theta = float(basis[:, 0] @ images[:, 0])
    scale = math.sqrt(images[:, 0] @ images[:, 0])  # the largest ||A v|| of a unit v so far
    width = 1  # x, then x and p from the second iteration on
    fresh = True  # images[:, 0] is a product of its own, not carried
    last_fresh = math.inf  # the residual of the last fresh product
    for _ in range(max_iter):
        r = images[:, 0] - theta * basis[:, 0]
        res = math.sqrt(r @ r)
        if fresh:
            if res >= last_fresh:
                break
            last_fresh = res
        if fresh or res < lowest:  # the lowest residual since the last fresh product
            lowest, stalled = res, 0
        else:
            stalled += 1
        near_floor = res <= FLOOR_FACTOR * np.finfo(float).eps * scale
        done = res <= tol or (stalled >= STALL and near_floor)
        if not done:
            w = precondition(r)
            before = w @ w
            w = w - basis[:, :width] @ (basis[:, :width].T @ w)
            w -= basis[:, :width] @ (basis[:, :width].T @ w)
            after = w @ w
            done = not after > 1e-24 * before  # w is rounding error, or zero
        if done:
            if fresh:
                break
            images[:, 0], fresh, width = a.matvec(basis[:, 0]), True, 1
            continue
        basis[:, width] = w / math.sqrt(after)
        images[:, width] = a.matvec(basis[:, width])
        scale = max(scale, math.sqrt(images[:, width] @ images[:, width]))
        k = width + 1
        h = basis[:, :k].T @ images[:, :k]
        values, vectors = np.linalg.eigh(0.5 * (h + h.T))
        theta, c = float(values[0]), vectors[:, 0]
        x, ax = basis[:, :k] @ c, images[:, :k] @ c
        p, ap = basis[:, 1:k] @ c[1:], images[:, 1:k] @ c[1:]
        t = x @ p
        p -= t * x
        ap -= t * ax
        norm = math.sqrt(p @ p)
        basis[:, 0], images[:, 0], fresh = x, ax, False
        if k == x.size:  # the basis spans the space, so x is exact
            break
        if norm > 0.0:
            basis[:, 1], images[:, 1], width = p / norm, ap / norm, 2
        else:  # the step stays on x, so the carried images can move it no further
            images[:, 0], fresh, width = a.matvec(x), True, 1
    x = basis[:, 0].copy()
    return theta, x, images[:, 0].copy() if fresh else a.matvec(x)


def _relative_residual(ax, theta, x):
    r = ax - theta * x
    return math.sqrt(r @ r) / (abs(theta) * math.sqrt(x @ x))


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
