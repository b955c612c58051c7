"""The EWMA tracker of the top eigenpair of a covariance matrix.

``track_top`` follows ``E_t = (1-eps) E_{t-1} + eps r_t r_t^T`` and returns
the top eigenpair of every ``E_t``: exact from stacked ``eigh`` calls for
small matrices; for large ones from a warm-started power iteration on
``E_t - sigma`` that stops on an estimate of its error, begins from the
last step's product updated in O(N), and is proven to be the top pair by a
residual and Davis-Kahan bound every ``FULL_EVERY`` steps, with the top
pair from LAPACK ``dsyevx`` when the iteration stalls or the proof fails.
The shift ``sigma`` is half the lambda_2 implied by the last converged
step's contraction rate, held below lambda_1 / 2 so that the top
eigenvector stays dominant for a PSD ``E_t``, and 0 throughout when
``E_0`` is not PSD.  The sample spectra are computed in ``spectra`` and
``transforms``.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy.linalg import blas, lapack

__all__ = [
    "BACKEND",
    "track_top",
]

BACKEND = "python"

logger = logging.getLogger(__name__)

POWER_TOL = 1e-10
# Between refreshes a power step stops on an estimate of its distance to the
# fixed point.  The estimate trails that distance, because the contraction
# rate it extrapolates rises toward (lambda_2 - sigma)/(lambda_1 - sigma) as
# the faster parts of the error die out: on spiked N=30-100 panels the
# distance ran up to 1.17x the estimate.  So the estimate must fall to this,
# not to POWER_TOL.
BOUND_TOL = 0.8 * POWER_TOL
# With a clear top gap a warm-started step converges in about 10 iterations;
# steps with a near-degenerate top pair would need hundreds, and are handed
# to dsyevx, which costs less than iterating them out.
POWER_MAX_ITER = 50
FULL_EVERY = 100
# track_top takes every step from a stacked eigh up to this many assets.
# Measured crossover (T=4000, eps=0.02, one BLAS thread): the stacked path is
# faster up to N=16 on pure noise and up to N=18 on a one-factor panel.
STACKED_MAX_N = 16
# steps per chunk of the stacked path: at N=16 a 128 x N x N buffer is 256 kB
STACK_STEPS = 128
# the per-step path folds the EWMA decay into a scalar until it falls below
# this value
RESCALE_BELOW = 1e-30


def track_top(returns, epsilon, e_init=None):
    """EWMA covariance tracking of the top eigenpair.

    Follows ``E_t = (1-eps) E_{t-1} + eps r_t r_t^T`` from ``E_0 = I`` (or
    ``e_init``, of which only the lower triangle is read) and returns its
    top eigenpair at every step.  Up to ``STACKED_MAX_N`` assets a chunk of
    steps is built at once and decomposed exactly by one stacked ``eigh``.
    Above it each step is a power iteration on ``E - sigma``, with ``E``
    held as its lower triangle, warm-started from the last vector the step
    before multiplied, whose product it updates in O(N) instead of calling
    ``dsymv``.  When ``E_0`` is PSD, so is every ``E_t``, and ``sigma`` is
    half the second eigenvalue that the last converged step's contraction
    rate ``rho`` and eigenvalue ``lambda`` imply, ``sigma <- (sigma +
    rho (lambda - sigma)) / 2``, clamped to at most half the norm of the
    step's first product, which is at most lambda_1; the top eigenvector
    then stays dominant and the iteration contracts faster.  Otherwise
    ``sigma`` is 0 for the whole run.  It stops
    once the iterate's distance to the fixed point, estimated from the
    contraction rate of its steps, is at most ``BOUND_TOL`` (see
    ``_power``).  Every ``FULL_EVERY``-th step stops on a step of at most
    ``POWER_TOL`` and is then proven instead: ``_certify``
    bounds the iterate's eigenvalue error by ``|r|^2 / gap`` and its angle
    to the top eigenvector by ``|r| / gap <= POWER_TOL``, from its residual
    ``r`` and the Frobenius norm of ``E``.  A refresh the bounds cannot
    prove, and every step whose iteration cannot reach its tolerance within
    ``POWER_MAX_ITER`` iterations, is taken by LAPACK ``dsyevx`` (top pair
    only).  Consecutive eigenvectors are sign-aligned, the first one to the
    top eigenvector of ``E_0``.  The DEBUG record ends with ``shift``, the
    sigma of the last converged power step.

    Returns ``(lambda1, vectors)``.
    """
    returns = np.asarray(returns, dtype=float)
    T, N = returns.shape
    E = np.eye(N) if e_init is None else np.array(e_init, dtype=float)
    w, u = np.linalg.eigh(E)
    if N <= STACKED_MAX_N:
        lam, vecs, stats = _track_stacked(returns, epsilon, E, u[:, -1])
    else:
        lam, vecs, stats = _track_per_step(returns, epsilon, E, u[:, -1],
                                           psd=w[0] >= 0)
    logger.debug("track_top: path=%(path)s N=%(n)d steps=%(steps)d "
                 "power_iterations=%(power_iterations)d "
                 "matvecs=%(matvecs)d "
                 "give_ups=%(give_ups)d exact_steps=%(exact_steps)d "
                 "certified=%(certified)d "
                 "max_sin_bound=%(max_sin_bound).2e "
                 "max_power_bound=%(max_power_bound).2e "
                 "shift=%(shift).6g", stats)
    return lam, vecs


def _track_stacked(returns, epsilon, E, v0):
    """Every E_t of a chunk of steps from the unrolled recurrence
    ``E_{s+k} = (1-eps)^{k+1} E_{s-1} + sum_j eps (1-eps)^{k-j} r r^T``,
    then all top pairs from one stacked ``eigh``."""
    T, N = returns.shape
    n = max(1, min(T, STACK_STEPS))
    k = np.arange(n)
    W = np.tril(epsilon * (1.0 - epsilon) ** np.abs(np.subtract.outer(k, k)))
    decay = (1.0 - epsilon) ** (k + 1)
    lam = np.empty(T)
    vecs = np.empty((T, N))
    for s in range(0, T, n):
        m = min(n, T - s)
        R = returns[s:s + m]
        outer = (R[:, :, None] * R[:, None, :]).reshape(m, N * N)
        stack = (W[:m, :m] @ outer).reshape(m, N, N)
        stack += decay[:m, None, None] * E
        w, u = np.linalg.eigh(stack)
        lam[s:s + m] = w[:, -1]
        vecs[s:s + m] = u[:, :, -1]
        E = stack[-1]
    # v_t = s_t u_t with s_t = s_{t-1} sign(u_t . u_{t-1}) keeps every
    # v_t . v_{t-1} >= 0, as the per-step path does
    dots = np.einsum("ij,ij->i", vecs, np.vstack([v0, vecs])[:-1])
    vecs *= np.cumprod(np.where(dots < 0, -1.0, 1.0))[:, None]
    return lam, vecs, dict(path="stacked", n=N, steps=T, power_iterations=0,
                           matvecs=0, give_ups=0, exact_steps=T, certified=0,
                           max_sin_bound=0.0, max_power_bound=0.0,
                           shift=0.0)


def _track_per_step(returns, epsilon, E, v, psd):
    """Warm-started power iteration per step on the lower triangle of E,
    certified every ``FULL_EVERY`` steps, with the exact top pair from
    ``dsyevx`` when it cannot converge or a refresh is not certified.
    ``psd`` says that E is PSD, which lets the iteration shift.
    ``give_ups`` counts the steps between refreshes that fall back, so
    ``exact_steps = give_ups + T // FULL_EVERY - certified``; ``matvecs``
    counts the ``dsymv`` calls, those of ``_certify`` included."""
    T, N = returns.shape
    # E_t = c * F: the decay goes into the scalar c, so a step touches only
    # the lower triangle of F (one dsyr); F is rescaled before c underflows
    F = np.asfortranarray(np.tril(E))
    c = 1.0
    lam = np.empty(T)
    vecs = np.empty((T, N))
    iterations = matvecs = give_ups = exact = certified = 0
    worst = worst_power = 0.0
    # x and u = E x: the last vector a power step multiplied and its
    # product, which the next step updates in O(N) instead of a dsymv
    x = u = None
    # the shift of the power iteration: half the lambda_2 that the last
    # converged step's rate implies, and 0 throughout unless E_0 is PSD
    sigma = shift = 0.0
    for t in range(T):
        r = returns[t]
        c *= 1.0 - epsilon
        if c < RESCALE_BELOW:
            F *= c
            c = 1.0
        blas.dsyr(epsilon / c, r, lower=1, a=F, overwrite_a=1)
        free = u is not None
        if free:
            # E_t x = (1-eps) E_{t-1} x + eps (r.x) r
            u = blas.daxpy(r, blas.dscal(1.0 - epsilon, u),
                           a=epsilon * blas.ddot(r, x))
            v = x
        refresh = not (t + 1) % FULL_EVERY
        top, w, k, bound, x, u, used, rho = _power(F, c, v, u,
                                                   strict=refresh,
                                                   shift=sigma)
        iterations += k
        matvecs += k - free
        if w is not None:
            shift = used
            if psd:
                # rho = (lambda_2 - used) / (lambda_1 - used)
                sigma = 0.5 * (used + rho * (top - used))
        if not refresh:
            if w is None:
                give_ups += 1
            else:
                worst_power = max(worst_power, bound)
        elif w is not None:
            # the refresh keeps the iterate only if it is provably the top
            # pair.  The next step starts from (x, E x), as after any other
            # step, not from w and the product E w that _certify forms: both
            # starts come free, and on a 500 x 5000 spiked panel at
            # eps = 0.02 they took the same iterations and dsymv calls.
            # (_certify's daxpy overwrites E w with the residual; reusing
            # that array as E w sent 49 more steps to the exact top pair.)
            proof = _certify(F, c, w)
            matvecs += 1
            if proof is None:
                w = None
            else:
                top, bound = proof
                certified += 1
                worst = max(worst, bound)
        if w is None:
            top, w = _top_exact(F)
            top *= c
            exact += 1
            if w @ v < 0:
                w = -w
            x = u = None
        lam[t] = top
        vecs[t] = v = w
    return lam, vecs, dict(path="per-step", n=N, steps=T,
                           power_iterations=iterations, matvecs=matvecs,
                           give_ups=give_ups, exact_steps=exact,
                           certified=certified, max_sin_bound=worst,
                           max_power_bound=worst_power, shift=shift)


def _power(F, c, v, u=None, strict=False, shift=0.0):
    """Power iteration on ``E - shift`` with ``E = c * F`` (lower triangle)
    from ``v``; ``u``, when given, is taken as ``E v`` in place of the first
    ``dsymv``.

    The shift is first clamped to at most half the norm of ``E v``, which
    is at most lambda_1.  For a PSD E every eigenvalue of ``E - shift``
    other than ``lambda_1 - shift`` then lies in ``[-shift, lambda_2 -
    shift]``, so the top eigenvector stays dominant and the iteration
    contracts at a rate of at most ``max(lambda_2 - shift, shift) /
    (lambda_1 - shift)``, least at ``shift = lambda_2 / 2``.  The later
    products fold the shift into ``dsymv`` through its ``beta`` and ``y``.

    Iteration ``k`` moves the iterate by ``d_k``.  With ``rho`` the larger
    of the last two contraction rates ``|d_k| / |d_{k-1}|``, the iterate
    lies about ``bound = rho |d_k| / (1 - rho)`` from the fixed point.  The
    iteration stops once ``bound <= BOUND_TOL``; with ``strict`` (the
    refreshes, whose certificate needs it) once ``|d_k| <= POWER_TOL``,
    which is tighter while ``rho < 1/2``.  Either stop waits for ``k >= 2``,
    so it never rests on a given product alone.  The iteration gives up as
    soon as ``rho`` says its stopping quantity cannot reach its tolerance
    within ``POWER_MAX_ITER`` iterations, or when ``(E - shift) v = 0``.

    Returns ``(lambda, vector, iterations, bound, x, E x, shift, rho)``,
    where ``lambda = |(E - shift) x| + shift``, ``x`` is the last iterate
    multiplied, the one before ``vector``, ``E x`` is its unshifted product
    and ``shift`` the clamped shift.  All but ``iterations`` are None when
    the iteration gives up."""
    if u is None:
        u = blas.dsymv(c, F, v, lower=1)
    shift = min(shift, 0.5 * blas.dnrm2(u))
    u = blas.daxpy(v, u, a=-shift)
    prev = np.inf
    rate = 0.0
    for k in range(1, POWER_MAX_ITER + 1):
        if u is None:
            u = blas.dsymv(c, F, v, beta=-shift, y=v, lower=1)
        top = blas.dnrm2(u)
        if top == 0:
            break
        scale = -top if blas.ddot(u, v) < 0 else top
        # level-1 BLAS in place: np.linalg.norm costs 10x dnrm2 at this size
        w = blas.dscal(1.0 / scale, u)
        step = blas.dnrm2(w - v)
        # after a step of exactly zero the rate is 0/0 or unbounded
        last = step / prev if prev else (np.inf if step else 0.0)
        rho, rate = max(last, rate), last
        bound = rho * step / (1.0 - rho) if rho < 1.0 else np.inf
        stop, tol = (step, POWER_TOL) if strict else (bound, BOUND_TOL)
        if k >= 2 and stop <= tol:
            return (top + shift, w, k, bound, v,
                    blas.daxpy(v, w * scale, a=shift), shift, rho)
        if rho >= 1.0 or stop * rho ** (POWER_MAX_ITER - k) > tol:
            break
        prev = step
        v = w
        u = None
    return None, None, k, None, None, None, None, None


def _certify(F, c, v):
    """Prove that the unit vector ``v`` belongs to the top eigenvalue of
    ``E = c * F`` (lower triangle) to within ``POWER_TOL``.

    With ``theta = v.E v`` and ``r = E v - theta v`` some eigenvalue lies
    within ``|r|`` of theta, so one is at least ``low = theta - |r|``.  The
    squares of the others then sum to at most ``|E|_F^2 - low^2 = rest^2``.
    If ``low > rest`` that eigenvalue is lambda_1, it is simple, and every
    other one lies at least ``gap = theta - rest`` below theta, so
    ``|theta - lambda_1| <= |r|^2 / gap`` and ``sin(v, v_1) <= |r| / gap``
    (Davis & Kahan, SIAM J. Numer. Anal. 7, 1970).  Returns
    ``(theta, |r| / gap)`` when that bound is at most ``POWER_TOL``, else
    None."""
    N = F.shape[0]
    u = blas.dsymv(c, F, v, lower=1)
    theta = blas.ddot(v, u)
    r = blas.daxpy(v, u, a=-theta)
    f = F.ravel(order="K")
    d = np.diagonal(F)
    phi2 = c * c * (2.0 * blas.ddot(f, f) - d @ d)
    # the rounding of the sums of squares and of E v, at most N ulps each
    slack = 2.0 * N * np.finfo(float).eps
    phi2 *= 1.0 + slack
    res = blas.dnrm2(r) + slack * np.sqrt(phi2)
    low = theta - res
    rest = np.sqrt(max(phi2 - low * low, 0.0))
    if low <= rest or res > POWER_TOL * (theta - rest):
        return None
    return theta, res / (theta - rest)


def _top_exact(F):
    """Top eigenpair of the symmetric matrix whose lower triangle is F."""
    N = F.shape[0]
    w, z, _, _, info = lapack.dsyevx(F, range="I", il=N, iu=N, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevx failed with info={info}")
    return w[0], z[:, 0]
