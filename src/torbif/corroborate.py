"""Numerical corroboration on the planar-field circle model.

The model is -u'' = lambda*u - |u|^2 u for u: S^1 -> R^2, discretized by a
Fourier Galerkin truncation at mode N.  The residual is normalized per
mode by 1/(1+k^2), so the linearization at the trivial branch has the
exact eigenvalues (k^2 - lambda)/(1 + k^2) read off mode by mode, and the
stability scan is a bit-level check of the symbolic spectrum formula.

Nontrivial states are found by Newton's method with the trivial family
deflated out: a plain iteration started at the documented small-amplitude
guess falls into the basin of u = 0 once lambda - k^2 exceeds 3 * 0.01,
while the deflated residual keeps the quadratic convergence and removes
the trivial root altogether.  The angular degeneracy along the group
orbit is pinned by freezing the sine coefficient of mode k of the first
component.

The discretized model is written in three arrays: S, the synthesis table
(rows 1, cos k theta, sin k theta on the grid), A, the analysis table (S
scaled by 1/m for mode 0 and 2/m above, and by the mode weights), and
lin, the trivial-branch eigenvalues laid out on the coefficients.  Grid
values are c S, the residual is lin * c + (|u|^2 u) A^T, and the Newton matrix is
the cubic term's derivative A diag(g) S^T for each pair of field
components, three (2N+1) x m products in all, with lin added to its
diagonal.  S, A and the mode weights are built once per cutoff and kept,
read-only, in a cache of ``TABLE_CACHE_SIZE`` cutoffs.  Newton
synthesizes each iterate once, for both the residual and the Jacobian.
The scan counts negative eigenvalues at all its grid points in one array
evaluation, then halves all open brackets together, one evaluation of
their midpoints per round.

numpy is imported inside each function that builds an array, not at module
top, so the exact-algebra commands, which build none, never pay for loading
it; ``stability_scan`` and ``newton_branch`` import it after their input
checks, so a bad or oversized request is rejected without loading numpy.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import InputError, RefusalError, shown

if TYPE_CHECKING:
    import numpy as np

RESIDUAL_TOL = 1e-12
CROSSING_TOL = 1e-6
# Largest error in a converged Newton amplitude.  Near onset the residual of
# amplitude c off the branch by e is about 2 c^2 e / (1 + k^2), with
# c^2 = lambda - k^2, so RESIDUAL_TOL bounds e by AMPLITUDE_TOL only while
# lambda - k^2 >= RESIDUAL_TOL (1 + k^2) / (2 AMPLITUDE_TOL) = 5e-5 (1 + k^2);
# newton_branch refuses a lambda closer to onset.
AMPLITUDE_TOL = 1e-8
# Newton steps newton_branch takes before it reports divergence.
NEWTON_MAX_ITER = 50
# Largest Fourier cutoff N that stability_scan and newton_branch take on.  A
# Newton step solves a dense system of order 2(2N+1); at N = 128 a step takes
# about 0.012 s on a 2-core machine with one BLAS thread, so NEWTON_MAX_ITER
# steps stay under 1 s.  The scan resolves crossings up to (N-2)^2 = 15876 at
# this cutoff.
GALERKIN_MAX_MODES = 128
# Fourier cutoffs whose tables stay cached; an entry at N = 128 holds 2.1 MB
# (S and A: 2 * 257 * 516 floats), the cache at most 16 MB (N = 121..128).
TABLE_CACHE_SIZE = 8
# Most grid steps stability_scan takes on.  It counts all grid points in one
# batch: at both limits an array of 20,001 x 129 floats, about 21 MB.
SCAN_MAX_STEPS = 20_000


class CircleModel(NamedTuple):
    """Truncated Fourier state: coeffs[c] = [a0, a1, b1, ..., aN, bN]."""

    n_modes: int
    lam: float
    coeffs: np.ndarray


class _Tables(NamedTuple):
    """What a Galerkin step at cutoff N needs that depends on N alone; shared, so read-only."""

    synth: np.ndarray  # S: rows 1, cos(theta), sin(theta), ..., cos(N theta), sin(N theta) on m = 4(N+1) points
    analysis: np.ndarray  # S scaled by 1/m (mode 0) or 2/m, over the mode weights
    weights: np.ndarray  # mode weights 1, 1 + k^2, 1 + k^2, ...


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _tables(n_modes: int) -> _Tables:
    import numpy as np
    # 4(N+1) points: cubic products of degree <= 3N alias only onto modes > N
    m = 4 * (n_modes + 1)
    theta = 2.0 * np.pi * np.arange(m) / m
    k = np.arange(1, n_modes + 1)
    modes = 2 * n_modes + 1
    synth = np.empty((modes, m))
    synth[0] = 1.0
    synth[1::2] = np.cos(k[:, None] * theta)
    synth[2::2] = np.sin(k[:, None] * theta)
    weights = np.concatenate([[1.0], np.repeat(1.0 + k * k, 2)])
    scale = np.full((modes, 1), 2.0 / m)
    scale[0] = 1.0 / m
    tables = _Tables(synth, synth * (scale / weights[:, None]), weights)
    for t in tables:
        t.flags.writeable = False
    return tables


def synthesize(coeffs: np.ndarray, n_modes: int) -> np.ndarray:
    """Grid values of both components from the coefficient layout.

    Axes before the last two of ``coeffs`` (shape ``(..., 2, 2N+1)``) are
    batch axes and are kept.
    """
    return coeffs @ _tables(n_modes).synth


def _linear(model: CircleModel) -> np.ndarray:
    """``trivial_branch_eigenvalues`` on the coefficient layout: mode 0 once, each k >= 1 twice."""
    import numpy as np
    return np.repeat(trivial_branch_eigenvalues(model.n_modes, model.lam), 2)[1:]


def residual(model: CircleModel) -> np.ndarray:
    """Per-mode normalized residual of the discretized equation."""
    return _residual(model, synthesize(model.coeffs, model.n_modes))


def _residual(model: CircleModel, u: np.ndarray) -> np.ndarray:
    """``residual`` from the grid values ``u`` of ``model``."""
    cubic = (u[0] ** 2 + u[1] ** 2) * u
    return _linear(model) * model.coeffs + cubic @ _tables(model.n_modes).analysis.T


def _jacobian(model: CircleModel, u: np.ndarray) -> np.ndarray:
    """Derivative of ``residual`` in the flattened coefficients, at grid values ``u``.

    The cubic term's derivative in component j of component i is
    A diag(g_ij) S^T, with S the synthesis and A the analysis table and
    g_ij = 2 u_i u_j + delta_ij |u|^2 on the grid.  g_01 = g_10, so the
    four blocks take three products, made in one batched matmul.  The
    linear part is diagonal: lin, once per component.
    """
    import numpy as np
    t = _tables(model.n_modes)
    modes = t.weights.size
    sq = u[0] ** 2 + u[1] ** 2
    g = np.stack([2.0 * u[0] * u[0] + sq, 2.0 * u[0] * u[1], 2.0 * u[1] * u[1] + sq])
    blocks = (t.analysis * g[:, None, :]) @ t.synth.T
    jac = np.empty((2, modes, 2, modes))
    jac[0, :, 0] = blocks[0]
    jac[0, :, 1] = jac[1, :, 0] = blocks[1]
    jac[1, :, 1] = blocks[2]
    jac = jac.reshape(2 * modes, 2 * modes)
    jac.flat[:: 2 * modes + 1] += np.tile(_linear(model), 2)
    return jac


def trivial_branch_eigenvalues(n_modes: int, lam: float | np.ndarray) -> np.ndarray:
    """Diagonal linearization eigenvalues (k^2 - lam)/(1 + k^2), k = 0..N.

    ``lam`` broadcasts against k: a column of s parameters gives s rows.
    """
    import numpy as np
    k = np.arange(n_modes + 1, dtype=float)
    return (k * k - lam) / (1.0 + k * k)


def _check_modes(n_modes: int) -> None:
    if n_modes < 0:
        raise InputError(f"mode cutoff must be nonnegative, got {shown(n_modes)}")
    if n_modes > GALERKIN_MAX_MODES:
        raise RefusalError(
            f"mode cutoff {shown(n_modes)} is over the limit {GALERKIN_MAX_MODES}; lower the cutoff"
        )


def _negative_counts(n_modes: int, lams: np.ndarray) -> np.ndarray:
    """Negative trivial-branch eigenvalues at each of ``lams``, with multiplicity (2 at mode 0, 4 above)."""
    import numpy as np
    neg = trivial_branch_eigenvalues(n_modes, lams[:, None]) < 0.0
    return 4 * np.count_nonzero(neg, axis=1) - 2 * neg[:, 0]


def stability_scan(
    n_modes: int, lam_lo: float, lam_hi: float, steps: int = 60
) -> list[float]:
    """Locate eigenvalue sign changes of the trivial-branch linearization.

    Scans the interval on a uniform grid and refines every jump of the
    negative-eigenvalue count by bisection; estimates are accurate to the
    crossing tolerance of 1e-6.  Non-finite bounds and a negative cutoff
    are input errors; more than ``SCAN_MAX_STEPS`` steps or
    ``GALERKIN_MAX_MODES`` modes are refused before any work starts.
    """
    if not math.isfinite(lam_hi - lam_lo):
        raise InputError(f"scan interval [{lam_lo}, {lam_hi}] must be finite, with a finite width")
    if not lam_lo < lam_hi:
        raise InputError("scan interval is empty")
    if steps < 1:
        raise InputError("need at least one scan step")
    if steps > SCAN_MAX_STEPS:
        raise RefusalError(f"{shown(steps)} scan steps are over the limit {SCAN_MAX_STEPS}; lower the step count")
    _check_modes(n_modes)
    needed = math.ceil(math.sqrt(max(lam_hi, 0.0))) + 2
    if n_modes < needed:
        raise RefusalError(
            f"mode cutoff {n_modes} cannot resolve crossings up to {lam_hi}; need >= {needed}"
        )
    import numpy as np

    # a bracket is (lo, count at lo, hi, count at hi); one batch counts the
    # grid, then each round halves every bracket whose counts differ, one
    # batch for all their midpoints (from 1e300 this takes about 1,000 rounds)
    points = np.linspace(lam_lo, lam_hi, steps + 1)
    grid = points.tolist()
    ends = _negative_counts(n_modes, points).tolist()
    brackets = list(zip(grid, ends, grid[1:], ends[1:]))
    crossings: list[float] = []
    while brackets:
        halve = []
        for lo, c_lo, hi, c_hi in brackets:
            if c_lo == c_hi:
                continue
            mid = 0.5 * (lo + hi)
            if hi - lo < 0.1 * CROSSING_TOL:
                crossings.append(mid)
            else:
                halve.append((lo, c_lo, mid, hi, c_hi))
        if not halve:
            break
        mids = np.array([mid for _, _, mid, _, _ in halve])
        brackets = []
        for (lo, c_lo, mid, hi, c_hi), c_mid in zip(halve, _negative_counts(n_modes, mids).tolist()):
            brackets += [(lo, c_lo, mid, c_mid), (mid, c_mid, hi, c_hi)]
    return sorted(crossings)  # disjoint brackets narrow in different rounds


def initial_guess(k: int, n_modes: int) -> np.ndarray:
    """Newton's start on mode k: 0.1 (cos k theta, sin k theta)."""
    import numpy as np
    coeffs = np.zeros((2, 2 * n_modes + 1))
    coeffs[0, 2 * k - 1] = 0.1  # cos(k*theta) in the first component
    coeffs[1, 2 * k] = 0.1  # sin(k*theta) in the second
    return coeffs


def amplitude(model: CircleModel) -> float:
    """Root-mean-square field amplitude; equals c on the pure branch."""
    import numpy as np
    c = model.coeffs
    total = float(np.sum(c[:, 0] ** 2) + 0.5 * np.sum(c[:, 1:] ** 2))
    return math.sqrt(total)


class NewtonResult(NamedTuple):
    converged: bool
    iterations: int
    state: CircleModel
    amplitude: float
    residual_sup: float


def newton_branch(k: int, lam: float, n_modes: int | None = None) -> NewtonResult:
    """Converge onto the mode-k branch at parameter ``lam``.

    Starts from the 0.1-amplitude guess on mode k, pins the phase, and
    iterates Newton on the trivial-family-deflated residual until the
    (undeflated) residual sup-norm drops below 1e-12.  Divergence after
    ``NEWTON_MAX_ITER`` steps is reported, not raised.  A non-finite ``lam`` or a
    negative cutoff is an input error; a cutoff above ``GALERKIN_MAX_MODES`` is refused,
    and so is a ``lam`` so close to onset that a converged amplitude could be
    off by more than ``AMPLITUDE_TOL``: ``lam - k^2 < 5e-5 (1 + k^2)``.
    """
    if not math.isfinite(lam):
        raise InputError(f"lambda must be finite, got {lam}")
    if k < 1:
        raise InputError("mode index must be at least 1")
    if not lam > k * k:
        raise RefusalError(f"need lambda > k^2 = {shown(k * k)}, got {lam}")
    # k^2 + the floor, rounded once, so lambda = 1 + 1e-4 is admitted at k = 1
    onset = k * k + RESIDUAL_TOL * (1 + k * k) / (2 * AMPLITUDE_TOL)
    if lam < onset:
        raise RefusalError(
            f"lambda = {lam} is within 5e-5 (1 + k^2) of k^2 = {shown(k * k)}, where the residual test "
            f"cannot resolve the amplitude to {AMPLITUDE_TOL}; need lambda >= {onset!r}"
        )
    n = n_modes if n_modes is not None else max(k + 2, 8)
    _check_modes(n)
    if n < k + 2:
        raise RefusalError(f"mode cutoff {shown(n)} too small for mode {shown(k)}; need >= {shown(k + 2)}")
    import numpy as np

    model = CircleModel(n, float(lam), initial_guess(k, n))
    pin = 2 * k  # flat index of the sine coefficient of mode k, component 0
    iterations = 0
    while True:
        u = synthesize(model.coeffs, n)
        res = _residual(model, u).ravel()
        sup = float(np.abs(res).max())
        if sup < RESIDUAL_TOL:  # a NaN residual has not converged
            return NewtonResult(True, iterations, model, amplitude(model), sup)
        if iterations >= NEWTON_MAX_ITER:
            break
        jac = _jacobian(model, u)
        jac[pin, :] = 0.0
        jac[pin, pin] = 1.0
        res[pin] = model.coeffs.flat[pin]
        try:
            delta = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError:
            break
        x = model.coeffs.ravel()
        norm_sq = float(x @ x)
        deflate = 1.0 / norm_sq + 1.0
        slope = -2.0 * float(x @ delta) / norm_sq ** 2
        denom = deflate - slope
        if abs(denom) < 1e-300:
            break
        gamma = deflate / denom
        model = model._replace(coeffs=(x + gamma * delta).reshape(model.coeffs.shape))
        iterations += 1
    return NewtonResult(False, iterations, model, amplitude(model), sup)
