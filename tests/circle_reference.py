"""Reference implementations for the circle model of ``torbif.corroborate``.

No command needs these; the tests use them to check the Galerkin residual
against the energy it is the gradient of, against the closed-form branch
state, and against the symmetry of the model.
"""

from __future__ import annotations

import math

import numpy as np

from torbif.corroborate import CircleModel, _tables, synthesize


def energy(model: CircleModel) -> float:
    """Discretized energy whose normalized gradient is ``residual``."""
    n = model.n_modes
    u = synthesize(model.coeffs, n)
    du = np.empty_like(model.coeffs)
    du[:, 0] = 0.0
    k = np.arange(1, n + 1)
    du[:, 1::2] = k * model.coeffs[:, 2::2]
    du[:, 2::2] = -k * model.coeffs[:, 1::2]
    uprime = synthesize(du, n)
    sq = u[0] ** 2 + u[1] ** 2
    dens = 0.5 * (uprime[0] ** 2 + uprime[1] ** 2) - 0.5 * model.lam * sq + 0.25 * sq ** 2
    return float(dens.mean() * 2.0 * np.pi)


def coefficient_inner(n_modes: int, x: np.ndarray, y: np.ndarray) -> float:
    """Inner product under which ``residual`` is the gradient of ``energy``."""
    w = _tables(n_modes).weights * np.pi
    w[0] = 2.0 * np.pi
    return float(np.sum(x * y * w))


def exact_branch_state(k: int, lam: float, n_modes: int) -> CircleModel:
    """The closed-form branch state sqrt(lam - k^2)(cos k theta, sin k theta), for lam > k^2."""
    coeffs = np.zeros((2, 2 * n_modes + 1))
    coeffs[0, 2 * k - 1] = coeffs[1, 2 * k] = math.sqrt(lam - k * k)
    return CircleModel(n_modes, lam, coeffs)


def rotate_state(model: CircleModel, phi: float, psi: float) -> CircleModel:
    """Act by the plane rotation phi and the domain shift psi."""
    n = model.n_modes
    c = model.coeffs
    shifted = np.empty_like(c)
    shifted[:, 0] = c[:, 0]
    k = np.arange(1, n + 1)
    ck, sk = np.cos(k * psi), np.sin(k * psi)
    shifted[:, 1::2] = c[:, 1::2] * ck - c[:, 2::2] * sk
    shifted[:, 2::2] = c[:, 1::2] * sk + c[:, 2::2] * ck
    rot = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    return CircleModel(n, model.lam, rot @ shifted)
