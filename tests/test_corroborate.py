import math
import sys

import numpy as np
import pytest

import torbif.corroborate as corroborate
from torbif.bifurcation import candidate_levels
from torbif.corroborate import (
    AMPLITUDE_TOL,
    CROSSING_TOL,
    GALERKIN_MAX_MODES,
    SCAN_MAX_STEPS,
    CircleModel,
    _jacobian,
    amplitude,
    initial_guess,
    newton_branch,
    residual,
    stability_scan,
    trivial_branch_eigenvalues,
)
from torbif.errors import InputError, RefusalError

from circle_reference import coefficient_inner, energy, exact_branch_state, rotate_state


# --- stability scan -------------------------------------------------------------


def test_scan_locates_first_two_crossings():
    crossings = stability_scan(8, 0.5, 5.0)
    assert len(crossings) == 2
    assert abs(crossings[0] - 1.0) < 1e-6
    assert abs(crossings[1] - 4.0) < 1e-6


def test_scan_empty_window():
    assert stability_scan(8, 0.5, 0.9) == []


def test_scan_zero_mode_crossing():
    crossings = stability_scan(8, -1.0, 0.5)
    assert len(crossings) == 1 and abs(crossings[0]) < 1e-6


def test_scan_refuses_small_cutoff():
    with pytest.raises(RefusalError):
        stability_scan(3, 0.5, 5.0)


def test_galerkin_limits_admit_the_verify_sizes():
    # the benchmark's scan and largest Newton cutoff stay inside the limits
    crossings = stability_scan(40, 0.5, 1000.0, 2000)
    assert crossings == pytest.approx([k * k for k in range(1, 32)], abs=1e-6)
    assert newton_branch(3, 12.0, n_modes=32).converged
    with pytest.raises(RefusalError, match="limit"):
        stability_scan(8, 0.5, 5.0, SCAN_MAX_STEPS + 1)
    with pytest.raises(RefusalError, match="limit"):
        newton_branch(1, 1.5, n_modes=GALERKIN_MAX_MODES + 1)


def scalar_count(n_modes, lam):
    """Negative trivial-branch eigenvalues at one parameter, with multiplicity."""
    neg = trivial_branch_eigenvalues(n_modes, lam) < 0.0
    return 4 * int(np.count_nonzero(neg)) - 2 * int(neg[0])


def two_count_scan(n_modes, lam_lo, lam_hi, steps):
    """The scan that counts at both ends of every interval it bisects, one point at a time."""
    crossings = []
    grid = np.linspace(lam_lo, lam_hi, steps + 1)
    for a, b in zip(grid[:-1], grid[1:]):
        todo = [(float(a), float(b))]
        while todo:
            lo, hi = todo.pop()
            if scalar_count(n_modes, lo) == scalar_count(n_modes, hi):
                continue
            mid = 0.5 * (lo + hi)
            if hi - lo < 0.1 * CROSSING_TOL:
                crossings.append(mid)
            else:
                todo += [(mid, hi), (lo, mid)]
    return crossings


@pytest.mark.parametrize(
    "args", [(8, 0.5, 9.5, 60), (8, -1.0, 0.5, 60), (40, 0.5, 1000.0, 7), (12, -1e300, 5.0, 60)]
)
def test_scan_crossings_equal_the_two_count_scan(args):
    assert stability_scan(*args) == two_count_scan(*args)


def recorded_batches(monkeypatch):
    batches = []
    counts = corroborate._negative_counts
    monkeypatch.setattr(corroborate, "_negative_counts", lambda n, lams: batches.append(lams.tolist()) or counts(n, lams))
    return batches


def test_scan_counts_each_point_once(monkeypatch):
    batches = recorded_batches(monkeypatch)
    crossings = stability_scan(40, 0.5, 1000.0, 2000)
    # the 2,001 grid points in one batch, then 23 rounds that halve all 31
    # brackets together: 713 midpoints, each counted once; counting at both
    # ends of every bisected interval took 6,852 counts
    assert len(crossings) == 31
    assert [len(lams) for lams in batches] == [2001] + [31] * 23
    mids = [lam for lams in batches[1:] for lam in lams]
    assert len(mids) == len(set(mids)) == 31 * 23
    assert not set(mids) & set(batches[0])


@pytest.mark.parametrize("args", [(8, 0.5, 0.9, 60), (8, -1.0, 0.5, 7), (12, -1e300, 5.0, 60)])
def test_scan_makes_no_empty_batch(monkeypatch, args):
    batches = recorded_batches(monkeypatch)
    stability_scan(*args)
    assert len(batches[0]) == args[3] + 1
    assert all(batches)


@pytest.mark.parametrize("args", [(40, 0.5, 1000.0, 2000), (12, -1e300, 5.0, 60), (8, -1.0, 0.5, 7)])
def test_batch_count_equals_the_scalar_count(args):
    n_modes, lo, hi, steps = args
    points = np.linspace(lo, hi, steps + 1)
    assert corroborate._negative_counts(n_modes, points).tolist() == [
        scalar_count(n_modes, x) for x in points.tolist()
    ]


def test_scan_matches_symbolic_candidates(circle_spec):
    # cross-module agreement: scanned crossings are the symbolic levels
    crossings = stability_scan(8, 0.5, 9.5)
    symbolic = [
        float(c.lambda0) for c in candidate_levels(circle_spec) if 0.5 < c.lambda0 < 9.5
    ]
    assert len(crossings) == len(symbolic)
    for got, want in zip(crossings, symbolic):
        assert abs(got - want) < 1e-6


def test_trivial_branch_eigenvalue_formula():
    eigs = trivial_branch_eigenvalues(4, 0.5)
    k = np.arange(5.0)
    assert np.allclose(eigs, (k * k - 0.5) / (1 + k * k), atol=0, rtol=0)


# --- Newton branch ---------------------------------------------------------------


def test_newton_first_branch():
    result = newton_branch(1, 1.5)
    assert result.converged and result.iterations <= 10
    assert abs(result.amplitude - math.sqrt(0.5)) < 1e-8
    assert result.residual_sup < 1e-12


def test_newton_near_onset():
    # lambda - k^2 = 1e-4 = 5e-5 (1 + k^2): the onset floor at k = 1, still admitted
    result = newton_branch(1, 1.0 + 1e-4)
    assert result.converged
    assert abs(result.amplitude - 1e-2) < 1e-8


@pytest.mark.parametrize("k", [3, 60, 81, 126])
def test_newton_just_above_the_onset_floor_meets_the_amplitude_tolerance(k):
    lam = k * k + 1.0001 * 5e-5 * (1 + k * k)
    result = newton_branch(k, lam)
    assert result.converged
    assert abs(result.amplitude - math.sqrt(lam - k * k)) < AMPLITUDE_TOL


@pytest.mark.parametrize(
    ("k", "lam"),
    [(3, 9 + 1e-7), (1, 1 + 1e-7), (60, 3600.001), (1, 1 + 0.999e-4), (126, 126**2 + 0.999 * 5e-5 * (1 + 126**2))],
)
def test_newton_refuses_below_the_onset_floor(monkeypatch, k, lam):
    # there the residual test passes amplitudes off by more than AMPLITUDE_TOL; refused before numpy loads
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(RefusalError, match="need lambda >= "):
        newton_branch(k, lam)


def test_newton_second_mode():
    result = newton_branch(2, 6.0)
    assert result.converged
    assert abs(result.amplitude - math.sqrt(2.0)) < 1e-8


def test_newton_overflow_is_not_convergence():
    # at lambda = 1e308 the iterates overflow to NaN, which must fail the residual test
    with np.errstate(over="ignore", invalid="ignore"):
        result = newton_branch(1, 1e308)
    assert not result.converged


def test_newton_refuses_at_boundary():
    with pytest.raises(RefusalError):
        newton_branch(2, 4.0)
    with pytest.raises(RefusalError):
        newton_branch(3, 10.0, n_modes=4)
    with pytest.raises(InputError):
        newton_branch(0, 1.5)


# --- exactness of the discretization --------------------------------------------------


@pytest.mark.parametrize("k,n_modes", [(1, 3), (1, 8), (2, 4), (3, 16)])
def test_exact_branch_residual(k, n_modes):
    lam = k * k + 0.5
    state = exact_branch_state(k, lam, n_modes)
    assert float(np.abs(residual(state)).max()) < 1e-12


def test_residual_is_gradient_of_energy():
    rng = np.random.default_rng(7)
    model = CircleModel(6, 1.2, 0.3 * rng.normal(size=(2, 13)))
    direction = rng.normal(size=(2, 13))
    h = 1e-6
    up = energy(CircleModel(6, 1.2, model.coeffs + h * direction))
    down = energy(CircleModel(6, 1.2, model.coeffs - h * direction))
    finite_difference = (up - down) / (2 * h)
    pairing = coefficient_inner(6, residual(model), direction)
    assert abs(finite_difference - pairing) < 1e-6 * abs(pairing)


@pytest.mark.parametrize("n_modes", [3, 8])
def test_jacobian_matches_central_differences(n_modes):
    rng = np.random.default_rng(n_modes)
    model = CircleModel(n_modes, 2.3, 0.4 * rng.normal(size=(2, 2 * n_modes + 1)))
    x = model.coeffs.ravel()
    h = 1e-5
    columns = []
    for col in range(x.size):
        step = np.zeros_like(x)
        step[col] = h
        up = residual(CircleModel(n_modes, model.lam, (x + step).reshape(model.coeffs.shape)))
        down = residual(CircleModel(n_modes, model.lam, (x - step).reshape(model.coeffs.shape)))
        columns.append(((up - down) / (2 * h)).ravel())
    jac = _jacobian(model, corroborate.synthesize(model.coeffs, n_modes))
    assert np.abs(jac - np.column_stack(columns)).max() < 1e-8


def mode_weights(n_modes):
    k = np.arange(1, n_modes + 1)
    w = np.ones(2 * n_modes + 1)
    w[1::2] = w[2::2] = 1.0 + k * k
    return w


def analyze(values, n_modes):
    """Fourier coefficients (modes 0..N) from grid values, with its own cos/sin products."""
    m = values.shape[-1]
    theta = 2.0 * np.pi * np.arange(m) / m
    k = np.arange(1, n_modes + 1)
    out = np.empty(values.shape[:-1] + (2 * n_modes + 1,))
    out[..., 0] = values.mean(axis=-1)
    out[..., 1::2] = 2.0 / m * values @ np.cos(k[:, None] * theta).T
    out[..., 2::2] = 2.0 / m * values @ np.sin(k[:, None] * theta).T
    return out


def linear_part(coeffs, lam):
    """Linear part (k^2 - lam) * c_k of the discretized equation, before normalization."""
    k = np.arange(1, coeffs.shape[-1] // 2 + 1)
    lin = np.empty_like(coeffs)
    lin[..., 0] = -lam * coeffs[..., 0]
    lin[..., 1::2] = (k * k - lam) * coeffs[..., 1::2]
    lin[..., 2::2] = (k * k - lam) * coeffs[..., 2::2]
    return lin


def basis_jacobian(model):
    """The derivative of ``residual`` from the synthesis of every unit coefficient vector."""
    n = model.n_modes
    size = 2 * (2 * n + 1)
    u = corroborate.synthesize(model.coeffs, n)
    sq = u[0] ** 2 + u[1] ** 2
    basis = np.eye(size).reshape(size, 2, 2 * n + 1)  # basis[col] perturbs coefficient col
    v = corroborate.synthesize(basis, n)
    dot = u[0] * v[:, 0] + u[1] * v[:, 1]
    nl = analyze(sq * v + 2.0 * dot[:, None] * u, n)
    lin = linear_part(basis, model.lam)
    return ((lin + nl) / mode_weights(n)).reshape(size, size).T


@pytest.mark.parametrize("n_modes", [3, 8, 32, 128])
def test_jacobian_equals_the_basis_synthesis(n_modes):
    rng = np.random.default_rng(100 + n_modes)
    for lam in (0.7, 5.5, 40.0):
        model = CircleModel(n_modes, lam, 0.5 * rng.normal(size=(2, 2 * n_modes + 1)))
        want = basis_jacobian(model)
        got = _jacobian(model, corroborate.synthesize(model.coeffs, n_modes))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n_modes,lam", [(3, 0.7), (8, -2.5), (16, 4.0), (32, 99.3), (128, 1e4)])
def test_linearization_at_zero_is_the_scan_spectrum(n_modes, lam):
    # Newton's matrix at u = 0 is diagonal, and its diagonal is the spectrum
    # the scan counts: mode 0 once, each k >= 1 twice, once per component
    coeffs = np.zeros((2, 2 * n_modes + 1))
    model = CircleModel(n_modes, lam, coeffs)
    jac = _jacobian(model, corroborate.synthesize(coeffs, n_modes))
    diag = np.diag(jac)
    assert np.array_equal(jac, np.diag(diag))
    eigs = trivial_branch_eigenvalues(n_modes, lam)
    layout = np.concatenate([[eigs[0]], np.repeat(eigs[1:], 2)])
    assert np.array_equal(diag, np.concatenate([layout, layout]))


# one lambda per plateau of equal Newton step counts, per verify stratum (k, N)
VERIFY_STRATA = [
    (1, 16, 1.0 + 0.375), (1, 24, 1.0 + 2.05), (1, 32, 1.0 + 4.6),
    (2, 16, 4.0 + 1.0), (2, 24, 4.0 + 3.3), (2, 32, 4.0 + 5.675),
    (3, 16, 9.0 + 5.675), (3, 24, 9.0 + 1.0), (3, 32, 9.0 + 3.3),
]


def test_verify_strata_step_counts():
    steps = []
    for k, n_modes, lam in VERIFY_STRATA:
        result = newton_branch(k, lam, n_modes)
        assert result.converged and abs(result.amplitude - math.sqrt(lam - k * k)) < 1e-8
        steps.append(result.iterations)
    assert steps == [6, 8, 10, 7, 9, 11, 11, 7, 9]


def test_newton_synthesizes_each_iterate_once(monkeypatch):
    calls = []
    synthesize = corroborate.synthesize
    monkeypatch.setattr(corroborate, "synthesize", lambda c, n: calls.append(n) or synthesize(c, n))
    for k, n_modes, lam in VERIFY_STRATA:
        calls.clear()
        result = newton_branch(k, lam, n_modes)
        # one synthesis per iterate, the start and the converged one included,
        # shared by the residual and the Jacobian
        assert calls == [n_modes] * (result.iterations + 1)


@pytest.mark.parametrize("n_modes", [3, 16])
def test_cached_tables_are_read_only(n_modes):
    tables = corroborate._tables(n_modes)
    assert tables._fields == ("synth", "analysis", "weights")
    for table in tables:
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 1.0
    assert all(a is b for a, b in zip(corroborate._tables(n_modes), tables))


def test_equivariance_of_residual_norm():
    result = newton_branch(1, 1.5)
    base = float(np.abs(residual(result.state)).max())
    rotated = rotate_state(result.state, 0.63, 1.17)
    assert float(np.abs(residual(rotated)).max()) < base + 1e-12


def test_rotation_preserves_amplitude():
    state = exact_branch_state(1, 1.5, 8)
    assert abs(amplitude(rotate_state(state, 1.0, 2.0)) - amplitude(state)) < 1e-12


def test_initial_guess_layout():
    coeffs = initial_guess(2, 4)
    assert coeffs[0, 3] == 0.1  # cos(2 theta), first component
    assert coeffs[1, 4] == 0.1  # sin(2 theta), second component
    assert np.count_nonzero(coeffs) == 2
