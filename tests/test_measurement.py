"""Tests for projective measurements and the classical-correlations optimizer."""

import importlib.util
import os
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import qcorr
from qcorr import (
    Bipartition,
    BlochAngles,
    DensityMatrix,
    UnsupportedDimensionError,
    bell_state,
    binary_entropy,
    classical_correlations,
    density_from_pure,
    mutual_information,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    reduced_density_matrix,
    relative_entropy,
    von_neumann_entropy,
    StarConfig,
    analytic_marginals,
)
from qcorr import bounds, measurement
from qcorr.measurement import _canonical_angles

from definitions import ProjectiveMeasurement, apply_local_measurement, qubit_projectors

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def _mutual_info(rho: DensityMatrix) -> float:
    n = len(rho.dims)
    h_a = von_neumann_entropy(partial_trace(rho, tuple(range(n - 1))))
    h_b = von_neumann_entropy(partial_trace(rho, (n - 1,)))
    return h_a + h_b - von_neumann_entropy(rho)


def _block_size(rho: DensityMatrix) -> int:
    """Outcome-block size k = min(d_rest, r) of rho's J search, r its numerical rank,
    and k = 2 for a pure state, which takes no search but whose blocks are valid."""
    return min(rho.dim // 2, max(2, measurement._rank(rho)))


def _measured_mutual_info(rho: DensityMatrix, theta: float, phi: float) -> float:
    """Post-measurement mutual information straight from the definition."""
    meas = qubit_projectors(BlochAngles(theta, phi), len(rho.dims) - 1)
    return _mutual_info(apply_local_measurement(rho, meas))


# ---------------------------------------------------------------------------
# projector construction (the test-side reference in definitions.py)
# ---------------------------------------------------------------------------


def test_bloch_angles_validate_ranges():
    with pytest.raises(ValueError):
        BlochAngles(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochAngles(np.pi + 0.1, 0.0)
    with pytest.raises(ValueError):
        BlochAngles(0.5, 2.0 * np.pi)


def test_canonical_angles_fold_phi_just_below_zero_onto_zero():
    assert _canonical_angles(0.3, -1e-17) == BlochAngles(0.3, 0.0)


def test_qubit_projectors_at_north_pole_are_computational():
    meas = qubit_projectors(BlochAngles(0.0, 0.0))
    assert_allclose(meas.projectors[0], np.diag([1.0, 0.0]), atol=1e-15)
    assert_allclose(meas.projectors[1], np.diag([0.0, 1.0]), atol=1e-15)


def test_qubit_projectors_on_equator_are_plus_minus():
    meas = qubit_projectors(BlochAngles(np.pi / 2.0, 0.0))
    plus = np.full((2, 2), 0.5)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert_allclose(meas.projectors[0], plus, atol=1e-12)
    assert_allclose(meas.projectors[1], minus, atol=1e-12)


def test_qubit_projectors_complete_and_orthogonal_for_random_angles():
    rng = np.random.default_rng(5)
    for _ in range(25):
        angles = BlochAngles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
        p0, p1 = qubit_projectors(angles).projectors
        assert np.max(np.abs(p0 + p1 - np.eye(2))) <= 1e-12
        assert np.max(np.abs(p0 @ p1)) <= 1e-12
        assert np.max(np.abs(p0 @ p0 - p0)) <= 1e-12


def test_projective_measurement_rejects_incomplete_sets():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="identity"):
        ProjectiveMeasurement((p0,), 0)
    with pytest.raises(ValueError, match="idempotent"):
        ProjectiveMeasurement((p0 * 0.5, np.diag([0.5, 1.0]).astype(complex)), 0)


# ---------------------------------------------------------------------------
# post-measurement states
# ---------------------------------------------------------------------------


def test_apply_local_measurement_fixes_block_diagonal_states():
    rho = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), (2, 2))
    meas = qubit_projectors(BlochAngles(0.0, 0.0), 1)
    assert_allclose(apply_local_measurement(rho, meas).mat, rho.mat, atol=1e-14)


def test_apply_local_measurement_decoheres_bell_state():
    rho = density_from_pure(bell_state())
    meas = qubit_projectors(BlochAngles(0.0, 0.0), 1)
    expected = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert_allclose(apply_local_measurement(rho, meas).mat, expected, atol=1e-14)


def test_apply_local_measurement_is_idempotent():
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        angles = BlochAngles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
        meas = qubit_projectors(angles, 1)
        once = apply_local_measurement(rho, meas)
        twice = apply_local_measurement(once, meas)
        assert np.max(np.abs(twice.mat - once.mat)) <= 1e-12


def test_apply_local_measurement_satisfies_pinching_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        rho = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        angles = BlochAngles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
        meas = qubit_projectors(angles, 1)
        pinched = apply_local_measurement(rho, meas)
        gap = relative_entropy(rho, pinched) - (
            von_neumann_entropy(pinched) - von_neumann_entropy(rho)
        )
        assert abs(gap) <= 1e-9


def test_apply_local_measurement_never_increases_mutual_information():
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        angles = BlochAngles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))
        meas = qubit_projectors(angles, 1)
        pinched = apply_local_measurement(rho, meas)
        assert _mutual_info(pinched) <= _mutual_info(rho) + 1e-10


def test_apply_local_measurement_rejects_dimension_mismatch():
    rho = random_density_matrix((2, 3), 6, 21)
    meas = qubit_projectors(BlochAngles(0.0, 0.0), 1)
    with pytest.raises(ValueError, match="dimension"):
        apply_local_measurement(rho, meas)


# ---------------------------------------------------------------------------
# classical correlations
# ---------------------------------------------------------------------------


def test_classical_correlations_of_product_state_vanish():
    rho_a = random_density_matrix((2,), 2, 25)
    rho_b = random_density_matrix((2,), 2, 29)
    joint = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), (2, 2))
    best = classical_correlations(joint, 1)
    assert abs(best.value) <= 1e-10


def test_classical_correlations_of_bell_state_reach_one():
    best = classical_correlations(density_from_pure(bell_state()), 1)
    assert best.value == pytest.approx(1.0, abs=1e-9)


def test_classical_correlations_match_luo_on_bell_diagonal_states():
    # Bell-diagonal rho = (1 + sum_i c_i sigma_i x sigma_i)/4 has J = 1 - h((1 + max|c_i|)/2)
    # on either side (S. Luo, PRA 77, 042303 (2008)), and J is invariant under local
    # unitaries. The largest |c_i| leads the next by at least 1e-2 of its value here;
    # `test_classical_correlations_reach_luo_on_near_ties` takes closer ties.
    rng = np.random.default_rng(101)
    bell = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)
    signs = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]])  # c of each row
    checked = 0
    while checked < 100:
        p = rng.dirichlet(np.ones(4))
        top, second = np.sort(np.abs(p @ signs))[::-1][:2]
        if top - second < 1e-2 * top:
            continue
        mat = (bell.T * p) @ bell + 0j
        if checked % 2:
            u, v = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                    for _ in range(2))
            w = np.kron(u, v)
            mat = w @ mat @ w.conj().T
        rho = DensityMatrix(mat, (2, 2))
        luo = 1.0 - binary_entropy((1.0 + top) / 2.0)
        for measured in (0, 1):
            best = classical_correlations(rho, measured)
            assert abs(best.value - luo) <= 1e-12
            assert best.converged
        checked += 1


@pytest.mark.parametrize("gap", parity.BELL_GAPS)
def test_classical_correlations_reach_luo_on_near_ties(gap):
    # `tools/parity.py`'s Bell-diagonal states, whose two largest |c_i| differ by
    # ``gap`` of the larger. Two near-tied axes leave a ridge whose curvature
    # scales with the gap. On these states the 3 x 3 stencil search stopped on it
    # up to 2.7e-6 short of Luo's J (gap 1e-5), and at gap 1e-8 reported
    # `converged` while 3.7e-9 short. Exact derivatives see the ridge's curvature,
    # and a negative one is stepped off rather than stopped on.
    for seed in range(4 * parity.BELL_GAPS.index(gap), 4 * parity.BELL_GAPS.index(gap) + 4):
        for rotated in (False, True):
            for measured in (0, 1):
                rho, measured, luo = parity._bell_diagonal(seed, gap, rotated, measured)
                best = classical_correlations(rho, measured)
                assert best.value >= luo - 1e-12
                assert best.converged


def test_classical_correlations_reach_the_exact_rank_two_reference():
    # A two-qubit state of rank 2 has J = H(rest) - E_F(rest : C) in closed form
    # (`parity._rank_two_j`). Over seeds 0-3999 measured on either side, search
    # minus reference lay in [-1.6e-14, +2.4e-15], and over 400 near-pure mixtures
    # (these weights, 40 seeds each) in [-1.6e-14, +5.4e-15]; the bound is about
    # three times the widest of these. One stack runs every search: each state's
    # result is its own search's (`test_stacked_search_keeps_states_independent`).
    states = [random_density_matrix((2, 2), 2, seed) for seed in range(1000)]
    for w in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for seed in range(20):
            a, b = (random_pure_state((2, 2), 2 * seed + i).vec for i in (0, 1))
            mix = (1.0 - w) * np.outer(a, a.conj()) + w * np.outer(b, b.conj())
            states.append(DensityMatrix(mix, (2, 2)))
    pairs = [(rho, measured) for rho in states for measured in (0, 1)]
    for (rho, measured), (_, _, best) in zip(pairs, measurement._classical_stack(pairs)):
        assert abs(best.value - parity._rank_two_j(rho, measured)) <= 5e-14
        assert best.converged


def test_degenerate_states_search_without_warnings():
    # pytest turns warnings into errors. The GHZ pair marginal has a zero outcome
    # eigenvalue at its optimum, the W pair marginal a zero curvature around the z
    # axis and the flat product state a zero gradient and Hessian: none may warn,
    # raise or leave the search unconverged.
    ghz = reduced_density_matrix(qcorr.ghz_state(3), (0, 1))
    w = reduced_density_matrix(qcorr.w_state(3), (0, 1))
    flat = DensityMatrix(np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2.0), (2, 2))
    grid = len(measurement.angle_grid())
    for measured in (0, 1):
        found = classical_correlations(ghz, measured)
        assert found.converged and abs(found.value - 1.0) <= 1e-12
        found = classical_correlations(w, measured)
        assert found.converged and abs(found.value - 0.368248074471732) <= 1e-12
    found = classical_correlations(flat, 1)
    assert found.converged and abs(found.value) <= 1e-15
    assert found.evaluations <= grid + 5


def test_classical_correlations_of_classical_mixture_hit_binary_entropy():
    mat = np.diag([0.7, 0.0, 0.0, 0.3]).astype(complex)
    rho = DensityMatrix(mat, (2, 2))
    best = classical_correlations(rho, 1)
    assert best.value == pytest.approx(binary_entropy(0.3), abs=1e-9)
    # the embedding basis is optimal; a coarse definition-route grid agrees
    dense = max(
        _measured_mutual_info(rho, theta, phi)
        for theta in np.linspace(0.0, np.pi, 31)
        for phi in np.linspace(0.0, 2.0 * np.pi, 31, endpoint=False)
    )
    assert best.value >= dense - 1e-9


def test_classical_correlations_bounded_by_marginal_entropies():
    rng = np.random.default_rng(33)
    for _ in range(8):
        rho = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        best = classical_correlations(rho, 1)
        h_a = von_neumann_entropy(partial_trace(rho, (0,)))
        h_b = von_neumann_entropy(partial_trace(rho, (1,)))
        assert -1e-10 <= best.value <= min(h_a, h_b) + 1e-9
        assert best.value <= _mutual_info(rho) + 1e-9


def test_classical_correlations_invariant_under_local_unitaries():
    rng = np.random.default_rng(39)
    for _ in range(5):
        rho = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        gen_u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        gen_v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, _ = np.linalg.qr(gen_u)
        v, _ = np.linalg.qr(gen_v)
        w = np.kron(u, v)
        rotated = DensityMatrix(w @ rho.mat @ w.conj().T, (2, 2))
        a = classical_correlations(rho, 1).value
        b = classical_correlations(rotated, 1).value
        assert abs(a - b) <= 2e-6


def test_classical_correlations_stable_under_denser_grid(monkeypatch):
    rng = np.random.default_rng(43)
    for _ in range(5):
        rho = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        monkeypatch.setattr(measurement, "_GRID", 24)
        coarse = classical_correlations(rho, 1).value
        monkeypatch.setattr(measurement, "_GRID", 48)
        fine = classical_correlations(rho, 1)
        # The 48-point grid alone holds 1 + 23 * 48 directions.
        assert fine.evaluations >= 1105
        assert abs(coarse - fine.value) < 1e-6


def test_classical_correlations_tie_break_is_deterministic():
    rho_a = random_density_matrix((2,), 2, 47)
    rho_b = random_density_matrix((2,), 2, 51)
    joint = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), (2, 2))
    first = classical_correlations(joint, 1)
    second = classical_correlations(joint, 1)
    assert first.angles == second.angles


def test_classical_correlations_reject_non_qubit_measured_side():
    rho = random_density_matrix((2, 3), 6, 55)
    with pytest.raises(UnsupportedDimensionError, match="J takes one measured qubit, with every"):
        classical_correlations(rho, 1)


def test_classical_correlations_reject_a_measured_index_out_of_range():
    rho = random_density_matrix((2, 2), 4, 55)
    with pytest.raises(ValueError, match=r"^measured subsystem index 2 is out of range \[0, 2\)$"):
        classical_correlations(rho, 2)


def test_optimum_value_never_exceeds_unmeasured_mutual_information():
    rng = np.random.default_rng(57)
    for _ in range(8):
        rho = random_density_matrix((2, 2), int(rng.integers(1, 5)), int(rng.integers(1 << 30)))
        best = classical_correlations(rho, 1)
        b = Bipartition(rho, (0,), (1,))
        assert best.value <= mutual_information(b) + 1e-9


def test_classical_correlations_measure_first_subsystem_too():
    """Measuring side A of rho equals measuring side B of the swapped state."""
    rng = np.random.default_rng(63)
    for _ in range(5):
        rho = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        swapped = DensityMatrix(
            rho.mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4), (2, 2)
        )
        a = classical_correlations(rho, 0).value
        b = classical_correlations(swapped, 1).value
        assert abs(a - b) <= 2e-6


@pytest.mark.parametrize(
    "dims, measured", [((2, 2), 0), ((2, 2), 1), ((2, 3), 0), ((2, 2, 2), 0), ((2, 2, 2), 1)]
)
def test_reported_argmax_attains_classical_correlations(dims, measured):
    """Measuring along best.angles leaves exactly best.value of mutual information."""
    rest = tuple(i for i in range(len(dims)) if i != measured)
    for rank in range(1, int(np.prod(dims)) + 1):
        rho = random_density_matrix(dims, rank, 71 + 10 * rank + measured)
        best = classical_correlations(rho, measured)
        post = apply_local_measurement(rho, qubit_projectors(best.angles, measured))
        info = mutual_information(Bipartition(post, (measured,), rest))
        assert abs(info - best.value) <= 1e-12


def test_classical_correlations_dominate_dense_definition_grid():
    thetas = np.linspace(0.0, np.pi, 25)
    phis = np.linspace(0.0, 2.0 * np.pi, 25, endpoint=False)
    rng = np.random.default_rng(77)
    for dims in ((2, 2), (2, 2, 2)):
        for rank in (1, 2, int(np.prod(dims))):
            rho = random_density_matrix(dims, rank, int(rng.integers(1 << 30)))
            best = classical_correlations(rho, len(dims) - 1)
            dense = max(_measured_mutual_info(rho, t, p) for t in thetas for p in phis)
            assert best.value >= dense - 1e-12


def test_grid_is_built_once_and_read_only():
    points, n = measurement._grid(measurement._GRID)
    assert measurement._grid(measurement._GRID)[1] is n
    assert not any(a.flags.writeable for a in (points, n))
    assert np.array_equal(n, measurement._bloch_directions(points))


def test_search_frames_stay_orthonormal_as_they_turn():
    # Each row's frame (its direction and two tangent vectors) is built once from
    # its grid point and turned along the geodesic of every step.
    points, n = measurement._grid(measurement._GRID)
    frames = measurement._frames(n)
    rng = np.random.default_rng(3)
    for _ in range(50):
        step = rng.normal(size=(len(n), 2)) * 0.1
        length = np.hypot(step[:, 0], step[:, 1])
        frames = measurement._turn(frames, step / length[:, None], length)
    eye = np.broadcast_to(np.eye(3), frames.shape)
    assert_allclose(frames @ frames.transpose(0, 2, 1), eye, atol=1e-14)
    assert_allclose(np.linalg.det(frames), 1.0, atol=1e-14)
    # The direction is rescaled after each turn, so |n| stays 1 to rounding.
    assert np.abs(np.linalg.norm(frames[:, 0], axis=1) - 1.0).max() <= 2.3e-16


@pytest.mark.parametrize("dims, rank, measured", [((2, 2), 4, 1), ((2, 2), 2, 0),
                                                  ((2, 3), 6, 0), ((2, 2, 2), 3, 2),
                                                  ((2, 2, 2, 2), 16, 3)])
def test_outcome_derivatives_match_the_value_kernel(dims, rank, measured):
    # The Newton steps read the objective's gradient along a frame's rows and its
    # Hessian along the two tangent rows, of the formula extended off the sphere.
    # Central differences of the value kernel at 1e-5 carry about 1e-7 of error.
    rho = random_density_matrix(dims, rank, 7 + rank)
    t = measurement._measured_last(rho, measured)
    blocks = measurement._outcome_blocks(t[None], min(t.shape[0], rank))
    entropies = measurement._outcome_entropies(blocks)
    rows, eps = np.zeros(1, dtype=int), 1e-5
    rng = np.random.default_rng(rank)
    for weight in (1.0, 0.0):  # J's objective, and m2's spectral term alone
        def value(x):
            plogp, spectral = entropies(rows, x[None, None])
            return (weight * plogp - spectral).sum()

        n = rng.normal(size=3)
        frame = measurement._frames(n[None] / np.linalg.norm(n))
        n, tangent = frame[0, 0], frame[0, 1:]
        v, grad, hess = entropies(rows, frame, weight)
        assert abs(v[0] - value(n)) <= 1e-14
        slopes = [(value(n + eps * a) - value(n - eps * a)) / (2.0 * eps) for a in frame[0]]
        assert_allclose(grad[0], slopes, atol=1e-6)
        curves = [[(value(n + eps * (a + b)) - value(n + eps * (a - b))
                    - value(n - eps * (a - b)) + value(n - eps * (a + b))) / (4.0 * eps**2)
                   for b in tangent] for a in tangent]
        assert_allclose(hess[0], curves, atol=1e-5)
        if blocks.shape[-1] == 2:  # the closed form agrees with the eigh route
            traces = np.trace(blocks[:, 1:], axis1=2, axis2=3).real
            eigh = measurement._eigh_derivatives(blocks, traces, frame, weight)
            for closed, general in zip((v, grad, hess), eigh):
                assert_allclose(closed, general, rtol=1e-12, atol=1e-13)


def test_angle_grid_holds_one_point_per_axis_of_the_full_grid():
    # k = 2 blocks start from the 24-point grid, larger blocks from the 8-point one.
    for k, size, points in ((2, 24, 265), (3, 8, 25), (8, 8, 25)):
        grid = measurement.angle_grid(k)
        assert grid.shape == (points, 2)
        n = measurement._bloch_directions(grid)
        dots = np.abs(n @ n.T)
        np.fill_diagonal(dots, 0.0)
        assert dots.max() < 1.0 - 1e-9
        thetas = np.linspace(0.0, np.pi, size)
        phis = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
        full = measurement._bloch_directions(np.array([(t, p) for t in thetas for p in phis]))
        gap = np.minimum(
            np.abs(full[:, None] - n[None]).max(axis=-1),
            np.abs(full[:, None] + n[None]).max(axis=-1),
        )
        assert gap.min(axis=1).max() < 1e-12


def test_search_converges_on_an_optimum_near_a_pole():
    # The optimum sits at theta ~ 0.076. A compass in world (theta, phi) crawls
    # near the pole: this search ran to the 400-step cap with 4248 evaluations.
    psi = random_pure_state((2, 2, 2, 2), 391238603)
    best = classical_correlations(reduced_density_matrix(psi, (0, 1)), 0)
    assert best.converged
    assert best.evaluations <= 1000
    assert best.value >= 0.43170306444801043 - 1e-12


def test_search_does_not_lose_a_start_on_the_pole():
    # Trial 17 of `qcorr audit --suite kw`. With the 265-point grid but one
    # shared (theta, phi) chart, a start on the pole at phi = 0 can only move
    # along one meridian, and the search stopped 1.8e-4 short, at 0.3004375.
    psi = random_pure_state((2, 2, 2), 17)
    best = classical_correlations(reduced_density_matrix(psi, (0, 2)), 1)
    assert best.value >= 0.300616852412521 - 1e-12


def test_search_diagnostics_count_evaluations_and_convergence(monkeypatch):
    # A full-rank product state (the CLI's remark fixture) has a flat objective.
    flat = classical_correlations(
        DensityMatrix(np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2.0), (2, 2)), 1)
    interior = classical_correlations(analytic_marginals(StarConfig(10, 0.5))[1], 1)
    assert flat.converged and interior.converged
    assert flat.starts_used == interior.starts_used == 5
    grid = len(measurement.angle_grid())
    # The flat objective has zero gradient and Hessian: each start stops after one
    # derivative call.
    assert flat.evaluations == grid + 5
    assert abs(flat.value) <= 1e-15
    # At a = 1 the star marginal is a pure product state: J = H(rest) with no search.
    pure = classical_correlations(analytic_marginals(StarConfig(10, 1.0))[1], 1)
    assert (pure.evaluations, pure.starts_used, pure.converged) == (0, 0, True)
    monkeypatch.setattr(measurement, "_MAX_STEPS", 2)
    capped = classical_correlations(analytic_marginals(StarConfig(10, 0.5))[1], 1)
    assert not capped.converged
    # The grid, one step of each start, then one of the start left once four are
    # retired onto the best one.
    assert capped.evaluations == grid + 5 + 1


def test_pure_states_take_j_as_the_rest_entropy_without_a_search(monkeypatch):
    # Every rank-1 projector on the measured qubit leaves the rest of a pure state
    # pure, so J = H(rest). These rank-1 states took 625 evaluations each on the
    # flat objective of the search, which reached the same J bit for bit.
    batches = _counting_objective(monkeypatch)
    searched_j = {(2, 2): 0.559929430579508, (2, 3): 0.8864900756082038,
                  (2, 2, 2): 0.7330437980298299, (2, 2, 2, 2): 0.7928617886983936}
    measured = {(2, 2): 1, (2, 3): 0, (2, 2, 2): 2, (2, 2, 2, 2): 3}
    cases = [(density_from_pure(bell_state()), 1)]
    for dims, m in measured.items():
        rho = random_density_matrix(dims, 1, 1400 + int(np.prod(dims)) + 1)
        assert classical_correlations(rho, m).value == searched_j[dims]
        cases += [(rho, m), (density_from_pure(random_pure_state(dims, 1500 + len(dims))), m)]
    for rho, m in cases:
        _, h_rest, best = measurement._classical_stack([(rho, m)])[0]
        assert best == classical_correlations(rho, m)
        assert best.value == h_rest
        rest = tuple(i for i in range(len(rho.dims)) if i != m)
        assert abs(best.value - qcorr.entanglement_entropy(rho, rest)) <= 1e-14
        assert (best.evaluations, best.starts_used, best.converged) == (0, 0, True)
        assert best.angles == BlochAngles(0.0, 0.0)
    assert batches == []


def _counting_objective(monkeypatch):
    """Record the shape of every J kernel call: (rows, points) of a value call, and
    (rows,) of a derivative call, which reads one direction per row."""
    batches = []
    outcome_entropies = measurement._outcome_entropies

    def counting(blocks):
        entropies = outcome_entropies(blocks)

        def counted(rows, n, weight=None):
            batches.append(n.shape[:2] if weight is None else (len(rows),))
            return entropies(rows, n, weight)

        return counted

    monkeypatch.setattr(measurement, "_outcome_entropies", counting)
    return batches


def test_search_retires_starts_that_share_a_basin(monkeypatch):
    batches = _counting_objective(monkeypatch)
    rho = random_density_matrix((2, 2), 2, 1)
    best = classical_correlations(rho, 1)
    assert best.converged and best.starts_used == 5
    assert batches[0] == (1, len(measurement.angle_grid()))
    assert best.evaluations == batches[0][1] + sum(r for (r,) in batches[1:])
    post = apply_local_measurement(rho, qubit_projectors(best.angles, 1))
    assert abs(mutual_information(Bipartition(post, (1,), (0,))) - best.value) <= 1e-12
    # With both stop rules off (a step below 1e-300 radians, a model gain below 0),
    # only a retirement ends a start: the four that reach the best start's
    # direction within their own step leave after the first step.
    batches.clear()
    monkeypatch.setattr(measurement, "_TOL", 1e-300)
    monkeypatch.setattr(measurement, "_GAIN_TOL", 0.0)
    monkeypatch.setattr(measurement, "_MAX_STEPS", 2)
    assert not classical_correlations(rho, 1).converged
    assert batches[1:] == [(5,), (1,)]


def test_newton_steps_refine_a_search_in_few_objective_calls(monkeypatch):
    # Seeded states with d_rest = 2, 3, 4 and 8, of rank 2, mid and full, with
    # the J each reached under the compass search that only shrank its step by 8
    # (a median of 24 objective calls after the grid pass on these states and four
    # of rank 1, which now take no search).
    batches = _counting_objective(monkeypatch)
    compass_j = {
        ((2, 2), 2): 0.6837409568976895, ((2, 2), 3): 0.24782365645463128,
        ((2, 2), 4): 0.29060860620479334, ((2, 3), 2): 0.5848155704677763,
        ((2, 3), 4): 0.41211982034122796, ((2, 3), 6): 0.2990277566707733,
        ((2, 2, 2), 2): 0.7069650817322523, ((2, 2, 2), 5): 0.36000748622375833,
        ((2, 2, 2), 8): 0.262491115678644, ((2, 2, 2, 2), 2): 0.8131482173282831,
        ((2, 2, 2, 2), 9): 0.3650036231142111, ((2, 2, 2, 2), 16): 0.23534897342825545,
    }
    # The path of the current search on each: evaluated directions and J.
    pinned = {
        ((2, 2), 2): (273, 0.6837409568976903), ((2, 2), 3): (274, 0.2478236564546319),
        ((2, 2), 4): (273, 0.2906086062047929), ((2, 3), 2): (273, 0.584815570467777),
        ((2, 3), 4): (33, 0.41211982034122796), ((2, 3), 6): (34, 0.29902775667077286),
        ((2, 2, 2), 2): (273, 0.7069650817322526), ((2, 2, 2), 5): (34, 0.3600074862237581),
        ((2, 2, 2), 8): (34, 0.26249111567864336), ((2, 2, 2, 2), 2): (274, 0.8131482173282866),
        ((2, 2, 2, 2), 9): (35, 0.36500362311421153),
        ((2, 2, 2, 2), 16): (34, 0.23534897342825545),
    }
    measured = {(2, 2): 1, (2, 3): 0, (2, 2, 2): 2, (2, 2, 2, 2): 3}
    calls = []
    for (dims, rank), j in compass_j.items():
        rho = random_density_matrix(dims, rank, 1400 + int(np.prod(dims)) + rank)
        batches.clear()
        best = classical_correlations(rho, measured[dims])
        calls.append(len(batches) - 1)
        assert best.converged
        assert best.value >= j - 1e-12
        evaluations, value = pinned[dims, rank]
        assert best.evaluations == evaluations
        assert abs(best.value - value) <= 1e-15
    assert np.median(calls) <= 5


def test_stacked_environment_search_keeps_its_path(monkeypatch):
    # The 12 pairwise J of a seeded 4-qubit environment, searched in one stack:
    # evaluated directions, convergence and J of each search are pinned.
    found = []
    classical_stack = bounds._classical_stack

    def recording(pairs, h_rest=None):
        stacked = classical_stack(pairs, h_rest)
        found.extend(best for _, _, best in stacked)
        return stacked

    monkeypatch.setattr(bounds, "_classical_stack", recording)
    bounds.env_consensus(random_pure_state((2, 2, 2, 2), 7))
    pinned = [
        (273, 0.12421284932095156), (273, 0.10717875001071475), (274, 0.28101296898547257),
        (273, 0.2706687553198621), (274, 0.09238773707466696), (273, 0.10080870865272928),
        (274, 0.2083208260181747), (273, 0.21682444611378804), (274, 0.32867737528107965),
        (274, 0.34473364755266206), (272, 0.21431909380765335), (272, 0.20580230122988813),
    ]
    assert len(found) == len(pinned)
    for best, (evaluations, value) in zip(found, pinned):
        assert best.converged
        assert best.evaluations == evaluations
        assert abs(best.value - value) <= 1e-15


def test_newton_steps_walk_a_long_valley_in_few_calls(monkeypatch):
    # On this state the first stencil search took 65 objective calls after the grid
    # pass (its last start walked a long valley at one step length), and the
    # stencil search with compass steps that double after a strict move took 9.
    batches = _counting_objective(monkeypatch)
    best = classical_correlations(random_density_matrix((2, 2, 2, 2), 8, 5616), 3)
    assert best.converged
    assert len(batches) - 1 <= 6
    assert best.value >= 0.363083134449819 - 1e-12
    # The 12 pairwise searches of this environment, stacked in one search, took 220
    # objective calls under the first stencil search and at most 45 under the second.
    batches.clear()
    bounds.env_consensus(random_pure_state((2, 2, 2, 2), 5180996142735719460))
    assert len(batches) <= 6


@pytest.mark.parametrize("dims, rank, measured", [((2, 2, 2), 3, 2), ((2, 2, 2), 8, 2),
                                                  ((2, 2, 2, 2), 16, 3), ((2, 3), 6, 0)])
def test_eigensolver_blocks_start_from_the_small_grid(monkeypatch, dims, rank, measured):
    # Blocks of k = 3, 4 and 8 start from the 25 directions of the _EIG_GRID,
    # and reach the J of the same search started from the 265 of a 24-point grid.
    # The 2x3 state is `tools/parity.py`'s 2x3/r6/s4, seeded by the CRC-32 of that
    # id: from the 13 directions of a 6-point grid its search ends 4.37e-4 short.
    batches = _counting_objective(monkeypatch)
    seed = zlib.crc32(b"2x3/r6/s4") if dims == (2, 3) else 1500 + rank
    rho = random_density_matrix(dims, rank, seed)
    assert _block_size(rho) == min(rank, int(np.prod(dims)) // 2)
    best = classical_correlations(rho, measured)
    assert batches[0] == (1, 25) == (1, len(measurement.angle_grid(_block_size(rho))))
    assert best.converged
    batches.clear()
    monkeypatch.setattr(measurement, "_EIG_GRID", 24)
    dense = classical_correlations(rho, measured)
    assert batches[0] == (1, 265)
    assert abs(best.value - dense.value) <= 1e-12


def test_stacked_search_keeps_states_independent():
    # The flat product state converges after 1 step while the others keep
    # moving; a retirement that matched rows of different states would change
    # the duplicated state's counts or one state's argmax.
    twice = analytic_marginals(StarConfig(10, 0.5))[1]
    flat = DensityMatrix(np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2.0), (2, 2))
    other = random_density_matrix((2, 2), 2, 1)
    stack = [(twice, 1), (flat, 1), (twice, 1), (other, 1)]

    def fields(best):
        return (best.value, best.angles, best.evaluations, best.starts_used, best.converged)

    stacked = [fields(b) for _, _, b in measurement._classical_stack(stack)]
    assert stacked == [fields(classical_correlations(rho, m)) for rho, m in stack]
    assert stacked[0] == stacked[2]
    # d_rest = 4 states of ranks 2, 3 and 8 read 2 x 2, 3 x 3 and 4 x 4 outcome
    # blocks, each block size in its own search; the rank-1 state takes none.
    mixed_rank = [(random_density_matrix((2, 2, 2), r, 30 + r), 2) for r in (2, 8, 1, 3)]
    mixed_rank.insert(2, mixed_rank[0])
    sizes = [_block_size(rho) for rho, _ in mixed_rank]
    assert sizes == [2, 4, 2, 2, 3]
    stacked = [fields(b) for _, _, b in measurement._classical_stack(mixed_rank)]
    assert stacked == [fields(classical_correlations(rho, m)) for rho, m in mixed_rank]
    assert stacked[0] == stacked[2]
    assert stacked[3][2:] == (0, 0, True)
    assert measurement._classical_stack([]) == []
    # (Unmeasured dimension, block size) (2, 2), (3, 3), (4, 2), (4, 4), (2, 2) and
    # (4, 4) in one stack with a pure state of d_rest = 4, which takes no search:
    # each state's view, H(rest) and J are those of its own.
    mixed = [(other, 1), (random_density_matrix((2, 3), 3, 5), 0), mixed_rank[0],
             (random_density_matrix((2, 4), 8, 6), 0), mixed_rank[3], (twice, 1),
             mixed_rank[1]]
    for (rho, m), (t, h, b) in zip(mixed, measurement._classical_stack(mixed), strict=True):
        alone_t, alone_h, alone_b = measurement._classical_stack([(rho, m)])[0]
        assert fields(b) == fields(alone_b) and h == alone_h and np.array_equal(t, alone_t)
    # Stacks of 100 seeded states per k > 2 family, and a k = 2 stack of 100 rank-4
    # states with 6 near-tie Bell-diagonal states, whose Newton steps meet saddles:
    # each row's step must depend on its own row alone. With a step that sent the
    # whole stack down one of two routes, 54, 40, 41 and 53 of the 100 values of
    # each k > 2 family and 13 of the 106 k = 2 values moved (by up to 1.8e-15).
    families = [((2, 2, 2), 8, 2), ((2, 3), 6, 0), ((2, 2, 2, 2), 16, 3), ((2, 2, 2), 3, 2)]
    stacks = [[(random_density_matrix(dims, rank, 4000 + seed), m) for seed in range(100)]
              for dims, rank, m in families]
    near_ties = [parity._bell_diagonal(7 + i, gap, True, i % 2)[:2]
                 for i, gap in enumerate((0.0, 0.0, 1e-12, 1e-12, 1e-8, 1e-8))]
    stacks.append([(random_density_matrix((2, 2), 4, 4000 + seed), seed % 2)
                   for seed in range(100)] + near_ties)
    for stack in stacks:
        stacked = [fields(b) for _, _, b in measurement._classical_stack(stack)]
        assert stacked == [fields(classical_correlations(rho, m)) for rho, m in stack]


# Unmeasured dimension 3, 3, 4, 8 and 4 with the measured qubit first, last or inside.
_RANK_CASES = [((2, 3), 0), ((3, 2), 1), ((2, 2, 2), 1), ((2, 2, 2, 2), 3), ((4, 2), 1)]


@pytest.mark.parametrize("dims, measured", _RANK_CASES)
def test_search_objective_matches_the_definition_at_every_rank(dims, measured):
    # The objective J's search reads, on rank-reduced factor blocks where the
    # rank is below d_rest, is H(rho_P) - H(rho_P,measured) of the pinched state.
    d = int(np.prod(dims))
    rng = np.random.default_rng(d + measured)
    for rank in range(1, d + 1):
        for seed in range(3):
            rho = random_density_matrix(dims, rank, 500 + 10 * rank + seed)
            k = _block_size(rho)
            assert k == min(d // 2, max(2, rank))
            t = measurement._measured_last(rho, measured)
            entropies = measurement._outcome_entropies(measurement._outcome_blocks(t[None], k))
            n = rng.standard_normal((50, 3))
            n /= np.linalg.norm(n, axis=1, keepdims=True)
            values = measurement._conditional_entropy(*entropies(np.array([0]), n[None]))[0]
            for (x, y, z), value in zip(n, values):
                angles = _canonical_angles(np.arccos(np.clip(z, -1.0, 1.0)), np.arctan2(y, x))
                post = apply_local_measurement(rho, qubit_projectors(angles, measured))
                h_measured = von_neumann_entropy(partial_trace(post, (measured,)))
                assert abs(value - (von_neumann_entropy(post) - h_measured)) <= 1e-12


def test_rank_two_search_makes_one_eigh_and_no_search_eigvalsh(eigensolves):
    # A rank-2 2x2x2x2 state measured on qubit 3 (d_rest = 8) is searched on 2 x 2
    # factor blocks in closed form: one eigh of rho builds them, and the only
    # eigvalsh is J's H(rest). Its 8 x 8 blocks took 7 stacked eigvalsh calls.
    rho = random_density_matrix((2, 2, 2, 2), 2, 1418)
    eigensolves.clear()
    best = classical_correlations(rho, 3)
    assert best.converged
    assert sorted(eigensolves) == [("eigh", 1), ("eigvalsh", 1)]


def test_stacked_search_memory_grows_linearly_with_the_stack():
    # A sweep over a fine a grid is one stack of thousands of states. The grid
    # values and their ranking take about 9 KB per state; pairing rows through a
    # K x K mask of its K = 5 S rows would add at least 25 S^2 bytes (10 KB per
    # state at S = 400).
    def objective(rows, n, derivatives=False):
        scale = 1.0 + 0.01 * rows
        if not derivatives:
            return n[..., 2] ** 2 * scale[:, None]
        # n_z^2 along the frame rows a: gradient 2 n_z a_z, Hessian 2 a_z b_z.
        z = n[..., 2]
        return (z[:, 0] ** 2 * scale, 2.0 * z[:, 0:1] * z * scale[:, None],
                2.0 * z[:, 1:, None] * z[:, None, 1:] * scale[:, None, None])

    states = 400
    tracemalloc.start()
    try:
        found = measurement.sphere_search(objective, states, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == states and all(f.starts_used == 5 for f in found)
    assert peak < 16_000 * states


def test_importing_qcorr_leaves_scipy_unloaded():
    src = str(Path(qcorr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, qcorr, qcorr.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
