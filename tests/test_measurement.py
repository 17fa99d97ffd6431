"""Tests for projective measurements and the classical-correlations optimizer."""

import os
import subprocess
import sys
import tracemalloc
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
    # unitaries. The largest |c_i| leads the next by at least 1e-2 of its value: the
    # search stops short on closer ties.
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


def test_grid_charts_are_read_only_frames_of_their_points():
    points, n, charts = measurement._grid(measurement._GRID)
    assert measurement._grid(measurement._GRID)[2] is charts
    assert not any(a.flags.writeable for a in (points, n, charts))
    assert charts.shape == (len(points), 3, 3)
    # Orthonormal and right-handed, and a chart's first row is its grid direction.
    eye = np.broadcast_to(np.eye(3), charts.shape)
    assert_allclose(charts @ charts.transpose(0, 2, 1), eye, atol=1e-15)
    assert_allclose(np.linalg.det(charts), 1.0, atol=1e-15)
    assert np.array_equal(charts[:, 0], measurement._bloch_directions(points))


def test_angle_grid_holds_one_point_per_axis_of_the_full_grid():
    # k = 2 blocks start from the 24-point grid, larger blocks from the 12-point one.
    for k, size, points in ((2, 24, 265), (3, 12, 61), (8, 12, 61)):
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
    # The flat objective moves no start and its Hessian is 0, so each start takes
    # 8 failed compass steps of 9 probes (/8 each) to reach tol.
    assert flat.evaluations == grid + 9 * 8 * 5 == 625
    # At a = 1 the star marginal is a pure product state: J = H(rest) with no search.
    pure = classical_correlations(analytic_marginals(StarConfig(10, 1.0))[1], 1)
    assert (pure.evaluations, pure.starts_used, pure.converged) == (0, 0, True)
    monkeypatch.setattr(measurement, "_MAX_STEPS", 3)
    capped = classical_correlations(analytic_marginals(StarConfig(10, 0.5))[1], 1)
    assert not capped.converged
    # The grid, one step of 9 per start, then two steps of each of the two
    # starts left once three are retired.
    assert capped.evaluations == grid + 9 * (5 + 2 + 2)


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
    """Record the (rows, points) shape of every J objective call."""
    batches = []
    conditional_entropy = measurement._conditional_entropy

    def counting(plogp, spectral):
        batches.append(plogp.shape[1:])
        return conditional_entropy(plogp, spectral)

    monkeypatch.setattr(measurement, "_conditional_entropy", counting)
    return batches


def test_search_retires_starts_that_share_a_basin(monkeypatch):
    batches = _counting_objective(monkeypatch)
    rho = random_density_matrix((2, 2), 2, 1)
    best = classical_correlations(rho, 1)
    steps = len(batches) - 1
    assert best.converged and best.starts_used == 5
    assert best.evaluations == sum(r * g for r, g in batches)
    assert best.evaluations < len(measurement.angle_grid()) + steps * 9 * 5
    post = apply_local_measurement(rho, qubit_projectors(best.angles, 1))
    assert abs(mutual_information(Bipartition(post, (1,), (0,))) - best.value) <= 1e-12
    # A Newton step shrinks a step to its reach at once, so a start that leaves
    # the batch early may have converged. Under a tolerance of 1e-300 that takes a
    # reach below 1e-299 steps, and every start here has a first reach above 0.1:
    # only a retirement, which sets the step to 0, ends one after the first step.
    batches.clear()
    monkeypatch.setattr(measurement, "_TOL", 1e-300)
    monkeypatch.setattr(measurement, "_MAX_STEPS", 2)
    assert not classical_correlations(rho, 1).converged
    assert [r for r, _ in batches[1:]] == [5, 3]


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
        ((2, 2), 2): (445, 0.6837409568976904), ((2, 2), 3): (355, 0.24782365645463178),
        ((2, 2), 4): (382, 0.29060860620479323), ((2, 3), 2): (409, 0.5848155704677769),
        ((2, 3), 4): (169, 0.4121198203412282), ((2, 3), 6): (223, 0.2990277566707735),
        ((2, 2, 2), 2): (400, 0.7069650817322524), ((2, 2, 2), 5): (151, 0.360007486223759),
        ((2, 2, 2), 8): (205, 0.2624911156786436), ((2, 2, 2, 2), 2): (409, 0.8131482173282865),
        ((2, 2, 2, 2), 9): (259, 0.365003623114212),
        ((2, 2, 2, 2), 16): (196, 0.23534897342825634),
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
    assert np.median(calls) <= 8


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
        (382, 0.12421284932095178), (454, 0.10717875001071508), (391, 0.28101296898547296),
        (400, 0.270668755319862), (436, 0.09238773707466708), (400, 0.10080870865272917),
        (418, 0.20832082601817503), (355, 0.21682444611378782), (409, 0.32867737528107993),
        (382, 0.34473364755266234), (355, 0.21431909380765313), (364, 0.20580230122988818),
    ]
    assert len(found) == len(pinned)
    for best, (evaluations, value) in zip(found, pinned):
        assert best.converged
        assert best.evaluations == evaluations
        assert abs(best.value - value) <= 1e-15


def test_compass_steps_grow_back_on_a_long_valley(monkeypatch):
    # The last live start of this search ran alone for 53 steps at one step
    # length while its Newton reach stayed above _TRUST: 65 objective calls after
    # the grid pass (median 6). A compass step that doubles after each strict
    # move to a neighbour ends it in 9, at the same J.
    batches = _counting_objective(monkeypatch)
    best = classical_correlations(random_density_matrix((2, 2, 2, 2), 8, 5616), 3)
    assert best.converged
    assert len(batches) - 1 <= 12
    assert best.value >= 0.363083134449819 - 1e-12
    # The 12 pairwise searches of this environment took 220 objective calls.
    batches.clear()
    bounds.env_consensus(random_pure_state((2, 2, 2, 2), 5180996142735719460))
    assert len(batches) <= 45


@pytest.mark.parametrize("dims, rank, measured", [((2, 2, 2), 3, 2), ((2, 2, 2), 8, 2),
                                                  ((2, 2, 2, 2), 16, 3)])
def test_eigensolver_blocks_start_from_the_small_grid(monkeypatch, dims, rank, measured):
    # Blocks of k = 3, 4 and 8 start from the 61 directions of the _EIG_GRID,
    # and reach the J of the same search started from the 265 of a 24-point grid.
    batches = _counting_objective(monkeypatch)
    rho = random_density_matrix(dims, rank, 1500 + rank)
    assert _block_size(rho) == min(rank, int(np.prod(dims)) // 2)
    best = classical_correlations(rho, measured)
    assert batches[0] == (1, 61) == (1, len(measurement.angle_grid(_block_size(rho))))
    assert best.converged
    batches.clear()
    monkeypatch.setattr(measurement, "_EIG_GRID", 24)
    dense = classical_correlations(rho, measured)
    assert batches[0] == (1, 265)
    assert abs(best.value - dense.value) <= 1e-12


def test_stacked_search_keeps_states_independent():
    # The flat product state converges after 8 steps while the others keep
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
    def objective(rows, n):
        return n[..., 2] ** 2 * (1.0 + 0.01 * rows[:, None])

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
