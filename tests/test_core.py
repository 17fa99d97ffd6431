"""Tests for the dense linear-algebra and entropy layer."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    DensityMatrix,
    PureState,
    bell_state,
    binary_entropy,
    density_from_pure,
    ghz_state,
    partial_trace,
    permute_subsystems,
    random_density_matrix,
    random_pure_state,
    reduced_density_matrix,
    relative_entropy,
    trace_distance_half,
    von_neumann_entropy,
    w_state,
)
from qcorr.core import _xlog2x_sum


def _diag_state(*populations):
    return DensityMatrix(np.diag(np.asarray(populations, dtype=complex)), (len(populations),))


# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------


def test_density_matrix_rejects_non_hermitian():
    mat = np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix(mat, (2,))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(np.eye(2, dtype=complex), (2,))


def test_density_matrix_rejects_negative_eigenvalue():
    mat = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        DensityMatrix(mat, (2,))


def test_density_matrix_owns_its_matrix_and_spectrum():
    source = np.diag([0.5, 0.5]).astype(complex)
    rho = DensityMatrix(source, (2,))
    source[:] = np.diag([1.0, 0.0])
    assert_allclose(rho.mat, np.eye(2) / 2.0)
    assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError, match="read-only"):
        rho.mat[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rho.spectrum[:] = 0.25
    assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-15)


def test_pure_state_owns_its_vector():
    source = np.array([1.0, 0.0], dtype=complex)
    psi = PureState(source, (2,))
    source[0] = 5.0
    assert_allclose(psi.vec, [1.0, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        psi.vec[0] = 5.0


def test_density_matrix_rejects_dims_mismatch():
    with pytest.raises(ValueError, match="shape"):
        DensityMatrix(np.eye(4, dtype=complex) / 4.0, (2,))


def test_constructors_reject_non_finite_entries():
    # NaN slips past every tolerance comparison, so it is checked first.
    with pytest.raises(ValueError, match="entries must be finite"):
        PureState(np.array([np.nan, 0.0]), (2,))
    with pytest.raises(ValueError, match="entries must be finite"):
        PureState(np.array([np.inf, 0.0]), (2,))
    for bad in (np.nan, np.inf):
        mat = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        mat[2, 2] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            DensityMatrix(mat, (2, 2))
    mat = np.eye(2, dtype=complex) / 2.0
    mat[0, 1] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match="entries must be finite"):
        DensityMatrix(mat, (2,))


def test_pure_state_rejects_unnormalized_vector():
    with pytest.raises(ValueError, match="norm"):
        PureState(np.array([1.0, 1.0]), (2,))


def test_dims_must_be_at_least_two():
    with pytest.raises(ValueError, match="dimensions"):
        PureState(np.array([1.0]), (1,))
    with pytest.raises(ValueError, match=r"integers, got \(2.9, 2\)"):
        DensityMatrix(np.eye(4) / 4.0, (2.9, 2))


def test_random_outputs_pass_constructor_invariants():
    rng = np.random.default_rng(11)
    for _ in range(20):
        seed = int(rng.integers(1 << 30))
        psi = random_pure_state((2, 2), seed)
        assert abs(np.linalg.norm(psi.vec) - 1.0) <= 1e-12
        rho = random_density_matrix((2, 2), 4, seed)
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) <= 1e-12
        assert abs(rho.mat.trace() - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho.mat)[0] >= -1e-10


# ---------------------------------------------------------------------------
# partial trace
# ---------------------------------------------------------------------------


def test_partial_trace_of_product_state_recovers_factor():
    rng = np.random.default_rng(3)
    for _ in range(5):
        seed_a = int(rng.integers(1 << 30))
        seed_b = int(rng.integers(1 << 30))
        rho_a = random_density_matrix((2,), 2, seed_a)
        rho_b = random_density_matrix((3,), 3, seed_b)
        joint = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), (2, 3))
        assert_allclose(partial_trace(joint, (0,)).mat, rho_a.mat, atol=1e-12)
        assert_allclose(partial_trace(joint, (1,)).mat, rho_b.mat, atol=1e-12)


def test_partial_trace_of_bell_state_is_maximally_mixed():
    rho = density_from_pure(bell_state())
    for keep in ((0,), (1,)):
        assert_allclose(partial_trace(rho, keep).mat, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_preserves_trace_and_dims():
    rho = random_density_matrix((2, 2, 2), 8, 19)
    red = partial_trace(rho, (0, 2))
    assert red.dims == (2, 2)
    assert abs(red.mat.trace() - 1.0) <= 1e-12


def test_complementary_marginals_of_pure_state_are_isospectral():
    rng = np.random.default_rng(23)
    for _ in range(10):
        seed = int(rng.integers(1 << 30))
        psi = random_pure_state((2, 2, 2), seed)
        big = reduced_density_matrix(psi, (1, 2))
        small = reduced_density_matrix(psi, (0,))
        spec_big = np.sort(np.linalg.eigvalsh(big.mat))[::-1]
        spec_small = np.sort(np.linalg.eigvalsh(small.mat))[::-1]
        padded = np.concatenate([spec_small, np.zeros(big.dim - small.dim)])
        assert_allclose(spec_big, padded, atol=1e-10)


def test_partial_trace_rejects_bad_keep_sets():
    rho = random_density_matrix((2, 2), 4, 5)
    with pytest.raises(ValueError, match="nonempty"):
        partial_trace(rho, ())
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(rho, (2,))


def test_permute_subsystems_swaps_product_factors():
    rho_a = random_density_matrix((2,), 2, 31)
    rho_b = random_density_matrix((2,), 2, 37)
    joint = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), (2, 2))
    swapped = permute_subsystems(joint, (1, 0))
    assert_allclose(swapped.mat, np.kron(rho_b.mat, rho_a.mat), atol=1e-12)


def test_constructors_and_reorderings_name_their_failed_check():
    with pytest.raises(ValueError, match="vector length 3 does not match dims"):
        PureState(np.ones(3) / np.sqrt(3.0), (2, 2))
    rho = random_density_matrix((2, 2), 4, 5)
    with pytest.raises(ValueError, match="duplicate subsystem indices"):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError, match="is not a permutation"):
        permute_subsystems(rho, (0, 0))
    with pytest.raises(ValueError, match="GHZ state needs at least 2 qubits"):
        ghz_state(1)
    with pytest.raises(ValueError, match="W state needs at least 2 qubits"):
        w_state(1)


# ---------------------------------------------------------------------------
# entropies and distances
# ---------------------------------------------------------------------------


def test_entropy_of_pure_projector_is_zero():
    psi = random_pure_state((2, 2), 41)
    assert von_neumann_entropy(density_from_pure(psi)) == pytest.approx(0.0, abs=1e-10)


def test_entropy_of_maximally_mixed_qubit_is_one():
    assert von_neumann_entropy(_diag_state(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)


def test_entropy_matches_binary_entropy_value():
    rho = _diag_state(0.75, 0.25)
    assert von_neumann_entropy(rho) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0


def test_binary_entropy_matches_the_array_route_bit_for_bit():
    # Seeded p, their 20th powers (tails near 0), the ends and clipped inputs.
    u = np.random.default_rng(61).random(2000)
    for p in [*u, *u**20, 0.0, 0.5, 1.0, -0.1, 1.1]:
        q = min(max(float(p), 0.0), 1.0)
        assert binary_entropy(p).hex() == float(-_xlog2x_sum(np.array([q, 1.0 - q]))).hex()


def test_entropy_is_additive_over_tensor_products():
    rng = np.random.default_rng(47)
    for _ in range(8):
        rho_a = random_density_matrix((2,), 2, int(rng.integers(1 << 30)))
        rho_b = random_density_matrix((3,), 3, int(rng.integers(1 << 30)))
        joint = DensityMatrix(np.kron(rho_a.mat, rho_b.mat), (2, 3))
        total = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
        assert von_neumann_entropy(joint) == pytest.approx(total, abs=1e-10)


def test_relative_entropy_of_state_with_itself_is_zero():
    rho = random_density_matrix((2,), 2, 53)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_pure_versus_mixed():
    x = _diag_state(1.0, 0.0)
    y = _diag_state(0.5, 0.5)
    assert relative_entropy(x, y) == pytest.approx(1.0, abs=1e-12)


def test_relative_entropy_disjoint_support_is_infinite():
    x = _diag_state(1.0, 0.0)
    y = _diag_state(0.0, 1.0)
    assert relative_entropy(x, y) == np.inf


def test_relative_entropy_rejects_dimension_mismatch():
    x = _diag_state(1.0, 0.0)
    y = _diag_state(0.5, 0.25, 0.25)
    with pytest.raises(ValueError, match="dimension"):
        relative_entropy(x, y)


def test_relative_entropy_dominates_pinsker_quadratic():
    rng = np.random.default_rng(59)
    for _ in range(15):
        x = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        y = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        d = trace_distance_half(x, y)
        assert relative_entropy(x, y) >= d * d * 2.0 / np.log(2.0) - 1e-9


def test_trace_distance_trivial_and_derived_values():
    x = _diag_state(1.0, 0.0)
    y = _diag_state(0.0, 1.0)
    z = _diag_state(0.75, 0.25)
    half = _diag_state(0.5, 0.5)
    assert trace_distance_half(x, x) == pytest.approx(0.0, abs=1e-14)
    assert trace_distance_half(x, y) == pytest.approx(1.0, abs=1e-12)
    assert trace_distance_half(z, half) == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError, match="dimension"):
        trace_distance_half(x, _diag_state(1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# random-state generators
# ---------------------------------------------------------------------------


def test_random_pure_state_is_deterministic_under_seed():
    a = random_pure_state((2, 2, 2), 1234)
    b = random_pure_state((2, 2, 2), 1234)
    assert_allclose(a.vec, b.vec, atol=0)


def test_random_pure_state_mean_marginal_approaches_maximally_mixed():
    rng = np.random.default_rng(61)
    acc = np.zeros((2, 2), dtype=complex)
    n = 10_000
    for _ in range(n):
        psi = random_pure_state((2, 2), int(rng.integers(1 << 30)))
        acc += reduced_density_matrix(psi, (0,)).mat
    assert np.max(np.abs(acc / n - np.eye(2) / 2.0)) <= 0.02


def test_random_density_matrix_rank_one_is_pure():
    rho = random_density_matrix((2, 2), 1, 67)
    assert np.real(np.trace(rho.mat @ rho.mat)) == pytest.approx(1.0, abs=1e-10)


def test_random_density_matrix_full_rank_has_positive_spectrum():
    rho = random_density_matrix((2, 2), 4, 71)
    assert np.linalg.eigvalsh(rho.mat)[0] > 0.0


def test_random_density_matrix_is_deterministic_under_seed():
    a = random_density_matrix((2, 2), 3, 73)
    b = random_density_matrix((2, 2), 3, 73)
    assert_allclose(a.mat, b.mat, atol=0)


def test_random_density_matrix_rejects_rank_out_of_range():
    with pytest.raises(ValueError, match="rank"):
        random_density_matrix((2, 2), 0, 1)
    with pytest.raises(ValueError, match="rank"):
        random_density_matrix((2, 2), 5, 1)


# ---------------------------------------------------------------------------
# named fixtures
# ---------------------------------------------------------------------------


def test_ghz_state_marginals_are_classical_mixtures():
    psi = ghz_state(3)
    one = reduced_density_matrix(psi, (0,))
    pair = reduced_density_matrix(psi, (0, 1))
    assert_allclose(one.mat, np.eye(2) / 2.0, atol=1e-12)
    expected_pair = np.zeros((4, 4), dtype=complex)
    expected_pair[0, 0] = 0.5
    expected_pair[3, 3] = 0.5
    assert_allclose(pair.mat, expected_pair, atol=1e-12)


def test_w_state_single_site_population():
    psi = w_state(3)
    one = reduced_density_matrix(psi, (0,))
    assert_allclose(one.mat, np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-12)


def test_bell_state_vector():
    psi = bell_state()
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1.0 / np.sqrt(2.0)
    assert_allclose(psi.vec, expected, atol=1e-15)
