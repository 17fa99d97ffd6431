"""Tests for the dense linear-algebra and entropy layer."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    Bipartition,
    DensityMatrix,
    PureState,
    bell_state,
    binary_entropy,
    classical_correlations,
    concurrence_two_qubit,
    consensus_delta,
    consensus_from_marginals,
    continuity_chain_audit,
    density_from_pure,
    discord_bound_audit,
    entanglement_entropy,
    env_consensus,
    env_eof_bound_audit,
    eof_bound_audit,
    eof_convex_roof_numeric,
    eof_two_qubit,
    f_bound_audit,
    fanchini_identity_audit,
    ghz_state,
    koashi_winter_audit,
    mutual_information,
    partial_trace,
    permute_subsystems,
    quantum_discord,
    random_density_matrix,
    random_pure_state,
    reduced_density_matrix,
    relative_entropy,
    remark_audit,
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


def test_subsystem_indices_take_numpy_integers_ranges_and_one_bare_index():
    rho = random_density_matrix((2, 2, 2), 8, 5)
    want = partial_trace(rho, (0, 2)).mat
    for keep in ([2, 0], range(0, 3, 2), np.array([0, 2]), (np.int32(0), np.int64(2))):
        assert np.array_equal(partial_trace(rho, keep).mat, want)
    assert np.array_equal(partial_trace(rho, np.int64(1)).mat, partial_trace(rho, (1,)).mat)
    psi = random_pure_state((2, 2, 2), 5)
    assert consensus_delta(psi, 0) == consensus_delta(psi, (np.int64(0),))


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
    with pytest.raises(ValueError, match=r"^kept subsystem index 0 is repeated in \(0, 0\)$"):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError, match=r"^order index 0 is repeated in \(0, 0\)$"):
        permute_subsystems(rho, (0, 0))
    with pytest.raises(ValueError, match=r"^order \(1,\) is not a permutation of 0..1$"):
        permute_subsystems(rho, (1,))
    with pytest.raises(ValueError, match="GHZ state needs at least 2 qubits"):
        ghz_state(1)
    with pytest.raises(ValueError, match="W state needs at least 2 qubits"):
        w_state(1)


_PSI = random_pure_state((2, 2), 3)
_RHO = random_density_matrix((2, 2), 4, 3)
_PSI_3Q = random_pure_state((2, 2, 2), 3)
_PSI_4Q = random_pure_state((2, 2, 2, 2), 3)
_RHO_3Q = density_from_pure(_PSI_3Q)
_DENSITY = "needs a DensityMatrix, got PureState; density_from_pure"
_INDEX = "^measured subsystem index must be an integer, got "
# Each call passes a PureState where a DensityMatrix is needed, a DensityMatrix or a raw
# array where a PureState is needed, or a subsystem index or a count that is not an
# integer.
_WRONG_TYPES = {
    "von_neumann_entropy": (lambda: von_neumann_entropy(_PSI), _DENSITY),
    "partial_trace": (lambda: partial_trace(_PSI, (0,)), _DENSITY),
    "mutual_information": (lambda: mutual_information(Bipartition(_PSI, (0,), (1,))), _DENSITY),
    "quantum_discord": (lambda: quantum_discord(Bipartition(_PSI, (0,), (1,))), _DENSITY),
    "classical_correlations": (lambda: classical_correlations(_PSI, 1), _DENSITY),
    "concurrence_two_qubit": (lambda: concurrence_two_qubit(_PSI), _DENSITY),
    "eof_two_qubit": (lambda: eof_two_qubit(_PSI), _DENSITY),
    "eof_convex_roof_numeric": (lambda: eof_convex_roof_numeric(_PSI), _DENSITY),
    "relative_entropy-x": (lambda: relative_entropy(_PSI, _RHO), _DENSITY),
    "relative_entropy-y": (lambda: relative_entropy(_RHO, _PSI), _DENSITY),
    "trace_distance_half": (lambda: trace_distance_half(_RHO, _PSI), _DENSITY),
    "remark_audit": (lambda: remark_audit(_PSI), _DENSITY),
    "continuity_chain_audit": (lambda: continuity_chain_audit(_PSI, 1), _DENSITY),
    "f_bound_audit": (lambda: f_bound_audit(_PSI, 1), _DENSITY),
    "consensus_delta": (lambda: consensus_delta(_RHO_3Q, 0),
                        "^consensus_delta needs a PureState, got DensityMatrix$"),
    "discord_bound_audit": (lambda: discord_bound_audit(np.eye(8) / 8, 0),
                            "^discord_bound_audit needs a PureState, got ndarray$"),
    "eof_bound_audit": (lambda: eof_bound_audit(_RHO_3Q, 0),
                        "^eof_bound_audit needs a PureState, got DensityMatrix$"),
    "koashi_winter_audit": (lambda: koashi_winter_audit(_RHO_3Q, 0, 1),
                            "^koashi_winter_audit needs a PureState, got DensityMatrix$"),
    "fanchini_identity_audit": (lambda: fanchini_identity_audit(np.eye(8) / 8, 0, 1),
                                "^fanchini_identity_audit needs a PureState, got ndarray$"),
    "measured-index": (lambda: classical_correlations(_RHO, 1.5), _INDEX + "1.5$"),
    "measured-index-bool": (lambda: classical_correlations(_RHO, True), _INDEX + "True$"),
    "kept-index": (lambda: reduced_density_matrix(_PSI, (0.9,)),
                   "^kept subsystem index must be an integer, got 0.9$"),
    "kept-index-entropy": (lambda: entanglement_entropy(_PSI, (0.2,)),
                           "^kept subsystem index must be an integer, got 0.2$"),
    "side-index": (lambda: Bipartition(_RHO, (0.5,), (1.9,)),
                   "^side_a index must be an integer, got 0.5$"),
    "order-index": (lambda: permute_subsystems(_RHO, (1.2, 0.1)),
                    "^order index must be an integer, got 1.2$"),
    "system-index": (lambda: consensus_delta(_PSI_3Q, 0.9),
                     "^system block index must be an integer, got 0.9$"),
    "system-index-str": (lambda: consensus_delta(_PSI_3Q, "0"),
                         "^system block index must be an integer, got '0'$"),
    "system-index-bool": (lambda: koashi_winter_audit(_PSI_3Q, True, 2.2),
                          "^system block index must be an integer, got True$"),
    "site-index": (lambda: fanchini_identity_audit(_PSI_3Q, 0, 1.5),
                   "^site index must be an integer, got 1.5$"),
    "site-index-pair": (lambda: env_eof_bound_audit(_PSI_4Q, 0.5, 1.5),
                        "^site index must be an integer, got 0.5$"),
    "consensus-site": (lambda: consensus_from_marginals(1.0, (1.9,), (0.5,), (0.5,)),
                       "^site index must be an integer, got 1.9$"),
    "rank": (lambda: random_density_matrix((2, 2), 2.7, 1), "^rank must be an integer, got 2.7$"),
    "rank-bool": (lambda: random_density_matrix((2, 2), True, 1),
                  "^rank must be an integer, got True$"),
}


@pytest.mark.parametrize("case", _WRONG_TYPES)
def test_wrong_input_types_fail_with_a_type_error_that_names_them(case):
    # These died with an AttributeError on `mat` or `spectrum`, the float index with
    # "tuple indices must be integers" and the bool index in numpy's transpose; the
    # pure-state audits raised a ValueError that named an inner step. The other
    # indices and counts were rounded by int() and ran on another subsystem or rank.
    call, message = _WRONG_TYPES[case]
    with pytest.raises(TypeError, match=message):
        call()


_RAW = np.eye(4) / 4
# Each call takes either state type and gets a raw array.
_RAW_ARRAYS = {
    "reduced_density_matrix": lambda: reduced_density_matrix(_RAW, (0,)),
    "entanglement_entropy": lambda: entanglement_entropy(_RAW, (0,)),
    "env_consensus": lambda: env_consensus(_RAW),
    "env_eof_bound_audit": lambda: env_eof_bound_audit(_RAW, 0, 1),
}


@pytest.mark.parametrize("case", _RAW_ARRAYS)
def test_raw_arrays_fail_with_a_type_error_that_names_both_state_types(case):
    # These died with "'numpy.ndarray' object has no attribute 'dims'".
    with pytest.raises(TypeError, match=f"^{case} needs a PureState or DensityMatrix, got ndarray$"):
        _RAW_ARRAYS[case]()


def test_reduced_density_matrix_takes_either_state_type():
    psi = random_pure_state((2, 2, 2), 29)
    rho = density_from_pure(psi)
    for keep in ((0,), (0, 2), (1, 2)):
        mixed, traced = reduced_density_matrix(rho, keep), partial_trace(rho, keep)
        assert mixed.dims == traced.dims and np.array_equal(mixed.mat, traced.mat)
        assert_allclose(mixed.mat, reduced_density_matrix(psi, keep).mat, atol=1e-15)


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


@pytest.mark.parametrize("p", [float("nan"), float("inf"), -float("inf")])
def test_binary_entropy_rejects_a_non_finite_p(p):
    # A NaN passed the clip and both p > 0 tests failed, so h(nan) was -0.0;
    # h(inf) clipped to h(1) = 0.0.
    with pytest.raises(ValueError, match=f"^binary_entropy needs a finite p, got {p}$"):
        binary_entropy(p)


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
