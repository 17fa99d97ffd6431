"""Tests for mutual information, discord, and entanglement of formation.

The convex-roof minimizer and the two-qubit closed form are kept as two
independent routes to the same quantity; their agreement on random states is
the load-bearing check of this file.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    Bipartition,
    DensityMatrix,
    PureState,
    UnsupportedDimensionError,
    bell_state,
    binary_entropy,
    concurrence_two_qubit,
    density_from_pure,
    entanglement_entropy,
    eof_convex_roof_numeric,
    eof_two_qubit,
    ghz_state,
    mutual_information,
    permute_subsystems,
    quantum_discord,
    random_density_matrix,
    random_pure_state,
    reduced_density_matrix,
    w_state,
)
from qcorr import correlations
from qcorr.correlations import _member_terms, _roof_value_and_gradient

from definitions import roof_member_terms


def _werner(p: float) -> DensityMatrix:
    phi = density_from_pure(bell_state()).mat
    return DensityMatrix(p * phi + (1.0 - p) * np.eye(4) / 4.0, (2, 2))


def _product(seed_a: int, seed_b: int) -> DensityMatrix:
    rho_a = random_density_matrix((2,), 2, seed_a)
    rho_b = random_density_matrix((2,), 2, seed_b)
    return DensityMatrix(np.kron(rho_a.mat, rho_b.mat), (2, 2))


def _dense_grid_discord(rho: DensityMatrix, points: int) -> float:
    """Discord via an exhaustive measurement grid, straight from definitions."""
    mat = rho.mat.reshape(2, 2, 2, 2)
    rho_a = np.einsum("ajbj->ab", mat)
    rho_b = np.einsum("jajb->ab", mat)

    def h(m):
        lam = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)
        lam = lam[lam > 1e-15]
        return float(-(lam * np.log2(lam)).sum())

    info = h(rho_a) + h(rho_b) - h(rho.mat)
    best = -1.0
    for theta in np.linspace(0.0, np.pi, points):
        for phi in np.linspace(0.0, 2.0 * np.pi, points, endpoint=False):
            v = np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])
            w = np.array([np.sin(theta / 2.0), -np.exp(1j * phi) * np.cos(theta / 2.0)])
            pinched = np.zeros((2, 2, 2, 2), dtype=complex)
            for vec in (v, w):
                proj = np.outer(vec, vec.conj())
                pinched += np.einsum("jm,ambn,nk->ajbk", proj, mat, proj)
            pinched_flat = pinched.reshape(4, 4)
            pinched_b = np.einsum("jajb->ab", pinched)
            best = max(best, h(rho_a) + h(pinched_b) - h(pinched_flat))
    return info - best


# ---------------------------------------------------------------------------
# bipartitions and mutual information
# ---------------------------------------------------------------------------


def test_bipartition_rejects_overlap_and_gaps():
    rho = random_density_matrix((2, 2, 2), 8, 3)
    with pytest.raises(ValueError):
        Bipartition(rho, (0, 1), (1, 2))
    with pytest.raises(ValueError):
        Bipartition(rho, (0,), (2,))
    two = random_density_matrix((2, 2), 4, 3)
    with pytest.raises(ValueError, match=r"side_a \(0, 0\) repeats subsystem 0"):
        Bipartition(two, (0, 0), (1,))
    with pytest.raises(ValueError, match=r"side_b \(1, 1\) repeats subsystem 1"):
        Bipartition(two, (0,), (1, 1))


def test_bipartition_rejects_an_empty_side():
    with pytest.raises(ValueError, match="both sides must be nonempty"):
        Bipartition(random_density_matrix((2, 2), 4, 3), (), (0, 1))


def test_discord_rejects_an_unknown_or_non_qubit_measured_side():
    two = Bipartition(random_density_matrix((2, 2), 4, 3), (0,), (1,))
    with pytest.raises(ValueError, match="measured must be 'a' or 'b'"):
        quantum_discord(two, measured="c")
    three = Bipartition(random_density_matrix((2, 2, 2), 8, 3), (0,), (1, 2))
    with pytest.raises(UnsupportedDimensionError, match="measured side must be a single qubit"):
        quantum_discord(three, measured="b")
    qutrit = Bipartition(random_density_matrix((2, 3), 6, 3), (0,), (1,))
    with pytest.raises(UnsupportedDimensionError, match="measured side must be a single qubit"):
        quantum_discord(qutrit, measured="b")


def test_mutual_information_of_product_state_is_zero():
    b = Bipartition(_product(5, 7), (0,), (1,))
    assert mutual_information(b) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_of_bell_state_is_two():
    b = Bipartition(density_from_pure(bell_state()), (0,), (1,))
    assert mutual_information(b) == pytest.approx(2.0, abs=1e-12)


def test_mutual_information_of_classical_mixture_is_one():
    rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), (2, 2))
    assert mutual_information(Bipartition(rho, (0,), (1,))) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# quantum discord
# ---------------------------------------------------------------------------


def test_discord_of_bell_state_is_one_on_either_side():
    b = Bipartition(density_from_pure(bell_state()), (0,), (1,))
    for side in ("a", "b"):
        rec = quantum_discord(b, measured=side)
        assert rec.discord == pytest.approx(1.0, abs=1e-9)
        assert rec.classical == pytest.approx(1.0, abs=1e-9)
        assert rec.eof == pytest.approx(1.0, abs=1e-9)


def test_discord_vanishes_for_classical_quantum_states():
    rng = np.random.default_rng(11)
    plus = np.full((2, 2), 0.5, dtype=complex)
    rho_list = [np.diag([1.0, 0.0]).astype(complex), plus]
    p = rng.uniform(0.2, 0.8)
    mat = p * np.kron(rho_list[0], np.diag([1.0, 0.0])) + (1.0 - p) * np.kron(
        rho_list[1], np.diag([0.0, 1.0])
    )
    rho = DensityMatrix(mat, (2, 2))
    rec = quantum_discord(Bipartition(rho, (0,), (1,)), measured="b")
    assert abs(rec.discord) <= 2e-6


def test_discord_is_asymmetric_between_sides():
    mat = 0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.5 * np.kron(
        np.full((2, 2), 0.5), np.diag([0.0, 1.0])
    )
    rho = DensityMatrix(mat.astype(complex), (2, 2))
    d_b = quantum_discord(Bipartition(rho, (0,), (1,)), measured="b").discord
    d_a = quantum_discord(Bipartition(rho, (0,), (1,)), measured="a").discord
    assert abs(d_b) <= 2e-6
    assert abs(d_a - d_b) > 0.1


def test_discord_of_werner_half_matches_dense_grid_oracle():
    rho = _werner(0.5)
    rec = quantum_discord(Bipartition(rho, (0,), (1,)), measured="b")
    oracle = _dense_grid_discord(rho, points=200)
    assert rec.discord == pytest.approx(oracle, abs=1e-5)
    # Bell-diagonal closed form as a second anchor: J = 1 - h((1 + p)/2)
    assert rec.classical == pytest.approx(1.0 - binary_entropy(0.75), abs=1e-9)


def test_record_decomposition_and_positivity():
    rng = np.random.default_rng(17)
    for _ in range(8):
        rho = random_density_matrix((2, 2), int(rng.integers(1, 5)), int(rng.integers(1 << 30)))
        rec = quantum_discord(Bipartition(rho, (0,), (1,)), measured="b")
        assert rec.mutual_info == pytest.approx(rec.classical + rec.discord, abs=1e-9)
        for value in (rec.mutual_info, rec.classical, rec.discord, rec.eof, rec.entropy_a):
            assert value >= -1e-9


def test_record_omits_eof_outside_two_qubit_case():
    rho = random_density_matrix((3, 2), 6, 23)
    rec = quantum_discord(Bipartition(rho, (0,), (1,)), measured="b")
    assert rec.eof is None
    assert rec.measured_side == "b"


# ---------------------------------------------------------------------------
# entanglement entropy
# ---------------------------------------------------------------------------


def test_entanglement_entropy_of_product_state_is_zero():
    vec = np.kron(np.array([1.0, 0.0]), np.array([1.0, 1.0]) / np.sqrt(2.0))
    psi = PureState(vec, (2, 2))
    assert entanglement_entropy(psi, (0,)) == pytest.approx(0.0, abs=1e-12)


def test_entanglement_entropy_of_bell_state_is_one():
    assert entanglement_entropy(bell_state(), (0,)) == pytest.approx(1.0, abs=1e-12)


def test_entanglement_entropy_of_ghz_cuts_is_one():
    psi = ghz_state(3)
    for side in ((0,), (1,), (2,)):
        assert entanglement_entropy(psi, side) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# two-qubit entanglement of formation (closed form)
# ---------------------------------------------------------------------------


def test_eof_of_bell_state_is_one():
    assert concurrence_two_qubit(density_from_pure(bell_state())) == pytest.approx(1.0, abs=1e-10)
    assert eof_two_qubit(density_from_pure(bell_state())) == pytest.approx(1.0, abs=1e-10)


def test_eof_of_separable_mixture_is_zero():
    rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), (2, 2))
    assert eof_two_qubit(rho) == pytest.approx(0.0, abs=1e-12)


def test_eof_rejects_non_two_qubit_input():
    with pytest.raises(ValueError):
        eof_two_qubit(random_density_matrix((2, 3), 6, 29))


def test_concurrence_of_pure_states_is_twice_the_determinant():
    # C = 2|det psi| for the 2x2 coefficient matrix psi; 1.7e-15 worst seen over 2000 states.
    for seed in range(200):
        psi = random_pure_state((2, 2), 900 + seed)
        exact = 2.0 * abs(np.linalg.det(psi.vec.reshape(2, 2)))
        assert abs(concurrence_two_qubit(density_from_pure(psi)) - exact) <= 1e-14


def test_w_state_pair_marginal_concurrence_is_two_thirds():
    pair = reduced_density_matrix(w_state(3), (0, 1))
    assert concurrence_two_qubit(pair) == pytest.approx(2.0 / 3.0, abs=1e-12)
    expected = binary_entropy((1.0 + np.sqrt(5.0) / 3.0) / 2.0)
    assert eof_two_qubit(pair) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# numeric convex roof
# ---------------------------------------------------------------------------


def test_convex_roof_on_pure_states_recovers_entanglement_entropy():
    # Within 5.6e-16 of the marginal entropy on the qubit states. The qudit x
    # qudit states, within 2.5e-15, take the batched-SVD member terms through a
    # whole descent.
    for dims, seed, tol in [((2, 2), 31, 1e-10), ((2, 3), 37, 1e-10), ((3, 3), 41, 1e-12),
                            ((3, 4), 43, 1e-12), ((4, 4), 47, 1e-12)]:
        psi = random_pure_state(dims, seed)
        expected = entanglement_entropy(psi, (0,))
        assert eof_convex_roof_numeric(density_from_pure(psi)) == pytest.approx(expected, abs=tol)


def test_convex_roof_vanishes_on_constructed_separable_states():
    rng = np.random.default_rng(41)
    for _ in range(3):
        weights = rng.dirichlet(np.ones(3))
        mat = np.zeros((4, 4), dtype=complex)
        for w in weights:
            a = random_density_matrix((2,), 2, int(rng.integers(1 << 30)))
            b = random_density_matrix((2,), 2, int(rng.integers(1 << 30)))
            mat += w * np.kron(a.mat, b.mat)
        rho = DensityMatrix(mat, (2, 2))
        assert eof_convex_roof_numeric(rho) <= 1e-10  # exactly 0 on all three
        assert eof_two_qubit(rho) == pytest.approx(0.0, abs=1e-9)


def test_convex_roof_matches_werner_closed_form():
    rho = _werner(0.8)
    # 1.1e-16 apart.
    assert eof_convex_roof_numeric(rho) == pytest.approx(eof_two_qubit(rho), abs=1e-10)


def test_convex_roof_matches_closed_form_on_random_states():
    worst = 0.0
    for k in range(50):
        rank = 1 + k % 4
        rho = random_density_matrix((2, 2), rank, 1000 + k)
        numeric = eof_convex_roof_numeric(rho)
        exact = eof_two_qubit(rho)
        assert numeric >= exact - 1e-9  # the roof search can only overshoot
        worst = max(worst, abs(numeric - exact))
    assert worst <= 1e-10  # 1.0e-13 seen


def test_convex_roof_gradient_matches_finite_differences():
    for dims, rank, seed in (((2, 2), 3, 1201), ((2, 3), 4, 1202)):
        rho = random_density_matrix(dims, rank, seed)
        vals, vecs = np.linalg.eigh(rho.mat)
        basis = vecs[:, ::-1][:, :rank] * np.sqrt(vals[::-1][:rank])
        rng = np.random.default_rng(seed)
        shape = (1, 2 * rank, rank)
        q = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        _, xi = _roof_value_and_gradient(q, basis, *dims)
        herm = q[0].conj().T @ xi[0]
        assert_allclose(herm, -herm.conj().T, atol=1e-14)  # xi is tangent to the isometries
        for _ in range(4):
            z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            proj = q[0].conj().T @ z[0]
            z = z - q @ ((proj + proj.conj().T) / 2.0)
            h = 1e-6
            f_plus = _roof_value_and_gradient(q + h * z, basis, *dims)[0][0]
            f_minus = _roof_value_and_gradient(q - h * z, basis, *dims)[0][0]
            analytic = 2.0 * np.vdot(xi, z).real
            scale = 2.0 * np.linalg.norm(xi) * np.linalg.norm(z)
            assert abs((f_plus - f_minus) / (2.0 * h) - analytic) <= 1e-7 * scale


def _special_members(dims, rng):
    """Product, maximally and almost maximally entangled, zero and random members, p <= 1."""
    d_a, d_b = dims
    d = min(dims)

    def unitary(n):
        return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]

    members = [np.zeros(dims, dtype=complex)]
    for _ in range(8):
        a = rng.standard_normal(d_a) + 1j * rng.standard_normal(d_a)
        b = rng.standard_normal(d_b) + 1j * rng.standard_normal(d_b)
        members.append(np.outer(a, b))
        members.append(unitary(d_a)[:, :d] @ unitary(d_b)[:d, :])
        # Singular values 3e-9 apart, where c(M) takes the limit of its divided difference.
        members.append(unitary(d_a)[:, :d] * (1.0 + 3e-9 * np.arange(d)) @ unitary(d_b)[:d, :])
        members.append(rng.standard_normal(dims) + 1j * rng.standard_normal(dims))
    return np.array([w / np.linalg.norm(w) * rng.uniform(0.1, 1.0) if w.any() else w
                     for w in members])


def test_roof_member_kernel_matches_the_svd_definition():
    rng = np.random.default_rng(1301)
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        w = _special_members(dims, rng)
        value, g = _member_terms(w)
        ref_value, ref_g = roof_member_terms(w)
        # 9.5e-16 (value) and 4.1e-14 |G| (G) apart; a product member's G
        # vanishes, so G is compared against the norm of the whole stack.
        assert_allclose(value, ref_value, rtol=0.0, atol=1e-13)
        assert_allclose(g, ref_g, rtol=0.0, atol=1e-10 * np.linalg.norm(ref_g))
        assert not g[0].any()  # the zero member


def _roof_calls(monkeypatch, rho) -> int:
    calls = []
    value_and_gradient = correlations._roof_value_and_gradient

    def counting(*args):
        calls.append(1)
        return value_and_gradient(*args)

    with monkeypatch.context() as patch:
        patch.setattr(correlations, "_roof_value_and_gradient", counting)
        eof_convex_roof_numeric(rho)
    return len(calls)


def test_convex_roof_stops_once_no_step_can_gain(monkeypatch):
    # 18 and 15 calls; a start that went on until its step fell below 1e-14
    # took 44 and 40.
    assert _roof_calls(monkeypatch, random_density_matrix((2, 2), 2, 1037)) <= 24
    assert _roof_calls(monkeypatch, random_density_matrix((2, 3), 2, 2001)) <= 20


def test_convex_roof_does_not_depend_on_the_qubit_side():
    for rank, seed in ((2, 2501), (4, 2503)):
        rho = random_density_matrix((3, 2), rank, seed)
        swapped = permute_subsystems(rho, (1, 0))
        # 2.8e-16 and 1.2e-14 apart.
        assert abs(eof_convex_roof_numeric(rho) - eof_convex_roof_numeric(swapped)) <= 1e-10


def test_convex_roof_reaches_below_the_pairwise_search_on_qubit_qutrit():
    # The former pairwise-rotation search stopped at 0.139173841732 on this state.
    assert eof_convex_roof_numeric(random_density_matrix((2, 3), 4, 2003)) <= 0.139173841732 - 1e-4


def test_convex_roof_is_deterministic():
    rho = random_density_matrix((2, 2), 4, 1003)
    assert eof_convex_roof_numeric(rho) == eof_convex_roof_numeric(rho)
    # The starts are built once per rank and shared: read-only, so no call can
    # change what a later call of any rank starts from.
    starts = correlations._roof_starts(2)
    assert starts is correlations._roof_starts(2) and not starts.flags.writeable
    correlations._roof_starts.cache_clear()
    states = [random_density_matrix((2, 2), rank, 1000 + rank) for rank in (2, 3, 4)]
    forward = [eof_convex_roof_numeric(rho) for rho in states]
    backward = [eof_convex_roof_numeric(rho) for rho in states[::-1]]
    assert forward == backward[::-1]


def test_convex_roof_rejects_oversized_and_underparametrized_input():
    with pytest.raises(ValueError, match="dimension"):
        eof_convex_roof_numeric(random_density_matrix((4, 5), 1, 43))
    with pytest.raises(ValueError, match=r"need a bipartite state, got dims \(2, 2, 2\)"):
        eof_convex_roof_numeric(random_density_matrix((2, 2, 2), 2, 44))


def test_pure_state_discord_and_eof_equal_entanglement_entropy():
    rng = np.random.default_rng(53)
    for _ in range(6):
        psi = random_pure_state((2, 2), int(rng.integers(1 << 30)))
        ent = entanglement_entropy(psi, (0,))
        rec = quantum_discord(Bipartition(density_from_pure(psi), (0,), (1,)), measured="b")
        assert abs(rec.discord - ent) <= 2e-6
        assert abs(rec.eof - ent) <= 1e-6
