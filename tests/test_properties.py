"""Property tests of the two-qubit correlation record over seeded states of rank 1-4."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    Bipartition,
    DensityMatrix,
    eof_convex_roof_numeric,
    eof_two_qubit,
    partial_trace,
    quantum_discord,
    random_density_matrix,
    von_neumann_entropy,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
RANKS = st.integers(min_value=1, max_value=4)
SIDES = st.sampled_from(["a", "b"])
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)


def _record(rho: DensityMatrix, measured: str):
    return quantum_discord(Bipartition(rho, (0,), (1,)), measured=measured)


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@PROPERTY_SETTINGS
@given(seed=SEEDS, rank=RANKS, measured=SIDES)
def test_record_bounds_and_decomposition(seed, rank, measured):
    rho = random_density_matrix((2, 2), rank, seed)
    rec = _record(rho, measured)
    h_a = von_neumann_entropy(partial_trace(rho, (0,)))
    h_b = von_neumann_entropy(partial_trace(rho, (1,)))
    assert rec.discord >= -1e-12
    assert rec.classical <= min(h_a, h_b) + 1e-12
    assert abs(rec.mutual_info - (rec.classical + rec.discord)) <= 1e-12


@PROPERTY_SETTINGS
@given(seed=SEEDS, rank=RANKS, measured=SIDES, unitary_seed=SEEDS)
def test_record_is_invariant_under_local_unitaries(seed, rank, measured, unitary_seed):
    rho = random_density_matrix((2, 2), rank, seed)
    rng = np.random.default_rng(unitary_seed)
    u = np.kron(_haar_unitary(rng), _haar_unitary(rng))
    rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 2))
    rec, rot = _record(rho, measured), _record(rotated, measured)
    for name in ("mutual_info", "classical", "discord"):
        assert abs(getattr(rec, name) - getattr(rot, name)) <= 1e-12, name
    # The singular-value concurrence moved E by at most 1.2e-15 over these examples.
    assert abs(rec.eof - rot.eof) <= 1e-14


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=SEEDS, rank=RANKS)
def test_convex_roof_matches_closed_form(seed, rank):
    rho = random_density_matrix((2, 2), rank, seed)
    roof, closed = eof_convex_roof_numeric(rho), eof_two_qubit(rho)
    assert roof >= closed - 1e-12  # every iterate is a valid decomposition
    assert abs(roof - closed) <= 1e-10
