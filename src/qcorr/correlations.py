"""Bipartite correlation measures: mutual information, discord, entanglement.

Quantum discord is the gap between total mutual information and the classical
correlations J extracted by the best local measurement, so it inherits J's
asymmetry in the measured side. Entanglement of formation comes in two
routes that deliberately stay independent of each other: the two-qubit
concurrence closed form, and a numeric convex roof. The roof is a
Riemannian gradient descent over the isometries that map a purification
ancilla onto ensemble decompositions, run on a stack of starts at once; every
iterate is a valid decomposition, so its value upper-bounds the true roof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    SUPPORT_CUTOFF,
    DensityMatrix,
    PureState,
    _group_entropy,
    _grouped_view,
    _require_density,
    _require_state,
    _subsystems,
    _xlog2x_sum,
    binary_entropy,
    reduced_density_matrix,
    von_neumann_entropy,
)
from .measurement import UnsupportedDimensionError, _classical_stack

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)

# Numeric convex-roof search (a validation oracle, not the default path): random
# isometries started besides the eigendecomposition and their seed, then the
# step and stopping rules of `_roof_descent`. A start stops once the gain its
# step predicts falls below _ROOF_GAIN_TOL * max(1, |f|).
_ROOF_RESTARTS = 20
_ROOF_SEED = 7
_ROOF_FIRST_STEP = 1.0
_ROOF_ARMIJO = 1e-4
_ROOF_SHRINK = 4.0
_ROOF_PRUNE_AFTER = 10
_ROOF_KEEP = 2
_ROOF_GAIN_TOL = 1e-15
_ROOF_MAX_STEPS = 3000


@dataclass(frozen=True)
class Bipartition:
    """A state together with a two-block grouping of its subsystems.

    ``side_a`` and ``side_b`` are indices into ``rho.dims``, stored sorted. Each
    side follows the index rule of `partial_trace` (integers, in range, at least
    one, none repeated); together they cover every subsystem once.
    """

    rho: DensityMatrix
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        _require_density(self.rho, "Bipartition")
        side_a = tuple(sorted(_subsystems(self.rho.dims, self.side_a, "side_a")))
        side_b = tuple(sorted(_subsystems(self.rho.dims, self.side_b, "side_b")))
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "side_b", side_b)
        n = len(self.rho.dims)
        if set(side_a) & set(side_b):
            raise ValueError(f"sides overlap: {side_a} and {side_b}")
        if set(side_a) | set(side_b) != set(range(n)):
            raise ValueError(f"sides {side_a} | {side_b} do not cover all {n} subsystems")


@dataclass(frozen=True)
class CorrelationRecord:
    """All correlation measures of one bipartition for one measured side, with
    ``entropy_a`` the entropy of the unmeasured side (H(rho_B) when a is measured)."""

    mutual_info: float
    classical: float
    discord: float
    eof: float | None
    entropy_a: float
    measured_side: str


def mutual_information(b: Bipartition) -> float:
    """I = H(rho_A) + H(rho_B) - H(rho_AB) in bits."""
    t = _grouped_view(b.rho, b.side_a, b.side_b)
    return _group_entropy(t, 0) + _group_entropy(t, 1) - von_neumann_entropy(b.rho)


def _measured_subsystem(b: Bipartition, measured: str) -> int:
    if measured not in ("a", "b"):
        raise ValueError(f"measured must be 'a' or 'b', got {measured!r}")
    side = b.side_b if measured == "b" else b.side_a
    if len(side) != 1 or b.rho.dims[side[0]] != 2:
        dims = tuple(b.rho.dims[i] for i in side)
        raise UnsupportedDimensionError(
            f"measured side must be a single qubit, got subsystems {side} with dims {dims}"
        )
    return side[0]


def _discord_stack(pairs) -> list[CorrelationRecord]:
    """`quantum_discord` of each (bipartition, measured side) pair, all J searched together.

    The one place that forms D from a searched J and pairs it with E: the
    consensus parameters and the discord, EoF, remark and conservation audits
    all read their J, D and E from these records. I = H(rest) + H(measured) -
    H(rho) takes H(rest), the unmeasured side's entropy, from J and H(measured)
    from J's view.
    """
    pairs = list(pairs)
    searched = _classical_stack((b.rho, _measured_subsystem(b, measured)) for b, measured in pairs)
    records = []
    for (b, measured), (t, h_rest, j) in zip(pairs, searched):
        info = h_rest + _group_entropy(t, 1) - von_neumann_entropy(b.rho)
        records.append(CorrelationRecord(
            mutual_info=info,
            classical=j.value,
            discord=info - j.value,
            eof=eof_two_qubit(b.rho) if b.rho.dims == (2, 2) else None,
            entropy_a=h_rest,
            measured_side=measured,
        ))
    return records


def quantum_discord(b: Bipartition, measured: str = "b") -> CorrelationRecord:
    """Discord D = I - J with J maximized over measurements on one side.

    The one-bipartition case of the stacked records that the consensus
    parameters and the bound audits read J, D and E from.

    Parameters
    ----------
    b : Bipartition
    measured : {"a", "b"}
        Which side carries the measurement; that side must be a single qubit.

    Returns
    -------
    CorrelationRecord
        With the entanglement of formation filled in for 2x2 bipartitions.
    """
    return _discord_stack([(b, measured)])[0]


def entanglement_entropy(psi: PureState, side_a) -> float:
    """Entropy of the marginal of a pure state on ``side_a``."""
    _require_state(psi, "entanglement_entropy")
    return von_neumann_entropy(reduced_density_matrix(psi, side_a))


def concurrence_two_qubit(rho: DensityMatrix) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the singular values of tau = Psi^T (sigma_y x sigma_y) Psi, Psi
    with columns sqrt(lambda_i)|e_i> (Wootters, PRL 80, 2245 (1998)): the
    square roots of the eigenvalues of rho rho~, without the ~sqrt(eps) loss
    that taking those eigenvalues directly has on rank-deficient states.
    """
    _require_density(rho, "concurrence_two_qubit")
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence needs dims (2, 2), got {rho.dims}")
    vals, vecs = np.linalg.eigh(rho.mat)
    psi = vecs * np.sqrt(np.clip(vals, 0.0, None))
    lam = np.linalg.svd(psi.T @ _YY @ psi, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _eof_from_concurrence(c: float) -> float:
    """Wootters' E_F = h((1 + sqrt(1 - C^2)) / 2) of a two-qubit concurrence C."""
    return binary_entropy((1.0 + math.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def eof_two_qubit(rho: DensityMatrix) -> float:
    """Entanglement of formation of a two-qubit state via the concurrence closed form."""
    return _eof_from_concurrence(concurrence_two_qubit(rho))


def _member_terms(w: np.ndarray):
    """Entanglement p H(w/|w|) of each member w of a (N, d_a, d_b) stack, and its gradient G.

    With p = <w|w> and lambda the eigenvalues of M = w w^dag, a member adds
    p log2 p - sum lambda log2 lambda, and a change dw changes that by
    2 Re tr(G^dag dw) with G = c(M) w, c(lambda) = log2(p / lambda) (G = 0 where
    w = 0). With a qubit side M is 2x2: lambda_+ = p/2 + disc, lambda_- = det M
    / lambda_+ (p/2 - disc would cancel), and c(M) = c(lambda_+) + beta (M -
    lambda_+), beta the divided difference of c over [lambda_-, lambda_+]
    (-1/(lambda ln 2) where they meet). Other members take one batched SVD.
    """
    _, d_a, d_b = w.shape
    tiny = np.finfo(float).tiny
    if d_a != 2 and d_b == 2:
        value, g = _member_terms(w.transpose(0, 2, 1))
        return value, g.transpose(0, 2, 1)
    if d_a != 2:
        u, s, vh = np.linalg.svd(w, full_matrices=False)
        s2 = s * s
        p = s2.sum(axis=-1, keepdims=True)
        coeff = s * np.log2(np.maximum(p, tiny) / np.maximum(s2, tiny))
        return _xlog2x_sum(p) - _xlog2x_sum(s2), (u * coeff[:, None, :]) @ vh
    m = w @ w.conj().transpose(0, 2, 1)
    m00, m11, m01 = m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1]
    off2 = m01.real * m01.real + m01.imag * m01.imag
    p = m00 + m11
    disc = np.sqrt(0.25 * (m00 - m11) ** 2 + off2)
    hi = np.maximum(0.5 * p + disc, tiny)
    lo = np.clip((m00 * m11 - off2) / hi, 0.0, hi)
    c_hi = np.log2(np.maximum(p, tiny) / hi)
    c_gap = np.log2(hi / np.maximum(lo, tiny))  # c(lambda_-) - c(lambda_+)
    near = disc <= 0.5e-8 * hi
    beta = np.where(near, -1.0 / (np.log(2.0) * hi), -c_gap / np.where(near, 1.0, 2.0 * disc))
    g = (c_hi - beta * hi)[:, None, None] * w + beta[:, None, None] * (m @ w)
    # p c(lambda_+) + lambda_- (c(lambda_-) - c(lambda_+)): two terms >= 0.
    return p * c_hi + lo * c_gap, g


def _roof_value_and_gradient(q: np.ndarray, basis: np.ndarray, d_a: int, d_b: int):
    """Average entanglement entropy of each start's ensemble, and its Riemannian gradient.

    The rows of ``q[k] @ basis.T`` are the unnormalized members w of start k;
    `_member_terms` gives each member's entropy and gradient G. The Euclidean
    gradient Gamma = G @ conj(basis) is projected onto the tangent space of the
    isometries: xi = Gamma - q herm(q^dag Gamma).
    """
    n_starts, m, _ = q.shape
    value, g = _member_terms((q @ basis.T).reshape(-1, d_a, d_b))
    gamma = g.reshape(n_starts, m, -1) @ basis.conj()
    herm = q.conj().transpose(0, 2, 1) @ gamma
    herm = (herm + herm.conj().transpose(0, 2, 1)) / 2.0
    return value.reshape(n_starts, m).sum(axis=1), gamma - q @ herm


def _retract(x: np.ndarray) -> np.ndarray:
    """Isometry factor of the QR decomposition of each matrix, with diag(R) > 0."""
    q, r = np.linalg.qr(x)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def _real_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("kij,kij->k", a.conj(), b).real


@lru_cache(maxsize=None)
def _roof_starts(rank: int) -> np.ndarray:
    """Read-only start isometries (1 + _ROOF_RESTARTS, 2 rank, rank) of the roof search."""
    shape = (2 * rank, rank)
    rng = np.random.default_rng(_ROOF_SEED)
    seeds = [np.eye(*shape) + 1e-3 * (rng.standard_normal(shape) * (1 + 1j))]
    for _ in range(_ROOF_RESTARTS):
        seeds.append(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    q = np.linalg.qr(np.stack(seeds))[0]
    q.flags.writeable = False
    return q


def _roof_descent(q: np.ndarray, basis: np.ndarray, d_a: int, d_b: int) -> float:
    """Lowest value reached by a joint descent of a stack of isometries.

    Every start steps along -xi by its own Barzilai-Borwein length and retracts
    with QR, so every iterate is a valid decomposition. A step that fails the
    Armijo check is undone and the start divides its length by
    ``_ROOF_SHRINK``. After ``_ROOF_PRUNE_AFTER`` steps only the best
    ``_ROOF_KEEP`` starts go on. A start stops once the gain its step
    predicts, 2 step |xi|^2, falls below ``_ROOF_GAIN_TOL`` * max(1, |f|), or
    after ``_ROOF_MAX_STEPS`` steps. The first test stops a converged start at
    once, where its Armijo checks fail on rounding noise.
    """
    f, xi = _roof_value_and_gradient(q, basis, d_a, d_b)
    step = np.full(len(f), _ROOF_FIRST_STEP)
    best = f.min()
    for it in range(_ROOF_MAX_STEPS):
        g2 = _real_inner(xi, xi)
        # f changes by 2 Re tr(xi^dag dq), so its slope along -xi is -2|xi|^2.
        live = 2.0 * step * g2 >= _ROOF_GAIN_TOL * np.maximum(1.0, np.abs(f))
        if it == _ROOF_PRUNE_AFTER:
            live[np.argsort(f, kind="stable")[_ROOF_KEEP:]] = False
        if not live.all():
            best = min(best, f.min())
            if not live.any():
                return float(best)
            q, xi, f, g2, step = (a[live] for a in (q, xi, f, g2, step))
        trial = _retract(q - step[:, None, None] * xi)
        f_t, xi_t = _roof_value_and_gradient(trial, basis, d_a, d_b)
        gain = f - f_t
        ok = gain >= _ROOF_ARMIJO * 2.0 * step * g2
        s_k, y_k = trial - q, xi_t - xi
        sy = _real_inner(s_k, y_k)
        # The long (|s|^2 / s.y) and short (s.y / |y|^2) lengths in turn.
        num, den = (_real_inner(s_k, s_k), sy) if it % 2 == 0 else (sy, _real_inner(y_k, y_k))
        bb = np.where(sy > 0.0, num / np.where(sy > 0.0, den, 1.0), step)
        step = np.where(ok, bb, step / _ROOF_SHRINK)
        f = np.where(ok, f_t, f)
        q = np.where(ok[:, None, None], trial, q)
        xi = np.where(ok[:, None, None], xi_t, xi)
    return float(min(best, f.min()))


def eof_convex_roof_numeric(rho: DensityMatrix) -> float:
    """Upper-converging numeric estimate of the entanglement of formation.

    Purifies ``rho`` and searches over ensemble decompositions of twice the
    rank, parametrized by isometries on the purification ancilla, for the
    smallest average entanglement entropy. The eigendecomposition and
    ``_ROOF_RESTARTS`` seeded random isometries descend together along the
    Riemannian gradient with Barzilai-Borwein steps and a QR retraction
    (Rothlisberger, Rehacek & Loss, PRA 80, 042301 (2009); Audenaert,
    Verstraete & De Moor, PRA 64, 052304 (2001)); after ten steps only the best
    two go on. The starts depend on the rank alone (`_roof_starts` builds them
    once per rank and process). Every iterate is a valid decomposition, so the
    value never undershoots the true roof. Of 400 seeded two-qubit states of
    rank 1-4 (``random_density_matrix((2, 2), 1 + k % 4, 1000 + k)``), 399
    converged within 2.2e-12 of `eof_two_qubit` (3.5e-13 below rank 4); the full-rank
    seed 1327 reached the 3000-step cap 3.6e-9 above it (1.9e-11 to 7.3e-8
    over the roof seeds 7-18). 16 of 60 seeded qubit-qutrit states of rank
    1-6, all of rank 4-6, reached the cap still descending: ten times as many
    steps lowered them by at most 1.7e-5.

    Parameters
    ----------
    rho : DensityMatrix
        Bipartite state, total dimension at most 16.
    """
    _require_density(rho, "eof_convex_roof_numeric")
    if len(rho.dims) != 2:
        raise ValueError(f"need a bipartite state, got dims {rho.dims}")
    if rho.dim > 16:
        raise ValueError(f"total dimension {rho.dim} exceeds the supported 16")
    d_a, d_b = rho.dims

    vals, vecs = np.linalg.eigh(rho.mat)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    rank = int(np.sum(vals > SUPPORT_CUTOFF))
    # Columns sqrt(lambda_i)|e_i>; rows of Q @ basis.T are unnormalized members.
    basis = vecs[:, :rank] * np.sqrt(np.clip(vals[:rank], 0.0, None))

    return max(0.0, _roof_descent(_roof_starts(rank), basis, d_a, d_b))
