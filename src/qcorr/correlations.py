"""Bipartite correlation measures: mutual information, discord, entanglement.

Quantum discord is the gap between total mutual information and the classical
correlations J extracted by the best local measurement, so it inherits J's
asymmetry in the measured side. Entanglement of formation comes in two
routes that deliberately stay independent of each other: the two-qubit
concurrence closed form, and a numeric convex-roof minimization over
ensemble decompositions that upper-bounds the true value by construction.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    PureState,
    _xlog2x_sum,
    binary_entropy,
    partial_trace,
    reduced_density_matrix,
    von_neumann_entropy,
)
from .measurement import (
    MeasurementOptimum,
    OptimizerSettings,
    ProjectiveMeasurement,
    UnsupportedDimensionError,
    classical_correlations,
)

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)
_RANK_CUTOFF = 1e-12

# Numeric convex-roof search (a validation oracle, not the default path): random
# isometries seeded besides the eigendecomposition, Jacobi sweeps per refined
# candidate, candidates refined, simplex steps per member pair, and the seed.
_ROOF_RESTARTS = 20
_ROOF_SWEEPS = 40
_ROOF_TOP_K = 2
_ROOF_PAIR_MAXITER = 60
_ROOF_SEED = 7


@dataclass(frozen=True)
class Bipartition:
    """A state together with a two-block grouping of its subsystems."""

    rho: DensityMatrix
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]

    def __post_init__(self):
        side_a = tuple(sorted(int(i) for i in self.side_a))
        side_b = tuple(sorted(int(i) for i in self.side_b))
        object.__setattr__(self, "side_a", side_a)
        object.__setattr__(self, "side_b", side_b)
        n = len(self.rho.dims)
        if set(side_a) & set(side_b):
            raise ValueError(f"sides overlap: {side_a} and {side_b}")
        if set(side_a) | set(side_b) != set(range(n)):
            raise ValueError(f"sides {side_a} | {side_b} do not cover all {n} subsystems")
        if not side_a or not side_b:
            raise ValueError("both sides must be nonempty")


@dataclass(frozen=True)
class CorrelationRecord:
    """All correlation measures of one bipartition for one measured side."""

    mutual_info: float
    classical: float
    discord: float
    eof: float | None
    entropy_a: float
    measured_side: str
    optimal_measurement: ProjectiveMeasurement


def mutual_information(b: Bipartition) -> float:
    """I = H(rho_A) + H(rho_B) - H(rho_AB) in bits."""
    h_a = von_neumann_entropy(partial_trace(b.rho, b.side_a))
    h_b = von_neumann_entropy(partial_trace(b.rho, b.side_b))
    return h_a + h_b - von_neumann_entropy(b.rho)


def _measured_subsystem(b: Bipartition, measured: str) -> int:
    side = b.side_b if measured == "b" else b.side_a
    if len(side) != 1 or b.rho.dims[side[0]] != 2:
        dims = tuple(b.rho.dims[i] for i in side)
        raise UnsupportedDimensionError(
            f"measured side must be a single qubit, got subsystems {side} with dims {dims}"
        )
    return side[0]


def quantum_discord(
    b: Bipartition, measured: str = "b", opts: OptimizerSettings | None = None
) -> CorrelationRecord:
    """Discord D = I - J with J maximized over measurements on one side.

    The one place that forms D and pairs it with E for a two-qubit marginal:
    the star-network sweep, the consensus parameters and the discord, EoF,
    remark and conservation audits all read their J, D and E from this record.

    Parameters
    ----------
    b : Bipartition
    measured : {"a", "b"}
        Which side carries the measurement; that side must be a single qubit.
    opts : OptimizerSettings, optional

    Returns
    -------
    CorrelationRecord
        With the entanglement of formation filled in for 2x2 bipartitions.
    """
    if measured not in ("a", "b"):
        raise ValueError(f"measured must be 'a' or 'b', got {measured!r}")
    idx = _measured_subsystem(b, measured)
    unmeasured = b.side_a if measured == "b" else b.side_b
    best: MeasurementOptimum = classical_correlations(b.rho, idx, opts)
    info = mutual_information(b)
    eof = eof_two_qubit(b.rho) if b.rho.dims == (2, 2) else None
    return CorrelationRecord(
        mutual_info=info,
        classical=best.value,
        discord=info - best.value,
        eof=eof,
        entropy_a=von_neumann_entropy(partial_trace(b.rho, unmeasured)),
        measured_side=measured,
        optimal_measurement=best.argmax,
    )


def entanglement_entropy(psi: PureState, side_a) -> float:
    """Entropy of the marginal of a pure state on ``side_a``."""
    return von_neumann_entropy(reduced_density_matrix(psi, side_a))


def concurrence_two_qubit(rho: DensityMatrix) -> float:
    """Wootters concurrence C = max(0, l1 - l2 - l3 - l4) of a two-qubit state.

    The l_i are the singular values of tau = Psi^T (sigma_y x sigma_y) Psi, Psi
    with columns sqrt(lambda_i)|e_i> (Wootters, PRL 80, 2245 (1998)): the
    square roots of the eigenvalues of rho rho~, without the ~sqrt(eps) loss
    that taking those eigenvalues directly has on rank-deficient states.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"concurrence needs dims (2, 2), got {rho.dims}")
    vals, vecs = np.linalg.eigh(rho.mat)
    psi = vecs * np.sqrt(np.clip(vals, 0.0, None))
    lam = np.linalg.svd(psi.T @ _YY @ psi, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def eof_two_qubit(rho: DensityMatrix) -> float:
    """Entanglement of formation of a two-qubit state via the concurrence closed form."""
    c = concurrence_two_qubit(rho)
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - c * c))) / 2.0)


def _ensemble_entropy(members: np.ndarray, d_a: int, d_b: int) -> float:
    """Average entanglement entropy of an ensemble of unnormalized members.

    For an unnormalized member w with weight p = <w|w> = sum_k s_k^2, sums
    p * H(marginal of w/|w|) = p log2 p - sum_k s_k^2 log2 s_k^2 over the rows
    of ``members``, with s_k the singular values of the reshaped member. The
    2x2 case gets them in closed form (trace and determinant of the reshaped
    member); anything else goes through batched SVD.
    """
    mats = members.reshape(-1, d_a, d_b)
    if d_a == 2 and d_b == 2:
        t = np.einsum("mij,mij->m", mats, mats.conj()).real
        det = mats[:, 0, 0] * mats[:, 1, 1] - mats[:, 0, 1] * mats[:, 1, 0]
        disc = np.sqrt(np.maximum(t * t - 4.0 * np.abs(det) ** 2, 0.0))
        s2 = np.stack([(t + disc) / 2.0, (t - disc) / 2.0], axis=1)
    else:
        s2 = np.linalg.svd(mats, compute_uv=False) ** 2
    p = s2.sum(axis=1, keepdims=True)
    return float((_xlog2x_sum(p) - _xlog2x_sum(s2)).sum())


def _pair_rotation(x) -> np.ndarray:
    theta, beta, gamma = x
    c, s = np.cos(theta), np.sin(theta)
    eb, eg = np.exp(1j * beta), np.exp(1j * gamma)
    return np.array([[c, s * eb * eg], [-s / eb, c * eg]])


def _scalar_entropy(t: float, absdet: float) -> float:
    """Weighted entanglement entropy of one 2x2 member from norm^2 and |det|."""
    if t < 1e-15:
        return 0.0
    disc = math.sqrt(max(t * t - 4.0 * absdet * absdet, 0.0))
    out = t * math.log2(t)
    for s2 in ((t + disc) / 2.0, (t - disc) / 2.0):
        if s2 > 0.0:
            out -= s2 * math.log2(s2)
    return out


def _pair_cost_2x2(pair: np.ndarray):
    """Closed-form pair objective for qubit-qubit members.

    The rotated members are alpha*A + beta*B, whose Frobenius norm^2 and
    determinant are quadratic forms in (alpha, beta); precomputing the six
    invariants makes each evaluation a handful of scalar operations.
    """
    a, b = pair[0].reshape(2, 2), pair[1].reshape(2, 2)
    na = float(np.vdot(a, a).real)
    nb = float(np.vdot(b, b).real)
    ip = complex(np.vdot(a, b))
    det_a = complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    det_b = complex(b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0])
    mix = complex(
        a[0, 0] * b[1, 1] + b[0, 0] * a[1, 1] - a[0, 1] * b[1, 0] - b[0, 1] * a[1, 0]
    )

    def cost(x):
        theta, beta, gamma = x
        c, s = math.cos(theta), math.sin(theta)
        eb = cmath.exp(1j * beta)
        eg = cmath.exp(1j * gamma)
        out = 0.0
        for alpha, coeff in ((c, s * eb * eg), (-s / eb, c * eg)):
            t = (
                (alpha * alpha.conjugate()).real * na
                + (coeff * coeff.conjugate()).real * nb
                + 2.0 * (alpha.conjugate() * coeff * ip).real
            )
            det = alpha * alpha * det_a + coeff * coeff * det_b + alpha * coeff * mix
            out += _scalar_entropy(t, abs(det))
        return out

    return cost


def _nelder_mead3(f, fatol: float, maxiter: int) -> tuple[np.ndarray, float]:
    """Tiny fixed-shape Nelder-Mead over three angles, started at the origin.

    The identity rotation is always a simplex vertex, so the returned value
    never exceeds f(0); that keeps every sweep monotone.
    """
    pts = [np.zeros(3)] + [0.35 * np.eye(3)[k] for k in range(3)]
    vals = [f(p) for p in pts]
    for _ in range(maxiter):
        order = sorted(range(4), key=lambda k: vals[k])
        pts = [pts[k] for k in order]
        vals = [vals[k] for k in order]
        if vals[3] - vals[0] < fatol:
            break
        centroid = (pts[0] + pts[1] + pts[2]) / 3.0
        refl = centroid + (centroid - pts[3])
        f_refl = f(refl)
        if f_refl < vals[0]:
            expand = centroid + 2.0 * (centroid - pts[3])
            f_exp = f(expand)
            pts[3], vals[3] = (expand, f_exp) if f_exp < f_refl else (refl, f_refl)
        elif f_refl < vals[2]:
            pts[3], vals[3] = refl, f_refl
        else:
            contr = centroid + 0.5 * (pts[3] - centroid)
            f_con = f(contr)
            if f_con < vals[3]:
                pts[3], vals[3] = contr, f_con
            else:
                for k in range(1, 4):
                    pts[k] = pts[0] + 0.5 * (pts[k] - pts[0])
                    vals[k] = f(pts[k])
    best = int(np.argmin(vals))
    return pts[best], vals[best]


def _sweep_pairs(
    members: np.ndarray, d_a: int, d_b: int, maxiter: int, fatol: float
) -> float:
    """One Jacobi-style pass of two-member rotations; mutates ``members`` in place."""
    m = members.shape[0]
    qubit_pair = (d_a, d_b) == (2, 2)
    gained = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            pair = members[[i, j]]
            if qubit_pair:
                cost = _pair_cost_2x2(pair)
            else:
                def cost(x, pair=pair):
                    return _ensemble_entropy(_pair_rotation(x) @ pair, d_a, d_b)
            base = cost((0.0, 0.0, 0.0))
            x, fx = _nelder_mead3(cost, fatol, maxiter)
            if fx < base - 1e-13:
                members[[i, j]] = _pair_rotation(x) @ pair
                gained += base - fx
    return gained


def eof_convex_roof_numeric(rho: DensityMatrix) -> float:
    """Upper-converging numeric estimate of the entanglement of formation.

    Purifies ``rho`` and searches over ensemble decompositions of twice the
    rank, parametrized by isometries on the purification ancilla, for the
    smallest average entanglement entropy. Every candidate is a valid
    decomposition, so the returned value never undershoots the true convex
    roof. The search seeds ``_ROOF_RESTARTS`` random isometries plus the
    eigendecomposition, then refines the best few by repeated two-member
    rotations (each solved by a small derivative-free simplex). The search
    can stop above the roof: on qubit-qutrit states of rank >= 4 it stopped up
    to 2.8e-4 above a minimum that the same search reached when the member
    entropies were summed in another order, so 2x3 values carry about 3e-4 of
    search error.

    Parameters
    ----------
    rho : DensityMatrix
        Bipartite state, total dimension at most 16.
    """
    if len(rho.dims) != 2:
        raise ValueError(f"need a bipartite state, got dims {rho.dims}")
    if rho.dim > 16:
        raise ValueError(f"total dimension {rho.dim} exceeds the supported 16")
    d_a, d_b = rho.dims

    vals, vecs = np.linalg.eigh(rho.mat)
    vals, vecs = vals[::-1], vecs[:, ::-1]
    rank = int(np.sum(vals > _RANK_CUTOFF))
    m = 2 * rank
    # Columns sqrt(lambda_i)|e_i>; rows of Q @ basis.T are unnormalized members.
    basis = vecs[:, :rank] * np.sqrt(np.clip(vals[:rank], 0.0, None))

    rng = np.random.default_rng(_ROOF_SEED)
    seeds = []
    eye_seed = np.zeros((m, rank), dtype=complex)
    eye_seed[:rank, :rank] = np.eye(rank)
    seeds.append(eye_seed + 1e-3 * (rng.standard_normal((m, rank)) * (1 + 1j)))
    for _ in range(_ROOF_RESTARTS):
        seeds.append(rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank)))

    scored = []
    for x in seeds:
        q = np.linalg.qr(x)[0][:, :rank]
        members = q @ basis.T
        scored.append((_ensemble_entropy(members, d_a, d_b), members))
    scored.sort(key=lambda t: t[0])

    best = scored[0][0]
    for _, members in scored[:_ROOF_TOP_K]:
        members = members.copy()
        for _ in range(_ROOF_SWEEPS):
            if _sweep_pairs(members, d_a, d_b, _ROOF_PAIR_MAXITER, fatol=1e-9) < 1e-8:
                break
        # One tighter pass nails the last digits once the basin is settled.
        _sweep_pairs(members, d_a, d_b, 3 * _ROOF_PAIR_MAXITER, fatol=1e-13)
        best = min(best, _ensemble_entropy(members, d_a, d_b))
    return max(0.0, best)
