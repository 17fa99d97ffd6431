"""Dense complex linear algebra and entropic functionals for small multipartite states.

All entropic quantities are in bits (base-2 logarithms). States are plain
numpy arrays wrapped in light containers that carry the subsystem dimension
list and validate the physical invariants (finite entries, Hermiticity, unit
trace, positive semidefiniteness, normalization) at construction time.

Everything here is a pure function of its inputs; random constructors take an
explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, prod

import numpy as np

# Constructor tolerances (double precision headroom); derived quantities get 1e-10.
HERM_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
NORM_TOL = 1e-12
# Eigenvalues below this count as zero when deciding support membership.
SUPPORT_CUTOFF = 1e-12


def _as_dims(dims) -> tuple[int, ...]:
    dims = tuple(dims)
    out = tuple(int(d) for d in dims)
    if out != dims:
        raise ValueError(f"subsystem dimensions must be integers, got {dims}")
    if not out or any(d < 2 for d in out):
        raise ValueError(f"subsystem dimensions must all be >= 2, got {out}")
    return out


def _check_finite(arr: np.ndarray) -> None:
    # Run before the other checks: NaN passes every tolerance comparison, and
    # NaN or inf breaks the eigensolver with a message that names no invariant.
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite (no NaN or inf)")


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, PSD matrix with a subsystem dimension list.

    Keeps the ascending ``spectrum`` of ``mat`` that its PSD check computes, so
    the entropy and the rank of a validated state cost no further eigensolve.
    ``mat``, a copy of the input, and ``spectrum`` are read-only, so neither goes stale.
    """

    mat: np.ndarray
    dims: tuple[int, ...]
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        mat.flags.writeable = False
        _check_finite(mat)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", _as_dims(self.dims))
        d = prod(self.dims)
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match dims {self.dims}")
        herm_err = np.max(np.abs(mat - mat.conj().T))
        if herm_err > HERM_TOL:
            raise ValueError(f"not Hermitian: max |m - m^dag| = {herm_err:.3e}")
        tr_err = abs(mat.trace() - 1.0)
        if tr_err > TRACE_TOL:
            raise ValueError(f"trace differs from 1 by {tr_err:.3e}")
        spectrum = np.linalg.eigvalsh(mat)
        spectrum.flags.writeable = False
        object.__setattr__(self, "spectrum", spectrum)
        lam_min = float(spectrum[0])
        if lam_min < -PSD_TOL:
            raise ValueError(f"not positive semidefinite: lambda_min = {lam_min:.3e}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class PureState:
    """Normalized complex vector with a subsystem dimension list; ``vec`` is a read-only copy."""

    vec: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        vec = np.array(self.vec, dtype=complex).reshape(-1)
        vec.flags.writeable = False
        _check_finite(vec)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "dims", _as_dims(self.dims))
        d = prod(self.dims)
        if vec.shape != (d,):
            raise ValueError(f"vector length {vec.shape[0]} does not match dims {self.dims}")
        norm_err = abs(np.linalg.norm(vec) - 1.0)
        if norm_err > NORM_TOL:
            raise ValueError(f"norm differs from 1 by {norm_err:.3e}")

    @property
    def dim(self) -> int:
        return self.vec.shape[0]


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Projector |psi><psi| as a validated density matrix."""
    return DensityMatrix(np.outer(psi.vec, psi.vec.conj()), psi.dims)


def _require_state(x, what: str, types: tuple = (PureState, DensityMatrix)) -> None:
    """The one TypeError for an argument of ``what`` that is none of ``types``."""
    if not isinstance(x, types):
        hint = ("; density_from_pure(psi) gives the DensityMatrix of a PureState psi"
                if isinstance(x, PureState) else "")
        names = " or ".join(t.__name__ for t in types)
        raise TypeError(f"{what} needs a {names}, got {type(x).__name__}{hint}")


def _require_density(rho, what: str) -> None:
    """`_require_state` for an argument of ``what`` that must be a `DensityMatrix`."""
    _require_state(rho, what, (DensityMatrix,))


def _require_integer(x, what: str) -> int:
    """``x`` as an int; a bool, a float or a string raises TypeError rather than be rounded."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {x!r}")
    return int(x)


def _subsystems(dims, indices, what: str) -> tuple[int, ...]:
    """One index, or an iterable of indices, into ``dims`` as a tuple of ints in the
    order given: each an integer in range, at least one, none repeated."""
    out = tuple(_require_integer(i, f"{what} index")
                for i in (indices if hasattr(indices, "__iter__") else (indices,)))
    if not out:
        raise ValueError(f"{what} indices must be nonempty")
    for k, i in enumerate(out):
        if not 0 <= i < len(dims):
            raise ValueError(f"{what} index {i} is out of range [0, {len(dims)})")
        if i in out[:k]:
            raise ValueError(f"{what} index {i} is repeated in {out}")
    return out


def _grouped_view(rho: DensityMatrix, first, second) -> np.ndarray:
    """Tensor view (d_1, d_2, d_1, d_2) of rho with its subsystems grouped into the
    ``first`` then the ``second`` block, each in the order given."""
    order = (*first, *second)
    t = rho.mat.reshape(rho.dims * 2).transpose(order + tuple(len(rho.dims) + i for i in order))
    d_1 = prod(rho.dims[i] for i in first)
    return t.reshape(d_1, rho.dim // d_1, d_1, rho.dim // d_1)


def _group_entropy(t: np.ndarray, block: int) -> float:
    """Entropy of block 0 or 1 of a `_grouped_view`, the other block traced out."""
    return float(-_xlog2x_sum(np.linalg.eigvalsh(np.trace(t, axis1=1 - block, axis2=3 - block))))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept subsystems (original ordering preserved).

    Parameters
    ----------
    rho : DensityMatrix
    keep : int or iterable of int
        Indices into ``rho.dims`` of the subsystems to retain: integers (a bool
        or a float raises TypeError) in range, at least one, none repeated.
    """
    _require_density(rho, "partial_trace")
    keep = tuple(sorted(_subsystems(rho.dims, keep, "kept subsystem")))
    t = _grouped_view(rho, keep, [i for i in range(len(rho.dims)) if i not in keep])
    return DensityMatrix(np.trace(t, axis1=1, axis2=3), tuple(rho.dims[i] for i in keep))


def reduced_density_matrix(psi: PureState | DensityMatrix, keep) -> DensityMatrix:
    """Marginal of a pure or mixed state on the kept subsystems.

    A `DensityMatrix` goes through `partial_trace`. A pure state's marginal is
    ``partial_trace(density_from_pure(psi), keep)`` without the full density
    matrix: O(d * d_keep) instead of O(d^2), which matters for ~10-qubit states.
    ``keep`` follows the index rule of `partial_trace`.
    """
    _require_state(psi, "reduced_density_matrix")
    if isinstance(psi, DensityMatrix):
        return partial_trace(psi, keep)
    keep = tuple(sorted(_subsystems(psi.dims, keep, "kept subsystem")))
    n = len(psi.dims)
    traced = [i for i in range(n) if i not in keep]
    t = psi.vec.reshape(psi.dims)
    red = np.tensordot(t, t.conj(), axes=(traced, traced))
    new_dims = tuple(psi.dims[i] for i in keep)
    d = prod(new_dims)
    return DensityMatrix(red.reshape(d, d), new_dims)


def permute_subsystems(rho: DensityMatrix, order) -> DensityMatrix:
    """Reorder the tensor factors of ``rho`` so factor ``order[k]`` becomes factor ``k``."""
    order = _subsystems(rho.dims, order, "order")
    n = len(rho.dims)
    if len(order) != n:
        raise ValueError(f"order {order} is not a permutation of 0..{n - 1}")
    t = _grouped_view(rho, order, ())
    return DensityMatrix(t.reshape(rho.dim, rho.dim), tuple(rho.dims[i] for i in order))


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """x log2 x elementwise for x in [0, 1], with 0 log 0 = 0."""
    return x * np.log2(np.where(x > 0.0, x, 1.0))


def _xlog2x_sum(vals: np.ndarray) -> np.ndarray:
    """sum_i x_i log2 x_i over the last axis of a stack, with 0 log 0 = 0."""
    # Clamp to [0, 1] to absorb -1e-10-scale negativity before the log. The
    # method forms of clip and sum skip numpy's dispatch wrappers, which cost
    # more than the arithmetic on the few-element arrays of the search loops.
    return _xlog2x(np.real(vals).clip(0.0, 1.0)).sum(axis=-1)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits, with 0*log 0 = 0."""
    _require_density(rho, "von_neumann_entropy")
    return float(-_xlog2x_sum(rho.spectrum))


def binary_entropy(p: float) -> float:
    """h(p) = -p log2 p - (1-p) log2 (1-p), with 0 log 0 = 0 and a finite p clipped to
    [0, 1]; a NaN or infinite p raises ValueError.

    Works on scalars, and gives the bits of ``-_xlog2x_sum([p, 1 - p])`` at about
    a sixth of its cost. numpy's log2 is kept: ``math.log2`` rounds differently.
    """
    p = float(p)
    if not isfinite(p):
        raise ValueError(f"binary_entropy needs a finite p, got {p}")
    p = min(max(p, 0.0), 1.0)
    q = 1.0 - p
    return -float((p * np.log2(p) if p > 0.0 else 0.0) + (q * np.log2(q) if q > 0.0 else 0.0))


def relative_entropy(x: DensityMatrix, y: DensityMatrix) -> float:
    """Relative entropy H(x||y) = Tr(x log2 x) - Tr(x log2 y) in bits.

    Returns ``inf`` when the support of ``x`` is not contained in the support
    of ``y`` (eigenvalues below 1e-12 count as zero).
    """
    _require_density(x, "relative_entropy")
    _require_density(y, "relative_entropy")
    if x.dims != y.dims:
        raise ValueError(f"dimension mismatch: {x.dims} vs {y.dims}")
    yvals, yvecs = np.linalg.eigh(y.mat)
    support = yvals >= SUPPORT_CUTOFF
    # <v_j| x |v_j> weights for the y-eigenbasis terms.
    weights = np.real(np.einsum("ij,ik,kj->j", yvecs.conj(), x.mat, yvecs))
    if np.sum(np.where(support, 0.0, weights)) > SUPPORT_CUTOFF:
        return float("inf")
    tr_x_log_y = np.sum(weights * np.log2(np.where(support, yvals, 1.0)))
    return float(max(0.0, _xlog2x_sum(x.spectrum) - tr_x_log_y))


def trace_distance_half(x: DensityMatrix, y: DensityMatrix) -> float:
    """Half the trace norm of x - y; lies in [0, 1]."""
    _require_density(x, "trace_distance_half")
    _require_density(y, "trace_distance_half")
    if x.dims != y.dims:
        raise ValueError(f"dimension mismatch: {x.dims} vs {y.dims}")
    return float(np.sum(np.abs(np.linalg.eigvalsh(x.mat - y.mat))) / 2.0)


def random_pure_state(dims, seed: int) -> PureState:
    """Haar-distributed pure state (normalized complex-Gaussian vector)."""
    dims = _as_dims(dims)
    rng = np.random.default_rng(seed)
    d = prod(dims)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v), dims)


def random_density_matrix(dims, rank: int, seed: int) -> DensityMatrix:
    """Random mixed state induced by a Haar purification with ancilla dimension ``rank``.

    rank = 1 gives a pure state, rank = dim gives a generically full-rank state.
    """
    dims = _as_dims(dims)
    d = prod(dims)
    rank = _require_integer(rank, "rank")
    if not 1 <= rank <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    rho /= rho.trace().real
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(rho, dims)


def ghz_state(n_qubits: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on ``n_qubits`` qubits."""
    if n_qubits < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    v = np.zeros(2**n_qubits, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2.0)
    return PureState(v, (2,) * n_qubits)


def w_state(n_qubits: int) -> PureState:
    """Equal superposition of all single-excitation basis states."""
    if n_qubits < 2:
        raise ValueError("W state needs at least 2 qubits")
    v = np.zeros(2**n_qubits, dtype=complex)
    for k in range(n_qubits):
        v[1 << (n_qubits - 1 - k)] = 1.0 / np.sqrt(n_qubits)
    return PureState(v, (2,) * n_qubits)


def bell_state() -> PureState:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    return ghz_state(2)
