"""Local projective measurements and the classical-correlations maximization.

Classical correlations J of a bipartite state are the maximal mutual
information of the post-measurement state over local measurements on one
subsystem. Here the measured subsystem must be a qubit and the search runs
over rank-1 projective measurements along Bloch directions n. For such a
measurement on side B the post-measurement mutual information reduces to

    I(rho_meas) = H(rho_A) - sum_a p_a H(rho_A | outcome a),

with outcome blocks (T_0 +- n.T)/2 affine in n, T_s = Tr_B[(1 x sigma_s) rho],
whose direct sum is the pinching of B along n: the entropy terms of their
spectra (`_outcome_entropies`) give J's objective and, through `_Pinching`,
every pinched entropy and m2 of the continuity and f-bound audits in `bounds`;
`_classical_stack` searches any mix of states, one stack per (unmeasured
dimension, block size).
A state of rank r < d_rest = dim(A) has smaller blocks with the same nonzero
spectra: with rho = Psi Psi^dag, Psi = V sqrt(Lambda) (2 d_rest x r), the block
of outcome +-n has the nonzero spectrum of (G_0 +- n.G)/2, G_s = Psi^dag (1 x
sigma_s) Psi, which is r x r. J's search reads k x k blocks, k = min(d_rest,
max(2, r)), with r the number of eigenvalues of rho above dim(rho) times
machine epsilon (at most 3.6e-15 for dim(rho) <= 16), so a rank-1 or rank-2
state takes the closed-form 2 x 2 spectra whatever d_rest is. The eigenvalues
left out weigh eps_0 <= (dim(rho) - 1) dim(rho) epsilon <= 5.3e-14 on a PSD
state (validation admits eigenvalues down to -1e-10; those are left out too).
Each outcome block then loses eigenvalue weight summing to at most eps_0, which
moves J by at most 2 eps_0 log2(2 d_rest / eps_0) < 6e-12 bits; on 240 seeded
states of rank r < d_rest, J moved by at most 8.4e-15. Where k = d_rest the
search reads the T_s blocks, as m2 always does.

`sphere_search` minimizes either for a whole stack of states in one loop with
fixed settings: one point per measurement axis of an angle grid sized to the
outcome-block kernel (_GRID x _GRID for the closed-form k = 2 blocks, _EIG_GRID x
_EIG_GRID where each point costs an eigensolve), _STARTS refined directions per
state, each in its grid point's pole-free chart (`_grid` builds a grid and its
charts once per process, on first use), a step tolerance of _TOL radians and at
most _MAX_STEPS refinement steps. Each step probes a 3 x 3 stencil per direction
and moves its centre by the Newton step of the stencil's central differences
where that is a trusted descent step, or else takes a compass step, which
doubles after a strict move. Over the 4074 seeded states of `tools/j_probe.py`
(42 seeds), the median J takes 5 objective calls after the grid pass; the median
search evaluates 400 directions on k = 2 blocks and 196 on larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (
    SUPPORT_CUTOFF,
    DensityMatrix,
    _group_entropy,
    _grouped_view,
    _xlog2x,
    _xlog2x_sum,
)

# sigma_0 = 1 and the Pauli matrices; direction n projects onto (1 +- n.sigma)/2.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])
# The 3 x 3 stencil probed by each refinement step holds the points c + step (i, j)
# for i, j in _OFFSETS, row-major in (i, j) so that a (3, 3) view of its values
# holds f(c + step (i, j)) at [i + 1, j + 1]; _CENTRE indexes (0, 0).
_OFFSETS = np.array([-1.0, 0.0, 1.0])
_CENTRE = 4
# Step divisor after a failed compass step, and the least one after a Newton step;
# 8 took the fewest batched steps of the plain compass search (2-16 tried).
_SHRINK = 8.0
# Longest Newton step taken, in units of the step length.
_TRUST = 2.0
# `sphere_search` settings, read at call time: grid points per angle (even, so the
# full grid is closed under n -> -n) for the closed-form k = 2 kernel and for the
# eigensolver kernel of larger blocks, directions refined, step (radians) below
# which a start has converged, and the cap on refinement steps.
_GRID = 24
# A grid point of a k > 2 block costs an eigensolve, as does each of the 9 points
# of a refine step per start. On the 2646 k > 2 states of a 42-seed
# `tools/j_probe.py` run, 12 points (61 directions, first step pi/11) evaluated
# 50% fewer directions than 24 (265, pi/23), and J dropped by at most 5.8e-15.
# With 12 for k = 2, the extra refine steps cost more than the grid points saved.
_EIG_GRID = 12
_STARTS = 5
_TOL = 1e-8
_MAX_STEPS = 400


class UnsupportedDimensionError(ValueError):
    """Measured subsystem is not a qubit: J takes one measured qubit, with every
    other subsystem grouped into the unmeasured side."""


@dataclass(frozen=True)
class BlochAngles:
    """Direction on the Bloch sphere; theta in [0, pi], phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * np.pi:
            raise ValueError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class MeasurementOptimum:
    """Best value found (J for `classical_correlations`, the smallest objective value
    for `sphere_search`), its direction, the distinct directions refined, whether each
    met ``_TOL`` or was retired onto a no-worse start within ``_MAX_STEPS`` steps, and
    the directions evaluated."""

    value: float
    angles: BlochAngles
    starts_used: int
    converged: bool
    evaluations: int


def _canonical_angles(theta: float, phi: float) -> BlochAngles:
    """BlochAngles of a polar angle theta in [0, pi] and any azimuth phi."""
    phi = float(np.mod(phi, 2.0 * np.pi))
    # A phi just below 0 rounds up to 2*pi itself, which is the direction phi = 0.
    return BlochAngles(float(theta), phi if phi < 2.0 * np.pi else 0.0)


def _bloch_directions(points: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors n (G, 3) of (theta, phi) rows (G, 2)."""
    theta, phi = points.T
    s = np.sin(theta)
    return np.column_stack([s * np.cos(phi), s * np.sin(phi), np.cos(theta)])


def _direction(angles: BlochAngles) -> np.ndarray:
    return _bloch_directions(np.array([[angles.theta, angles.phi]]))[0]


def _measured_last(rho: DensityMatrix, measured: int) -> np.ndarray:
    """Tensor view (d_rest, 2, d_rest, 2) with the measured qubit as the last factor."""
    n = len(rho.dims)
    if not 0 <= measured < n:
        raise ValueError(f"measured subsystem {measured} out of range for dims {rho.dims}")
    if rho.dims[measured] != 2:
        raise UnsupportedDimensionError(
            f"direct optimization needs a qubit on the measured side, got dimension "
            f"{rho.dims[measured]}; J takes one measured qubit, with every other "
            "subsystem grouped into the unmeasured side"
        )
    return _grouped_view(rho, [i for i in range(n) if i != measured], [measured])


@lru_cache(maxsize=None)
def _grid(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only `angle_grid` points, their directions n and charts (rows n, e_phi, -e_theta)
    for a _GRID of ``size``: a local unit vector times a chart is a world direction."""
    thetas = np.linspace(0.0, np.pi, size)[1 : size // 2]
    phis = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    points = np.vstack([[0.0, 0.0], np.column_stack([tt.ravel(), pp.ravel()])])
    n = _bloch_directions(points)
    theta, phi = points.T
    ct = np.cos(theta)
    e_phi = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    minus_e_theta = np.column_stack([-ct * np.cos(phi), -ct * np.sin(phi), np.sin(theta)])
    charts = np.stack([n, e_phi, minus_e_theta], axis=1)
    points.flags.writeable = n.flags.writeable = charts.flags.writeable = False
    return points, n, charts


def angle_grid(k: int = 2) -> np.ndarray:
    """Read-only array of the (theta, phi) points, one per measurement axis, that
    `sphere_search` ranks for k x k outcome blocks: (1 + (g/2 - 1) g, 2) for a grid
    of g = _GRID points per angle where k = 2 (265 points), and g = _EIG_GRID where
    k > 2 (61 points), computed once per g.

    The full grid (theta over [0, pi] inclusive, phi over [0, 2*pi) without the
    endpoint) is closed under n -> -n, which is one measurement, and its pole rows
    repeat one point. This keeps the pole once and the theta rows inside the upper
    hemisphere: every full-grid direction is +- exactly one of these points.
    """
    return _grid(_grid_size(k))[0]


def _grid_size(k: int) -> int:
    """Grid points per angle for k x k outcome blocks: a k = 2 block's closed-form
    spectrum is cheap next to a refine step, a larger block's eigvalsh is not."""
    return _GRID if k == 2 else _EIG_GRID


def sphere_search(objective, states: int, k: int) -> list[MeasurementOptimum]:
    """Minimize a stack of ``states`` objectives on the Bloch sphere, one search each.

    ``objective(rows, n)`` maps the state index of each of K rows (K,) and each
    row's unit vectors n (K, G, 3) to that state's values (K, G); every state's
    objective is equal at n and -n. ``k`` is the size of the outcome blocks the
    objective reads: it picks the grid, and so the first step pi / (g - 1).

    Every `angle_grid(k)` point (one per axis) is evaluated for every state, in one
    objective call for the whole stack, and ranked (stable sort, so ties keep
    grid order). Each state's _STARTS best points become rows, and all rows are
    refined together, each in the (theta, phi) chart of its grid point (cached
    read-only with the grid), where it starts at (pi/2, 0), far from the chart's
    poles. Each step probes a 3 x 3 stencil, a centre c and the 8 points c + s
    (i, j) at the row's step length s, and moves the row's best point to the
    stencil's lowest point if that is strictly lower.
    The stencil's central differences give a gradient g and Hessian H; if H is
    positive definite and the Newton step delta = -H^-1 g reaches at most
    _TRUST s, the next centre is c + delta and the next step min(|delta|, s/8).
    Otherwise the step is a compass step: the next centre is the row's best
    point, and the step is doubled, up to the first step, after a strict move
    to a neighbour and divided by 8 otherwise, so a flat or indefinite
    objective is searched as by a plain compass and a long valley is walked at
    a growing step. After each step a row is retired (its step set to 0) when
    it lies within max(step_i, step_j) of an earlier row j of the same state
    up to sign, |n_i . n_j| > cos(max(step_i, step_j)), and is no better than
    it, f_i >= f_j. A row has converged once its step is below _TOL; the loop stops
    after _MAX_STEPS steps. Rows of different states never meet, so each
    state's result and its counts are those of a search over that state alone.
    """
    size = _grid_size(k)
    _, n, charts = _grid(size)
    values = objective(np.arange(states), np.broadcast_to(n, (states, *n.shape)))
    picked = np.argsort(values, axis=1, kind="stable")[:, :_STARTS].ravel()
    owner = np.repeat(np.arange(states), _STARTS)
    f = values[owner, picked]
    chart = charts[picked]  # each row starts at its chart's (pi/2, 0)
    x = np.tile([np.pi / 2, 0.0], (len(picked), 1))  # chart angles of each row's best point
    c = x.copy()  # chart angles of each row's stencil centre
    d = n[picked]  # world direction of each row's best point
    first = np.pi / (size - 1)
    step = np.full(len(x), first)
    probes = np.zeros(len(x), dtype=int)  # stencil points evaluated per row
    # Per-state views of the rows. |n_i . n_j| of a state's rows i < j are its Gram matrix's
    # upper triangle, a BLAS d @ d.T (an elementwise product-sum rounds differently).
    ds = d.reshape(states, _STARTS, 3)
    fs, ss = f.reshape(states, _STARTS), step.reshape(states, _STARTS)
    earlier = np.arange(_STARTS)[:, None] < np.arange(_STARTS)
    for _ in range(_MAX_STEPS):
        live = (step >= _TOL).nonzero()[0]
        if live.size == 0:
            break
        if live.size == len(step):
            live = slice(None)  # basic indexing: views instead of gathers
        s = step[live]
        # The stencil's 3 thetas and 3 phis of each row (L, 2, 3): its point (i, j)
        # is (theta_i, phi_j), so 3 + 3 sines and cosines give its 9 directions.
        ang = c[live, :, None] + s[:, None, None] * _OFFSETS
        sin, cos = np.sin(ang), np.cos(ang)
        local = np.empty((len(s), 3, 3, 3))
        np.multiply(sin[:, 0, :, None], cos[:, 1, None, :], out=local[..., 0])
        np.multiply(sin[:, 0, :, None], sin[:, 1, None, :], out=local[..., 1])
        local[..., 2] = cos[:, 0, :, None]
        n_trial = local.reshape(len(s), 9, 3) @ chart[live]
        ft = objective(owner[live], n_trial)
        probes[live] += 9
        low = ft.argmin(axis=1)  # each row's lowest stencil point
        best = ft.min(axis=1)
        moved = best < f[live]
        movers = moved.nonzero()[0]
        if movers.size:
            at = movers if isinstance(live, slice) else live[movers]
            i, j = np.divmod(low[movers], 3)
            x[at, 0] = ang[movers, 0, i]
            x[at, 1] = ang[movers, 1, j]
            d[at] = n_trial[movers, low[movers]]
            f[at] = best[movers]
        # Central differences in units of the step: gradient (gx, gy) and Hessian
        # [[hxx, hxy], [hxy, hyy]]. Where the Hessian is positive definite, the
        # Newton step -H^-1 g is taken if it reaches at most _TRUST steps.
        v = ft.reshape(-1, 3, 3)
        gx, gy = (v[:, 2, 1] - v[:, 0, 1]) / 2.0, (v[:, 1, 2] - v[:, 1, 0]) / 2.0
        hxx = v[:, 2, 1] - 2.0 * v[:, 1, 1] + v[:, 0, 1]
        hyy = v[:, 1, 2] - 2.0 * v[:, 1, 1] + v[:, 1, 0]
        hxy = (v[:, 2, 2] - v[:, 2, 0] - v[:, 0, 2] + v[:, 0, 0]) / 4.0
        det = hxx * hyy - hxy**2
        convex = (hxx > 0.0) & (det > 0.0)
        den = np.where(convex, det, 1.0)
        delta = np.column_stack([hxy * gy - hyy * gx, hxy * gx - hxx * gy]) / den[:, None]
        reach = np.hypot(delta[:, 0], delta[:, 1])
        newton = convex & (reach <= _TRUST)
        c[live] = np.where(newton[:, None], c[live] + s[:, None] * delta, x[live])
        compass = np.where(moved & (low != _CENTRE), np.minimum(2.0 * s, first), s / _SHRINK)
        step[live] = np.where(newton, s * np.minimum(reach, 1.0 / _SHRINK), compass)
        near = np.abs(ds @ ds.transpose(0, 2, 1)) > np.cos(np.maximum(ss[:, :, None], ss[:, None]))
        ss[(near & earlier & (fs[:, :, None] <= fs[:, None])).any(axis=1)] = 0.0
    i = np.arange(0, len(f), _STARTS) + fs.argmin(axis=1)  # first of ties: best-ranked
    polar, azimuth = np.arccos(np.clip(d[i, 2], -1.0, 1.0)), np.arctan2(d[i, 1], d[i, 0])
    evaluations = len(n) + probes.reshape(states, _STARTS).sum(axis=1)
    return [
        MeasurementOptimum(float(v), _canonical_angles(t, p), _STARTS, bool(ok), int(e))
        for v, t, p, ok, e in zip(f[i], polar, azimuth, (ss < _TOL).all(axis=1), evaluations)
    ]


def _pauli_blocks(tensors: np.ndarray) -> np.ndarray:
    """T_s = Tr_meas[(1 x sigma_s) rho] (S, 4, d_rest, d_rest) of stacked
    `_measured_last` views (S, d_rest, 2, d_rest, 2)."""
    return np.einsum("skj,xajbk->xsab", _PAULI, tensors)


def _support(spectra: np.ndarray, dim: int) -> np.ndarray:
    """Mask of the eigenvalues of a dim x dim state that count as nonzero: those
    above dim times machine epsilon (at most 3.6e-15 for dim <= 16). This numerical
    rank sets J's block size; `core.SUPPORT_CUTOFF` is the entropies' zero instead."""
    return spectra > dim * np.finfo(float).eps


def _factor_blocks(tensors: np.ndarray, k: int) -> np.ndarray:
    """G_s = Psi^dag (1 x sigma_s) Psi (S, 4, k, k) of stacked `_measured_last` views,
    with Psi = V sqrt(Lambda) from the k largest eigenpairs of each rho (one
    stacked eigh) and a zero column for each of them outside the `_support`."""
    s, d_rest = tensors.shape[:2]
    vals, vecs = np.linalg.eigh(tensors.reshape(s, 2 * d_rest, 2 * d_rest))
    vals = vals[:, None, -k:]
    psi = vecs[..., -k:] * np.sqrt(np.where(_support(vals, 2 * d_rest), vals, 0.0))
    psi = psi.reshape(s, d_rest, 2, k)
    return np.einsum("xaip,sij,xajq->xspq", psi.conj(), _PAULI, psi)


def _outcome_blocks(tensors: np.ndarray, k: int) -> np.ndarray:
    """The k x k blocks J's search reads for stacked `_measured_last` views: the
    `_factor_blocks` where k < d_rest, the `_pauli_blocks` otherwise."""
    return _factor_blocks(tensors, k) if k < tensors.shape[1] else _pauli_blocks(tensors)


def _outcome_entropies(blocks: np.ndarray):
    """Entropy terms of the outcome blocks of the measurement along each direction n.

    ``blocks`` stacks four k x k Hermitian blocks (S, 4, k, k) per state whose
    outcome +-n has the block (X_0 +- n.X)/2. With the `_pauli_blocks` T_s of
    the `_measured_last` view, that is the unnormalized block B(+-n) =
    Tr_meas[(1 x P+-) rho] on the unmeasured side, P+- = (1 +- n.sigma)/2, and
    the pinching of the measured qubit along n is B(+n) (+) B(-n). With the
    `_factor_blocks` G_s of rho = Psi Psi^dag it is K(+-n) = Psi^dag (1 x P+-) Psi,
    which has the nonzero spectrum of B(+-n) up to the eigenvalues of rho outside
    its `_support` (at most 3.6e-15 each), which Psi leaves out: that moves J by
    less than 6e-12 bits in the worst case (see the module docstring). The
    returned function maps row states (K,) and directions n (K, G, 3) to each
    outcome's p log2 p and sum_i lambda_i log2 lambda_i (2, K, G), with the
    eigenvalues lambda_i clipped to [0, 1] and p = sum_i lambda_i: each row's n.X
    is one batched matmul against its own state's X_s. For k = 2 a block
    b_0 + b.sigma has eigenvalues b_0 -+ |b|, and this closed form is the one
    k = 2 entropy kernel: both terms come from the two eigenvalue arrays, with no
    stacked spectrum. Larger blocks of every row go through one stacked eigvalsh.
    """
    k = blocks.shape[-1]
    signs = np.array([1.0, -1.0]).reshape(2, 1, 1, 1)
    if k == 2:
        coef = np.einsum("xsab,rba->xsr", blocks, _PAULI).real / 2.0

        def entropies(rows, n):
            b = (coef[rows, None, 0] + signs * (n @ coef[rows, 1:])) / 2.0
            r = np.sqrt(b[..., 1] ** 2 + b[..., 2] ** 2 + b[..., 3] ** 2)
            lo, hi = (b[..., 0] - r).clip(0.0, 1.0), (b[..., 0] + r).clip(0.0, 1.0)
            xlo, xhi, plogp = _xlog2x(np.stack([lo, hi, (lo + hi).clip(0.0, 1.0)]))
            return plogp, xlo + xhi

    else:
        flat = blocks.reshape(len(blocks), 4, -1)

        def entropies(rows, n):
            nx = (n @ flat[rows, 1:]).reshape(*n.shape[:2], k, k)
            outcome = (blocks[rows, None, 0] + signs[..., None] * nx) / 2.0
            w = np.linalg.eigvalsh(outcome).clip(0.0, 1.0)
            return _xlog2x(w.sum(axis=-1).clip(0.0, 1.0)), _xlog2x_sum(w)

    return entropies


def _conditional_entropy(blocks: np.ndarray):
    """Objective sum_a p_a H(rest | a) = sum_a (p_a log2 p_a - sum_i lambda_i log2
    lambda_i) of the measurement along each direction n, from the entropy terms of
    `_outcome_entropies` (for k = 2 the one k = 2 entropy kernel, which the
    continuity and f-bound audits read through `_Pinching` too).

    Maps the row states (K,) and directions n (K, G, 3) to values (K, G), with p_a
    the trace of outcome block a.
    """
    entropies = _outcome_entropies(blocks)

    def objective(rows, n):
        plogp, spectral = entropies(rows, n)
        return (plogp - spectral).sum(axis=0)

    return objective


def _block_size(rho: DensityMatrix) -> int:
    """Outcome-block size of rho's J search: min(d_rest, max(2, r)), with r the
    number of eigenvalues of rho in its `_support`."""
    r = int(np.count_nonzero(_support(rho.spectrum, rho.dim)))
    return min(rho.dim // 2, max(2, r))


def _classical_stack(pairs, h_rest=None) -> list[tuple[np.ndarray, float, MeasurementOptimum]]:
    """`classical_correlations` of each (rho, measured) pair, with the pair's
    `_measured_last` view and the entropy H(rest) of its unmeasured side.

    States are searched on their k x k `_outcome_blocks`, k from `_block_size`,
    and one `sphere_search` runs over the states of each (unmeasured dimension,
    block size). Each state's result equals its own search: the states share the
    search's steps, not its starts. A caller that holds each pair's H(rest)
    passes them as ``h_rest``; otherwise they are formed.
    """
    pairs = list(pairs)
    groups = {}
    for i, (rho, measured) in enumerate(pairs):
        t = _measured_last(rho, measured)
        groups.setdefault((t.shape[0], _block_size(rho)), []).append((i, t))
    tensors, found = [None] * len(pairs), [None] * len(pairs)
    for (_, k), group in groups.items():
        stack = np.stack([t for _, t in group])
        objective = _conditional_entropy(_outcome_blocks(stack, k))
        for (i, _), t, best in zip(group, stack, sphere_search(objective, len(group), k)):
            tensors[i], found[i] = t, best
    if h_rest is None:
        h_rest = [_group_entropy(t, 0) for t in tensors]
    return [(t, h, replace(b, value=h - b.value))
            for t, h, b in zip(tensors, h_rest, found, strict=True)]


def classical_correlations(rho: DensityMatrix, measured: int) -> MeasurementOptimum:
    """Maximize post-measurement mutual information over projective measurements.

    Parameters
    ----------
    rho : DensityMatrix
        Bipartite state once every subsystem except ``measured`` is grouped
        into the unmeasured side.
    measured : int
        Index into ``rho.dims`` of the measured qubit.

    Returns
    -------
    MeasurementOptimum
        Best value J in bits, the direction attaining it, and search stats.
    """
    return _classical_stack([(rho, measured)])[0][2]


class _Pinching:
    """J of a full-rank state and its relative entropies to its pinchings, read from
    J's outcome-block kernel with no pinched matrix built.

    The pinching of the measured qubit F along n takes rho to rho_P = B(+n) (+) B(-n)
    and rho_F to rho_F,P = diag(p_+, p_-), p_+- = tr B(+-n). The validated spectrum
    of rho gives the full-rank check, which names ``what`` and runs before the
    search, and H(rho) ``h_full``. One `_classical_stack` search gives J's optimum
    ``best``, its direction ``n_best`` (3,) and ``h_rest``; its view gives the Pauli
    blocks T_s, whose `_outcome_entropies` give every pinched entropy, and rho_F's
    Bloch vector ``bloch`` (r_s = tr T_s), spectrum ``lam_f`` = (1 -+ |r|)/2 and
    entropy ``h_f``.
    """

    def __init__(self, rho: DensityMatrix, measured: int, what: str):
        lam = rho.spectrum
        if lam[0] <= SUPPORT_CUTOFF:
            raise ValueError(f"{what} requires a full-rank state; min eigenvalue {lam[0]:.3e}")
        [(tensor, self.h_rest, self.best)] = _classical_stack([(rho, measured)])
        self.n_best = _direction(self.best.angles)
        blocks = _pauli_blocks(tensor[None])
        self._d_rest = blocks.shape[-1]
        self._entropies = _outcome_entropies(blocks)
        self.bloch = np.trace(blocks[0, 1:], axis1=1, axis2=2).real
        r = np.linalg.norm(self.bloch)
        self.lam_f = np.array([(1.0 - r) / 2.0, (1.0 + r) / 2.0])
        self.h_full = float(-_xlog2x_sum(lam))
        self.h_f = float(-_xlog2x_sum(self.lam_f))

    def _rows(self, rows, n):
        plogp, spectral = self._entropies(rows, n)
        return -spectral.sum(axis=0) - self.h_full, -plogp.sum(axis=0) - self.h_f

    def relative_entropies(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H(rho||rho_P), H(rho_F||rho_F,P)) along each direction n (G, 3), as two (G,)
        arrays: -sum lambda log2 lambda over B(+-n)'s eigenvalues - H(rho), and
        -sum p log2 p - H(rho_F)."""
        full, marginal = self._rows(np.array([0]), n[None])
        return full[0], marginal[0]

    def m2(self) -> tuple[float, np.ndarray]:
        """m2 = min over pinchings of H(rho||rho_P), and its direction (3,), from one
        `sphere_search` on the d_rest x d_rest Pauli blocks."""
        best = sphere_search(lambda rows, n: self._rows(rows, n)[0], 1, self._d_rest)[0]
        return best.value, _direction(best.angles)

    def marginal_pinching(self, n: np.ndarray) -> tuple[float, float]:
        """Trace distance |r x n| / 2 between rho_F and its pinching along ``n`` (3,),
        and the pinching's smallest eigenvalue (1 - |r . n|) / 2."""
        distance = np.linalg.norm(np.cross(self.bloch, n)) / 2.0
        return float(distance), float((1.0 - abs(n @ self.bloch)) / 2.0)
