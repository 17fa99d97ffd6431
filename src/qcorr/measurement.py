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
every pinched entropy and m2 of the continuity and f-bound audits in `bounds`.
`_classical_stack` searches any mix of states, one stack per (unmeasured
dimension, block size); `_Pinching` forms one full-rank state's blocks once and
runs one search, J's objective stacked with m2's for the continuity audit.
A state of rank r < d_rest = dim(A) has smaller blocks with the same nonzero
spectra: with rho = Psi Psi^dag, Psi = V sqrt(Lambda) (2 d_rest x r), the block
of outcome +-n has the nonzero spectrum of (G_0 +- n.G)/2, G_s = Psi^dag (1 x
sigma_s) Psi, which is r x r. J's search reads k x k blocks, k = min(d_rest, r),
with r the number of eigenvalues of rho above dim(rho) times machine epsilon
(at most 3.6e-15 for dim(rho) <= 16), so a rank-2 state takes the closed-form
2 x 2 spectra whatever d_rest is. A state of rank 1 (pure) takes no search:
every rank-1 projector on the measured qubit leaves the rest pure, so the
objective is 0 along every axis and J = H(rest). The eigenvalues
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
state, a step tolerance of _TOL radians and at most _MAX_STEPS refinement steps.
Each step is a Riemannian Newton step from the exact tangent gradient and
Hessian of the objective, which `_outcome_entropies` gives in closed form for
k = 2 and from one stacked eigh of both outcome blocks for k > 2: one derivative
call per live start per step. Over the 4326 seeded states of `tools/parity.py`
(42 seeds) outside its Bell-diagonal family, 347 of them pure, the search
evaluates a median of 273 directions on k = 2 blocks and 34 on larger ones
(mean 274 and 35). On its 1512 Bell-diagonal states, whose two largest
correlations are tied or nearly tied (relative gaps 1e-12 to 1e-2), J is within
1.6e-15 of Luo's closed form and every search converged.
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
    _require_density,
    _subsystems,
    _xlog2x,
    _xlog2x_sum,
)

# sigma_0 = 1 and the Pauli matrices; direction n projects onto (1 +- n.sigma)/2.
_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], np.diag([1, -1])])
_LN2 = np.log(2.0)
# Signs of the two outcomes +-n (and of the two eigenvalues mid +- |w| of a 2 x 2
# tangent Hessian in `_newton_step`).
_SIGNS = np.array([1.0, -1.0])
_EYE2 = np.eye(2)
# Floor of the outcome-block eigenvalues (and traces) whose logarithms enter the
# objective's derivatives, not its values: a zero eigenvalue, exact or rounded,
# gets the finite slope and curvature of one at _FLOOR.
_FLOOR = 1e-15
# `sphere_search` settings, read at call time: grid points per angle (even, so the
# full grid is closed under n -> -n) for the closed-form k = 2 kernel and for the
# eigensolver kernel of larger blocks, directions refined, the step (radians) and
# the model gain (bits, about the objective's rounding) below which a start stops,
# and the cap on refinement steps.
_GRID = 24
# A grid point of a k > 2 block costs an eigensolve. On the 12,600 k > 2 states of a
# 200-seed `tools/parity.py` run, 8 points (25 directions) against 12 (61) cut the median
# evaluations from 70 to 34 with no search unconverged, and J dropped by at most 2.9e-15
# but on one flat near-pure maximum (7.9e-14); 6 points end 4.4e-4 short on 2x3/r6/s4.
_EIG_GRID = 8
_STARTS = 5
_TOL = 1e-8
_GAIN_TOL = 1e-16
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
    for `sphere_search`), its direction, and the search's diagnostics:

    - ``starts_used``: the distinct directions refined.
    - ``converged``: each start stopped within ``_MAX_STEPS`` steps, by the step
      rule (a step below ``_TOL`` radians or a model gain below ``_GAIN_TOL``, with
      no negative tangent curvature beyond rounding) or by retiring onto the best
      start of its state.
    - ``evaluations``: the directions evaluated, the grid's points and one per
      start per step.

    ``evaluations == 0`` and ``starts_used == 0`` mean that no search ran: J of a
    pure state is H(rest), at the pole."""

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
    _require_density(rho, "classical_correlations")
    (measured,) = _subsystems(rho.dims, (measured,), "measured subsystem")
    n = len(rho.dims)
    if rho.dims[measured] != 2:
        raise UnsupportedDimensionError(
            f"direct optimization needs a qubit on the measured side, got dimension "
            f"{rho.dims[measured]}; J takes one measured qubit, with every other "
            "subsystem grouped into the unmeasured side"
        )
    return _grouped_view(rho, [i for i in range(n) if i != measured], [measured])


@lru_cache(maxsize=None)
def _grid(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `angle_grid` points and their directions n for a _GRID of ``size``."""
    thetas = np.linspace(0.0, np.pi, size)[1 : size // 2]
    phis = np.linspace(0.0, 2.0 * np.pi, size, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    points = np.vstack([[0.0, 0.0], np.column_stack([tt.ravel(), pp.ravel()])])
    n = _bloch_directions(points)
    points.flags.writeable = n.flags.writeable = False
    return points, n


def angle_grid(k: int = 2) -> np.ndarray:
    """Read-only array of the (theta, phi) points, one per measurement axis, that
    `sphere_search` ranks for k x k outcome blocks: (1 + (g/2 - 1) g, 2) for a grid
    of g = _GRID points per angle where k = 2 (265 points), and g = _EIG_GRID where
    k > 2 (25 points), computed once per g.

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
    objective is equal at n and -n. ``objective(rows, frames, True)`` takes one
    orthonormal frame per row (K, 3, 3) whose first row is a direction n, and
    returns the values at n (K,), the gradients (K, 3) along the frame's rows and
    the Hessians (K, 2, 2) along its two tangent rows, of the objective's formula
    extended off the sphere. ``k`` is the size of the outcome blocks the
    objective reads: it picks the grid, and so the grid spacing pi / (g - 1).

    Every `angle_grid(k)` point (one per axis) is evaluated for every state, in one
    objective call for the whole stack, and ranked (stable sort, so ties keep
    grid order). Each state's _STARTS best points become rows, refined together
    by Riemannian Newton steps (Absil, Mahony & Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008), one derivative call per live row per
    step. At a point that lowers the row's value (its first point does), the
    tangent gradient and the Riemannian Hessian, the tangent Hessian less
    (n . gradient) times the identity, give the step of `_newton_step`, taken
    along the geodesic, which turns the row's frame with it. At a point that does
    not, the row backtracks to a quarter of its last step, which keeps Newton
    steps from cycling. Each row keeps the lowest value it evaluated: the result
    is a value the search evaluated, at its direction. A row stops when its step
    from a lower point is below _TOL radians or its quadratic model gains less
    than _GAIN_TOL, with no negative curvature beyond rounding (where there is
    some, the row steps on); when its backtracked step is below _TOL; or when it
    retires, its next direction within its step of its state's best direction
    so far, found by another row, up to sign. A state has converged when each
    of its rows stopped within _MAX_STEPS steps. Rows of different states never
    meet and take one `_newton_step` route, so each state's result and counts are
    its own search's bit for bit (`test_stacked_search_keeps_states_independent`).
    """
    size = _grid_size(k)
    n = _grid(size)[1]
    values = objective(np.arange(states), np.broadcast_to(n, (states, *n.shape)))
    picked = np.argsort(values, axis=1, kind="stable")[:, :_STARTS].ravel()
    first = np.arange(0, len(picked), _STARTS)  # each state's first row
    owner = np.repeat(np.arange(states), _STARTS)
    f = values[owner, picked]
    d = n[picked]  # each row's best direction
    # Per live row: the frame at its last accepted point (its base), the value there,
    # the unit tangent direction of the step from it, that step's length as tried,
    # and the frame it reaches.
    base = trial = _frames(d)
    base_f = np.full(len(f), np.inf)
    heading, tried = np.zeros((len(f), 2)), np.zeros(len(f))
    cap = np.pi / (size - 1)
    steps = np.full(len(f), _MAX_STEPS)  # derivative calls per row
    live = np.arange(len(f))
    for it in range(1, _MAX_STEPS + 1):
        value, grad, h = objective(owner[live], trial, True)
        lower = value < f[live]
        at = live[lower]
        f[at], d[at] = value[lower], trial[lower, 0]
        h[:, 0, 0] -= grad[:, 0]
        h[:, 1, 1] -= grad[:, 0]
        step, length, gain, saddle = _newton_step(grad[:, 1:], h, cap)
        accepted = value < base_f  # a new base and its step, else a quarter step back
        base = np.where(accepted[:, None, None], trial, base)
        base_f = np.where(accepted, value, base_f)
        heading = np.where(accepted[:, None], step / np.maximum(length, 1e-300)[:, None], heading)
        tried = np.where(accepted, length, tried / 4.0)
        trial = _turn(base, heading, tried)
        lead = (first + f.reshape(states, _STARTS).argmin(axis=1))[owner[live]]
        retired = (np.abs((trial[:, 0] * d[lead]).sum(axis=1)) > np.cos(tried)) & (live != lead)
        stopped = np.where(accepted, ~saddle & ((length < _TOL) | (gain < _GAIN_TOL)),
                           tried < _TOL)
        going = ~(retired | stopped)
        if not going.all():
            steps[live[~going]] = it
            live, base, base_f, heading, tried, trial = (
                a[going] for a in (live, base, base_f, heading, tried, trial))
            if live.size == 0:
                break
    i = first + f.reshape(states, _STARTS).argmin(axis=1)  # first of ties: best-ranked
    polar, azimuth = np.arccos(np.clip(d[i, 2], -1.0, 1.0)), np.arctan2(d[i, 1], d[i, 0])
    evaluations = len(n) + steps.reshape(states, _STARTS).sum(axis=1)
    converged = ~np.isin(np.arange(states), owner[live])
    return [
        MeasurementOptimum(float(v), _canonical_angles(t, p), _STARTS, bool(ok), int(e))
        for v, t, p, ok, e in zip(f[i], polar, azimuth, converged, evaluations)
    ]


def _frames(n: np.ndarray) -> np.ndarray:
    """Right-handed orthonormal frames (K, 3, 3) with rows n and two tangent vectors
    at the unit vectors n (K, 3), by the branch-free formula of Duff et al. (JCGT
    6(1), 2017)."""
    x, y, z = n.T
    s = np.copysign(1.0, z)
    a = -1.0 / (s + z)
    b = x * y * a
    frames = np.empty((len(n), 3, 3))
    frames[:, 0] = n
    frames[:, 1, 0] = 1.0 + s * x * x * a
    frames[:, 1, 1] = s * b
    frames[:, 1, 2] = -s * x
    frames[:, 2, 0] = b
    frames[:, 2, 1] = s + y * y * a
    frames[:, 2, 2] = -y
    return frames


def _newton_step(g: np.ndarray, h: np.ndarray, cap: float):
    """Tangent steps (K, 2) of at most ``cap``, their lengths (K,), the decreases the
    quadratic models predict for them (K,) and whether h has negative curvature
    beyond rounding (K,), from tangent gradients g (K, 2) and Hessians h (K, 2, 2).

    Along each eigenvector v of h's symmetric part, with eigenvalue lambda, the
    step is Newton's -(g . v) / lambda where lambda exceeds rounding, tol = 1e-12
    of the larger |lambda|; steepest descent -(g . v) / tol where lambda lies
    within it; and a step of ``cap`` downhill where lambda is below -tol, which
    leaves a saddle or a maximum instead of stopping on it. The symmetric part has
    eigenvalues mid -+ |w|, w = (h_00 - h_11) / 2 + i (h_01 + h_10) / 2, and a
    tangent vector turned by -arg(w) / 2, as a complex number, has its components
    along the eigenvectors of mid + |w| and mid - |w| as real and imaginary parts.
    Every row takes this one route, so a row's step depends on that row alone.
    Both off-diagonal entries count: on near-pure states h's rounding, its
    asymmetry included, is of the order of h itself."""
    a, b, c = h[:, 0, 0], (h[:, 0, 1] + h[:, 1, 0]) / 2.0, h[:, 1, 1]
    half, mid = (a - c) / 2.0, (a + c) / 2.0
    radius = np.hypot(half, b)
    tol = 1e-12 * (np.abs(mid) + radius) + 1e-300
    lam = mid[:, None] + radius[:, None] * _SIGNS
    turn = np.exp(-0.5j * np.arctan2(b, half))[:, None]
    slope = (g.view(complex) * turn).view(float)
    coef = -slope / np.maximum(lam, tol[:, None])
    saddle = lam <= -tol[:, None]
    coef[saddle] = -np.copysign(cap, slope[saddle])
    step = (coef.view(complex) * turn.conj()).view(float)
    length = np.hypot(step[:, 0], step[:, 1])
    shrink = cap / np.maximum(length, cap)
    step = step * shrink[:, None]
    gain = -((g + (h @ step[..., None])[..., 0] / 2.0) * step).sum(axis=1)
    return step, length * shrink, gain, saddle[:, 1]


def _turn(frames: np.ndarray, u: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Frames (K, 3, 3) moved by ``length`` (K,) along the geodesics of their unit
    tangent directions ``u`` (K, 2): each turns in the plane of its direction n and
    u, so n -> n cos + u sin and u -> u cos - n sin. n is then rescaled to unit
    length: the objective's formula extended off the sphere has a radial slope of
    order log2 of the smallest outcome eigenvalue, so a drift of |n| by rounding
    would move the value the search reports (by about 1e-15 on near-pure states)."""
    cos, sin = np.cos(length), np.sin(length)
    turn = np.empty((len(u), 3, 3))
    turn[:, 0, 0] = cos
    turn[:, 0, 1:] = sin[:, None] * u
    turn[:, 1:, 0] = -turn[:, 0, 1:]
    turn[:, 1:, 1:] = _EYE2 + (cos - 1.0)[:, None, None] * u[:, :, None] * u[:, None, :]
    frames = turn @ frames
    frames[:, 0] /= np.sqrt((frames[:, 0] ** 2).sum(axis=1))[:, None]
    return frames


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
    less than 6e-12 bits in the worst case (see the module docstring).

    The returned function maps row states (K,) and directions n (K, G, 3) to each
    outcome's p log2 p and sum_i lambda_i log2 lambda_i (2, K, G), with the
    eigenvalues lambda_i clipped to [0, 1] and p = sum_i lambda_i: each row's n.X
    is one batched matmul against its own state's X_s. For k = 2 a block
    b_0 + b.sigma has eigenvalues b_0 -+ |b|, and this closed form is the one
    k = 2 entropy kernel: both terms come from the two eigenvalue arrays, with no
    stacked spectrum. Larger blocks of every row go through one stacked eigvalsh.

    Given row weights w (K,) or a scalar one, and one frame per row (K, 3, 3)
    whose first row is n, it returns instead sum_+- (w p log2 p - sum_i lambda_i
    log2 lambda_i) at n (K,), its gradient (K, 3) along the frame's rows and its
    Hessian (K, 2, 2) along the two tangent rows, with the eigenvalues and traces
    in their logarithms floored at _FLOOR. With phi(x) = x log2 x, along frame
    row a each outcome block moves by +-D_a / 2, D_a = a . X:
    - k = 2 (`_k2_derivatives`): in closed form, the b-space gradient and
      Hessian of w phi(p) - phi(lo) - phi(hi), summed over the outcomes and
      contracted with the 3 x 4 map from the frame's rows to b.
    - k > 2 (`_eigh_derivatives`): one eigh B = U diag(lambda) U^dag of both
      outcome blocks of every row. With Y_a = U^dag D_a U, the spectral term has
      the Hellmann-Feynman gradient sum_i phi'(lambda_i) (Y_a)_ii / 2 and the
      Daleckii-Krein Hessian sum_ij Gamma_ij (Y_a)_ij conj((Y_b)_ij) / 4, where
      Gamma_ij is the `_divided_difference` of phi' on lambda_i and lambda_j, or its
      limit 1 / (lambda ln 2) on equal ones: one matmul of (Y o Gamma) reshaped to
      (..., 2, k^2) against conj(Y).
    """
    k = blocks.shape[-1]
    signs = _SIGNS.reshape(2, 1, 1, 1)
    if k == 2:
        # Halved Pauli coefficients: outcome +-n has b = coef_0 +- n.coef, exactly
        # (X_0 +- n.X) / 2 in bits, since halving is exact.
        coef = np.einsum("xsab,rba->xsr", blocks, _PAULI).real / 4.0

        def entropies(rows, n, weight=None):
            if weight is not None:
                return _k2_derivatives(coef[rows], n, weight)
            b = coef[rows, None, 0] + signs * (n @ coef[rows, 1:])
            r = np.sqrt(b[..., 1] ** 2 + b[..., 2] ** 2 + b[..., 3] ** 2)
            lo, hi = (b[..., 0] - r).clip(0.0, 1.0), (b[..., 0] + r).clip(0.0, 1.0)
            return _xlog2x((lo + hi).clip(0.0, 1.0)), _xlog2x(lo) + _xlog2x(hi)

    else:
        flat = blocks.reshape(len(blocks), 4, -1)
        traces = np.trace(blocks[:, 1:], axis1=2, axis2=3).real

        def entropies(rows, n, weight=None):
            if weight is not None:
                return _eigh_derivatives(blocks[rows], traces[rows], n, weight)
            nx = (n @ flat[rows, 1:]).reshape(*n.shape[:2], k, k)
            outcome = (blocks[rows, None, 0] + signs[..., None] * nx) / 2.0
            w = np.linalg.eigvalsh(outcome).clip(0.0, 1.0)
            return _xlog2x(w.sum(axis=-1).clip(0.0, 1.0)), _xlog2x_sum(w)

    return entropies


def _divided_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(phi'(b) - phi'(a)) / (b - a) of positive a and b, phi'(x) = log2 x + 1 / ln 2,
    and its limit phi''(a) = 1 / (a ln 2) where they are equal."""
    t = b / a - 1.0
    t[t == 0.0] = 1e-300  # log1p(t) / t is then 1
    return np.log1p(t) / (t * a) / _LN2


def _k2_derivatives(coef: np.ndarray, frames: np.ndarray, weight):
    """`_outcome_entropies`' value, gradient and tangent Hessian for 2 x 2 blocks with
    halved Pauli coefficients ``coef`` (K, 4, 4), in closed form.

    Per outcome, b = (b_0, b_v) has eigenvalues lo, hi = b_0 -+ |b_v| and trace p = lo + hi;
    with A, B = phi''(lo), phi''(hi) and gamma their `_divided_difference`, the
    b-space gradient of w phi(p) - phi(lo) - phi(hi) is (2 w phi'(p) - phi'(lo) -
    phi'(hi), -2 gamma b_v) and its Hessian diag(4 w phi''(p) - A - B, -2 gamma,
    -2 gamma, -2 gamma) + u y^T + y u^T, u = (0, b_v / |b_v|), y = (A - B, (gamma -
    (A + B) / 2) u_v). b moves by +-``along`` along the frame's rows."""
    along = frames @ coef[:, 1:]
    b = coef[:, 0] + _SIGNS[:, None, None] * along[:, 0]
    r = np.sqrt((b[..., 1:] ** 2).sum(axis=-1))
    e = np.empty((3, *r.shape))  # lo, hi and p of each outcome
    e[:2] = b[..., 0] - _SIGNS[:, None, None] * r
    e[:2] = e[:2].clip(0.0, 1.0)
    e[2] = (e[0] + e[1]).clip(0.0, 1.0)
    terms = _xlog2x(e)
    value = weight * terms[2] - (terms[0] + terms[1])
    value = value[0] + value[1]
    e = np.maximum(e, _FLOOR)
    logs, curve = np.log2(e), 1.0 / (e * _LN2)
    gamma = _divided_difference(e[0], e[1])
    grad_b = b * (-2.0 * gamma)[..., None]
    grad_b[..., 0] = 2.0 * weight * logs[2] - logs[0] - logs[1] + 2.0 * (weight - 1.0) / _LN2
    grad = (along @ (grad_b[0] - grad_b[1])[..., None])[..., 0]
    u = b / (r + (r == 0.0))[..., None]
    u[..., 0] = 0.0
    y = u * (gamma - (curve[0] + curve[1]) / 2.0)[..., None]
    y[..., 0] = curve[0] - curve[1]
    hess_b = u.transpose(1, 2, 0) @ y.transpose(1, 0, 2)
    hess_b += hess_b.transpose(0, 2, 1)
    diagonal = 4.0 * weight * curve[2] - curve[0] - curve[1]
    hess_b[:, 0, 0] += diagonal[0] + diagonal[1]
    hess_b.reshape(len(hess_b), 16)[:, 5::5] -= 2.0 * (gamma[0] + gamma[1])[:, None]
    tangent = along[:, 1:]
    return value, grad, tangent @ hess_b @ tangent.transpose(0, 2, 1)


def _eigh_derivatives(x: np.ndarray, traces: np.ndarray, frames: np.ndarray, weight):
    """`_outcome_entropies`' value, gradient and tangent Hessian for the k x k blocks
    of the rows' X_s (K, 4, k, k) with traces tr X_a (K, 3): one stacked eigh of the
    2 K outcome blocks, and Y_a = U^dag D_a U for the three frame rows a from two
    matmuls, U^dag [D_1 D_2 D_3] stacked as (3 k, k) rows times U."""
    rows, k = len(x), x.shape[-1]
    along = (frames @ x[:, 1:].reshape(rows, 3, k * k)).reshape(rows, 3, k, k)
    lam, vecs = np.linalg.eigh((x[:, 0] + _SIGNS[:, None, None, None] * along[:, 0]) / 2.0)
    w = lam.clip(0.0, 1.0)
    p = w.sum(axis=-1).clip(0.0, 1.0)
    value = weight * _xlog2x(p) - _xlog2x(w).sum(axis=-1)
    value = value[0] + value[1]
    w, p = np.maximum(w, _FLOOR), np.maximum(p, _FLOOR)
    left = vecs.conj().swapaxes(-1, -2) @ along.transpose(0, 2, 1, 3).reshape(rows, k, 3 * k)
    y = (left.reshape(2, rows, k, 3, k).transpose(0, 1, 3, 2, 4).reshape(2, rows, 3 * k, k)
         @ vecs).reshape(2, rows, 3, k, k)
    t = (frames @ traces[..., None])[..., 0]
    # sum_i phi'(lambda_i) Y_ii = sum_i log2(lambda_i) Y_ii + tr Y / ln 2, with tr Y = t.
    feynman = (y.diagonal(axis1=-2, axis2=-1).real @ np.log2(w)[..., None])[..., 0]
    slope = weight * np.log2(p) + (weight - 1.0) / _LN2
    grad = _SIGNS[:, None, None] * (slope[..., None] * t - feynman)
    grad = (grad[0] + grad[1]) / 2.0
    y = y[:, :, 1:].reshape(2, rows, 2, k * k)
    z = y * _divided_difference(w[..., :, None], w[..., None, :]).reshape(2, rows, 1, k * k)
    krein = (z @ y.conj().swapaxes(-1, -2)).real
    t = t[:, 1:]
    curve = weight / (p * _LN2)
    return value, grad, ((curve[0] + curve[1])[:, None, None] * t[:, :, None] * t[:, None, :]
                         - krein[0] - krein[1]) / 4.0


def _conditional_entropy(plogp: np.ndarray, spectral: np.ndarray) -> np.ndarray:
    """J's objective sum_a p_a H(rest | a) = sum_a (p_a log2 p_a - sum_i lambda_i log2
    lambda_i) of the measurement along each direction n, from the entropy terms
    (2, K, G) of `_outcome_entropies`: values (K, G), with p_a the trace of outcome
    block a."""
    return (plogp - spectral).sum(axis=0)


def _rank(rho: DensityMatrix) -> int:
    """J's numerical rank r of rho: the number of its eigenvalues in its `_support`."""
    return int(np.count_nonzero(_support(rho.spectrum, rho.dim)))


# The objective optimum of a pure state, 0 along every axis, so J = H(rest); its
# direction is grid point 0, the pole, which a tie-ordered search reports.
_PURE_OPTIMUM = MeasurementOptimum(0.0, BlochAngles(0.0, 0.0), 0, True, 0)


def _classical_stack(pairs, h_rest=None) -> list[tuple[np.ndarray, float, MeasurementOptimum]]:
    """`classical_correlations` of each (rho, measured) pair, with the pair's
    `_measured_last` view and the entropy H(rest) of its unmeasured side.

    A state of `_rank` 1 takes `_PURE_OPTIMUM`, J = H(rest), with no search. A
    state of rank r >= 2 is searched on its k x k `_outcome_blocks`, k =
    min(d_rest, r), and one `sphere_search` runs over the states of each (unmeasured
    dimension, block size). Each state's result equals its own search bit for bit
    (`test_stacked_search_keeps_states_independent`): the states share the steps,
    not the starts. A caller that holds each pair's H(rest) passes ``h_rest``.
    """
    pairs = list(pairs)
    groups = {}
    tensors, found = [None] * len(pairs), [None] * len(pairs)
    for i, (rho, measured) in enumerate(pairs):
        t = _measured_last(rho, measured)
        r = _rank(rho)
        if r == 1:
            tensors[i], found[i] = t, _PURE_OPTIMUM
        else:
            groups.setdefault((t.shape[0], min(t.shape[0], r)), []).append((i, t))
    for (_, k), group in groups.items():
        stack = np.stack([t for _, t in group])
        entropies = _outcome_entropies(_outcome_blocks(stack, k))

        def objective(rows, n, derivatives=False):
            if derivatives:
                return entropies(rows, n, 1.0)
            return _conditional_entropy(*entropies(rows, n))

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
        Index into ``rho.dims`` of the measured qubit: an integer (a bool or a
        float raises TypeError) in range.

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
    search, and H(rho) ``h_full``. J's search reads a full-rank state's Pauli
    blocks T_s (its eigenvalues exceed `core.SUPPORT_CUTOFF` > dim(rho) epsilon),
    so they and their `_outcome_entropies` are formed once. They give every
    pinched entropy, and rho_F's Bloch vector ``bloch`` (r_s = tr T_s), spectrum
    ``lam_f`` = (1 -+ |r|)/2 and entropy ``h_f``. One `sphere_search` runs J's
    `_conditional_entropy` and, ``with_m2``, m2's H(rho||rho_P) as a second state,
    whose Newton steps read the spectral term's derivatives alone (weight 0 on
    p log2 p); rows of different states never meet, so J's optimum ``best`` (direction
    ``n_best`` (3,), and ``h_rest``) equals `classical_correlations` bit for bit,
    and m2 a search of its own (`test_continuity_and_f_bound_run_one_stacked_search`).
    """

    def __init__(self, rho: DensityMatrix, measured: int, what: str, with_m2: bool = False):
        _require_density(rho, what)
        lam = rho.spectrum
        if lam[0] <= SUPPORT_CUTOFF:
            raise ValueError(f"{what} requires a full-rank state; min eigenvalue {lam[0]:.3e}")
        tensor = _measured_last(rho, measured)
        blocks = _pauli_blocks(tensor[None])
        self._entropies = _outcome_entropies(blocks)
        self.bloch = np.trace(blocks[0, 1:], axis1=1, axis2=2).real
        r = np.linalg.norm(self.bloch)
        self.lam_f = np.array([(1.0 - r) / 2.0, (1.0 + r) / 2.0])
        self.h_full = float(-_xlog2x_sum(lam))
        self.h_f = float(-_xlog2x_sum(self.lam_f))
        self.h_rest = _group_entropy(tensor, 0)
        found = sphere_search(self._objectives, 1 + with_m2, blocks.shape[-1])
        self.best = replace(found[0], value=self.h_rest - found[0].value)
        self.n_best = _direction(self.best.angles)
        self._m2 = found[1:]

    def _objectives(self, rows, n, derivatives=False):
        """J's objective on the rows of state 0, H(rho||rho_P) on those of state 1."""
        if derivatives:
            j = rows == 0
            value, grad, hess = self._entropies(np.zeros_like(rows), n, j.astype(float))
            return np.where(j, value, value - self.h_full), grad, hess
        plogp, spectral = self._entropies(np.zeros_like(rows), n)
        pinched = -spectral.sum(axis=0) - self.h_full
        return np.where(rows[:, None] == 0, _conditional_entropy(plogp, spectral), pinched)

    def relative_entropies(self, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H(rho||rho_P), H(rho_F||rho_F,P)) along each direction n (G, 3), as two (G,)
        arrays: -sum lambda log2 lambda over B(+-n)'s eigenvalues - H(rho), and
        -sum p log2 p - H(rho_F)."""
        plogp, spectral = self._entropies(np.zeros(1, dtype=int), n[None])
        return -spectral.sum(axis=0)[0] - self.h_full, -plogp.sum(axis=0)[0] - self.h_f

    def m2(self) -> tuple[float, np.ndarray]:
        """m2 = min over pinchings of H(rho||rho_P), and its direction (3,): the second
        state of the stacked search, which runs ``with_m2`` only."""
        [best] = self._m2
        return best.value, _direction(best.angles)

    def marginal_pinching(self, n: np.ndarray) -> tuple[float, float]:
        """Trace distance |r x n| / 2 between rho_F and its pinching along ``n`` (3,),
        and the pinching's smallest eigenvalue (1 - |r . n|) / 2."""
        distance = np.linalg.norm(np.cross(self.bloch, n)) / 2.0
        return float(distance), float((1.0 - abs(n @ self.bloch)) / 2.0)
