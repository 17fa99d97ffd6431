"""Star-network decoherence model: one system qubit coupled to N environment qubits.

Each environment qubit interacts once with the system through the two-qubit
"c-maybe" gate, the controlled unitary

    I_2  (+)  [[a, sqrt(1-a^2)], [sqrt(1-a^2), -a]],

which interpolates between a CNOT-like gate at a = 0 (the universe ends up
in a generalized GHZ state) and a trivial control-Z-like gate at a = 1 (the
universe stays product). Starting from |+>_S |0...0> the final state is

    (|0>_S |0>^N + |1>_S |phi_a>^N) / sqrt(2),    |phi_a> = a|0> + sqrt(1-a^2)|1>,

so every marginal needed by the correlation sweep has a small closed form
valid for any N. The brute-force statevector path exists to validate those
closed forms at small N.

The sweep runs no measurement search and builds no state: rho_S,site has
rank 2 and its purification, the other N - 1 sites, spans one effective
qubit, so the Koashi-Winter equality (PRA 69, 022309 (2004)) gives J(S|site)
= H_S - E_F(S : other sites). Projective measurements reach this POVM value
on rank-2 two-qubit states (Galve, Giorgi & Zambrini, EPL 96, 40005 (2011));
it is within 1.1e-15 of the search on the default sweep. Both E_F values
come from the fragment concurrence C_k = a^(N-k) sqrt(1 - a^(2k)) of S and k
sites (`_fragment_concurrence`) through Wootters' E_F(C).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import H_S_CUTOFF, consensus_from_marginals
from .core import DensityMatrix, PureState, binary_entropy
from .correlations import _eof_from_concurrence

BRUTE_MAX_SITES = 12


@dataclass(frozen=True)
class StarConfig:
    """Star-network parameters: environment size and gate parameter a."""

    n_env: int
    a: float

    def __post_init__(self):
        if int(self.n_env) != self.n_env or self.n_env < 1:
            raise ValueError(f"n_env must be a positive integer, got {self.n_env}")
        object.__setattr__(self, "n_env", int(self.n_env))
        if not 0.0 <= self.a <= 1.0:
            raise ValueError(f"a must lie in [0, 1], got {self.a}")
        object.__setattr__(self, "a", float(self.a))


@dataclass(frozen=True)
class SweepRow:
    """All sweep quantities at one (N, a) grid point.

    ``delta`` and ``bound`` are None exactly when ``delta_defined`` is False,
    which happens when H(rho_S) vanishes (a = 1).
    """

    n_env: int
    a: float
    h_s: float
    avg_eof: float
    avg_classical: float
    avg_discord: float
    delta: float | None
    bound: float | None
    delta_defined: bool

    def __post_init__(self):
        missing = self.delta is None or self.bound is None
        if missing == self.delta_defined:
            raise ValueError(
                "delta and bound must be present exactly when delta_defined is True"
            )


def cmaybe_gate(a: float) -> np.ndarray:
    """4x4 block-diagonal unitary controlled on the first qubit."""
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    s = np.sqrt(1.0 - a * a)
    gate = np.eye(4, dtype=complex)
    gate[2:, 2:] = np.array([[a, s], [s, -a]])
    return gate


def build_universe_brute(cfg: StarConfig) -> PureState:
    """Exact (1+N)-qubit final state by statevector simulation; N <= 12."""
    if cfg.n_env > BRUTE_MAX_SITES:
        raise ValueError(f"n_env = {cfg.n_env} exceeds the brute-force cap {BRUTE_MAX_SITES}")
    n = cfg.n_env
    psi = np.zeros((2,) * (n + 1), dtype=complex)
    psi[(0,) * (n + 1)] = 1.0 / np.sqrt(2.0)
    psi[(1,) + (0,) * n] = 1.0 / np.sqrt(2.0)
    gate = cmaybe_gate(cfg.a).reshape(2, 2, 2, 2)
    for site in range(1, n + 1):
        psi = np.tensordot(gate, psi, axes=[[2, 3], [0, site]])
        psi = np.moveaxis(psi, [0, 1], [0, site])
    return PureState(psi.reshape(-1), (2,) * (n + 1))


def _phi_vector(a: float) -> np.ndarray:
    return np.array([a, np.sqrt(1.0 - a * a)], dtype=complex)


def _two_branches(first, second, overlap: float) -> np.ndarray:
    """1/2 (|f><f| + |s><s| + x (|f><s| + h.c.)) for branch vectors f, s and overlap x."""
    v = np.array([first, second], dtype=complex)
    return v.T @ (0.5 * np.array([[1.0, overlap], [overlap, 1.0]])) @ v.conj()


def _check_fragment_size(cfg: StarConfig, k: int) -> None:
    if not 0 <= k <= cfg.n_env:
        raise ValueError(f"fragment size k must lie in [0, {cfg.n_env}], got {k}")


def _fragment_state(cfg: StarConfig, k: int) -> DensityMatrix:
    """State of S and its first k sites, the sites on one effective qubit.

    In the basis {|0^k>, perp-part of |phi^k>} of the sites, with c = a^k,
    rho_eff = 1/2 (|00><00| + |1 phi'><1 phi'| + a^(N-k) (|00><1 phi'| + h.c.)),
    phi' = (c, sqrt(1 - c^2)): the 2^(k+1)-dimensional marginal on its
    support. k = 1 is rho_S,site, and k = 0 is rho_S (x) |0><0|.
    """
    n, a = cfg.n_env, cfg.a
    _check_fragment_size(cfg, k)
    one_phi = np.concatenate([[0.0, 0.0], _phi_vector(a**k)])  # |1> (x) phi'
    return DensityMatrix(_two_branches([1.0, 0.0, 0.0, 0.0], one_phi, a ** (n - k)), (2, 2))


def _fragment_concurrence(cfg: StarConfig, k: int) -> float:
    """Wootters concurrence C_k = a^(N-k) sqrt(1 - a^(2k)) of `_fragment_state(cfg, k)`.

    rho_eff is 1/2 (|u><u| + |v><v| + x (|u><v| + h.c.)) with u = |00>, v =
    |1 phi'>, x = a^(N-k) and <0|phi'> = c = a^k. Its eigenvectors are
    (u +- v)/sqrt(2) with weights (1 +- x)/2, and on them sigma_y (x) sigma_y
    restricts to [[0, -s], [-s, 0]], s = sqrt(1 - c^2). So Wootters' tau is
    diag(-s (1 + x)/2, s (1 - x)/2), and C = s (1 + x)/2 - s (1 - x)/2 = x s.
    """
    n, a = cfg.n_env, cfg.a
    _check_fragment_size(cfg, k)
    c = a**k
    return a ** (n - k) * math.sqrt(1.0 - c * c)


def analytic_marginals(
    cfg: StarConfig,
) -> tuple[DensityMatrix, DensityMatrix, DensityMatrix | None]:
    """Closed-form marginals (rho_S, rho_S-site, rho_site-pair) for any N.

    Derived from the final state (|0>|0>^N + |1>|phi>^N)/sqrt(2): overlaps
    of the environment tails contribute <0|phi>^k = a^k coherence factors,

    rho_S         = 1/2 [[1, a^N], [a^N, 1]]
    rho_S,site    = 1/2 (|00><00| + |1 phi><1 phi|
                         + a^(N-1) (|00><1 phi| + h.c.))
    rho_site,pair = 1/2 (|00><00| + |phi phi><phi phi|)

    The pair marginal has no coherence term: tracing out the system kills
    the |0><1|_S cross terms entirely. It is None when N = 1 (no pair).
    """
    rho_s = DensityMatrix(_two_branches([1.0, 0.0], [0.0, 1.0], cfg.a**cfg.n_env), (2,))
    rho_pair = None
    if cfg.n_env >= 2:
        phi_phi = np.kron(_phi_vector(cfg.a), _phi_vector(cfg.a))
        rho_pair = DensityMatrix(_two_branches([1.0, 0.0, 0.0, 0.0], phi_phi, 0.0), (2, 2))
    return rho_s, _fragment_state(cfg, 1), rho_pair


def _sweep_row(cfg: StarConfig) -> SweepRow:
    """One sweep point from closed-form scalars; it builds no state and makes no eigensolve."""
    # Spectra (1 +- a^k)/2: rho_S (k = N), the site marginal 1/2 (|0><0| + |phi><phi|)
    # (k = 1), and rho_S,site, which shares that of the other N - 1 sites.
    n = cfg.n_env
    h_s, h_site, h_rest = (binary_entropy((1.0 + cfg.a**k) / 2.0) for k in (n, 1, n - 1))
    # Koashi-Winter: the site's purification is the other N - 1 sites. E_F from
    # the fragment concurrences C_(N-1) (S and the other sites) and C_1 (rho_S,site).
    j = h_s - _eof_from_concurrence(_fragment_concurrence(cfg, n - 1))
    eof = _eof_from_concurrence(_fragment_concurrence(cfg, 1))
    # D = I - J with I = H_S + H_site - H_S,site.
    discord = h_s + h_site - h_rest - j

    if h_s > H_S_CUTOFF:
        # All sites share one marginal by permutation symmetry, so one site's
        # quantities give every delta_i at once.
        report = consensus_from_marginals(h_s, (1,), (j,), (h_s - eof,))
        delta: float | None = report.delta
        bound: float | None = report.delta * h_s
        defined = True
    else:
        delta, bound, defined = None, None, False
    return SweepRow(
        n_env=cfg.n_env,
        a=cfg.a,
        h_s=h_s,
        avg_eof=eof,
        avg_classical=j,
        avg_discord=discord,
        delta=delta,
        bound=bound,
        delta_defined=defined,
    )


def run_sweep(n_list, a_grid) -> list[SweepRow]:
    """Sweep quantities over the (N, a) grid, in grid order (N outer, a inner).

    No point runs a search or builds a state: J = H_S - E_F(rho_eff(N - 1))
    by Koashi-Winter, the projective J of the rank-2 rho_S,site (module
    docstring; 1.1e-15 from the search on the default grid), D = I - J with
    H_S and I from the closed-form spectra of S, the site and the other N - 1
    sites, and E = E_F(rho_S,site). Both E_F values are Wootters' E_F(C) of
    the closed-form concurrence C_k = a^(N-k) sqrt(1 - a^(2k)), k = N - 1 and 1.
    """
    return [_sweep_row(StarConfig(n, a)) for n in n_list for a in a_grid]
