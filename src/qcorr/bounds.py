"""Consensus quantifiers and inequality audits for system-environment states.

The functions here quantify how much of a system's information different
environment fragments agree on, and audit the inequalities that tie those
quantifiers to bipartite discord and entanglement of formation:

* the entanglement / classical-correlation trade-off (Koashi-Winter), which
  is saturated when the global state is pure and therefore doubles as a
  cheap route to classical correlations of a large complement fragment;
* per-site consensus parameters delta_i and their mean delta, with the
  discord and entanglement-of-formation bounds they imply;
* a conservation identity connecting the two entanglements and the two
  discords of a three-qubit pure state;
* the continuity chain bounding discord by minimized relative entropies of
  pinched states;
* a spectral upper bound on relative entropy from the trace distance and
  the smallest eigenvalues of the two states;
* environment-internal consensus over pairwise classical correlations and
  the pairwise entanglement bound it implies.

Every audit is reported as a `BoundAudit` carrying lhs, rhs, slack and the
tolerance that decided `satisfied`, so reports serialize uniformly.

Every J search here runs through `measurement._classical_stack`, and each
audit reads the entropies that search holds instead of forming them again.
D, or J with E, of a marginal come from the stacked form of
`correlations.quantum_discord`, which takes I from J's view. `consensus_delta`,
`discord_bound_audit` and `eof_bound_audit` share one per-site pass that forms
each marginal once, searches all sites together and reads H(rho_S) from the
records; the conservation audit stacks its two marginals the same way.
Environment consensus passes its site entropies as each pairwise search's
H(rest), and the trade-off audit reads H(rho_S) as its complement search's
H(rest). The continuity and f-bound audits read J, H(rest), H(rho), H(rho_F),
every pinched entropy and m2 from `measurement._Pinching`, which owns J's
outcome-block kernel, builds no pinched matrix and runs one search per audit:
J's, stacked with m2's for the continuity audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DensityMatrix,
    PureState,
    _require_density,
    _require_distinct,
    _require_integer,
    _require_state,
    _subsystems,
    reduced_density_matrix,
    relative_entropy,
    trace_distance_half,
    von_neumann_entropy,
)
from .correlations import (
    Bipartition,
    CorrelationRecord,
    _discord_stack,
    eof_two_qubit,
    quantum_discord,
)
from .measurement import UnsupportedDimensionError, _classical_stack, _Pinching

H_S_CUTOFF = 1e-9
OPTIMIZATION_SLACK = 2e-3
NUMERIC_SLACK = 1e-6


class UndefinedConsensusError(ValueError):
    """Consensus parameters divide by H(rho_S); raised when that entropy is ~0."""


@dataclass(frozen=True)
class BoundAudit:
    """One audited inequality: lhs <= rhs up to the recorded tolerance."""

    label: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    tolerance: float
    extras: dict = field(default_factory=dict)


def make_audit(label: str, lhs: float, rhs: float, tolerance: float, **extras) -> BoundAudit:
    slack = rhs - lhs
    return BoundAudit(
        label=label,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        satisfied=bool(slack >= -tolerance),
        tolerance=float(tolerance),
        extras=extras,
    )


@dataclass(frozen=True)
class ConsensusReport:
    """Per-site consensus parameters of a system against its environment sites."""

    h_s: float
    j_full: float
    sites: tuple[int, ...]
    j_site: tuple[float, ...]
    j_complement: tuple[float, ...]
    delta_i: tuple[float, ...]
    delta: float


@dataclass(frozen=True)
class EnvConsensusReport:
    """Environment-internal disagreement from pairwise classical correlations.

    ``j_matrix[i][j]`` holds J of the (site_i, site_j) marginal measured on
    site j; diagonal entries are None. Sites whose marginal entropy is ~0
    carry ``delta_eps_i = None`` and ``defined[i] = False``, and their
    ``j_matrix`` row is left unpopulated (None) since no ratio uses it.
    ``eof_matrix[i][j] = eof_matrix[j][i]`` holds the EoF of that marginal for
    every pair with a defined site, and None elsewhere. ``state`` is the
    environment's read-only array (``vec`` or ``mat``), by which
    `env_eof_bound_audit` tells its own report from another environment's.
    """

    entropies: tuple[float, ...]
    j_matrix: tuple[tuple[float | None, ...], ...]
    eof_matrix: tuple[tuple[float | None, ...], ...]
    delta_eps_i: tuple[float | None, ...]
    defined: tuple[bool, ...]
    state: np.ndarray = field(repr=False, compare=False)


def _single_qubit_index(psi: PureState, s, what: str) -> int:
    s = _subsystems(psi.dims, s, what)
    if len(s) != 1 or psi.dims[s[0]] != 2:
        raise UnsupportedDimensionError(f"{what} must be a single qubit, got subsystems {s}")
    return s[0]


def _site_records(psi: PureState, s_idx: int, sites) -> tuple[CorrelationRecord, ...]:
    """Records of each (system, site) marginal with the site measured, from one J search.

    Marginals keep their subsystems in ascending order, so the site is side b
    exactly when its index exceeds the system's.
    """
    return tuple(_discord_stack(
        (Bipartition(reduced_density_matrix(psi, (s_idx, site)), (0,), (1,)), "ab"[site > s_idx])
        for site in sites
    ))


def koashi_winter_audit(psi: PureState, s, f) -> BoundAudit:
    """Audit E(rho_SF) <= H(rho_S) - J(rho_S,complement) on a pure state.

    For pure global states the trade-off is an equality, so the audit also
    reports the saturation gap |E - (H - J)| in ``extras["gap"]``. The
    complement of S and F must be a single qubit so J can be optimized
    directly. The slack H - J_found - E equals J_true - J_found >= 0 up to
    rounding, so a J search shortfall cannot fail the audit and only
    ``NUMERIC_SLACK`` is allowed.
    """
    _require_state(psi, "koashi_winter_audit", (PureState,))
    s_idx = _single_qubit_index(psi, s, "system block")
    f_idx = _single_qubit_index(psi, f, "fragment block")
    if f_idx == s_idx:
        raise ValueError(f"fragment block index {f_idx} is the system block index {s_idx}")
    rest = tuple(i for i in range(len(psi.dims)) if i not in (s_idx, f_idx))
    if len(rest) != 1 or psi.dims[rest[0]] != 2:
        raise UnsupportedDimensionError(
            f"complement {rest} must be a single qubit for direct optimization"
        )
    eof = eof_two_qubit(reduced_density_matrix(psi, (s_idx, f_idx)))
    comp = reduced_density_matrix(psi, (s_idx, rest[0]))
    # S is the unmeasured side of the complement marginal, so J's H(rest) is H(rho_S).
    _, h_s, j = _classical_stack([(comp, int(rest[0] > s_idx))])[0]
    return make_audit("kw", eof, h_s - j.value, NUMERIC_SLACK, gap=abs(h_s - j.value - eof))


def consensus_from_marginals(h_s: float, sites, j_site, j_complement) -> ConsensusReport:
    """Assemble a ConsensusReport from precomputed per-site quantities.

    J of the system against the whole environment is pinned to H(rho_S),
    which a measurement in the Schmidt basis attains for pure universes.
    """
    if h_s <= H_S_CUTOFF:
        raise UndefinedConsensusError(f"H(rho_S) = {h_s:.3e} <= {H_S_CUTOFF}; consensus "
                                      "parameters are undefined")
    sites = tuple(_require_integer(i, "site index") for i in sites)
    _require_distinct(sites, "site")
    j_site = tuple(float(v) for v in j_site)
    j_complement = tuple(float(v) for v in j_complement)
    if not sites or not len(sites) == len(j_site) == len(j_complement):
        raise ValueError(f"consensus needs one or more sites, one J each; got {sites}, "
                         f"{j_site}, {j_complement}")
    if not all(map(math.isfinite, (h_s, *j_site, *j_complement))):
        raise ValueError(f"consensus needs finite H(rho_S) and J; got {h_s}, {j_site}, {j_complement}")
    delta_i = tuple((h_s - min(js, jc)) / h_s for js, jc in zip(j_site, j_complement))
    return ConsensusReport(
        h_s=float(h_s),
        j_full=float(h_s),
        sites=sites,
        j_site=j_site,
        j_complement=j_complement,
        delta_i=delta_i,
        delta=float(np.add.reduce(np.array(delta_i)) / len(delta_i)),  # np.mean's bits
    )


def _site_pass(
    psi: PureState, s, what: str
) -> tuple[ConsensusReport, tuple[CorrelationRecord, ...]]:
    """The consensus report of a pure universe and the record of each (S, site) marginal,
    for the public function ``what``.

    Forms each system-site marginal once; H(rho_S) and every D, J and E the
    consensus functions use come from the stacked `quantum_discord` records of
    those marginals, measured on the site, with one J search over all sites.
    S is the unmeasured side of each record, so H(rho_S) is its ``entropy_a``;
    with no sites, S is pure.
    """
    _require_state(psi, what, (PureState,))
    s_idx = _single_qubit_index(psi, s, "system block")
    sites = tuple(i for i in range(len(psi.dims)) if i != s_idx)
    for i in sites:
        if psi.dims[i] != 2:
            raise UnsupportedDimensionError(f"environment site {i} has dimension {psi.dims[i]}")
    records = _site_records(psi, s_idx, sites)
    h_s = records[0].entropy_a if records else 0.0
    report = consensus_from_marginals(
        h_s, sites, [r.classical for r in records], [h_s - r.eof for r in records]
    )
    return report, records


def consensus_delta(psi: PureState, s) -> ConsensusReport:
    """Per-site consensus parameters delta_i and their mean for a pure universe.

    delta_i = [J(rho_S,env) - min{J(rho_S,site_i), J(rho_S,env-without-i)}] / H(rho_S)

    with J(rho_S,env) = H(rho_S) (pure universe), the site term optimized
    directly on the two-qubit marginal, and the complement term obtained
    from trade-off saturation: for a pure universe J(rho_S,env-without-i) =
    H(rho_S) - E(rho_S,site_i), which the site's record holds, so the large
    complement is never formed.
    """
    return _site_pass(psi, s, "consensus_delta")[0]


def discord_bound_audit(psi: PureState, s) -> BoundAudit:
    """Audit mean site discord <= delta * H(rho_S) for a pure universe."""
    report, records = _site_pass(psi, s, "discord_bound_audit")
    tol = NUMERIC_SLACK + OPTIMIZATION_SLACK
    return make_audit(
        "discord-bound",
        float(np.mean([r.discord for r in records])),
        report.delta * report.h_s,
        tol,
        delta=report.delta,
        h_s=report.h_s,
    )


def eof_bound_audit(psi: PureState, s) -> list[BoundAudit]:
    """Audit E(rho_S,site_i) <= delta_i * H(rho_S) per site, plus the averaged form.

    Returns one audit per environment site followed by one labelled
    ``eof-bound-avg`` for mean(E) <= delta * H(rho_S).
    """
    report, records = _site_pass(psi, s, "eof_bound_audit")
    tol = NUMERIC_SLACK + OPTIMIZATION_SLACK
    audits = [
        make_audit(f"eof-bound-site-{site}", r.eof, d_i * report.h_s, tol, site=site)
        for r, site, d_i in zip(records, report.sites, report.delta_i)
    ]
    audits.append(
        make_audit(
            "eof-bound-avg",
            float(np.mean([r.eof for r in records])),
            report.delta * report.h_s,
            tol,
            delta=report.delta,
        )
    )
    return audits


REMARK_J_CUTOFF = 1e-4
REMARK_D_CEILING = 2e-3


def remark_audit(rho: DensityMatrix) -> BoundAudit:
    """Audit "no quantum correlations without classical correlations".

    Computes J and D on the same measured side of a two-qubit state. The
    audited quantity is the discord conditional on vanishing classical
    correlations: lhs is D when J < 1e-4 and 0 otherwise, rhs is the 2e-3
    ceiling, so a counterexample (J ~ 0 with sizable D) shows up as a
    violated audit.
    """
    _require_density(rho, "remark audit")
    if rho.dims != (2, 2):
        raise UnsupportedDimensionError(f"remark audit needs a two-qubit state, got {rho.dims}")
    record = quantum_discord(Bipartition(rho, (0,), (1,)), measured="b")
    j, d = record.classical, record.discord
    lhs = d if j < REMARK_J_CUTOFF else 0.0
    return make_audit("remark", lhs, REMARK_D_CEILING, 0.0, j=j, d=d)


def fanchini_identity_audit(psi: PureState, s, site: int) -> BoundAudit:
    """Audit the conservation identity on a three-qubit pure state.

    E(rho_S,other) + E(rho_S,site) = D(rho_S,site-measured)
                                   + D(rho_S,other-measured)

    holds exactly for pure three-qubit states. Both two-qubit marginals have
    rank 2, where the projective J search reaches the Koashi-Winter value, so
    the computed sides agree up to rounding (worst gap 1.5e-14 over 100 Haar
    states); the audit allows ``NUMERIC_SLACK``.
    """
    _require_state(psi, "fanchini_identity_audit", (PureState,))
    if psi.dims != (2, 2, 2):
        raise UnsupportedDimensionError(f"conservation audit needs 3 qubits, got dims {psi.dims}")
    s_idx = _single_qubit_index(psi, s, "system block")
    (site,) = _subsystems(psi.dims, (site,), "site")
    if site == s_idx:
        raise ValueError(f"site {site} must be an environment qubit distinct from {s_idx}")
    other = next(i for i in range(3) if i not in (s_idx, site))

    terms = {}
    for name, record in zip(("site", "other"), _site_records(psi, s_idx, (site, other))):
        terms[f"eof_{name}"] = record.eof
        terms[f"discord_{name}"] = record.discord
    lhs_sum = terms["eof_other"] + terms["eof_site"]
    rhs_sum = terms["discord_site"] + terms["discord_other"]
    return make_audit("fanchini", abs(lhs_sum - rhs_sum), 0.0, NUMERIC_SLACK, **terms)


def continuity_chain_audit(rho: DensityMatrix, measured: int) -> BoundAudit:
    """Audit the discord continuity chain D <= m1 <= m2 on a full-rank state.

    m1 = min over pinchings P of [H(rho||rho_P) - H(rho_F||rho_F,P)] and
    m2 = min over pinchings of H(rho||rho_P). For a projective pinching of the
    measured qubit F the m1 objective equals I(rho) - I(rho_P), so its minimizer
    is J's argmax and m1 needs no search of its own: it is the smaller of the
    m1 objective at J's argmax and at m2's minimizer, which keeps m1 <= m2
    structural. D - m1 is then rounding unless m2's minimizer beats J's argmax,
    i.e. unless the J search fell short, so the audit allows only
    ``NUMERIC_SLACK``. J and m2 come from one stacked search on J's
    outcome-block kernel (`measurement._Pinching`), and m1 is read at the two
    audited directions; ``extras`` holds m2 and J.
    """
    pinching = _Pinching(rho, measured, "continuity audit", with_m2=True)
    j = pinching.best.value
    discord = pinching.h_rest + pinching.h_f - pinching.h_full - j
    m2, n_m2 = pinching.m2()
    r_full, r_marg = pinching.relative_entropies(np.vstack([pinching.n_best, n_m2]))
    m1 = float(np.min(r_full - r_marg))
    return make_audit("continuity", discord, m1, NUMERIC_SLACK, m2=m2, classical=j)


def relative_entropy_upper_bound(x: DensityMatrix, y: DensityMatrix) -> float:
    """Spectral upper bound on H(x||y) from trace distance and minimal eigenvalues.

    bound = (lmin(y) + d) * log2(1 + d/lmin(y)) - lmin(x) * log2(1 + d/lmin(x))

    with d the trace distance. Requires y full rank; the second term is the
    limit value 0 when lmin(x) = 0.
    """
    return _relative_entropy_bound_spectral(
        trace_distance_half(x, y), float(x.spectrum[0]), float(y.spectrum[0])
    )


def _relative_entropy_bound_spectral(d: float, lmin_x, lmin_y) -> float:
    """`relative_entropy_upper_bound` from the trace distance d of x and y and
    their smallest eigenvalues."""
    if lmin_y <= 0.0:
        raise ValueError(f"second argument must be full rank, min eigenvalue {lmin_y:.3e}")
    lmin_x = max(0.0, lmin_x)
    if d == 0.0:
        return 0.0
    first = (lmin_y + d) * np.log2(1.0 + d / lmin_y)
    second = 0.0 if lmin_x == 0.0 else lmin_x * np.log2(1.0 + d / lmin_x)
    return float(first - second)


def relative_entropy_bound_audit(x: DensityMatrix, y: DensityMatrix) -> BoundAudit:
    """Audit H(x||y) <= relative_entropy_upper_bound(x, y)."""
    return make_audit("jens", relative_entropy(x, y), relative_entropy_upper_bound(x, y), 1e-9)


def f_bound_audit(rho: DensityMatrix, measured: int) -> BoundAudit:
    """Audit H(rho||rho_P~) <= eps + f(rho_F, P~) at the J-optimal measurement P~.

    eps = H(rho||rho_P~) - H(rho_F||rho_F,P~) is the continuity gap at P~ and
    f is the spectral relative-entropy bound evaluated on the measured
    marginal, so the audit closes the loop between the two. Both relative
    entropies, and f's trace distance and smallest eigenvalues, come from
    `measurement._Pinching` at P~.

    P~ is J's argmax, which a flat maximum fixes only to where the search stops,
    about 1e-7 rad from the stationary point (the step of a quadratic model
    gain of 1e-16), so lhs and rhs follow the search's stopping rule while
    ``satisfied`` does not. On the 294 f-bound states of a 42-seed
    `tools/parity.py` run, against the same search run to its limit (step
    tolerance 1e-12 rad, no gain rule), lhs moved by at most 3.1e-9 and rhs by
    3.5e-9; the 3 x 3 stencil search's argmax had them up to 1.3e-8 away.
    """
    pinching = _Pinching(rho, measured, "f-function audit")
    n = pinching.n_best
    r_full, r_marg = (float(v[0]) for v in pinching.relative_entropies(n[None]))
    eps = r_full - r_marg
    distance, lmin = pinching.marginal_pinching(n)
    f_val = _relative_entropy_bound_spectral(distance, pinching.lam_f[0], lmin)
    return make_audit("f-bound", r_full, eps + f_val, NUMERIC_SLACK, eps=eps, f=f_val)


def env_consensus(env: PureState | DensityMatrix) -> EnvConsensusReport:
    """Pairwise-J disagreement quantifier delta^e_i across environment sites.

    delta^e_i = 1 - min over j != i of J(rho_site_i,site_j) / H(rho_site_i),
    with J measured on site j. Sites with H(rho_site_i) ~ 0 are flagged
    undefined instead of raising.
    """
    _require_state(env, "env_consensus")
    n = len(env.dims)
    if n < 2:
        raise ValueError(f"environment consensus needs at least 2 sites, got dims {env.dims}")
    if any(d != 2 for d in env.dims):
        raise UnsupportedDimensionError(f"all environment sites must be qubits, got {env.dims}")
    entropies = tuple(von_neumann_entropy(reduced_density_matrix(env, (i,))) for i in range(n))
    defined = tuple(h > H_S_CUTOFF for h in entropies)
    searches = []  # ((i, j), the pair's marginal, index of site j in it): J measured on j
    eof_matrix = [[None] * n for _ in range(n)]
    for i in range(n):
        for jj in range(i + 1, n):
            if not (defined[i] or defined[jj]):
                continue
            marg = reduced_density_matrix(env, (i, jj))
            eof_matrix[i][jj] = eof_matrix[jj][i] = eof_two_qubit(marg)
            if defined[i]:
                searches.append(((i, jj), marg, 1))
            if defined[jj]:
                searches.append(((jj, i), marg, 0))
    # Site i is the unmeasured side of J(i, j), so its H(rest) is entropies[i].
    found = _classical_stack(
        ((m, k) for _, m, k in searches), [entropies[i] for (i, _), _, _ in searches]
    )
    j_matrix = [[None] * n for _ in range(n)]
    for ((i, jj), _, _), (_, _, best) in zip(searches, found):
        j_matrix[i][jj] = best.value
    delta = [None] * n
    for i in range(n):
        if defined[i]:
            j_min = min(j_matrix[i][jj] for jj in range(n) if jj != i)
            delta[i] = 1.0 - j_min / entropies[i]
    return EnvConsensusReport(
        entropies=entropies,
        j_matrix=tuple(tuple(row) for row in j_matrix),
        eof_matrix=tuple(tuple(row) for row in eof_matrix),
        delta_eps_i=tuple(delta),
        defined=defined,
        state=env.vec if isinstance(env, PureState) else env.mat,
    )


def env_eof_bound_audit(
    env: PureState | DensityMatrix, i: int, j: int, report: EnvConsensusReport | None = None
) -> BoundAudit:
    """Audit E(rho_site_i,site_j) <= delta^e_i * H(rho_site_i) for one site pair.

    The bound comes from the trade-off E(i:j) <= H(i) - J(i|k) against a third
    site k, so the environment needs at least 3 sites. Pass a precomputed
    ``report`` to amortize the pairwise J searches and the pair EoFs, which it
    holds, when auditing many pairs of the same state; it must be this
    environment's `env_consensus` report.
    """
    _require_state(env, "env_eof_bound_audit")
    if isinstance(env, DensityMatrix):
        raise ValueError(
            "pairwise entanglement bound is derived for pure environments; "
            "purify or pass a PureState"
        )
    if len(env.dims) < 3:
        raise ValueError(
            f"pairwise entanglement bound needs at least 3 sites, got dims {env.dims}: "
            "it bounds E(i:j) by J of site i against a third site"
        )
    i, j = _subsystems(env.dims, (i, j), "site")
    report = report or env_consensus(env)
    if len(report.entropies) != len(env.dims):
        raise ValueError(
            f"report covers {len(report.entropies)} sites, the environment has "
            f"{len(env.dims)}: pass this environment's env_consensus report"
        )
    if not np.array_equal(report.state, env.vec):
        raise ValueError("report is of another environment: pass this environment's "
                         "env_consensus report")
    if not report.defined[i]:
        raise UndefinedConsensusError(f"site {i} has ~zero entropy; bound undefined")
    return make_audit(
        "env-bound",
        report.eof_matrix[i][j],
        report.delta_eps_i[i] * report.entropies[i],
        OPTIMIZATION_SLACK,
        site_i=i,
        site_j=j,
    )
