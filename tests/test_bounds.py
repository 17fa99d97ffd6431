"""Tests for the inequality audits and consensus quantifiers."""

import dataclasses
import sys

import numpy as np
import pytest

from qcorr import (
    Bipartition,
    BlochAngles,
    DensityMatrix,
    PureState,
    StarConfig,
    UndefinedConsensusError,
    UnsupportedDimensionError,
    bell_state,
    binary_entropy,
    build_universe_brute,
    classical_correlations,
    consensus_delta,
    consensus_from_marginals,
    continuity_chain_audit,
    density_from_pure,
    discord_bound_audit,
    env_consensus,
    env_eof_bound_audit,
    eof_bound_audit,
    eof_two_qubit,
    f_bound_audit,
    fanchini_identity_audit,
    ghz_state,
    koashi_winter_audit,
    mutual_information,
    partial_trace,
    quantum_discord,
    random_density_matrix,
    random_pure_state,
    reduced_density_matrix,
    relative_entropy,
    relative_entropy_bound_audit,
    relative_entropy_upper_bound,
    remark_audit,
    trace_distance_half,
    von_neumann_entropy,
    w_state,
)
from qcorr.bounds import OPTIMIZATION_SLACK, make_audit
from qcorr.measurement import _bloch_directions, _Pinching

from definitions import apply_local_measurement, qubit_projectors


def _full_rank(dims, seed: int, eps: float = 1e-6) -> DensityMatrix:
    """Random state mixed with a sliver of the maximally mixed state."""
    rho = random_density_matrix(dims, int(np.prod(dims)), seed)
    d = rho.mat.shape[0]
    return DensityMatrix((1.0 - eps) * rho.mat + eps * np.eye(d) / d, rho.dims)


def _cq_full_rank() -> DensityMatrix:
    """Classical-quantum state, classical on the first qubit, full rank."""
    rho0 = np.diag([0.8, 0.2]).astype(complex)
    rho1 = np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex)
    mat = 0.6 * np.kron(np.diag([1.0, 0.0]), rho0) + 0.4 * np.kron(np.diag([0.0, 1.0]), rho1)
    return DensityMatrix(mat, (2, 2))


def _bell_plus_idle_universe() -> PureState:
    vec = np.kron(bell_state().vec, np.array([1.0, 0.0]))
    return PureState(vec, (2, 2, 2))


# ---------------------------------------------------------------------------
# audit record semantics
# ---------------------------------------------------------------------------


def test_make_audit_flags_follow_slack_sign():
    good = make_audit("x", 1.0, 1.5, 1e-6)
    assert good.slack == pytest.approx(0.5)
    assert good.satisfied
    borderline = make_audit("x", 1.0, 1.0 - 5e-7, 1e-6)
    assert borderline.satisfied
    bad = make_audit("x", 1.0, 0.5, 1e-6)
    assert not bad.satisfied
    assert bad.slack == pytest.approx(-0.5)


# ---------------------------------------------------------------------------
# trade-off audit (entanglement vs complement classical correlations)
# ---------------------------------------------------------------------------


def test_kw_audit_on_ghz_is_exactly_saturated():
    audit = koashi_winter_audit(ghz_state(3), (0,), (1,))
    assert audit.label == "kw"
    assert audit.satisfied
    assert audit.lhs == pytest.approx(0.0, abs=1e-12)
    assert audit.rhs == pytest.approx(0.0, abs=1e-9)
    assert audit.extras["gap"] <= 1e-9


def test_kw_audit_on_product_state_is_trivial():
    vec = np.zeros(8)
    vec[0] = 1.0
    audit = koashi_winter_audit(PureState(vec, (2, 2, 2)), (0,), (1,))
    assert audit.lhs == pytest.approx(0.0, abs=1e-12)
    assert audit.extras["gap"] <= 1e-9


def test_kw_audit_gap_stays_small_on_haar_states():
    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = random_pure_state((2, 2, 2), int(rng.integers(1 << 30)))
        audit = koashi_winter_audit(psi, (0,), (1,))
        assert audit.satisfied
        assert audit.extras["gap"] <= 2e-3


def test_kw_audit_flags_an_eof_above_the_tradeoff(monkeypatch):
    # For a pure state E = H_S - J_true, so an E raised by 1e-4 is a violation
    # far beyond rounding and must fail the audit.
    import qcorr.bounds as bounds_mod

    exact = bounds_mod.eof_two_qubit
    monkeypatch.setattr(bounds_mod, "eof_two_qubit", lambda rho: exact(rho) + 1e-4)
    audit = koashi_winter_audit(random_pure_state((2, 2, 2), 7001), (0,), (1,))
    assert audit.satisfied is False


def test_kw_audit_rejects_invalid_inputs():
    with pytest.raises(UnsupportedDimensionError, match="complement"):
        koashi_winter_audit(random_pure_state((2, 2, 2, 2), 7), (0,), (1,))
    with pytest.raises(TypeError, match="^koashi_winter_audit needs a PureState, got Dens"):
        koashi_winter_audit(random_density_matrix((2, 2, 2), 8, 9), (0,), (1,))
    with pytest.raises(ValueError, match=r"system block index 5 is out of range \[0, 3\)"):
        koashi_winter_audit(random_pure_state((2, 2, 2), 7), 5, 1)
    psi = random_pure_state((2, 2, 2), 1)
    with pytest.raises(ValueError, match="fragment block index 0 is the system block index 0"):
        koashi_winter_audit(psi, (0,), (0,))


def test_kw_audit_reads_h_s_from_the_complement_search(eigensolves):
    # The (S, F) marginal's validation and the EoF's eigh and svd, and the
    # complement marginal's validation and J's H(rest), which is H(rho_S): 5.
    psi = random_pure_state((2, 2, 2), 5)
    eigensolves.clear()
    koashi_winter_audit(psi, (0,), (1,))
    assert len(eigensolves) == 5


def test_consensus_delta_j_complement_closed_cases():
    for psi in (ghz_state(3), ghz_state(4)):
        report = consensus_delta(psi, (0,))
        assert report.j_complement == pytest.approx((1.0,) * len(report.sites), abs=1e-12)


def test_consensus_delta_j_complement_matches_direct_optimization():
    # With two environment sites the complement of one site is the other, a
    # single qubit, so the saturation route can be checked against the search.
    universes = [build_universe_brute(StarConfig(2, a)) for a in np.linspace(0.0, 0.95, 20)]
    universes += [random_pure_state((2, 2, 2), 900 + seed) for seed in range(50)]
    for psi in universes:
        report = consensus_delta(psi, (0,))
        for site, other, j_comp in zip(report.sites, report.sites[::-1], report.j_complement):
            direct = classical_correlations(reduced_density_matrix(psi, (0, other)), 1).value
            assert abs(j_comp - direct) <= 1e-12, site


# ---------------------------------------------------------------------------
# consensus parameters
# ---------------------------------------------------------------------------


def test_consensus_on_ghz_shows_perfect_agreement():
    report = consensus_delta(ghz_state(4), (0,))
    assert report.h_s == pytest.approx(1.0, abs=1e-12)
    assert report.j_full == report.h_s
    for d_i, j_s, j_c in zip(report.delta_i, report.j_site, report.j_complement):
        assert abs(d_i) <= 1e-9
        assert abs(j_s - report.j_full) <= 2e-3
        assert abs(j_c - report.j_full) <= 2e-3


def test_consensus_undefined_for_unentangled_system():
    vec = np.kron(np.array([1.0, 1.0]) / np.sqrt(2.0), np.array([1.0, 0.0, 0.0, 0.0]))
    psi = PureState(vec, (2, 2, 2))
    with pytest.raises(UndefinedConsensusError):
        consensus_delta(psi, (0,))
    for s in (9, -1):
        with pytest.raises(ValueError, match=rf"index {s} is out of range \[0, 3\)"):
            consensus_delta(psi, s)


def test_consensus_is_permutation_symmetric_on_star_states():
    psi = build_universe_brute(StarConfig(4, 0.7))
    report = consensus_delta(psi, (0,))
    assert max(report.delta_i) - min(report.delta_i) < 1e-6


def test_consensus_report_invariants_on_haar_universes():
    rng = np.random.default_rng(13)
    for _ in range(8):
        psi = random_pure_state((2, 2, 2, 2), int(rng.integers(1 << 30)))
        report = consensus_delta(psi, (0,))
        assert report.delta == pytest.approx(float(np.mean(report.delta_i)), abs=1e-12)
        for d_i in report.delta_i:
            assert -1e-9 <= d_i <= 1.0 + 1e-9


def test_delta_reaches_one_when_a_side_carries_no_information():
    # S is Bell-paired with site 1 while site 2 idles: measuring site 2
    # alone reveals nothing, so both sites are maximally contested
    report = consensus_delta(_bell_plus_idle_universe(), (0,))
    assert report.j_site[1] <= 2e-3  # idle site: J(rho_S,site2) = 0
    assert report.delta_i[1] >= 1.0 - 2e-3
    # Bell site: the complement carries nothing instead
    assert report.j_complement[0] <= 2e-3
    assert report.delta_i[0] >= 1.0 - 2e-3


def test_consensus_from_marginals_pins_j_full_and_averages():
    report = consensus_from_marginals(0.8, (1, 2), (0.8, 0.2), (0.4, 0.8))
    assert report.j_full == pytest.approx(0.8)
    assert report.delta_i[0] == pytest.approx((0.8 - 0.4) / 0.8)
    assert report.delta_i[1] == pytest.approx((0.8 - 0.2) / 0.8)
    assert report.delta == pytest.approx(float(np.mean(report.delta_i)), abs=1e-12)
    with pytest.raises(UndefinedConsensusError):
        consensus_from_marginals(0.0, (1,), (0.5,), (0.5,))


def test_consensus_mean_is_np_mean_bit_for_bit_and_bad_sites_raise():
    rng = np.random.default_rng(11)
    for k in range(1, 21):
        j_site, j_complement = rng.uniform(0.0, 0.9, (2, k))
        report = consensus_from_marginals(0.9, range(1, k + 1), j_site, j_complement)
        assert report.delta == float(np.mean(report.delta_i))
    # No sites, or sites and J of different lengths, name the check.
    for sites, j in (((), ()), ((1, 2), (0.1,))):
        with pytest.raises(ValueError, match="one or more sites, one J each"):
            consensus_from_marginals(0.5, sites, j, j)


# ---------------------------------------------------------------------------
# discord and entanglement bounds
# ---------------------------------------------------------------------------


def test_discord_bound_saturates_on_ghz():
    audit = discord_bound_audit(ghz_state(4), (0,))
    assert audit.label == "discord-bound"
    assert audit.satisfied
    assert audit.lhs == pytest.approx(0.0, abs=1e-9)
    assert audit.rhs == pytest.approx(0.0, abs=2e-3)


def test_discord_bound_holds_on_haar_universes():
    rng = np.random.default_rng(17)
    for _ in range(10):
        psi = random_pure_state((2, 2, 2, 2), int(rng.integers(1 << 30)))
        assert discord_bound_audit(psi, (0,)).satisfied


def test_eof_bound_reports_per_site_and_average():
    audits = eof_bound_audit(ghz_state(4), (0,))
    labels = [a.label for a in audits]
    assert labels == ["eof-bound-site-1", "eof-bound-site-2", "eof-bound-site-3", "eof-bound-avg"]
    for audit in audits:
        assert audit.satisfied
        assert audit.lhs == pytest.approx(0.0, abs=1e-9)


def test_eof_bound_holds_on_haar_universes():
    rng = np.random.default_rng(19)
    for _ in range(10):
        psi = random_pure_state((2, 2, 2, 2), int(rng.integers(1 << 30)))
        for audit in eof_bound_audit(psi, (0,)):
            assert audit.satisfied


def _count_calls(monkeypatch, original) -> list:
    """Wrap ``original`` under every qcorr module attribute bound to it; returns the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qcorr" and getattr(module, original.__name__, None) is original:
            monkeypatch.setattr(module, original.__name__, counted)
    return calls


def test_consensus_audits_form_each_site_marginal_once(monkeypatch):
    psi = random_pure_state((2, 2, 2, 2), 5)
    marginals = _count_calls(monkeypatch, reduced_density_matrix)
    eofs = _count_calls(monkeypatch, eof_two_qubit)
    # One marginal and one EoF per site; H(rho_S) comes from the records.
    eof_bound_audit(psi, (0,))
    assert (len(marginals), len(eofs)) == (3, 3)
    marginals.clear()
    eofs.clear()
    discord_bound_audit(psi, (0,))
    assert (len(marginals), len(eofs)) == (3, 3)


def test_consensus_delta_forms_each_site_entropy_once(eigensolves):
    # Per site: the marginal's validation, which also gives H(rho_S,site), H(rho_S),
    # which J and I share, I's H(site), and the EoF's eigh and svd: 3 * (1 + 2 + 2).
    psi = random_pure_state((2, 2, 2, 2), 5)
    for audit in (consensus_delta, discord_bound_audit):
        eigensolves.clear()
        audit(psi, (0,))
        assert len(eigensolves) == 15


def test_records_form_each_entropy_once(eigensolves):
    # A record of a 2x2 state: J's H(rest), I's H(measured), and the EoF's eigh
    # and svd (4); H(rho) is the validated state's own spectrum. The conservation
    # audit adds one validation per marginal (2 + 2 * 4). On a 0,1|2 split of a
    # full-rank state, J's d_rest = 4 search takes 6 stacked eigvalsh calls, and
    # there is no EoF (6 + 2).
    rho = _full_rank((2, 2), 11)
    psi = random_pure_state((2, 2, 2), 4)
    split = Bipartition(random_density_matrix((2, 2, 2), 8, 6), (0, 1), (2,))
    for call, count in [
        (lambda: remark_audit(rho), 4),
        (lambda: fanchini_identity_audit(psi, (0,), 1), 10),
        (lambda: quantum_discord(split), 8),
    ]:
        eigensolves.clear()
        call()
        assert len(eigensolves) == count


# ---------------------------------------------------------------------------
# no-quantum-without-classical remark
# ---------------------------------------------------------------------------


def test_remark_audit_on_product_states():
    rho = DensityMatrix(np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2.0).astype(complex), (2, 2))
    audit = remark_audit(rho)
    assert audit.satisfied
    assert audit.extras["j"] <= 1e-6
    assert abs(audit.extras["d"]) <= 1e-6


def test_remark_audit_ignores_states_with_classical_correlations():
    rho = density_from_pure(bell_state())
    audit = remark_audit(rho)
    assert audit.satisfied
    assert audit.lhs == 0.0  # J is large, so the flag never triggers
    assert audit.extras["j"] > 0.5


def test_remark_audit_satisfied_iff_slack_within_tolerance():
    rng = np.random.default_rng(23)
    for _ in range(10):
        rho = random_density_matrix((2, 2), 4, int(rng.integers(1 << 30)))
        audit = remark_audit(rho)
        assert audit.satisfied == (audit.slack >= -audit.tolerance)
        assert audit.satisfied


# ---------------------------------------------------------------------------
# conservation identity
# ---------------------------------------------------------------------------


def test_fanchini_identity_exact_on_ghz():
    audit = fanchini_identity_audit(ghz_state(3), (0,), 1)
    assert audit.satisfied
    assert audit.lhs <= 1e-9
    for term in ("eof_site", "eof_other", "discord_site", "discord_other"):
        assert audit.extras[term] == pytest.approx(0.0, abs=1e-9)


def test_fanchini_identity_on_w_state():
    audit = fanchini_identity_audit(w_state(3), (0,), 2)
    assert audit.satisfied
    assert audit.lhs <= 1e-12
    assert audit.extras["eof_site"] > 0.1  # W marginals are genuinely entangled


def test_fanchini_identity_on_haar_states():
    rng = np.random.default_rng(29)
    for _ in range(10):
        psi = random_pure_state((2, 2, 2), int(rng.integers(1 << 30)))
        assert fanchini_identity_audit(psi, (0,), 1).lhs <= 1e-12


def test_fanchini_identity_rejects_bad_inputs():
    with pytest.raises(UnsupportedDimensionError):
        fanchini_identity_audit(random_pure_state((2, 2, 2, 2), 31), (0,), 1)
    with pytest.raises(ValueError, match="site"):
        fanchini_identity_audit(random_pure_state((2, 2, 2), 37), (0,), 0)


# ---------------------------------------------------------------------------
# continuity chain
# ---------------------------------------------------------------------------


def test_continuity_chain_requires_full_rank():
    with pytest.raises(ValueError, match="full-rank"):
        continuity_chain_audit(density_from_pure(bell_state()), 1)


def test_continuity_chain_on_classical_quantum_state():
    rho = _cq_full_rank()
    audit = continuity_chain_audit(rho, 0)
    assert audit.satisfied
    assert audit.lhs <= 2e-6  # measuring the classical side leaves no discord
    assert audit.extras["m2"] <= 1e-9  # its eigenbasis pinching is a fixed point


def test_continuity_chain_on_perturbed_classical_quantum_state():
    bell = density_from_pure(bell_state()).mat
    mat = (1.0 - 1e-3) * _cq_full_rank().mat + 1e-3 * bell
    audit = continuity_chain_audit(DensityMatrix(mat, (2, 2)), 0)
    assert audit.satisfied
    assert audit.extras["m2"] <= 1e-2


def test_continuity_chain_on_random_full_rank_states():
    rng = np.random.default_rng(41)
    for _ in range(4):
        rho = _full_rank((2, 2), int(rng.integers(1 << 30)))
        audit = continuity_chain_audit(rho, 1)
        assert audit.label == "continuity"
        assert audit.satisfied
        assert audit.rhs <= audit.extras["m2"] + 1e-9


def test_continuity_chain_flags_a_j_search_shortfall(monkeypatch):
    # J reported at its argmax tilted by 0.05 rad loses ~7.5e-4 bits; m2's
    # minimizer then beats it, so D - m1 is a search shortfall, not rounding.
    import qcorr.measurement as measurement_mod

    rho = _full_rank((2, 2), 7017)
    best = classical_correlations(rho, 1)
    tilted = BlochAngles(best.angles.theta + 0.05, best.angles.phi)
    meas = qubit_projectors(tilted, 1)
    value = mutual_information(Bipartition(apply_local_measurement(rho, meas), (0,), (1,)))
    assert 1e-4 < best.value - value < OPTIMIZATION_SLACK
    search = measurement_mod.sphere_search

    def shortfall(objective, states, k):
        # J's search minimizes H(rest) - J, so J's loss raises its minimum.
        found = search(objective, states, k)
        j_row = dataclasses.replace(found[0], value=found[0].value + best.value - value,
                                    angles=tilted)
        return [j_row, *found[1:]]

    monkeypatch.setattr(measurement_mod, "sphere_search", shortfall)
    assert not continuity_chain_audit(rho, 1).satisfied


def test_continuity_and_f_bound_check_rank_before_any_search(monkeypatch):
    import qcorr.measurement as measurement_mod

    def no_search(*args):
        raise AssertionError("J search ran before the full-rank check")

    monkeypatch.setattr(measurement_mod, "sphere_search", no_search)
    rho = random_density_matrix((2, 2), 3, 19)
    for audit in (continuity_chain_audit, f_bound_audit):
        with pytest.raises(ValueError, match="full-rank"):
            audit(rho, 1)


# Full-rank states with d_rest = 2, 3 and 4 on the unmeasured side, each with
# the measured qubit last and first.
_PINCH_CASES = [
    ((2, 2), 1), ((2, 3), 0), ((2, 2, 2), 2), ((2, 2), 0), ((3, 2), 1), ((2, 2, 2), 0)
]


@pytest.mark.parametrize("dims, measured", _PINCH_CASES)
def test_continuity_and_f_bound_run_one_stacked_search(monkeypatch, dims, measured):
    # Continuity stacks J and m2 in one search and the f bound searches J alone.
    # Each equals its own search bit for bit: J `classical_correlations`, and m2
    # a search of H(rho||rho_P) alone on the same outcome blocks.
    import qcorr.measurement as measurement_mod

    rho = _full_rank(dims, 83)
    search = measurement_mod.sphere_search
    stacks = []

    def recording(objective, states, k):
        stacks.append(states)
        return search(objective, states, k)

    monkeypatch.setattr(measurement_mod, "sphere_search", recording)
    audit = continuity_chain_audit(rho, measured)
    assert stacks == [2]
    stacks.clear()
    f_bound_audit(rho, measured)
    assert stacks == [1]
    monkeypatch.undo()

    pinching = _Pinching(rho, measured, "stacked search", with_m2=True)
    m2, n_m2 = pinching.m2()
    assert (audit.extras["classical"], audit.extras["m2"]) == (pinching.best.value, m2)
    assert pinching.best == classical_correlations(rho, measured)
    t = measurement_mod._measured_last(rho, measured)
    entropies = measurement_mod._outcome_entropies(measurement_mod._pauli_blocks(t[None]))
    h_full = von_neumann_entropy(rho)
    [alone] = search(lambda rows, n: -entropies(rows, n)[1].sum(axis=0) - h_full, 1, t.shape[0])
    assert alone.value == m2
    assert np.array_equal(measurement_mod._direction(alone.angles), n_m2)


@pytest.mark.parametrize("dims, measured", _PINCH_CASES)
def test_m2_objective_matches_the_pinching_definition(dims, measured):
    rho = _full_rank(dims, 83)
    rng = np.random.default_rng(89)
    angles = [
        BlochAngles(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)) for _ in range(50)
    ]
    n = _bloch_directions(np.array([[a.theta, a.phi] for a in angles]))
    values = _Pinching(rho, measured, "m2 objective").relative_entropies(n)[0]
    for a, value in zip(angles, values):
        pinched = apply_local_measurement(rho, qubit_projectors(a, measured))
        assert abs(value - relative_entropy(rho, pinched)) <= 1e-12


@pytest.mark.parametrize("dims, measured", _PINCH_CASES)
def test_pinched_entropies_match_the_definition_at_the_audited_direction(dims, measured):
    # At J's argmax: continuity's m1 objective, and the f bound's relative
    # entropies, eps, trace distance, pinched smallest eigenvalue and f, against
    # explicit pinchings of rho and of rho_F.
    rho = _full_rank(dims, 83)
    ev = _Pinching(rho, measured, "definition check")
    r_full, r_marg = (float(v[0]) for v in ev.relative_entropies(ev.n_best[None]))
    distance, lmin = ev.marginal_pinching(ev.n_best)
    rho_f = partial_trace(rho, (measured,))
    pinched = apply_local_measurement(rho, qubit_projectors(ev.best.angles, measured))
    pinched_f = apply_local_measurement(rho_f, qubit_projectors(ev.best.angles, 0))
    rel_full, rel_marg = relative_entropy(rho, pinched), relative_entropy(rho_f, pinched_f)
    audit = f_bound_audit(rho, measured)
    for value, reference in [
        (r_full, rel_full),
        (r_marg, rel_marg),
        (r_full - r_marg, rel_full - rel_marg),
        (audit.lhs, rel_full),
        (audit.extras["eps"], rel_full - rel_marg),
        (distance, trace_distance_half(rho_f, pinched_f)),
        (lmin, pinched_f.spectrum[0]),
        (audit.extras["f"], relative_entropy_upper_bound(rho_f, pinched_f)),
    ]:
        assert abs(value - reference) <= 1e-12


@pytest.mark.parametrize("dims, measured", _PINCH_CASES)
def test_continuity_chain_pinches_only_the_audited_directions(eigensolves, dims, measured):
    # m2's search and m1 at the two audited directions read the outcome-block
    # spectra: no pinched matrix is formed, so no eigh runs.
    rho = _full_rank(dims, 83)
    eigensolves.clear()
    assert continuity_chain_audit(rho, measured).satisfied
    assert [name for name, _ in eigensolves if name == "eigh"] == []


def test_continuity_and_f_bound_form_the_spectrum_of_rho_once(eigensolves):
    # The validated spectrum of rho gives the full-rank check and H(rho); J's
    # H(rest), which D reads too, takes 1. On 2x2 the outcome blocks are 2x2, whose
    # closed-form spectra give every pinched entropy, and rho_F's Bloch vector r
    # gives its spectrum (1 -+ |r|)/2, the f bound's trace distance and the pinched
    # smallest eigenvalue: 1 each.
    rho = _full_rank((2, 2), 11)
    eigensolves.clear()
    continuity_chain_audit(rho, 1)
    assert len(eigensolves) == 1
    eigensolves.clear()
    f_bound_audit(rho, 1)
    assert len(eigensolves) == 1


def test_m2_search_never_loses_to_the_compass_search():
    # m2 of full-rank states with d_rest = 2, 3, 4 and 8, as reached under the
    # compass search that only shrank its step by 8.
    compass_m2 = {
        ((2, 2), 1): 0.21557472622260532,
        ((2, 3), 0): 0.1965455924343793,
        ((2, 2, 2), 2): 0.2634199629972733,
        ((2, 2, 2, 2), 3): 0.3216033484042087,
    }
    for (dims, measured), m2 in compass_m2.items():
        d = int(np.prod(dims))
        audit = continuity_chain_audit(random_density_matrix(dims, d, 1400 + 2 * d), measured)
        assert audit.satisfied
        assert audit.extras["m2"] <= m2 + 1e-12


# ---------------------------------------------------------------------------
# spectral relative-entropy bound
# ---------------------------------------------------------------------------


def test_relative_entropy_bound_is_zero_at_equal_states():
    rho = _full_rank((2,), 43)
    assert relative_entropy_upper_bound(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_bound_commuting_qubit_fixtures():
    x = DensityMatrix(np.diag([0.75, 0.25]).astype(complex), (2,))
    y = DensityMatrix(np.eye(2, dtype=complex) / 2.0, (2,))
    bound = relative_entropy_upper_bound(x, y)
    rel = relative_entropy(x, y)
    assert bound >= rel - 1e-12
    assert bound == pytest.approx(0.18872187554086717, abs=1e-12)
    assert rel == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-12)
    # rank-deficient x: the second bound term takes its zero limit value
    pure = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    assert relative_entropy_upper_bound(pure, y) == pytest.approx(1.0, abs=1e-12)
    assert relative_entropy(pure, y) == pytest.approx(1.0, abs=1e-12)


def test_relative_entropy_bound_rejects_singular_reference():
    x = _full_rank((2,), 47)
    pure = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), (2,))
    with pytest.raises(ValueError, match="full rank"):
        relative_entropy_upper_bound(x, pure)
    with pytest.raises(ValueError, match="dimension"):
        relative_entropy_upper_bound(x, _full_rank((3,), 53))


def test_relative_entropy_bound_audit_reads_the_validated_spectra(eigensolves):
    # H(x||y) takes y's eigh and the bound the eigvalsh of x - y for the trace
    # distance; Tr(x log2 x) and both smallest eigenvalues come from the spectra
    # that validating x and y computed.
    x, y = _full_rank((3,), 61), _full_rank((3,), 67)
    eigensolves.clear()
    relative_entropy_bound_audit(x, y)
    assert sorted(eigensolves) == [("eigh", 1), ("eigvalsh", 1)]


def test_relative_entropy_bound_dominates_on_random_pairs():
    rng = np.random.default_rng(59)
    for k in range(30):
        d = (2, 3, 4)[k % 3]
        x = _full_rank((d,), int(rng.integers(1 << 30)))
        y = _full_rank((d,), int(rng.integers(1 << 30)))
        audit = relative_entropy_bound_audit(x, y)
        assert audit.label == "jens"
        assert audit.satisfied
        assert relative_entropy(x, y) <= relative_entropy_upper_bound(x, y) + 1e-9


# ---------------------------------------------------------------------------
# f-function audit at the optimal measurement
# ---------------------------------------------------------------------------


def test_f_bound_trivial_on_maximally_mixed_state():
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0, (2, 2))
    audit = f_bound_audit(rho, 1)
    assert audit.satisfied
    assert audit.lhs == pytest.approx(0.0, abs=1e-12)
    assert audit.rhs == pytest.approx(0.0, abs=1e-10)


def test_f_bound_on_classical_quantum_state():
    mat = _cq_full_rank().mat.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
    audit = f_bound_audit(DensityMatrix(mat, (2, 2)), 1)  # classical side last
    assert audit.satisfied


def test_f_bound_requires_full_rank():
    with pytest.raises(ValueError, match="full-rank"):
        f_bound_audit(density_from_pure(bell_state()), 1)


def test_f_bound_on_random_full_rank_states():
    rng = np.random.default_rng(61)
    for _ in range(8):
        rho = _full_rank((2, 2), int(rng.integers(1 << 30)))
        audit = f_bound_audit(rho, 1)
        assert audit.label == "f-bound"
        assert audit.satisfied


# ---------------------------------------------------------------------------
# environment-internal consensus and the pairwise entanglement bound
# ---------------------------------------------------------------------------


def test_env_consensus_on_ghz_environment():
    report = env_consensus(ghz_state(4))
    assert all(report.defined)
    for h, d_eps in zip(report.entropies, report.delta_eps_i):
        assert h == pytest.approx(1.0, abs=1e-12)
        assert abs(d_eps) <= 1e-9


def test_env_consensus_flags_product_environment_undefined():
    vec = np.zeros(8)
    vec[0] = 1.0
    report = env_consensus(PureState(vec, (2, 2, 2)))
    assert not any(report.defined)
    assert all(d is None for d in report.delta_eps_i)
    assert all(e is None for row in report.eof_matrix for e in row)


def test_env_consensus_needs_two_sites():
    with pytest.raises(ValueError, match="at least 2 sites"):
        env_consensus(random_density_matrix((2,), 2, 3))


def test_env_consensus_symmetric_on_w_state():
    report = env_consensus(w_state(3))
    values = [d for d in report.delta_eps_i if d is not None]
    assert len(values) == 3
    assert max(values) - min(values) < 1e-6


def test_env_consensus_definition_recoverable_from_fields():
    report = env_consensus(random_pure_state((2, 2, 2), 67))
    for i, (h, d_eps) in enumerate(zip(report.entropies, report.delta_eps_i)):
        j_min = min(v for j, v in enumerate(report.j_matrix[i]) if j != i)
        assert d_eps == pytest.approx(1.0 - j_min / h, abs=1e-12)


def test_env_consensus_eof_matrix_holds_each_pair_eof():
    psi = random_pure_state((2, 2, 2, 2), 79)
    report = env_consensus(psi)
    assert all(report.defined)
    for i in range(4):
        assert report.eof_matrix[i][i] is None
        for j in range(i + 1, 4):
            eof = eof_two_qubit(reduced_density_matrix(psi, (i, j)))
            assert report.eof_matrix[i][j] == report.eof_matrix[j][i] == eof


def test_env_consensus_forms_each_entropy_once(eigensolves):
    # Each site's validation gives its entropy (4), which is also the H(rest) of
    # its 3 pairwise J searches; each pair marginal takes its validation and the
    # EoF's eigh and svd (6 * 3): 22.
    psi = random_pure_state((2, 2, 2, 2), 5)
    eigensolves.clear()
    env_consensus(psi)
    assert len(eigensolves) == 22


def test_env_consensus_of_a_mixed_environment_matches_the_pure_route():
    for seed in range(10):
        for n in (3, 4):
            psi = random_pure_state((2,) * n, 300 + 10 * n + seed)
            pure, mixed = env_consensus(psi), env_consensus(density_from_pure(psi))
            assert mixed.defined == pure.defined
            assert np.allclose(mixed.entropies, pure.entropies, rtol=0.0, atol=1e-12)
            assert np.allclose(mixed.delta_eps_i, pure.delta_eps_i, rtol=0.0, atol=1e-12)
            for name in ("j_matrix", "eof_matrix"):
                a, b = getattr(pure, name), getattr(mixed, name)
                for i in range(n):
                    assert (a[i][i], b[i][i]) == (None, None)
                    off = [j for j in range(n) if j != i]
                    assert np.allclose([a[i][j] for j in off], [b[i][j] for j in off],
                                       rtol=0.0, atol=1e-12)


def test_env_consensus_on_noisy_ghz():
    # GHZ3 mixed with 10% white noise: every site is maximally mixed and every
    # pair marginal is the same, so each site has the same delta.
    mat = 0.9 * density_from_pure(ghz_state(3)).mat + 0.1 * np.eye(8) / 8.0
    report = env_consensus(DensityMatrix(mat, (2, 2, 2)))
    assert all(report.defined)
    for i, (h, d_eps) in enumerate(zip(report.entropies, report.delta_eps_i)):
        assert h == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= d_eps <= 1.0
        assert d_eps == pytest.approx(0.28640, abs=1e-5)
        j_min = min(v for j, v in enumerate(report.j_matrix[i]) if j != i)
        assert d_eps == 1.0 - j_min / h


def test_consensus_audits_reject_qutrits():
    with pytest.raises(UnsupportedDimensionError, match="system block must be a single qubit"):
        consensus_delta(random_pure_state((3, 2, 2), 1), (0,))
    with pytest.raises(UnsupportedDimensionError, match="environment site 1 has dimension 3"):
        consensus_delta(random_pure_state((2, 3, 2), 1), (0,))
    with pytest.raises(UnsupportedDimensionError, match="remark audit needs a two-qubit"):
        remark_audit(random_density_matrix((2, 3), 6, 1))
    with pytest.raises(UnsupportedDimensionError, match="environment sites must be qubits"):
        env_consensus(random_pure_state((2, 3, 2), 1))


def test_env_eof_bound_rejects_equal_and_undefined_sites():
    with pytest.raises(ValueError, match=r"^site index 1 is repeated in \(1, 1\)$"):
        env_eof_bound_audit(random_pure_state((2, 2, 2), 1), 1, 1)
    vec = np.zeros(8)
    vec[0] = 1.0
    with pytest.raises(UndefinedConsensusError, match="site 0 has ~zero entropy"):
        env_eof_bound_audit(PureState(vec, (2, 2, 2)), 0, 1)


def test_env_eof_bound_needs_three_sites():
    # E(i:j) <= H(i) - J(i|k) needs a third site k: on two sites it would read
    # E = 1 <= 0 for a Bell pair, so the audit refuses the input.
    envs = [bell_state()] + [random_pure_state((2, 2), 600 + seed) for seed in range(5)]
    for env in envs:
        with pytest.raises(ValueError, match="pairwise entanglement bound needs at least 3 sites"):
            env_eof_bound_audit(env, 0, 1)
    assert len(env_consensus(bell_state()).entropies) == 2


def test_env_eof_bound_saturates_on_ghz():
    audit = env_eof_bound_audit(ghz_state(4), 0, 1)
    assert audit.label == "env-bound"
    assert audit.satisfied
    assert audit.lhs == pytest.approx(0.0, abs=1e-12)
    assert audit.rhs == pytest.approx(0.0, abs=1e-9)


def test_env_eof_bound_on_w_state_pairs():
    report = env_consensus(w_state(3))
    pair = reduced_density_matrix(w_state(3), (0, 1))
    audit = env_eof_bound_audit(w_state(3), 0, 1, report=report)
    assert audit.satisfied
    assert audit.lhs == pytest.approx(eof_two_qubit(pair), abs=1e-12)


def test_env_eof_bound_rejects_mixed_environments():
    with pytest.raises(ValueError, match="pure"):
        env_eof_bound_audit(random_density_matrix((2, 2, 2), 8, 71), 0, 1)
    env = random_pure_state((2, 2, 2, 2), 79)
    for j in (-1, 7):
        with pytest.raises(ValueError, match=rf"^site index {j} is out of range \[0, 4\)$"):
            env_eof_bound_audit(env, 0, j, env_consensus(env))


def test_env_eof_bound_rejects_another_environments_report():
    # Unchecked, a 3-site report read for a 4-site environment raises an
    # IndexError at sites (3, 0) and audits another state's numbers at (0, 1).
    env = random_pure_state((2, 2, 2, 2), 83)
    report = env_consensus(random_pure_state((2, 2, 2), 83))
    for i, j in ((3, 0), (0, 1)):
        with pytest.raises(ValueError, match="report covers 3 sites, the environment has 4"):
            env_eof_bound_audit(env, i, j, report=report)


def test_env_eof_bound_rejects_a_report_of_another_environment_of_its_size(eigensolves):
    # Unchecked, the seed-6 report read for the seed-5 environment audits sites
    # (0, 1) at lhs 0.1582 and rhs 0.6331 instead of 0.0801 and 0.6697.
    env = random_pure_state((2, 2, 2, 2), 5)
    other = env_consensus(random_pure_state((2, 2, 2, 2), 6))
    with pytest.raises(ValueError, match="report is of another environment"):
        env_eof_bound_audit(env, 0, 1, report=other)
    own = env_consensus(env)
    eigensolves.clear()
    audit = env_eof_bound_audit(env, 0, 1, report=own)
    assert eigensolves == []  # the check reads the state's array, not its spectrum
    assert (round(audit.lhs, 4), round(audit.rhs, 4)) == (0.0801, 0.6697)


def test_env_eof_bound_holds_on_haar_environments():
    rng = np.random.default_rng(73)
    for _ in range(4):
        psi = random_pure_state((2, 2, 2, 2), int(rng.integers(1 << 30)))
        report = env_consensus(psi)
        for i in range(4):
            for j in range(4):
                if i != j and report.defined[i]:
                    assert env_eof_bound_audit(psi, i, j, report=report).satisfied
