"""Acceptance gate: one test per release criterion, with pinned tolerances.

Each test prints a single ``[PASS] criterion N`` line once its assertions
hold; a failing criterion surfaces as an ordinary pytest failure. Criteria
cover oracle equivalence of the closed-form star-network marginals, fragment
states and sweep J, exact limit cases, every inequality audit at scale,
qualitative sweep shape, and byte-level determinism of the command-line
pipeline.
"""

import time

import numpy as np
import pytest

from qcorr import (
    DensityMatrix,
    StarConfig,
    analytic_marginals,
    build_universe_brute,
    classical_correlations,
    continuity_chain_audit,
    env_consensus,
    env_eof_bound_audit,
    f_bound_audit,
    fanchini_identity_audit,
    ghz_state,
    koashi_winter_audit,
    mutual_information,
    Bipartition,
    partial_trace,
    random_density_matrix,
    random_pure_state,
    reduced_density_matrix,
    relative_entropy,
    relative_entropy_bound_audit,
    run_sweep,
    w_state,
)
from qcorr import starsim
from qcorr.bounds import NUMERIC_SLACK
from qcorr.cli import main

from definitions import apply_local_measurement, qubit_projectors

ORACLE_TOL = 1e-12
LIMIT_TOL = 1e-9
SWEEP_SLACK = 1e-12
KW_GAP_TOL = 1e-12
REMARK_J_CUT = 1e-3
REMARK_D_CEIL = 5e-3
# Measured |D| of criterion 6's designed measured-classical states: at most 6.1e-16
# on the mixed-branch ones, and 4.7e-15 (stencil search) and 6.2e-15 (Newton search)
# on the pure-branch ones.
CQ_DISCORD_TOL = 1e-12
A_GRID = tuple(round(0.05 * k, 2) for k in range(21))


def _passed(capsys, number: int, message: str) -> None:
    with capsys.disabled():
        print(f"[PASS] criterion {number:2d}: {message}")


@pytest.fixture(scope="module")
def default_sweep():
    """The reference sweep N in {2, 10, 50}, a in {0, 0.05, ..., 1}, timed."""
    start = time.perf_counter()
    rows = run_sweep((2, 10, 50), A_GRID)
    return rows, time.perf_counter() - start


def _row(rows, n, a):
    return next(r for r in rows if r.n_env == n and abs(r.a - a) <= 1e-12)


def test_criterion_01_analytic_marginals_match_brute_force(capsys):
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 11):
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = StarConfig(n, a)
            rho_s, rho_se, rho_pair = analytic_marginals(cfg)
            psi = build_universe_brute(cfg)
            for closed, keep in (
                (rho_s, (0,)),
                (rho_se, (0, 1)),
                (rho_pair, (1, 2)),
            ):
                brute = reduced_density_matrix(psi, keep)
                worst = max(worst, float(np.max(np.abs(closed.mat - brute.mat))))
    elapsed = time.perf_counter() - start
    assert worst <= ORACLE_TOL
    assert elapsed < 10.0
    _passed(
        capsys,
        1,
        f"closed-form marginals match brute force, N in 2..10, "
        f"max deviation {worst:.2e} <= {ORACLE_TOL}, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_fully_correlated_limit(capsys, default_sweep):
    rows, _ = default_sweep
    for n in (2, 10, 50):
        row = _row(rows, n, 0.0)
        assert row.delta_defined
        assert abs(row.avg_eof) <= LIMIT_TOL
        assert abs(row.avg_discord) <= LIMIT_TOL
        assert abs(row.avg_classical - 1.0) <= LIMIT_TOL
        assert abs(row.delta) <= LIMIT_TOL
        assert abs(row.bound - row.avg_eof) <= LIMIT_TOL  # saturated with slack 0
    _passed(
        capsys,
        2,
        f"a=0 rows give E=D=0, J=1, delta=0 within {LIMIT_TOL} and saturate the bound",
    )


def test_criterion_03_uncorrelated_limit(capsys, default_sweep):
    rows, _ = default_sweep
    for n in (2, 10, 50):
        row = _row(rows, n, 1.0)
        assert not row.delta_defined
        assert row.delta is None and row.bound is None
        total = row.avg_classical + row.avg_discord  # mutual information
        assert abs(total) <= LIMIT_TOL
        assert abs(row.avg_eof) <= LIMIT_TOL
    _passed(
        capsys,
        3,
        f"a=1 rows give I=J=D=E=0 within {LIMIT_TOL} with delta flagged undefined",
    )


def test_criterion_04_sweep_bounds_hold_everywhere(capsys, default_sweep):
    rows, elapsed = default_sweep
    assert len(rows) == 3 * len(A_GRID)
    worst = -np.inf
    checked = 0
    for row in rows:
        if not row.delta_defined:
            continue
        checked += 1
        worst = max(worst, row.avg_eof - row.bound, row.avg_discord - row.bound)
        assert row.avg_eof <= row.bound + SWEEP_SLACK
        assert row.avg_discord <= row.bound + SWEEP_SLACK
    assert checked == 3 * (len(A_GRID) - 1)
    assert elapsed < 120.0
    _passed(
        capsys,
        4,
        f"discord and entanglement bounds hold at all {checked} defined grid "
        f"points (worst excess {worst:.2e} <= {SWEEP_SLACK}), sweep {elapsed:.1f}s < 120s",
    )


def test_criterion_05_tradeoff_saturation_on_random_pure_states(capsys):
    worst = max(
        koashi_winter_audit(random_pure_state((2, 2, 2), seed=5000 + trial), 0, 1).extras["gap"]
        for trial in range(200)
    )
    assert worst <= KW_GAP_TOL
    _passed(
        capsys,
        5,
        f"trade-off saturation gap <= {KW_GAP_TOL} on all 200 random pure states "
        f"(max {worst:.1e})",
    )


def _near_product(seed: int) -> DensityMatrix:
    a = random_density_matrix((2,), 2, seed)
    b = random_density_matrix((2,), 2, seed + 1)
    noise = random_density_matrix((2, 2), 4, seed + 2)
    mat = 0.9999 * np.kron(a.mat, b.mat) + 1e-4 * noise.mat
    return DensityMatrix(mat, (2, 2))


def test_criterion_06_no_discord_without_classical_correlations(capsys):
    low_j = 0
    for trial in range(500):
        if trial % 2:
            rho = _near_product(6000 + 3 * trial)
        else:
            rho = random_density_matrix((2, 2), 4, 6000 + 3 * trial)
        j = classical_correlations(rho, measured=1).value
        if j >= REMARK_J_CUT:
            continue
        low_j += 1
        discord = mutual_information(Bipartition(rho, (0,), (1,))) - j
        assert discord < REMARK_D_CEIL
    assert low_j >= 100  # the sampler must actually exercise the implication

    rng = np.random.default_rng(61)
    for _ in range(5):
        probs = rng.dirichlet((2.0, 2.0))
        blocks = [random_density_matrix((2,), 2, int(rng.integers(1 << 30))) for _ in range(2)]
        mat = probs[0] * np.kron(blocks[0].mat, np.diag([1.0, 0.0])) + probs[1] * np.kron(
            blocks[1].mat, np.diag([0.0, 1.0])
        )
        rho = DensityMatrix(mat, (2, 2))
        j = classical_correlations(rho, measured=1).value
        discord = mutual_information(Bipartition(rho, (0,), (1,))) - j
        assert abs(discord) <= CQ_DISCORD_TOL
    # Pure branches in a seeded classical basis: each outcome block has rank 1 at the
    # optimum, where the objective's curvature grows like -log of the angle to it.
    for _ in range(20):
        probs = rng.dirichlet((2.0, 2.0))
        branches = [random_density_matrix((2,), 1, int(rng.integers(1 << 30))) for _ in range(2)]
        mat = sum(p * np.kron(b.mat, np.diag(e)) for p, b, e in zip(probs, branches, np.eye(2)))
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        w = np.kron(np.eye(2), u)
        rho = DensityMatrix(w @ mat @ w.conj().T, (2, 2))
        j = classical_correlations(rho, measured=1).value
        discord = mutual_information(Bipartition(rho, (0,), (1,))) - j
        assert abs(discord) <= CQ_DISCORD_TOL
    _passed(
        capsys,
        6,
        f"500 random states: J < {REMARK_J_CUT} implied D < {REMARK_D_CEIL} "
        f"({low_j} low-J cases); designed measured-classical states have |D| <= {CQ_DISCORD_TOL}",
    )


def _full_rank_two_qubit(seed: int) -> DensityMatrix:
    rho = random_density_matrix((2, 2), 4, seed)
    return DensityMatrix(0.999999 * rho.mat + 1e-6 * np.eye(4) / 4.0, (2, 2))


def test_criterion_07_continuity_chain(capsys):
    for trial in range(100):
        rho = _full_rank_two_qubit(7000 + trial)
        audit = continuity_chain_audit(rho, measured=1)
        assert audit.satisfied and audit.tolerance == 1e-6  # discord <= m1 within 1e-6
        assert audit.rhs <= audit.extras["m2"] + 1e-9
        # The m1 objective at J's argmax from explicit pinchings of rho and rho_F:
        # it equals D, and m1 can only be lower.
        angles = classical_correlations(rho, 1).angles
        pinched = apply_local_measurement(rho, qubit_projectors(angles, 1))
        rho_f = partial_trace(rho, (1,))
        pinched_f = apply_local_measurement(rho_f, qubit_projectors(angles, 0))
        m1_at_j = relative_entropy(rho, pinched) - relative_entropy(rho_f, pinched_f)
        assert abs(m1_at_j - audit.lhs) <= 1e-9
        assert audit.rhs <= m1_at_j + 1e-9
    _passed(
        capsys,
        7,
        "continuity chain D <= m1 <= m2 held on 100 full-rank states "
        f"(slack {audit.tolerance}); D and m1 within 1e-9 of the pinching definition at J's argmax",
    )


def test_criterion_08_relative_entropy_upper_bound(capsys):
    for trial in range(200):
        d = (2, 3, 4)[trial % 3]
        x = random_density_matrix((d,), d, 8000 + 2 * trial)
        y = random_density_matrix((d,), d, 8001 + 2 * trial)
        eps = 1e-9
        x = DensityMatrix((1 - eps) * x.mat + eps * np.eye(d) / d, (d,))
        y = DensityMatrix((1 - eps) * y.mat + eps * np.eye(d) / d, (d,))
        audit = relative_entropy_bound_audit(x, y)
        assert audit.satisfied and audit.tolerance == 1e-9
    _passed(
        capsys,
        8,
        "spectral upper bound dominates relative entropy on 200 full-rank "
        "pairs in dimensions 2, 3, 4 within 1e-9",
    )


def test_criterion_09_measured_state_f_bound(capsys):
    for trial in range(100):
        audit = f_bound_audit(_full_rank_two_qubit(9000 + trial), measured=1)
        assert audit.satisfied and audit.tolerance == 1e-6
    _passed(
        capsys,
        9,
        "H(rho||rho_P) <= eps + f at the optimal measurement on 100 "
        "full-rank states within 1e-6",
    )


def test_criterion_10_pairwise_environment_bound(capsys):
    ghz = ghz_state(4)
    report = env_consensus(ghz)
    audit = env_eof_bound_audit(ghz, 0, 1, report=report)
    assert audit.lhs == 0.0
    assert abs(audit.rhs) <= LIMIT_TOL
    assert audit.satisfied

    w3 = w_state(3)
    report = env_consensus(w3)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert env_eof_bound_audit(w3, i, j, report=report).satisfied

    pairs = 0
    for trial in range(100):
        env = random_pure_state((2, 2, 2, 2), seed=10_000 + trial)
        report = env_consensus(env)
        for i in range(4):
            if not report.defined[i]:
                continue
            for j in range(4):
                if i != j:
                    pairs += 1
                    assert env_eof_bound_audit(env, i, j, report=report).satisfied
    _passed(
        capsys,
        10,
        "pairwise entanglement bound saturated on the maximally correlated "
        f"state (0 <= 0) and held on W3 plus {pairs} random-environment pairs "
        f"within {audit.tolerance}",
    )


def test_criterion_11_conservation_identity(capsys):
    worst = 0.0
    for trial in range(100):
        psi = random_pure_state((2, 2, 2), seed=11_000 + trial)
        audit = fanchini_identity_audit(psi, 0, 1)
        worst = max(worst, audit.lhs)
        assert audit.satisfied and audit.tolerance == NUMERIC_SLACK
    _passed(
        capsys,
        11,
        f"entanglement/discord conservation identity held on 100 random "
        f"pure states, worst gap {worst:.2e} <= {NUMERIC_SLACK}",
    )


def test_criterion_12_sweep_shape(capsys, default_sweep):
    rows, _ = default_sweep
    decreasing = [r.avg_eof for r in run_sweep((4, 8, 16), (0.5,))]
    assert decreasing[0] > decreasing[1] > decreasing[2]
    j_low = _row(rows, 10, 0.0).avg_classical
    j_high = _row(rows, 10, 0.9).avg_classical
    assert j_low > j_high
    _passed(
        capsys,
        12,
        f"avg entanglement decreases with environment size at a=0.5 "
        f"({decreasing[0]:.2e} > {decreasing[1]:.2e} > {decreasing[2]:.2e}); "
        f"classical correlations larger at a=0 than a=0.9 ({j_low:.3f} > {j_high:.3f})",
    )


def test_criterion_13_byte_identical_reruns(capsys, tmp_path):
    sweep_flags = ["sweep", "--n", "2,3", "--a-step", "0.25", "--seed", "7"]
    audit_flags = ["audit", "--suite", "jens", "--trials", "5", "--seed", "7"]
    outputs = []
    for run in (1, 2):
        s_out = tmp_path / f"sweep{run}.csv"
        a_out = tmp_path / f"audit{run}.csv"
        assert main(sweep_flags + ["--out", str(s_out)]) == 0
        assert main(audit_flags + ["--out", str(a_out)]) == 0
        outputs.append((s_out.read_bytes(), a_out.read_bytes()))
    assert outputs[0] == outputs[1]
    _passed(
        capsys,
        13,
        "repeated sweep and audit runs with identical flags and seed "
        "produced byte-identical output files",
    )


def _brute_fragment_state(psi, n: int, a: float, k: int) -> np.ndarray:
    """State of S and sites 1..k from the statevector, on {|0^k>, perp-part of |phi^k>}.

    Contracts the fragment legs onto the two basis vectors, so no
    2^(k+1)-dimensional marginal is formed.
    """
    phi_k = np.ones(1, dtype=complex)
    for _ in range(k):
        phi_k = np.kron(phi_k, [a, np.sqrt(1.0 - a * a)])
    zeros = np.zeros(2**k, dtype=complex)
    zeros[0] = 1.0
    perp = phi_k - phi_k[0] * zeros
    norm = np.linalg.norm(perp)
    basis = np.stack([zeros, perp / norm if norm > 0.0 else perp])
    amp = np.einsum("ej,sjr->ser", basis.conj(), psi.vec.reshape(2, 2**k, 2 ** (n - k)))
    amp = amp.reshape(4, -1)
    return amp @ amp.conj().T


def test_criterion_14_closed_form_sweep_j(capsys, default_sweep):
    start = time.perf_counter()
    rows, _ = default_sweep
    worst_j = 0.0
    for row in rows:
        _, rho_se, _ = analytic_marginals(StarConfig(row.n_env, row.a))
        worst_j = max(worst_j, abs(row.avg_classical - classical_correlations(rho_se, 1).value))
    assert worst_j <= ORACLE_TOL

    worst_state = 0.0
    fragments = 0
    for n in range(1, 13):
        for a in (0.0, 0.25, 0.37, 0.5, 0.75, 1.0):
            cfg = StarConfig(n, a)
            psi = build_universe_brute(cfg)
            for k in range(1, n + 1):
                brute = _brute_fragment_state(psi, n, a, k)
                closed = starsim._fragment_state(cfg, k).mat
                worst_state = max(worst_state, float(np.max(np.abs(closed - brute))))
                fragments += 1
    elapsed = time.perf_counter() - start
    assert worst_state <= ORACLE_TOL
    assert elapsed < 10.0
    _passed(
        capsys,
        14,
        f"closed-form sweep J matches the J search on all {len(rows)} default points "
        f"(max {worst_j:.1e}); {fragments} fragment states, N in 1..12, match brute "
        f"force (max {worst_state:.1e}) <= {ORACLE_TOL}, {elapsed:.1f}s < 10s",
    )
