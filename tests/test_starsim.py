"""Tests for the star-network dynamics and the sweep pipeline."""

from decimal import Decimal, localcontext

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    DensityMatrix,
    StarConfig,
    SweepRow,
    analytic_marginals,
    binary_entropy,
    build_universe_brute,
    cmaybe_gate,
    concurrence_two_qubit,
    measurement,
    reduced_density_matrix,
    run_sweep,
    starsim,
)


# ---------------------------------------------------------------------------
# configuration and gate
# ---------------------------------------------------------------------------


def test_star_config_validates_ranges():
    with pytest.raises(ValueError):
        StarConfig(0, 0.5)
    with pytest.raises(ValueError):
        StarConfig(2, -0.1)
    with pytest.raises(ValueError):
        StarConfig(2, 1.1)


def test_star_config_takes_integer_sizes_only():
    # A bool or a float n_env raises rather than be cast: StarConfig(True, 0.5) was
    # n_env = 1, and 3.0 or 2.5 was truncated. Python and numpy ints pass as ints.
    for n_env in (True, 3.0, 2.5, "3", np.float64(3.0)):
        with pytest.raises(TypeError, match="n_env must be an integer"):
            StarConfig(n_env, 0.5)
    for n_env in (3, np.int64(3), np.int32(3)):
        cfg = StarConfig(n_env, 0.5)
        assert cfg == StarConfig(3, 0.5) and type(cfg.n_env) is int


def test_cmaybe_gate_is_unitary_for_all_couplings():
    for a in np.linspace(0.0, 1.0, 11):
        u = cmaybe_gate(a)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12


def test_cmaybe_gate_limits():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert_allclose(cmaybe_gate(0.0), cnot, atol=1e-15)
    assert_allclose(cmaybe_gate(1.0), np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), atol=1e-15)


def test_cmaybe_gate_rejects_out_of_range_coupling():
    with pytest.raises(ValueError):
        cmaybe_gate(1.5)


# ---------------------------------------------------------------------------
# brute-force universe
# ---------------------------------------------------------------------------


def test_universe_at_full_coupling_is_uncorrelated():
    psi = build_universe_brute(StarConfig(3, 1.0))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    expected = plus
    for _ in range(3):
        expected = np.kron(expected, np.array([1.0, 0.0]))
    assert_allclose(psi.vec, expected, atol=1e-12)


def test_universe_at_zero_coupling_is_ghz():
    psi = build_universe_brute(StarConfig(3, 0.0))
    expected = np.zeros(16)
    expected[0] = expected[15] = 1.0 / np.sqrt(2.0)
    assert_allclose(psi.vec, expected, atol=1e-12)


def test_universe_norm_and_size_limit():
    rng = np.random.default_rng(3)
    for _ in range(5):
        cfg = StarConfig(int(rng.integers(1, 7)), float(rng.uniform()))
        psi = build_universe_brute(cfg)
        assert abs(np.linalg.norm(psi.vec) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="brute"):
        build_universe_brute(StarConfig(13, 0.5))


def test_universe_closed_form_for_single_site():
    a = 0.37
    psi = build_universe_brute(StarConfig(1, a))
    phi = np.array([a, np.sqrt(1.0 - a * a)])
    expected = (np.kron([1.0, 0.0], [1.0, 0.0]) + np.kron([0.0, 1.0], phi)) / np.sqrt(2.0)
    assert_allclose(psi.vec, expected, atol=1e-12)


def test_site_marginals_are_permutation_symmetric():
    psi = build_universe_brute(StarConfig(4, 0.6))
    first = reduced_density_matrix(psi, (0, 1)).mat
    for site in (2, 3, 4):
        other = reduced_density_matrix(psi, (0, site)).mat
        assert np.max(np.abs(other - first)) <= 1e-12


# ---------------------------------------------------------------------------
# analytic marginals
# ---------------------------------------------------------------------------


def test_analytic_marginals_match_brute_force():
    for n in range(2, 9):
        for a in (0.25, 0.5, 0.75):
            cfg = StarConfig(n, a)
            rho_s, rho_se, rho_pair = analytic_marginals(cfg)
            psi = build_universe_brute(cfg)
            assert np.max(np.abs(rho_s.mat - reduced_density_matrix(psi, (0,)).mat)) <= 1e-12
            assert np.max(np.abs(rho_se.mat - reduced_density_matrix(psi, (0, 1)).mat)) <= 1e-12
            assert np.max(np.abs(rho_pair.mat - reduced_density_matrix(psi, (1, 2)).mat)) <= 1e-12


def test_analytic_marginals_ghz_and_product_limits():
    rho_s, rho_se, _ = analytic_marginals(StarConfig(3, 0.0))
    assert_allclose(rho_se.mat, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex), atol=1e-15)
    rho_s, rho_se, _ = analytic_marginals(StarConfig(3, 1.0))
    plus = np.full((2, 2), 0.5)
    assert_allclose(rho_se.mat, np.kron(plus, np.diag([1.0, 0.0])), atol=1e-15)
    assert_allclose(rho_s.mat, plus, atol=1e-15)


def test_analytic_system_entropy_closed_form():
    for n in (2, 5, 9, 30):
        for a in (0.2, 0.7, 0.95):
            rho_s, _, _ = analytic_marginals(StarConfig(n, a))
            lam = np.linalg.eigvalsh(rho_s.mat)
            h = float(-(lam * np.log2(lam)).sum())
            assert abs(h - binary_entropy((1.0 + a**n) / 2.0)) <= 1e-10


def test_fragment_state_ends_and_range():
    cfg = StarConfig(3, 0.6)
    rho_s, rho_se, _ = analytic_marginals(cfg)
    empty = starsim._fragment_state(cfg, 0).mat
    assert_allclose(empty, np.kron(rho_s.mat, np.diag([1.0, 0.0])), atol=1e-15)
    assert np.array_equal(starsim._fragment_state(cfg, 1).mat, rho_se.mat)
    for k in (-1, 4):
        with pytest.raises(ValueError, match="fragment size"):
            starsim._fragment_state(cfg, k)
        with pytest.raises(ValueError, match="fragment size"):
            starsim._fragment_concurrence(cfg, k)


_FRAGMENT_GRID = [(n, a, k) for n in (1, 2, 3, 5, 10, 20, 50, 59)
                  for a in np.linspace(0.0, 1.0, 101) for k in range(n + 1)]


def test_fragment_concurrence_matches_wootters_on_fragment_state():
    # The closed form a^(N-k) sqrt(1 - a^(2k)) against Wootters' numeric route
    # on the fragment state it describes, for every fragment size. The worst
    # gap, 1.08e-14 at N = 50, a = 0.33, k = 21, is the numeric route's: it
    # returns 1.1e-16 where the exact C is 1.089e-14 (next test).
    worst = 0.0
    for n, a, k in _FRAGMENT_GRID:
        cfg = StarConfig(n, a)
        numeric = concurrence_two_qubit(starsim._fragment_state(cfg, k))
        worst = max(worst, abs(starsim._fragment_concurrence(cfg, k) - numeric))
    assert worst <= 2e-14


def test_fragment_concurrence_matches_50_digit_values():
    # Same grid against a^(N-k) sqrt(1 - a^(2k)) in 50-digit decimal arithmetic
    # from the same binary a: the closed form is within a few ulps (6.4e-16 relative).
    one = Decimal(1)
    with localcontext() as ctx:
        ctx.prec = 50
        for n, a, k in _FRAGMENT_GRID:
            exact_a = Decimal(float(a))
            tail = exact_a ** (n - k) if k < n else one
            exact = tail * (one - (exact_a ** (2 * k) if k else one)).sqrt()
            closed = Decimal(starsim._fragment_concurrence(StarConfig(n, a), k))
            assert abs(closed - exact) <= Decimal("1e-15") * exact


def test_analytic_pair_marginal_none_for_single_site():
    _, _, rho_pair = analytic_marginals(StarConfig(1, 0.5))
    assert rho_pair is None


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_row_consistency_checks():
    with pytest.raises(ValueError):
        SweepRow(
            n_env=2, a=0.5, h_s=0.9, avg_eof=0.1, avg_classical=0.5, avg_discord=0.1,
            delta=None, bound=0.2, delta_defined=True,
        )
    with pytest.raises(ValueError):
        SweepRow(
            n_env=2, a=1.0, h_s=0.0, avg_eof=0.0, avg_classical=0.0, avg_discord=0.0,
            delta=0.1, bound=0.0, delta_defined=False,
        )


def test_sweep_emits_rows_in_grid_order():
    rows = run_sweep((3, 2), (0.0, 1.0, 0.5))
    assert [(r.n_env, r.a) for r in rows] == [
        (3, 0.0), (3, 1.0), (3, 0.5), (2, 0.0), (2, 1.0), (2, 0.5)
    ]


def test_batched_sweep_matches_point_by_point_sweep():
    # A row depends on its own (N, a) only, whatever grid it is swept in.
    a_grid = (0.0, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0)
    rows = run_sweep((2, 10, 50), a_grid)
    assert rows == [run_sweep([n], [a])[0] for n in (2, 10, 50) for a in a_grid]
    assert run_sweep([], a_grid) == []


def test_sweep_builds_no_pair_marginal(monkeypatch, eigensolves):
    # A sweep point is closed-form scalars only: H_S, the site and rest
    # entropies, and the concurrences of rho_S,site and of the fragment of the
    # other N - 1 sites. It builds no state (not the site-pair marginal of
    # `analytic_marginals`, nor either fragment state) and makes no eigensolve.
    built = []

    def recording(mat, dims):
        built.append(dims)
        return DensityMatrix(mat, dims)

    monkeypatch.setattr(starsim, "DensityMatrix", recording)
    run_sweep((1, 3), (0.0, 0.5, 1.0))
    assert built == []
    assert eigensolves == []


def test_sweep_runs_no_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran a measurement search")

    monkeypatch.setattr(measurement, "sphere_search", refuse)
    rows = run_sweep((1, 2, 10), (0.0, 0.5, 1.0))
    assert len(rows) == 9


def test_sweep_limits_and_bounds():
    rows = run_sweep((2, 6), (0.0, 0.4, 1.0))
    for row in rows:
        if row.a == 0.0:  # GHZ limit: classical information proliferates
            assert abs(row.avg_eof) <= 1e-9
            assert abs(row.avg_discord) <= 1e-9
            assert row.avg_classical == pytest.approx(1.0, abs=1e-9)
            assert row.delta == pytest.approx(0.0, abs=1e-9)
        if row.a == 1.0:  # product limit: nothing is correlated, delta undefined
            assert abs(row.avg_eof) <= 1e-9
            assert abs(row.avg_classical) <= 1e-9
            assert abs(row.avg_discord) <= 1e-9
            assert not row.delta_defined
            assert row.delta is None and row.bound is None
        if row.delta_defined:
            slack = 1e-12
            assert row.avg_eof <= row.bound + slack
            assert row.avg_discord <= row.bound + slack
            assert row.h_s == pytest.approx(binary_entropy((1.0 + row.a**row.n_env) / 2.0), abs=1e-10)


def test_sweep_matches_per_site_quantities_from_brute_state():
    """The sweep's single-marginal shortcut equals an explicit per-site average."""
    from qcorr import Bipartition, consensus_delta, eof_two_qubit, quantum_discord

    cfg = StarConfig(3, 0.45)
    (row,) = run_sweep((3,), (0.45,))
    psi = build_universe_brute(cfg)
    report = consensus_delta(psi, (0,))
    eofs, discords = [], []
    for site in (1, 2, 3):
        marg = reduced_density_matrix(psi, (0, site))
        rec = quantum_discord(Bipartition(marg, (0,), (1,)), measured="b")
        eofs.append(eof_two_qubit(marg))
        discords.append(rec.discord)
    assert row.avg_eof == pytest.approx(float(np.mean(eofs)), abs=1e-9)
    assert row.avg_discord == pytest.approx(float(np.mean(discords)), abs=1e-12)
    assert row.delta == pytest.approx(report.delta, abs=1e-12)


def test_sweep_handles_single_site_environment():
    (row,) = run_sweep((1,), (0.5,))
    # with one site the complement is empty, so observers cannot agree
    assert row.delta == pytest.approx(1.0, abs=1e-12)
    assert row.avg_eof > 0.1  # the lone site is strongly entangled with S
