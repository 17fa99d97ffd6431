"""Write J, every public audit and the CLI CSVs on seeded inputs, or compare two outputs.

Usage: PYTHONPATH=src python tools/parity.py OUTDIR [--seeds N]
       PYTHONPATH=src python tools/parity.py --compare A B

The first form writes, on N seeds (default 42) of each case of `_j_cases` and
`_audit_cases`, and exits 1 if a CLI command fails:

  OUTDIR/j.json       J, evaluated directions and `converged` of each J state,
                      and a closed-form J as `ref` where there is one (Luo's
                      on Bell-diagonal states, `_rank_two_j` on two-qubit
                      states of rank <= 2), sorted by id
  OUTDIR/audits.json  label, lhs, rhs, slack, satisfied and extras of each audit,
                      floats as their `repr`, sorted by id
  OUTDIR/cli/*.csv    the default and a finer `qcorr sweep`, every `qcorr audit`
                      suite at 40 trials and seed 3, and `qcorr state` on seeded
                      state files, without manifests

The J states are every rank of 2x2 to 2x2x2x2 and 3x2x2 states, pure-state
marginals, near-product and near-pure mixes, noisy GHZ and W states, real states,
star-sweep marginals and Bell-diagonal states whose two largest |c_i| are tied
or nearly tied, whose J S. Luo gives in closed form (PRA 77, 042303 (2008)); the
audits include the f-bound audit and the continuity audit's m2, which no CSV
holds. Identical code gives byte-identical files, and each case's seed is the
CRC-32 of its id, so a run of more seeds holds the cases of a run of fewer.

The second form matches two outputs by id and CSV file name. It prints, per J
family, the worst drop and largest rise of J with the id of the state of each,
and the evaluations of each side, and each side's worst shortfall against `ref`;
per audit kind, each field that moved, in how many audits and by how much at
most; and each moved CSV cell. It exits 2 if the outputs hold different J
states, audits or CSV files; else 1 if J drops by more than DROP_LIMIT, B's J
falls short of `ref` by more than REF_LIMIT (which also sees a shortfall that
both sides share) or an audit satisfied in A is not satisfied in B; else 0. A
moved CSV cell does not fail.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import tempfile
import zlib
from functools import partial
from math import prod
from pathlib import Path

import numpy as np

import qcorr
from qcorr import DensityMatrix, StarConfig
from qcorr.cli import SUITES
from qcorr.cli import main as cli_main

DROP_LIMIT = 1e-13
REF_LIMIT = 1e-12
# Relative gaps between the two largest |c_i| of the Bell-diagonal J states; 0 is a tie.
BELL_GAPS = (0.0, 1e-12, 1e-10, 1e-8, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2)
_PAULIS = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
# dims and measured qubit of the J rank families, d_rest = 3, 3, 4, 4, 6 and 8.
RANK_CASES = (((2, 3), 0), ((3, 2), 1), ((2, 4), 0), ((2, 2, 2), 2), ((3, 2, 2), 1),
              ((2, 2, 2, 2), 3))
MIX_WEIGHTS = (1e-2, 1e-4, 1e-6, 1e-8)
# dims and measured qubit of the continuity and f-bound states.
PINCH_CASES = (((2, 2), 0), ((2, 2), 1), ((2, 3), 0), ((3, 2), 1), ((2, 2, 2), 0),
               ((2, 2, 2), 2), ((2, 2, 2, 2), 3))
AUDIT_FIELDS = ("label", "lhs", "rhs", "slack", "satisfied")
# dims, split and measured side of each CLI state file: d_rest = 2, 3, 4 and 8.
STATE_CASES = (((2, 2), "0|1", "b"), ((2, 3), "0|1", "a"), ((2, 2, 2), "0,1|2", "b"),
               ((2, 2, 2, 2), "0,1,2|3", "b"))
STATE_SEEDS = (0, 1, 2)


def _seed(case_id: str) -> int:
    return zlib.crc32(case_id.encode())


def _write_records(path: Path, seeds: int, records: list[dict]) -> None:
    records = sorted(records, key=lambda r: r["id"])
    path.write_text(json.dumps({"seeds": seeds, "records": records}, indent=1) + "\n")


def _read_records(path: Path) -> dict:
    return {r["id"]: r for r in json.loads(path.read_text())["records"]}


# ---------------------------------------------------------------------------
# J on seeded states
# ---------------------------------------------------------------------------


def _mix(rho: np.ndarray, weight: float, dims, seed: int) -> DensityMatrix:
    noise = qcorr.random_density_matrix(dims, prod(dims), seed).mat
    return DensityMatrix((1.0 - weight) * rho + weight * noise, dims)


def _noisy(psi, p: float) -> DensityMatrix:
    d = psi.dim
    return DensityMatrix((1.0 - p) * np.outer(psi.vec, psi.vec.conj()) + p * np.eye(d) / d,
                         psi.dims)


def _real_state(dims, rank: int, seed: int) -> DensityMatrix:
    g = np.random.default_rng(seed).standard_normal((prod(dims), rank))
    rho = g @ g.T
    return DensityMatrix(rho / np.trace(rho), dims)


def _bell_diagonal(seed: int, gap: float, rotated: bool, measured: int):
    """A Bell-diagonal state (1 + sum_i c_i sigma_i x sigma_i) / 4 whose two largest |c_i|
    differ by ``gap`` of the larger, under a seeded local unitary if ``rotated``, the
    measured qubit, and Luo's J = 1 - h((1 + max |c_i|) / 2) of either qubit."""
    rng = np.random.default_rng(seed)
    while True:
        top = rng.uniform(0.05, 0.95)
        c = rng.choice([-1.0, 1.0], 3) * [top, top * (1.0 - gap), rng.uniform(0.0, 0.9) * top]
        rng.shuffle(c)
        mat = (np.eye(4) + sum(ci * np.kron(p, p) for ci, p in zip(c, _PAULIS))) / 4.0
        if np.linalg.eigvalsh(mat)[0] >= 0.0:
            break
    if rotated:
        u, v = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                for _ in range(2))
        mat = np.kron(u, v) @ mat @ np.kron(u, v).conj().T
    return DensityMatrix(mat, (2, 2)), measured, 1.0 - qcorr.binary_entropy((1.0 + top) / 2.0)


def _rank_two_j(rho: DensityMatrix, measured: int) -> float:
    """Exact J of a two-qubit state of rank <= 2 with qubit ``measured`` measured. A qubit C
    purifies it, and J = H(rest) - E_F(rest : C) (Koashi & Winter, PRA 69, 022309
    (2004)), with E_F in Wootters' closed form (PRL 80, 2245 (1998)). Projective
    measurements reach this POVM J on rank-2 two-qubit states (Galve, Giorgi & Zambrini,
    EPL 96, 40005 (2011)). Eigenvalues of rho beyond its two largest are dropped."""
    lam, vecs = np.linalg.eigh(rho.mat)
    psi = (vecs[:, -2:] * np.sqrt(lam[-2:].clip(0.0))).ravel()  # qubits 0, 1 then C
    universe = qcorr.PureState(psi / np.linalg.norm(psi), (2, 2, 2))
    rest_c = qcorr.reduced_density_matrix(universe, (1 - measured, 2))
    return (qcorr.von_neumann_entropy(qcorr.partial_trace(rho, (1 - measured,)))
            - qcorr.eof_two_qubit(rest_c))


def _j_cases(s: int):
    """(family, id, builder of (rho, measured) or (rho, measured, ref)) of every J state
    of seed index ``s``; ``ref`` is J in closed form: Luo's on the Bell-diagonal states,
    `_rank_two_j` on the two-qubit states of rank <= 2."""
    for rank in range(1, 5):
        for measured in (0, 1):
            def two_qubit(seed, r=rank, m=measured):
                rho = qcorr.random_density_matrix((2, 2), r, seed)
                return (rho, m, _rank_two_j(rho, m)) if r <= 2 else (rho, m)

            yield "2x2", f"2x2/r{rank}/m{measured}/s{s}", two_qubit
    for dims, measured in RANK_CASES:
        name = "x".join(map(str, dims))
        for rank in range(1, prod(dims) + 1):
            yield name, f"{name}/r{rank}/s{s}", lambda seed, d=dims, r=rank, m=measured: (
                qcorr.random_density_matrix(d, r, seed), m)
    for n in range(3, 7):
        for kept in range(2, min(4, n - 1) + 1):
            def pure_marginal(seed, n=n, k=kept):
                rho = qcorr.reduced_density_matrix(qcorr.random_pure_state((2,) * n, seed),
                                                   tuple(range(k)))
                return (rho, k - 1, _rank_two_j(rho, k - 1)) if n == 3 else (rho, k - 1)

            yield "pure-marginal", f"pure{n}/keep{kept}/s{s}", pure_marginal
    for dims, measured in (((2, 2), 1), ((2, 2, 2), 2)):
        name = "x".join(map(str, dims))
        for weight in MIX_WEIGHTS:
            def product(seed, d=dims, w=weight, m=measured):
                first = qcorr.random_density_matrix(d[:1], 2, seed).mat
                rest = qcorr.random_density_matrix(d[1:], prod(d[1:]), seed + 1).mat
                return _mix(np.kron(first, rest), w, d, seed + 2), m

            def pure(seed, d=dims, w=weight, m=measured):
                psi = qcorr.random_pure_state(d, seed)
                return _mix(np.outer(psi.vec, psi.vec.conj()), w, d, seed + 1), m

            yield "near-product", f"near-product/{name}/w{weight:g}/s{s}", product
            yield "near-pure", f"near-pure/{name}/w{weight:g}/s{s}", pure
    for make in (qcorr.ghz_state, qcorr.w_state):
        for n in (3, 4):
            def whole(seed, psi=make(n), n=n):
                return _noisy(psi, np.random.default_rng(seed).uniform(0.01, 0.9)), n - 1

            def marginal(seed, psi=make(n), n=n):
                rho = _noisy(psi, np.random.default_rng(seed).uniform(0.01, 0.9))
                return qcorr.partial_trace(rho, tuple(range(n - 1))), n - 2

            yield "noisy-ghz-w", f"{make.__name__}{n}/whole/s{s}", whole
            yield "noisy-ghz-w", f"{make.__name__}{n}/marginal/s{s}", marginal
    for rank in (2, 4, 8):
        yield "real-2x2x2", f"real-2x2x2/r{rank}/s{s}", lambda seed, r=rank: (
            _real_state((2, 2, 2), r, seed), 2)
    for measured in (0, 1):
        def site(seed, m=measured):
            rng = np.random.default_rng(seed)
            cfg = StarConfig(int(rng.integers(1, 60)), float(rng.uniform(0.0, 1.0)))
            rho = qcorr.analytic_marginals(cfg)[1]
            return rho, m, _rank_two_j(rho, m)

        yield "star", f"star/site/m{measured}/s{s}", site

    def brute(seed):
        rng = np.random.default_rng(seed)
        cfg = StarConfig(int(rng.integers(2, 6)), float(rng.uniform(0.0, 1.0)))
        return qcorr.reduced_density_matrix(qcorr.build_universe_brute(cfg), (0, 1, 2)), 0

    yield "star", f"star/brute/s{s}", brute
    for gap in BELL_GAPS:
        for rotated in (False, True):
            for measured in (0, 1):
                state_id = f"bell/g{gap:g}/{'rotated' if rotated else 'plain'}/m{measured}/s{s}"
                yield "bell-diagonal", state_id, partial(
                    _bell_diagonal, gap=gap, rotated=rotated, measured=measured)


def j_records(seeds: int) -> list[dict]:
    records = []
    for s in range(seeds):
        for family, state_id, build in _j_cases(s):
            rho, measured, *ref = build(_seed(state_id))
            best = qcorr.classical_correlations(rho, measured)
            records.append({"id": state_id, "family": family, "j": best.value,
                            "evaluations": best.evaluations, "converged": best.converged,
                            **({"ref": ref[0]} if ref else {})})
    return records


def _shortfall(records: dict) -> float:
    """Largest ref - J over the records that hold a ``ref``, or 0."""
    return max((r["ref"] - r["j"] for r in records.values() if "ref" in r), default=0.0)


def compare_j(a: dict, b: dict) -> int:
    print(f"{'family':<14} {'states':>6} {'worst drop':>11} {'largest rise':>12} "
          f"{'median evals':>13} {'total evals':>19} {'unconverged':>11}")
    worst = 0.0
    for family in sorted({r["family"] for r in a.values()}):
        ids = [i for i in a if a[i]["family"] == family]
        diff = np.array([b[i]["j"] - a[i]["j"] for i in ids])
        ev_a, ev_b = (np.array([p[i]["evaluations"] for i in ids]) for p in (a, b))
        unconverged = [sum(not p[i]["converged"] for i in ids) for p in (a, b)]
        drop, rise = max(0.0, -diff.min()), max(0.0, diff.max())
        worst = max(worst, drop)
        print(f"{family:<14} {len(ids):>6} {drop:>11.2e} {rise:>12.2e} "
              f"{np.median(ev_a):>6g} -> {np.median(ev_b):<4g} "
              f"{ev_a.sum():>8} -> {ev_b.sum():<8} {unconverged[0]:>4} -> {unconverged[1]}")
        named = [f"{what} at {ids[at]}" for what, size, at in (
            ("worst drop", drop, diff.argmin()), ("largest rise", rise, diff.argmax())) if size]
        if named:
            print(f"    {'; '.join(named)}")
    print(f"worst drop {worst:.2e} (limit {DROP_LIMIT:g})")
    short_a, short_b = _shortfall(a), _shortfall(b)
    print(f"worst shortfall against ref: A {short_a:.2e}, B {short_b:.2e} (limit {REF_LIMIT:g})")
    return 1 if worst > DROP_LIMIT or short_b > REF_LIMIT else 0


# ---------------------------------------------------------------------------
# every public audit on seeded states
# ---------------------------------------------------------------------------


def _full_rank(dims, seed: int):
    return qcorr.random_density_matrix(dims, prod(dims), seed)


def _pure(n: int, seed: int):
    return qcorr.random_pure_state((2,) * n, seed)


def _env_bound(seed: int) -> list:
    env = _pure(4, seed)
    report = qcorr.env_consensus(env)
    return [qcorr.env_eof_bound_audit(env, i, j, report)
            for i in range(4) for j in range(4) if i != j and report.defined[i]]


def _audit_cases(s: int):
    """(kind, id, builder of a list of BoundAudit) of every audit case of seed index ``s``."""
    for dims, measured in PINCH_CASES:
        name = "x".join(map(str, dims))
        for kind, audit in (("continuity", qcorr.continuity_chain_audit),
                            ("f-bound", qcorr.f_bound_audit)):
            yield kind, f"{kind}/{name}/m{measured}/s{s}", (
                lambda seed, d=dims, m=measured, a=audit: [a(_full_rank(d, seed), m)])
    yield "kw", f"kw/3q/s{s}", lambda seed: [qcorr.koashi_winter_audit(_pure(3, seed), 0, 1)]
    for n in (3, 4, 5):
        yield "discord-bound", f"discord-bound/{n}q/s{s}", lambda seed, n=n: [
            qcorr.discord_bound_audit(_pure(n, seed), 0)]
    for n in (3, 4):
        yield "eof-bound", f"eof-bound/{n}q/s{s}", lambda seed, n=n: (
            qcorr.eof_bound_audit(_pure(n, seed), 0))
    for rank in range(1, 5):
        yield "remark", f"remark/r{rank}/s{s}", lambda seed, r=rank: [
            qcorr.remark_audit(qcorr.random_density_matrix((2, 2), r, seed))]
    for site in (1, 2):
        yield "fanchini", f"fanchini/site{site}/s{s}", lambda seed, site=site: [
            qcorr.fanchini_identity_audit(_pure(3, seed), 0, site)]
    for d in (2, 3, 4):
        yield "jens", f"jens/d{d}/s{s}", lambda seed, d=d: [qcorr.relative_entropy_bound_audit(
            _full_rank((d,), seed), _full_rank((d,), seed + 1))]
    yield "env-bound", f"env-bound/4q/s{s}", _env_bound


def _value(v):
    """A JSON value of an audit field: floats as their `repr`, so every bit shows."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v.item() if isinstance(v, np.generic) else v


def audit_records(seeds: int) -> list[dict]:
    records = []
    for s in range(seeds):
        for kind, case_id, build in _audit_cases(s):
            for k, audit in enumerate(build(_seed(case_id))):
                record = {"id": f"{case_id}/{k}", "kind": kind}
                record.update({f: _value(getattr(audit, f)) for f in AUDIT_FIELDS})
                record["extras"] = {key: _value(v) for key, v in sorted(audit.extras.items())}
                records.append(record)
    return records


def _fields(record: dict) -> dict:
    """Every compared field of an audit record, extras as ``extras.<name>``."""
    out = {f: record[f] for f in AUDIT_FIELDS}
    out.update({f"extras.{k}": v for k, v in record["extras"].items()})
    return out


def _distance(a, b) -> float:
    """|a - b| of two numeric fields (floats written as their repr, booleans as 0 and 1),
    or inf for any other change."""
    try:
        return abs(float(a) - float(b))
    except (TypeError, ValueError):
        return float("inf")


def compare_audits(a: dict, b: dict) -> int:
    lost = []
    for kind in sorted({r["kind"] for r in a.values()}):
        ids = sorted(i for i in a if a[i]["kind"] == kind)
        moved = {}  # field -> (audits it moved in, largest change)
        changed = 0
        for i in ids:
            fa, fb = _fields(a[i]), _fields(b[i])
            diff = [f for f in fa.keys() | fb.keys() if fa.get(f) != fb.get(f)]
            changed += bool(diff)
            for f in diff:
                count, worst = moved.get(f, (0, 0.0))
                moved[f] = (count + 1, max(worst, _distance(fa.get(f), fb.get(f))))
            if a[i]["satisfied"] and not b[i]["satisfied"]:
                lost.append(i)
        print(f"{kind:<14} {len(ids):>5} audits, {changed:>5} changed")
        for f, (count, worst) in sorted(moved.items()):
            print(f"    {f:<22} {count:>5} moved, largest change {worst:.3g}")
    for i in lost:
        print(f"no longer satisfied: {i}")
    return 1 if lost else 0


# ---------------------------------------------------------------------------
# CLI CSVs for a fixed set of flags
# ---------------------------------------------------------------------------


def _cli_commands(statedir: Path):
    """(CSV name, argv) of each command; writes the state files it reads."""
    yield "sweep-default.csv", ["sweep"]
    yield "sweep-fine.csv", ["sweep", "--n", "1,2,3,7,30,59", "--a-step", "0.01"]
    for suite in SUITES:
        yield f"audit-{suite}.csv", ["audit", "--suite", suite, "--trials", "40", "--seed", "3"]
    for dims, split, measure in STATE_CASES:
        d = prod(dims)
        for rank in sorted({1, 2, d // 2, d}):
            for seed in STATE_SEEDS:
                name = f"state-{'x'.join(map(str, dims))}-rank{rank}-seed{seed}"
                state = (qcorr.random_pure_state(dims, seed) if rank == 1
                         else qcorr.random_density_matrix(dims, rank, seed))
                path = statedir / f"{name}.json"
                qcorr.save_state(path, state)
                yield f"{name}.csv", ["state", "--in", str(path), "--split", split,
                                      "--measure", measure]


def write_cli(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory() as statedir, open(os.devnull, "w") as devnull:
        for name, argv in _cli_commands(Path(statedir)):
            out = outdir / name
            with contextlib.redirect_stdout(devnull):
                status = cli_main([*argv, "--out", str(out)])
            Path(f"{out}.manifest.json").unlink(missing_ok=True)
            if status != 0:
                print(f"qcorr {' '.join(argv)}: exit status {status}", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


def _read_csv(path: Path) -> list[list[str]]:
    with path.open(newline="") as f:
        return list(csv.reader(f))


def compare_cli(a_dir: Path, b_dir: Path, names: list[str]) -> None:
    """Print every cell that differs between same-named CSVs of two directories, as
    file, row (0 is the header), column (A's header name) and old and new value; a
    cell only one file has reads as empty."""
    moved = 0
    for name in names:
        a, b = _read_csv(a_dir / name), _read_csv(b_dir / name)
        header = a[0] if a else []
        for r in range(max(len(a), len(b))):
            row_a, row_b = (rows[r] if r < len(rows) else [] for rows in (a, b))
            for c in range(max(len(row_a), len(row_b))):
                old, new = (row[c] if c < len(row) else "" for row in (row_a, row_b))
                if old != new:
                    column = header[c] if c < len(header) else str(c)
                    print(f"{name} row {r} column {column}: {old} -> {new}")
                    moved += 1
    print(f"{moved} CSV cells moved in {len(names)} files")


# ---------------------------------------------------------------------------
# the two forms
# ---------------------------------------------------------------------------


def write(outdir: Path, seeds: int) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    _write_records(outdir / "j.json", seeds, j_records(seeds))
    _write_records(outdir / "audits.json", seeds, audit_records(seeds))
    return write_cli(outdir / "cli")


def compare(a_dir: Path, b_dir: Path) -> int:
    j_a, j_b = (_read_records(d / "j.json") for d in (a_dir, b_dir))
    audits_a, audits_b = (_read_records(d / "audits.json") for d in (a_dir, b_dir))
    csv_a, csv_b = ({p.name for p in (d / "cli").glob("*.csv")} for d in (a_dir, b_dir))
    mismatched = [f"{len(set(a) ^ set(b))} {what} differ" for what, a, b in (
        ("J state ids", j_a, j_b), ("audit ids", audits_a, audits_b), ("CSV files", csv_a, csv_b))
        if set(a) != set(b)]
    if mismatched:
        print(f"the outputs hold different cases: {'; '.join(mismatched)}", file=sys.stderr)
        return 2
    status = max(compare_j(j_a, j_b), compare_audits(audits_a, audits_b))
    compare_cli(a_dir / "cli", b_dir / "cli", sorted(csv_a))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Write J, every audit and the CLI CSVs on seeded states, or compare two "
                    "such outputs.")
    parser.add_argument("outdir", nargs="?", type=Path, help="directory the outputs go to")
    parser.add_argument("--seeds", type=int, default=42, help="seeds per J state and audit case")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.outdir is None or args.seeds < 1:
        parser.error("give OUTDIR and --seeds >= 1, or --compare A B")
    return write(args.outdir, args.seeds)


if __name__ == "__main__":
    sys.exit(main())
