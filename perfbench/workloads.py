"""The four benchmark workloads: seeded inputs, the timed item call, output checks.

Every workload is a stream of rounds. Round ``r`` of seed ``s`` is generated
from ``numpy.random.default_rng((s, r))``, so the same seed always gives the
same inputs, and a round holds one item of every kind the workload mixes, so
a run that stops at a round boundary always measures the stated mix.

Items call qcorr only through its public names (``qcorr.<name>`` looked up
at call time, so the tracer's wrappers see every call) and with default
settings: no ``opts``, ``threads`` or ``OptimizerSettings`` argument.
"""

from __future__ import annotations

import contextlib
import csv
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

import qcorr
import qcorr.cli

# J may rise but may not drop below the stored reference by more than this.
J_DROP_TOL = 1e-10
# Largest |eof_two_qubit - exact| seen over 12000 random two-qubit states of
# ranks 1-4 (3.9e-8, from the eigvals route on rank-deficient states), with
# headroom. The convex roof is an upper bound, so it may not undershoot the
# closed form by more than this.
EOF_TWO_QUBIT_ERR = 1e-7


class Item(NamedTuple):
    kind: str
    args: tuple


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**63 - 1, size=n)]


def _binary_entropy(p: float) -> float:
    return -sum(x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0)


def _full_rank_mix(rho, eps: float = 1e-6):
    d = rho.dim
    return qcorr.DensityMatrix((1.0 - eps) * rho.mat + eps * np.eye(d) / d, rho.dims)


def _j_drop(j_values: list[float], ref: list[float] | None) -> str | None:
    if ref is None:
        return None
    if len(ref) != len(j_values):
        return f"{len(j_values)} J values, reference has {len(ref)}"
    for got, want in zip(j_values, ref):
        if got < want - J_DROP_TOL:
            return f"J = {got!r} dropped below reference {want!r}"
    return None


class Sweep:
    """One (N, a) point of the star-network sweep, via ``qcorr.run_sweep([N], [a])``."""

    n_values = (2, 10, 50)
    draws = 8
    reference_rounds = 8

    def round_items(self, seed: int, r: int, workdir: Path) -> list[Item]:
        rng = np.random.default_rng((seed, r))
        items = []
        for n in self.n_values:
            interior = rng.uniform(0.01, 0.99, size=self.draws)
            items.append(Item("a=0", (n, 0.0)))
            items.extend(Item("interior", (n, float(a))) for a in interior)
            items.append(Item("a=1", (n, 1.0)))
        return items

    def run(self, item: Item):
        n, a = item.args
        return qcorr.run_sweep([n], [a])

    def check(self, item: Item, out) -> tuple[str | None, list[float]]:
        n, a = item.args
        if len(out) != 1:
            return f"{len(out)} rows for one grid point", []
        row = out[0]
        j, d = row.avg_classical, row.avg_discord
        h_s = _binary_entropy((1.0 + a**n) / 2.0)
        if abs(row.h_s - h_s) > 1e-12:
            return f"h_s = {row.h_s!r}, closed form {h_s!r}", [j]
        _, rho_se, _ = qcorr.analytic_marginals(qcorr.StarConfig(n, a))
        info = qcorr.mutual_information(qcorr.Bipartition(rho_se, (0,), (1,)))
        if abs(info - (j + d)) > 1e-12:
            return f"I = {info!r} but J + D = {j + d!r}", [j]
        h_e = qcorr.von_neumann_entropy(qcorr.partial_trace(rho_se, (1,)))
        if not -1e-12 <= j <= min(row.h_s, h_e) + 1e-9:
            return f"J = {j!r} outside [0, min(H_S, H_E) = {min(row.h_s, h_e)!r}]", [j]
        if a == 0.0 and (abs(j - 1.0) > 1e-9 or abs(d) > 1e-9):
            return f"a = 0 needs J = 1 and D = 0, got J = {j!r}, D = {d!r}", [j]
        if row.delta_defined != (a != 1.0):
            return f"delta_defined = {row.delta_defined} at a = {a!r}", [j]
        return None, [j]


AUDIT_KINDS = (
    "kw",
    "discord-bound",
    "eof-bound",
    "remark",
    "fanchini",
    "continuity",
    "f-bound",
    "jens",
    "env-bound",
)


class Audits:
    """One public audit call on one seeded state, cycling through nine audits.

    States come from the public samplers in the families the CLI suites use.
    """

    reference_rounds = 12

    def round_items(self, seed: int, r: int, workdir: Path) -> list[Item]:
        rng = np.random.default_rng((seed, r))
        s = dict(zip(AUDIT_KINDS, _seeds(rng, len(AUDIT_KINDS))))

        def two_qubit(state_seed):
            return qcorr.random_density_matrix((2, 2), 4, state_seed)

        def pure(n_qubits, state_seed):
            return qcorr.random_pure_state((2,) * n_qubits, state_seed)

        if r % 2:
            # Near-product two-qubit state, so J is often tiny.
            sa, sb, sm = _seeds(rng, 3)
            t = rng.uniform(0.0, 0.05)
            prod = np.kron(
                qcorr.random_density_matrix((2,), 2, sa).mat,
                qcorr.random_density_matrix((2,), 2, sb).mat,
            )
            mix = two_qubit(sm).mat
            remark = qcorr.DensityMatrix((1.0 - t) * prod + t * mix, (2, 2))
        else:
            remark = two_qubit(s["remark"])
        d = (2, 3, 4)[r % 3]
        jx, jy = _seeds(rng, 2)
        return [
            Item("kw", (pure(3, s["kw"]),)),
            Item("discord-bound", (pure(4, s["discord-bound"]),)),
            Item("eof-bound", (pure(4, s["eof-bound"]),)),
            Item("remark", (remark,)),
            Item("fanchini", (pure(3, s["fanchini"]),)),
            Item("continuity", (_full_rank_mix(two_qubit(s["continuity"])),)),
            Item("f-bound", (_full_rank_mix(two_qubit(s["f-bound"])),)),
            Item("jens", (
                _full_rank_mix(qcorr.random_density_matrix((d,), d, jx)),
                _full_rank_mix(qcorr.random_density_matrix((d,), d, jy)),
            )),
            Item("env-bound", (pure(4, s["env-bound"]),)),
        ]

    def run(self, item: Item):
        """Returns the worst audit and, for env-bound, the consensus report."""
        kind, args = item
        if kind == "kw":
            return qcorr.koashi_winter_audit(args[0], (0,), (1,)), None
        if kind == "discord-bound":
            return qcorr.discord_bound_audit(args[0], (0,)), None
        if kind == "eof-bound":
            return min(qcorr.eof_bound_audit(args[0], (0,)), key=lambda a: a.slack), None
        if kind == "remark":
            return qcorr.remark_audit(args[0]), None
        if kind == "fanchini":
            return qcorr.fanchini_identity_audit(args[0], (0,), 1), None
        if kind == "continuity":
            return qcorr.continuity_chain_audit(args[0], 1), None
        if kind == "f-bound":
            return qcorr.f_bound_audit(args[0], 1), None
        if kind == "jens":
            return qcorr.relative_entropy_bound_audit(*args), None
        env = args[0]
        report = qcorr.env_consensus(env)
        audits = [
            qcorr.env_eof_bound_audit(env, i, j, report)
            for i in range(4)
            for j in range(4)
            if i != j and report.defined[i]
        ]
        return min(audits, key=lambda a: a.slack), report

    def _j_values(self, item: Item, audit, report) -> list[float]:
        kind, args = item
        if kind == "kw":
            h_s = qcorr.von_neumann_entropy(qcorr.reduced_density_matrix(args[0], (0,)))
            return [h_s - audit.rhs]
        if kind == "remark":
            return [audit.extras["j"]]
        if kind == "continuity":
            return [audit.extras["classical"]]
        if kind == "fanchini":
            out = []
            for name, idx in (("site", 1), ("other", 2)):
                marg = qcorr.reduced_density_matrix(args[0], (0, idx))
                info = qcorr.mutual_information(qcorr.Bipartition(marg, (0,), (1,)))
                out.append(info - audit.extras[f"discord_{name}"])
            return out
        if kind == "env-bound":
            return [j for row in report.j_matrix for j in row if j is not None]
        return []

    def check(self, item: Item, out) -> tuple[str | None, list[float]]:
        audit, report = out
        j_values = self._j_values(item, audit, report)
        if not audit.satisfied:
            return f"{audit.label} violated: slack {audit.slack!r} < -{audit.tolerance!r}", j_values
        return None, j_values


STATE_CASES = (
    # dims, split, measured side: d_rest = 2, 3, 4, 8.
    ((2, 2), "0|1", "b"),
    ((2, 3), "0|1", "a"),
    ((2, 2, 2), "0,1|2", "b"),
    ((2, 2, 2, 2), "0,1,2|3", "b"),
)
CSV_HEADER = ["mutual_info", "classical", "discord", "eof", "entropy_a", "measured_side"]


class States:
    """One JSON state file through ``qcorr.cli.main(["state", ...])``, stdout discarded."""

    reference_rounds = 20

    def __init__(self, devnull):
        self.devnull = devnull

    def round_items(self, seed: int, r: int, workdir: Path) -> list[Item]:
        rng = np.random.default_rng((seed, r))
        items = []
        for dims, split, measure in STATE_CASES:
            d = math.prod(dims)
            # Pure, rank 2, a seeded middle rank, full rank.
            for rank in (1, 2, int(rng.integers(3, d + 1)), d):
                (s,) = _seeds(rng, 1)
                state = (
                    qcorr.random_pure_state(dims, s)
                    if rank == 1
                    else qcorr.random_density_matrix(dims, rank, s)
                )
                path = workdir / f"state-{len(items)}.json"
                qcorr.save_state(path, state)
                args = (path, split, measure, workdir / "out.csv")
                items.append(Item("x".join(map(str, dims)), args))
        return items

    def run(self, item: Item):
        path, split, measure, out = item.args
        argv = ["state", "--in", str(path), "--split", split, "--measure", measure,
                "--out", str(out)]
        with contextlib.redirect_stdout(self.devnull):
            return qcorr.cli.main(argv)

    def check(self, item: Item, out) -> tuple[str | None, list[float]]:
        if out != 0:
            return f"exit status {out}", []
        with open(item.args[3], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) != 2 or rows[0] != CSV_HEADER:
            return f"unexpected CSV {rows!r}", []
        try:
            info, j, d = (float(x) for x in rows[1][:3])
        except ValueError:
            return f"unparsable CSV row {rows[1]!r}", []
        if abs(info - (j + d)) > 1e-10:
            return f"I = {info!r} but J + D = {j + d!r}", [j]
        if j < -1e-12:
            return f"negative J = {j!r}", [j]
        return None, [j]


# Full-rank 2x2 (mean 1.5 s, CV 0.24 across states) and rank-3 2x3 (1.8 s,
# CV 0.48) calls are left out: a 20 s run holds only a handful of them, and
# with them the spread of the run metrics across seeds was about 0.2 from the
# choice of states alone. Rank 2-3 qubit-qubit and rank-2 qubit-qutrit states
# still cover both convex-roof paths (closed-form 2x2 pair cost, batched SVD).
ROOF_CASES = (((2, 2), 2), ((2, 2), 3), ((2, 3), 2))


class Roof:
    """One ``eof_convex_roof_numeric(rho)`` call with default settings."""

    reference_rounds = 0

    def round_items(self, seed: int, r: int, workdir: Path) -> list[Item]:
        rng = np.random.default_rng((seed, r))
        return [
            Item(f"{'x'.join(map(str, dims))}-r{rank}",
                 (qcorr.random_density_matrix(dims, rank, s),))
            for (dims, rank), s in zip(ROOF_CASES, _seeds(rng, len(ROOF_CASES)))
        ]

    def run(self, item: Item):
        return qcorr.eof_convex_roof_numeric(item.args[0])

    def check(self, item: Item, out) -> tuple[str | None, list[float]]:
        rho = item.args[0]
        if not 0.0 <= out <= 1.0 + 1e-12:
            return f"E = {out!r} outside [0, 1]", []
        if rho.dims == (2, 2):
            closed = qcorr.eof_two_qubit(rho)
            if out < closed - EOF_TWO_QUBIT_ERR:
                return f"convex roof E = {out!r} below closed form {closed!r}", []
        return None, []


def make(name: str, devnull) -> Sweep | Audits | States | Roof:
    if name == "states":
        return States(devnull)
    return {"sweep": Sweep, "audits": Audits, "roof": Roof}[name]()


def check_item(workload, item: Item, out, ref: list[float] | None) -> str | None:
    """Error message for a wrong output, or None; includes the J reference check."""
    error, j_values = workload.check(item, out)
    return error or _j_drop(j_values, ref)
