"""Command-line interface: correlation sweeps, inequality audits, state files.

Three subcommands:

* ``sweep``  — run the star-network sweep over an (N, a) grid and write the
  results as CSV, optionally with an SVG plot (one panel per N).
* ``audit``  — run one of the named inequality suites on fixture plus
  seeded random states and write one audit row per trial; the exit status
  is 1 when any audit fails beyond its tolerance.
* ``state``  — read a state file, compute the correlation measures of a
  chosen bipartition, and print them.

Identical flags and seed give byte-identical CSV output. Every ``--out``
file is accompanied by a ``<out>.manifest.json`` sidecar recording the
resolved parameters, seed, version, and wall-clock duration. `build_parser`
builds the parser once per process, on first use; `main` only parses.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from functools import lru_cache
from math import floor, isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BoundAudit,
    continuity_chain_audit,
    discord_bound_audit,
    env_consensus,
    env_eof_bound_audit,
    eof_bound_audit,
    fanchini_identity_audit,
    koashi_winter_audit,
    relative_entropy_bound_audit,
    remark_audit,
)
from .core import (
    DensityMatrix,
    PureState,
    density_from_pure,
    ghz_state,
    random_density_matrix,
    random_pure_state,
    w_state,
)
from .correlations import Bipartition, quantum_discord
from .starsim import run_sweep
from .stateio import load_state
from .svgplot import sweep_plot_svg

SUITES = (
    "kw",
    "discord-bound",
    "eof-bound",
    "remark",
    "fanchini",
    "continuity",
    "jens",
    "env-bound",
)

_TRIAL_STRIDE = 1_000_003


def _fmt(x) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # fold -0.0 into 0
    return format(x, ".12g")


def _trial_seed(seed: int, trial: int) -> int:
    return seed * _TRIAL_STRIDE + trial


def _full_rank_mix(rho: DensityMatrix, eps: float = 1e-6) -> DensityMatrix:
    d = rho.dim
    return DensityMatrix((1.0 - eps) * rho.mat + eps * np.eye(d) / d, rho.dims)


def _near_product_state(seed: int) -> DensityMatrix:
    """Two-qubit state close to a product, so J is often < 1e-3."""
    rng = np.random.default_rng(seed)
    rho_a = random_density_matrix((2,), 2, rng)
    rho_b = random_density_matrix((2,), 2, rng)
    sigma = random_density_matrix((2, 2), 4, rng)
    t = rng.uniform(0.0, 0.05)
    mat = (1.0 - t) * np.kron(rho_a.mat, rho_b.mat) + t * sigma.mat
    return DensityMatrix(mat, (2, 2))


def _remark_fixture() -> DensityMatrix:
    return DensityMatrix(np.kron(np.diag([0.7, 0.3]), np.eye(2) / 2.0), (2, 2))


def _worst(audits) -> BoundAudit:
    return min(audits, key=lambda a: a.slack)


def _suite_audit(suite: str, trial: int, seed: int) -> BoundAudit:
    s = _trial_seed(seed, trial)
    if suite == "kw":
        psi = ghz_state(3) if trial == 0 else random_pure_state((2, 2, 2), s)
        return koashi_winter_audit(psi, (0,), (1,))
    if suite == "discord-bound":
        psi = ghz_state(4) if trial == 0 else random_pure_state((2, 2, 2, 2), s)
        return discord_bound_audit(psi, (0,))
    if suite == "eof-bound":
        psi = ghz_state(4) if trial == 0 else random_pure_state((2, 2, 2, 2), s)
        return _worst(eof_bound_audit(psi, (0,)))
    if suite == "remark":
        if trial == 0:
            rho = _remark_fixture()
        elif trial % 2 == 1:
            rho = _near_product_state(s)
        else:
            rho = random_density_matrix((2, 2), 4, s)
        return remark_audit(rho)
    if suite == "fanchini":
        if trial == 0:
            psi = ghz_state(3)
        elif trial == 1:
            psi = w_state(3)
        else:
            psi = random_pure_state((2, 2, 2), s)
        return fanchini_identity_audit(psi, (0,), 1)
    if suite == "continuity":
        rho = _full_rank_mix(random_density_matrix((2, 2), 4, s))
        return continuity_chain_audit(rho, 1)
    if suite == "jens":
        d = (2, 3, 4)[trial % 3]
        rng = np.random.default_rng(s)
        x = _full_rank_mix(random_density_matrix((d,), d, rng))
        y = _full_rank_mix(random_density_matrix((d,), d, rng))
        return relative_entropy_bound_audit(x, y)
    if suite == "env-bound":
        env = ghz_state(4) if trial == 0 else random_pure_state((2, 2, 2, 2), s)
        report = env_consensus(env)
        audits = [
            env_eof_bound_audit(env, i, j, report)
            for i in range(4)
            for j in range(4)
            if i != j and report.defined[i]
        ]
        return _worst(audits)
    raise ValueError(f"unknown suite {suite!r}")


def _write_outputs(args, command: str, params: dict, header, rows, started: float,
                   extra=()) -> int:
    """Write the CSV at ``args.out``, any ``extra`` (path, text) files, and the manifest.

    The manifest records ``params`` plus the output path. Returns 0, or 2 after
    printing the error when an output file cannot be written.
    """
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        for path, text in extra:
            Path(path).write_text(text, encoding="utf-8")
        manifest = {
            "command": command,
            "parameters": {**params, "out": str(args.out)},
            "seed": args.seed,
            "version": __version__,
            "duration_seconds": round(time.perf_counter() - started, 6),
        }
        Path(str(args.out) + ".manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_sweep(args) -> int:
    started = time.perf_counter()
    try:
        n_list = [int(tok) for tok in args.n.split(",") if tok.strip()]
    except ValueError:
        print(f"error: malformed --n list {args.n!r}", file=sys.stderr)
        return 2
    finite = all(isfinite(v) for v in (args.a_min, args.a_max, args.a_step))
    if not n_list or not finite or args.a_step <= 0 or args.a_max < args.a_min:
        print("error: malformed sweep grid", file=sys.stderr)
        return 2
    count = int(floor((args.a_max - args.a_min) / args.a_step + 1e-9)) + 1
    a_grid = [min(args.a_min + k * args.a_step, args.a_max) for k in range(count)]

    try:
        rows = run_sweep(n_list, a_grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = ["n", "a", "h_s", "avg_eof", "avg_classical", "avg_discord", "delta", "bound",
              "delta_defined"]
    csv_rows = [
        [
            str(r.n_env),
            _fmt(r.a),
            _fmt(r.h_s),
            _fmt(r.avg_eof),
            _fmt(r.avg_classical),
            _fmt(r.avg_discord),
            _fmt(r.delta) if r.delta_defined else "",
            _fmt(r.bound) if r.delta_defined else "",
            "true" if r.delta_defined else "false",
        ]
        for r in rows
    ]
    params = {
        "n": n_list,
        "a_min": args.a_min,
        "a_max": args.a_max,
        "a_step": args.a_step,
        "plot": str(args.plot) if args.plot else None,
    }
    extra = [(args.plot, sweep_plot_svg(rows))] if args.plot else []
    return _write_outputs(args, "sweep", params, header, csv_rows, started, extra)


def cmd_audit(args) -> int:
    started = time.perf_counter()
    if args.trials < 1:
        print("error: --trials must be >= 1", file=sys.stderr)
        return 2
    audits = [_suite_audit(args.suite, k, args.seed) for k in range(args.trials)]
    header = ["label", "lhs", "rhs", "slack", "satisfied", "tolerance"]
    rows = [
        [a.label, _fmt(a.lhs), _fmt(a.rhs), _fmt(a.slack),
         "true" if a.satisfied else "false", _fmt(a.tolerance)]
        for a in audits
    ]
    params = {"suite": args.suite, "trials": args.trials}
    if _write_outputs(args, "audit", params, header, rows, started):
        return 2
    failed = sum(0 if a.satisfied else 1 for a in audits)
    if failed:
        print(f"{failed}/{len(audits)} audits violated their tolerance", file=sys.stderr)
        return 1
    return 0


def _parse_split(split: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    parts = split.split("|")
    if len(parts) != 2:
        raise ValueError(f"--split must look like 0|1 or 0,1|2, got {split!r}")
    sides = []
    for part in parts:
        try:
            side = tuple(int(tok) for tok in part.split(",") if tok.strip())
        except ValueError as exc:
            raise ValueError(f"malformed --split side {part!r}") from exc
        if not side:
            raise ValueError(f"--split side {part!r} is empty")
        sides.append(side)
    return sides[0], sides[1]


def cmd_state(args) -> int:
    started = time.perf_counter()
    try:
        state = load_state(args.infile)
        rho = density_from_pure(state) if isinstance(state, PureState) else state
        side_a, side_b = _parse_split(args.split)
        record = quantum_discord(Bipartition(rho, side_a, side_b), measured=args.measure)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    unmeasured = "A" if args.measure == "b" else "B"
    fields = [  # CSV column, printed label, value
        ("mutual_info", "mutual information I", _fmt(record.mutual_info)),
        ("classical", "classical J", _fmt(record.classical)),
        ("discord", "discord D", _fmt(record.discord)),
        ("eof", "eof E", _fmt(record.eof) if record.eof is not None else ""),
        ("entropy_a", f"entropy H(rho_{unmeasured})", _fmt(record.entropy_a)),
        ("measured_side", "measured side", record.measured_side),
    ]
    width = max(len(label) for _, label, _ in fields)
    for _, label, value in fields:
        print(f"{label:<{width}}  {value or '-'}")

    if args.out:
        params = {"in": str(args.infile), "split": args.split, "measure": args.measure}
        header = [column for column, _, _ in fields]
        row = [value for _, _, value in fields]
        return _write_outputs(args, "state", params, header, [row], started)
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorr",
        description="Correlation sweeps, consensus bounds, and audits for small quantum states.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="base seed for random trials")

    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", parents=[common], help="star-network sweep to CSV/SVG")
    p_sweep.add_argument("--n", default="2,10,50", help="comma-separated environment sizes")
    p_sweep.add_argument("--a-min", type=float, default=0.0)
    p_sweep.add_argument("--a-max", type=float, default=1.0)
    p_sweep.add_argument("--a-step", type=float, default=0.05)
    p_sweep.add_argument("--out", required=True, help="CSV output path")
    p_sweep.add_argument("--plot", default=None, help="optional SVG output path")

    p_audit = sub.add_parser("audit", parents=[common], help="run an inequality audit suite")
    p_audit.add_argument("--suite", required=True, choices=SUITES)
    p_audit.add_argument("--trials", type=int, default=100)
    p_audit.add_argument("--out", required=True, help="CSV report path")

    p_state = sub.add_parser("state", parents=[common], help="correlation measures of one state")
    p_state.add_argument("--in", dest="infile", required=True, help="state file to read")
    p_state.add_argument("--split", required=True, help="bipartition, e.g. 0|1 or 0,1|2")
    p_state.add_argument("--measure", choices=["a", "b"], default="b")
    p_state.add_argument("--out", default=None, help="optional CSV output path")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    handlers = {"sweep": cmd_sweep, "audit": cmd_audit, "state": cmd_state}
    return handlers[args.command](args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
