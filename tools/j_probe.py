"""Probe J's search on seeded states, and compare two probes.

Usage: PYTHONPATH=src python tools/j_probe.py OUT.json [--seeds N]
       PYTHONPATH=src python tools/j_probe.py --compare A.json B.json

The first form runs `classical_correlations` on N seeds (default 42, about
100 states each) of every family below and writes each state's J, evaluated
directions and `converged` to OUT.json, sorted by state id; identical code
gives byte-identical files. Families:

  2x2            ranks 1-4, measured on either side
  2x3 ... 2x2x2x2  2x3, 3x2, 2x4, 2x2x2, 3x2x2 and 2x2x2x2 states of every rank >= 2
  pure-marginal  marginals of 2 to 4 qubits of random 3- to 6-qubit pure states
  near-product   product states mixed with a random full-rank state, weight 1e-2 to 1e-8
  near-pure      pure states mixed with a random full-rank state, weight 1e-2 to 1e-8
  noisy-ghz-w    GHZ and W states of 3 and 4 qubits under white noise, and
                 their marginals with one qubit traced out
  real-2x2x2     real 2x2x2 states of ranks 2, 4 and 8
  star           star-sweep site marginals rho_S,site, and marginals of S with
                 two sites of the brute-force universe for N = 2 to 5

Each state's seed is the CRC-32 of its id, so a probe of more seeds holds the
states of a probe of fewer. The second form matches two probes by id and prints,
per family, the worst drop and the largest rise of J from A to B and the
median and total evaluations of each; it exits 1 if J drops by more than 1e-13
anywhere, and 2 if the probes do not hold the same states.
"""

from __future__ import annotations

import argparse
import json
import sys
import zlib
from math import prod
from pathlib import Path

import numpy as np

import qcorr
from qcorr import DensityMatrix, StarConfig

DROP_LIMIT = 1e-13
# dims and measured qubit of the rank families, d_rest = 3, 3, 4, 4, 6 and 8.
RANK_CASES = (((2, 3), 0), ((3, 2), 1), ((2, 4), 0), ((2, 2, 2), 2), ((3, 2, 2), 1),
              ((2, 2, 2, 2), 3))
MIX_WEIGHTS = (1e-2, 1e-4, 1e-6, 1e-8)


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


def _cases(s: int):
    """(family, id, builder of (rho, measured)) of every state of seed index ``s``."""
    for rank in range(1, 5):
        for measured in (0, 1):
            yield "2x2", f"2x2/r{rank}/m{measured}/s{s}", lambda seed, r=rank, m=measured: (
                qcorr.random_density_matrix((2, 2), r, seed), m)
    for dims, measured in RANK_CASES:
        name = "x".join(map(str, dims))
        for rank in range(2, prod(dims) + 1):
            yield name, f"{name}/r{rank}/s{s}", lambda seed, d=dims, r=rank, m=measured: (
                qcorr.random_density_matrix(d, r, seed), m)
    for n in range(3, 7):
        for kept in range(2, min(4, n - 1) + 1):
            yield "pure-marginal", f"pure{n}/keep{kept}/s{s}", lambda seed, n=n, k=kept: (
                qcorr.reduced_density_matrix(qcorr.random_pure_state((2,) * n, seed),
                                             tuple(range(k))), k - 1)
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
            return qcorr.analytic_marginals(cfg)[1], m

        yield "star", f"star/site/m{measured}/s{s}", site

    def brute(seed):
        rng = np.random.default_rng(seed)
        cfg = StarConfig(int(rng.integers(2, 6)), float(rng.uniform(0.0, 1.0)))
        return qcorr.reduced_density_matrix(qcorr.build_universe_brute(cfg), (0, 1, 2)), 0

    yield "star", f"star/brute/s{s}", brute


def probe(seeds: int) -> list[dict]:
    records = []
    for s in range(seeds):
        for family, state_id, build in _cases(s):
            rho, measured = build(zlib.crc32(state_id.encode()))
            best = qcorr.classical_correlations(rho, measured)
            records.append({"id": state_id, "family": family, "j": best.value,
                            "evaluations": best.evaluations, "converged": best.converged})
    return sorted(records, key=lambda r: r["id"])


def compare(a_path: Path, b_path: Path) -> int:
    a, b = ({r["id"]: r for r in json.loads(p.read_text())["records"]} for p in (a_path, b_path))
    if a.keys() != b.keys():
        print(f"the probes hold different states: {len(a.keys() ^ b.keys())} ids differ",
              file=sys.stderr)
        return 2
    families = sorted({r["family"] for r in a.values()})
    print(f"{'family':<14} {'states':>6} {'worst drop':>11} {'largest rise':>12} "
          f"{'median evals':>13} {'total evals':>19} {'unconverged':>11}")
    worst = 0.0
    for family in families:
        ids = [i for i in a if a[i]["family"] == family]
        diff = np.array([b[i]["j"] - a[i]["j"] for i in ids])
        ev_a, ev_b = (np.array([p[i]["evaluations"] for i in ids]) for p in (a, b))
        unconverged = [sum(not p[i]["converged"] for i in ids) for p in (a, b)]
        drop, rise = max(0.0, -diff.min()), max(0.0, diff.max())
        worst = max(worst, drop)
        print(f"{family:<14} {len(ids):>6} {drop:>11.2e} {rise:>12.2e} "
              f"{np.median(ev_a):>6g} -> {np.median(ev_b):<4g} "
              f"{ev_a.sum():>8} -> {ev_b.sum():<8} {unconverged[0]:>4} -> {unconverged[1]}")
    print(f"worst drop {worst:.2e} (limit {DROP_LIMIT:g})")
    return 1 if worst > DROP_LIMIT else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Probe J's search, or compare two probes.")
    parser.add_argument("out", nargs="?", type=Path, help="JSON file the probe writes")
    parser.add_argument("--seeds", type=int, default=42, help="seeds per state case")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None or args.seeds < 1:
        parser.error("give OUT.json and --seeds >= 1, or --compare A B")
    records = probe(args.seeds)
    args.out.write_text(json.dumps({"seeds": args.seeds, "records": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
