"""Probe every public audit on seeded states, and compare two probes.

Usage: PYTHONPATH=src python tools/audit_probe.py OUT.json [--seeds N]
       PYTHONPATH=src python tools/audit_probe.py --compare A.json B.json

The first form runs each audit below on N seeds (default 50) of its states and
writes the label, lhs, rhs, slack, satisfied and extras of every audit it
returns to OUT.json, floats as their `repr`, sorted by id; identical code gives
byte-identical files. It covers what no CLI CSV shows: the f-bound audit, which
has no CLI suite, and the continuity audit's m2. Audits and states:

  continuity, f-bound  full-rank 2x2 measured on 0 and on 1, 2x3 on 0, 3x2 on 1,
                       2x2x2 on 0 and on 2, and 2x2x2x2 on 3
  kw                   3-qubit pure states, system 0 and fragment 1
  discord-bound        3-, 4- and 5-qubit pure states, system 0
  eof-bound            3- and 4-qubit pure states, system 0 (one audit per site
                       and the average)
  remark               2x2 states of rank 1 to 4
  fanchini             3-qubit pure states, system 0 and site 1 and 2
  jens                 pairs of full-rank states of dimension 2, 3 and 4
  env-bound            4-qubit pure environments, every ordered site pair, from
                       one `env_consensus` report

Each case's seed is the CRC-32 of its id, so a probe of more seeds holds the
audits of a probe of fewer. The second form matches two probes by id and
prints, per audit kind, how many audits changed and, for each changed field,
how many audits it moved in and by how much at most; it exits 1 if an audit
satisfied in A is not satisfied in B, and 2 if the probes do not hold the same
audits.
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

# dims and measured qubit of the continuity and f-bound states.
PINCH_CASES = (((2, 2), 0), ((2, 2), 1), ((2, 3), 0), ((3, 2), 1), ((2, 2, 2), 0),
               ((2, 2, 2), 2), ((2, 2, 2, 2), 3))
FIELDS = ("label", "lhs", "rhs", "slack", "satisfied")


def _full_rank(dims, seed: int):
    return qcorr.random_density_matrix(dims, prod(dims), seed)


def _pure(n: int, seed: int):
    return qcorr.random_pure_state((2,) * n, seed)


def _env_bound(seed: int) -> list:
    env = _pure(4, seed)
    report = qcorr.env_consensus(env)
    return [qcorr.env_eof_bound_audit(env, i, j, report)
            for i in range(4) for j in range(4) if i != j and report.defined[i]]


def _cases(s: int):
    """(kind, id, builder of a list of BoundAudit) of every case of seed index ``s``."""
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


def probe(seeds: int) -> list[dict]:
    records = []
    for s in range(seeds):
        for kind, case_id, build in _cases(s):
            for k, audit in enumerate(build(zlib.crc32(case_id.encode()))):
                record = {"id": f"{case_id}/{k}", "kind": kind}
                record.update({f: _value(getattr(audit, f)) for f in FIELDS})
                record["extras"] = {key: _value(v) for key, v in sorted(audit.extras.items())}
                records.append(record)
    return sorted(records, key=lambda r: r["id"])


def _fields(record: dict) -> dict:
    """Every compared field of a record, extras as ``extras.<name>``."""
    out = {f: record[f] for f in FIELDS}
    out.update({f"extras.{k}": v for k, v in record["extras"].items()})
    return out


def _distance(a, b) -> float:
    """|a - b| of two numeric fields (floats written as their repr, booleans as 0 and 1),
    or inf for any other change."""
    try:
        return abs(float(a) - float(b))
    except (TypeError, ValueError):
        return float("inf")


def compare(a_path: Path, b_path: Path) -> int:
    a, b = ({r["id"]: r for r in json.loads(p.read_text())["records"]} for p in (a_path, b_path))
    if a.keys() != b.keys():
        print(f"the probes hold different audits: {len(a.keys() ^ b.keys())} ids differ",
              file=sys.stderr)
        return 2
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Probe every public audit, or compare two probes.")
    parser.add_argument("out", nargs="?", type=Path, help="JSON file the probe writes")
    parser.add_argument("--seeds", type=int, default=50, help="seeds per case")
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
