"""Write the CLI's CSV outputs for a fixed set of flags into one directory.

Usage: PYTHONPATH=src python tools/cli_outputs.py OUTDIR

OUTDIR receives the CSVs of the default `qcorr sweep`, of a finer sweep, of
every `qcorr audit` suite at 40 trials and seed 3, and of `qcorr state` on
seeded state files; the manifests, which hold wall-clock times, are removed.
Identical code gives byte-identical files, so `diff -r` between the outputs
of two checkouts lists every CSV cell a change moved. The exit status is 1
when any command exits non-zero.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
from math import prod
from pathlib import Path

import qcorr
from qcorr.cli import SUITES, main

# dims, split and measured side of each state file: d_rest = 2, 3, 4 and 8.
STATE_CASES = (
    ((2, 2), "0|1", "b"),
    ((2, 3), "0|1", "a"),
    ((2, 2, 2), "0,1|2", "b"),
    ((2, 2, 2, 2), "0,1,2|3", "b"),
)
STATE_SEEDS = (0, 1, 2)


def _commands(statedir: Path):
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
                state = (
                    qcorr.random_pure_state(dims, seed)
                    if rank == 1
                    else qcorr.random_density_matrix(dims, rank, seed)
                )
                path = statedir / f"{name}.json"
                qcorr.save_state(path, state)
                yield f"{name}.csv", ["state", "--in", str(path), "--split", split,
                                      "--measure", measure]


def write_outputs(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    with tempfile.TemporaryDirectory() as statedir, open(os.devnull, "w") as devnull:
        for name, argv in _commands(Path(statedir)):
            out = outdir / name
            with contextlib.redirect_stdout(devnull):
                status = main([*argv, "--out", str(out)])
            Path(f"{out}.manifest.json").unlink(missing_ok=True)
            if status != 0:
                print(f"qcorr {' '.join(argv)}: exit status {status}", file=sys.stderr)
                failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[2])
    sys.exit(write_outputs(Path(sys.argv[1])))
