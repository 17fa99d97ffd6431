#!/usr/bin/env python3
"""qcorr benchmark: one closed-loop caller in one thread, four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

measures one workload and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``). The
line before it is a JSON object with the run's details and environment.

    python3 perfbench/run.py --record

runs every workload on the default and the held-out seed, untraced and
traced, checks that the machine-independent counters repeat across two
traced runs of one seed, and writes ``perfbench/baseline.json``.

    python3 perfbench/run.py --write-reference

stores the J values of the first rounds of both seeds in
``perfbench/reference.json``; later runs on those seeds fail an item whose
J drops more than 1e-10 below its stored value.
"""

import os

# All matrices are at most 16x16: measure the single-threaded BLAS baseline.
# This has to happen before numpy is imported, here or in a child process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from numpy.linalg import eigvalsh as _EIGVALSH  # noqa: E402  (bound before tracing wraps it)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
BASELINE = HERE / "baseline.json"

WORKLOADS = ("sweep", "audits", "states", "roof")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
DEFAULT_SECONDS = 20.0
SETUP_PROBES = 5
# Items beyond the tail percentile.
TAIL_BEYOND = 10
# Per-layer counts are taken over the first rounds only, so they repeat
# exactly for a seed whatever the machine's speed; the traced run always
# completes them.
COUNT_ROUNDS = 2


# Reference-speed kernel. A 2-vCPU Intel Xeon (2.0 GHz) virtual machine was
# seen to change speed by up to 1.8x for minutes at a time, for every process
# alike; a fixed kernel of tiny eigensolves in a Python loop slows and speeds
# up with qcorr's own code (over 20 s windows the spread of the median sweep
# item fell from 0.15 to 0.03 once rescaled by it). Item times are therefore rescaled to the
# speed at which the kernel takes CAL_REF_S, measured between every two items;
# the raw wall-clock figures stay in the detail line.
CAL_LOOPS = 200
CAL_REF_S = 0.002

# Set-up is mostly process start and the numpy and scipy imports, which the
# kernel above follows only loosely (correlation 0.3 over 350 probes). A fresh
# interpreter that imports numpy and scipy.optimize and nothing of qcorr
# follows it closely (correlation 0.84 over 112 probes), so each set-up probe
# is rescaled to the speed at which that interpreter takes SETUP_REF_S,
# timed before and after the probe.
SETUP_REF_CMD = (sys.executable, "-c", "import numpy, scipy.optimize; print('ready', flush=True)")
SETUP_REF_S = 0.5


def _calibrate() -> float:
    """Seconds the reference kernel takes now."""
    import numpy as np

    m = np.eye(4, dtype=complex) + 0.1
    start = time.perf_counter()
    for _ in range(CAL_LOOPS):
        _EIGVALSH(m)
    return time.perf_counter() - start


def _import_qcorr():
    if not (SRC / "qcorr" / "__init__.py").is_file():
        raise SystemExit(f"error: no qcorr sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qcorr

    if Path(qcorr.__file__).resolve().parent != SRC / "qcorr":
        raise SystemExit(f"error: imported qcorr from {qcorr.__file__}, not from {SRC}")
    return qcorr


def _environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:
        # Only this checkout's own commit: a parent directory's repository does not count.
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcorr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def _load_reference(workload: str, seed: int) -> list:
    if not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), [])


def _time_to_ready(cmd) -> float:
    """Seconds from starting ``cmd`` until it prints ``ready``; waits for it to exit."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: {cmd[1:]} failed (exit {code}, said {line!r})")
    return elapsed


def _setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to first timed item on fresh processes: (wall, rescaled) per probe."""
    probe = (sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed))
    wall, scaled = [], []
    ref_before = _time_to_ready(SETUP_REF_CMD)
    for _ in range(SETUP_PROBES):
        elapsed = _time_to_ready(probe)
        ref_after = _time_to_ready(SETUP_REF_CMD)
        wall.append(elapsed)
        scaled.append(elapsed * 2.0 * SETUP_REF_S / (ref_before + ref_after))
        ref_before = ref_after
    return wall, scaled


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) with exactly TAIL_BEYOND items above it."""
    n = len(latencies)
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


@dataclass
class Timings:
    """What a closed-loop run saw, one entry per item in run order."""

    wall: list = field(default_factory=list)  # seconds
    speed: list = field(default_factory=list)  # machine speed over the reference speed
    kinds: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    round_len: int = 0

    @property
    def scaled(self) -> list:
        """Item latencies rescaled to the reference speed."""
        return [w * f for w, f in zip(self.wall, self.speed)]


def measure(args) -> int:
    qcorr = _import_qcorr()
    import workloads
    import tracing

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            wl = workloads.make(args.workload, devnull)
            items = wl.round_items(args.seed, 0, workdir)
            wl.run(items[0])  # untimed warm-up
            if args.setup_probe:
                print("ready", flush=True)
                return 0
            run = _closed_loop(args, wl, workloads, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(run.wall), len(run.errors)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": run.errors[:5],
        "rounds": attempted // run.round_len,
        "items_per_s": attempted / sum(run.scaled),
        "speed_p50": statistics.median(run.speed),
        "wall_items_per_s": attempted / sum(run.wall),
        "wall_p50_ms": statistics.median(run.wall) * 1e3,
        "wall_tail_ms": _tail(run.wall)[0] * 1e3,
        "kind_p50_ms": {
            k: statistics.median(t for t, kk in zip(run.scaled, run.kinds) if kk == k) * 1e3
            for k in dict.fromkeys(run.kinds)
        },
        "environment": _environment(args.seed),
        "qcorr_version": qcorr.__version__,
    }
    if tracer is None:
        setup_wall, setup = _setup_seconds(args.workload, args.seed)
        tail, pct = _tail(run.scaled)
        detail.update(setup_s_samples=setup, wall_setup_s_samples=setup_wall,
                      wall_setup_s=statistics.median(setup_wall),
                      tail_percentile=round(pct, 2), tail_items_beyond=TAIL_BEYOND)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "items_per_s": {"value": attempted / sum(run.scaled), "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(run.scaled) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": tail * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        count_window = COUNT_ROUNDS * run.round_len
        metrics = tracing.layer_metrics(tracer.items, run.wall, run.speed, count_window)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(trace_file)
        detail.update(trace_file=str(trace_file.relative_to(ROOT)),
                      count_window_items=count_window, spans=len(tracer.spans))
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{args.workload:8s} {'error_rate':40s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} items)")
    if tracer is None:
        print(f"{args.workload:8s} item_tail_ms is p{detail['tail_percentile']} "
              f"({TAIL_BEYOND} of {attempted} items beyond it)")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _closed_loop(args, wl, workloads, tracer, workdir) -> Timings:
    """Run whole rounds until ``--seconds`` have passed; check every output.

    The run's clock is rescaled like the item times, so the items a seed runs
    do not depend on how fast the machine happens to be.
    """
    reference = _load_reference(args.workload, args.seed)
    run = Timings()
    min_rounds = COUNT_ROUNDS if tracer is not None else 1
    elapsed = 0.0
    mark = time.perf_counter()
    r = 0
    cal_before = _calibrate()
    while True:
        items = wl.round_items(args.seed, r, workdir)
        for item in items:
            if tracer is not None:
                tracer.begin_item()
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
            except Exception as exc:  # noqa: BLE001 - a raising item is a failed item
                out, error = None, f"{type(exc).__name__}: {exc}"
            else:
                error = None
            run.wall.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_item()
            cal_after = _calibrate()
            speed = 2.0 * CAL_REF_S / (cal_before + cal_after)
            run.speed.append(speed)
            cal_before = cal_after
            now = time.perf_counter()
            elapsed += (now - mark) * speed
            mark = now
            run.kinds.append(item.kind)
            if error is None:
                index = len(run.wall) - 1
                ref = reference[index] if index < len(reference) else None
                error = workloads.check_item(wl, item, out, ref)
            if error is not None:
                run.errors.append(f"round {r} {item.kind}: {error}")
        r += 1
        if elapsed >= args.seconds and r >= min_rounds and len(run.wall) > TAIL_BEYOND:
            run.round_len = len(items)
            return run


def write_reference(args) -> int:
    """Store the J values of the first rounds of the shipped seeds."""
    _import_qcorr()
    import workloads

    reference = {}
    workdir = WORK / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            for name in WORKLOADS:
                wl = workloads.make(name, devnull)
                if not wl.reference_rounds:
                    continue
                reference[name] = {}
                for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                    values = []
                    for r in range(wl.reference_rounds):
                        for item in wl.round_items(seed, r, workdir):
                            error, j_values = wl.check(item, wl.run(item))
                            if error is not None:
                                raise SystemExit(f"error: {name} seed {seed} round {r}: {error}")
                            values.append(j_values)
                    reference[name][str(seed)] = values
                    print(f"{name} seed {seed}: {len(values)} items", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    return {**json.loads(lines[-1]), **json.loads(lines[-2])}


def record(args) -> int:
    """Baseline of every workload on both seeds, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    baseline = {
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "run_seconds": seconds,
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        entry = {"why": w["why"], "seeds": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            plain = _child(name, seed, seconds, 0)
            traced = _child(name, seed, seconds, 1)
            untraced_ips = plain["metrics"]["items_per_s"]["value"]
            traced_ips = traced["detail"]["items_per_s"]
            entry["seeds"][str(seed)] = {
                "untraced": plain,
                "traced": traced,
                "tracing_overhead": (untraced_ips - traced_ips) / untraced_ips,
            }
            if seed == DEFAULT_SEED:
                # The repeat overwrites the trace file, so read the first one now.
                first = _item_counters(traced)
                second = _item_counters(_child(name, seed, seconds, 1))
                n = min(len(first), len(second))
                entry["counters_repeat"] = {
                    "items_compared": n, "equal": n > 0 and first[:n] == second[:n]
                }
                print(f"{name}: machine-independent counters of {n} items repeat exactly: "
                      f"{entry['counters_repeat']['equal']}")
        baseline["workloads"][name] = entry
    baseline["environment"] = plain["detail"]["environment"]
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    ok = all(e["counters_repeat"]["equal"] for e in baseline["workloads"].values()) and all(
        s[mode]["failed"] == 0
        for e in baseline["workloads"].values()
        for s in e["seeds"].values()
        for mode in ("untraced", "traced")
    )
    return 0 if ok else 1


def _item_counters(result: dict) -> list[dict]:
    """Per-item machine-independent counters from a traced run's trace file."""
    import tracing

    counters = []
    with open(ROOT / result["detail"]["trace_file"], encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if "counters" in rec:
                counters.append(tracing.machine_independent(rec["counters"]))
    return counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qcorr benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="write perfbench/baseline.json")
    parser.add_argument("--write-reference", action="store_true",
                        help="write perfbench/reference.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.record:
        return record(args)
    if args.write_reference:
        return write_reference(args)
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
