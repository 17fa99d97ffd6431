"""Tests for the command-line interface: sweeps, audits, state files."""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcorr
from qcorr import (
    Bipartition,
    DensityMatrix,
    bell_state,
    density_from_pure,
    partial_trace,
    quantum_discord,
    random_density_matrix,
    save_state,
    von_neumann_entropy,
)
from qcorr.cli import SUITES, build_parser, main
from qcorr.bounds import make_audit


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _werner_half() -> DensityMatrix:
    phi = density_from_pure(bell_state()).mat
    return DensityMatrix(0.5 * phi + 0.5 * np.eye(4) / 4.0, (2, 2))


# ---------------------------------------------------------------------------
# parser-level behavior
# ---------------------------------------------------------------------------


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == 0
    assert "qcorr" in capsys.readouterr().out


def test_one_parser_serves_every_call_without_carrying_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    fixture = tmp_path / "rho.json"
    save_state(fixture, random_density_matrix((2, 2), 3, 7))
    state = ["state", "--in", str(fixture), "--split", "0|1"]
    sweep = ["sweep", "--n", "2,3", "--a-step", "0.25"]
    runs = [
        ("a", [*state, "--measure", "a"]),
        ("b", state),  # no --measure: the default, b
        (None, [*state, "--measure", "c"]),  # an argparse error
        ("sweep", sweep),
        ("a", [*state, "--measure", "a"]),
        ("sweep", sweep),
        ("b", state),
    ]
    first = {}
    for key, argv in runs:
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        code = main([*argv, "--out", str(out)])
        capsys.readouterr()
        if key is None:
            assert code == 2 and not out.exists()
            continue
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert first.setdefault(key, text) == text
    assert _read_csv(tmp_path / "out.csv")[1][-1] == "b"


def test_unknown_suite_is_a_usage_error(tmp_path, capsys):
    code = main(["audit", "--suite", "nope", "--out", str(tmp_path / "x.csv")])
    capsys.readouterr()
    assert code == 2


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_writes_expected_grid_and_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "2", "--a-step", "0.5", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == [
        "n", "a", "h_s", "avg_eof", "avg_classical", "avg_discord",
        "delta", "bound", "delta_defined",
    ]
    assert [r[1] for r in rows[1:]] == ["0", "0.5", "1"]

    ghz_row = rows[1]
    assert ghz_row[4] == "1"  # avg_classical
    assert float(ghz_row[6]) == pytest.approx(0.0, abs=1e-9)
    assert ghz_row[8] == "true"

    product_row = rows[3]
    assert product_row[6] == "" and product_row[7] == ""
    assert product_row[8] == "false"
    assert float(product_row[3]) == pytest.approx(0.0, abs=1e-9)

    mid_row = rows[2]
    assert mid_row[2] == "0.954434002925"  # 12 significant digits
    assert float(mid_row[3]) <= float(mid_row[7]) + 2.001e-3


def test_sweep_row_count_follows_grid_arithmetic(tmp_path):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--n", "2,3", "--a-step", "0.05", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) - 1 == 2 * 21


def test_sweep_rejects_malformed_grids(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--n", "2", "--a-step", "-0.1", "--out", out]) == 2
    assert main(["sweep", "--n", "2,zap", "--out", out]) == 2
    assert main(["sweep", "--n", "2", "--a-min", "0.8", "--a-max", "0.2", "--out", out]) == 2
    for flag, value in (("--a-step", "nan"), ("--a-min", "nan"), ("--a-max", "nan"),
                        ("--a-max", "inf")):
        assert main(["sweep", "--n", "2", flag, value, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "malformed" in err


def test_sweep_and_audit_name_bad_sizes_and_unwritable_outputs(tmp_path, capsys):
    assert main(["sweep", "--n", "0", "--out", str(tmp_path / "x.csv")]) == 2
    assert "n_env must be a positive integer, got 0" in capsys.readouterr().err
    missing = str(tmp_path / "missing" / "x.csv")
    for argv in (["sweep", "--n", "2", "--a-step", "1", "--out", missing],
                 ["audit", "--suite", "remark", "--trials", "1", "--out", missing]):
        assert main(argv) == 2
        assert "error: cannot write output" in capsys.readouterr().err


def test_an_unwritable_manifest_is_an_output_error(tmp_path, capsys):
    # With the manifest path a directory, the manifest write fails after the CSV
    # is written: exit 2 with the path named, not a traceback, and for audit not
    # the 1 that means "audits violated".
    out = tmp_path / "o.csv"
    (tmp_path / "o.csv.manifest.json").mkdir()
    for argv in (["sweep", "--n", "2", "--a-step", "0.5", "--out", str(out)],
                 ["audit", "--suite", "remark", "--trials", "1", "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output: ")
        assert str(tmp_path / "o.csv.manifest.json") in err


def test_sweep_writes_manifest_sidecar(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "2", "--a-step", "1", "--seed", "9", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "sweep"
    assert manifest["seed"] == 9
    assert manifest["parameters"]["n"] == [2]
    assert manifest["duration_seconds"] >= 0.0
    assert "version" in manifest


def test_sweep_plot_is_a_standalone_svg(tmp_path):
    out = tmp_path / "sweep.csv"
    plot = tmp_path / "sweep.svg"
    code = main(
        ["sweep", "--n", "2,4", "--a-step", "0.25", "--out", str(out), "--plot", str(plot)]
    )
    assert code == 0
    text = plot.read_text(encoding="utf-8")
    assert text.lstrip().startswith("<svg")
    assert "polyline" in text
    assert text.count("N = ") == 2  # one panel per environment size


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_kw_fixture_trial_has_zero_gap(tmp_path):
    out = tmp_path / "kw.csv"
    assert main(["audit", "--suite", "kw", "--trials", "1", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert rows[0] == ["label", "lhs", "rhs", "slack", "satisfied", "tolerance"]
    label, lhs, rhs, slack, satisfied, tol = rows[1]
    assert label == "kw"
    assert float(lhs) == pytest.approx(0.0, abs=1e-12)
    assert float(rhs) == pytest.approx(0.0, abs=1e-9)
    assert float(slack) == pytest.approx(0.0, abs=1e-9)
    assert satisfied == "true"


@pytest.mark.parametrize("suite", SUITES)
def test_audit_suites_pass_on_small_trial_counts(tmp_path, suite):
    out = tmp_path / f"{suite}.csv"
    assert main(["audit", "--suite", suite, "--trials", "3", "--out", str(out)]) == 0
    rows = _read_csv(out)
    assert len(rows) - 1 == 3
    assert all(r[4] == "true" for r in rows[1:])


def test_audit_requires_positive_trials(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["audit", "--suite", "kw", "--trials", "0", "--out", out]) == 2
    assert "trials" in capsys.readouterr().err


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["audit", "--suite", "kw", "--trials", "2", "--seed", "-1", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_audit_exit_code_flags_violations(tmp_path, capsys, monkeypatch):
    import qcorr.cli as cli_mod

    def fake_suite_audit(suite, trial, seed):
        return make_audit("kw", 1.0, 0.0, 1e-6)

    monkeypatch.setattr(cli_mod, "_suite_audit", fake_suite_audit)
    out = tmp_path / "bad.csv"
    assert main(["audit", "--suite", "kw", "--trials", "2", "--out", str(out)]) == 1
    assert "2/2" in capsys.readouterr().err
    rows = _read_csv(out)
    assert all(r[4] == "false" for r in rows[1:])


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------


def test_state_on_bell_fixture(tmp_path, capsys):
    fixture = tmp_path / "bell.json"
    save_state(fixture, bell_state())
    out = tmp_path / "bell.csv"
    code = main(["state", "--in", str(fixture), "--split", "0|1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "mutual information I" in printed
    header, row = _read_csv(out)
    assert header == ["mutual_info", "classical", "discord", "eof", "entropy_a", "measured_side"]
    values = dict(zip(header, row))
    assert float(values["mutual_info"]) == pytest.approx(2.0, abs=1e-9)
    assert float(values["classical"]) == pytest.approx(1.0, abs=1e-9)
    assert float(values["discord"]) == pytest.approx(1.0, abs=1e-9)
    assert float(values["eof"]) == pytest.approx(1.0, abs=1e-9)
    assert values["measured_side"] == "b"


def test_state_on_product_fixture(tmp_path, capsys):
    fixture = tmp_path / "product.json"
    mat = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    save_state(fixture, DensityMatrix(mat, (2, 2)))
    out = tmp_path / "product.csv"
    assert main(["state", "--in", str(fixture), "--split", "0|1", "--out", str(out)]) == 0
    capsys.readouterr()
    header, row = _read_csv(out)
    values = dict(zip(header, row))
    for key in ("mutual_info", "classical", "discord", "eof"):
        assert abs(float(values[key])) <= 1e-9


def test_state_matches_library_on_werner_fixture(tmp_path, capsys):
    fixture = tmp_path / "werner.json"
    save_state(fixture, _werner_half())
    out = tmp_path / "werner.csv"
    assert main(["state", "--in", str(fixture), "--split", "0|1", "--out", str(out)]) == 0
    capsys.readouterr()
    header, row = _read_csv(out)
    values = dict(zip(header, row))
    record = quantum_discord(Bipartition(_werner_half(), (0,), (1,)), measured="b")
    assert float(values["discord"]) == pytest.approx(record.discord, abs=1e-12)
    assert float(values["classical"]) == pytest.approx(record.classical, abs=1e-12)


def test_state_labels_the_unmeasured_side_entropy(tmp_path, capsys):
    # entropy_a is the unmeasured side's entropy: with --measure a, H(rho_B).
    rho = random_density_matrix((2, 3), 3, 11)
    fixture = tmp_path / "qutrit.json"
    save_state(fixture, rho)
    out = tmp_path / "qutrit.csv"
    argv = ["state", "--in", str(fixture), "--split", "0|1", "--measure", "a", "--out", str(out)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    h_b = von_neumann_entropy(partial_trace(rho, (1,)))
    assert abs(h_b - von_neumann_entropy(partial_trace(rho, (0,)))) > 0.2
    labels = dict(line.rsplit(None, 1) for line in printed.splitlines())
    assert "entropy H(rho_A)" not in labels
    assert float(labels["entropy H(rho_B)"]) == pytest.approx(h_b, abs=1e-11)
    values = dict(zip(*_read_csv(out)))
    assert float(values["entropy_a"]) == pytest.approx(h_b, abs=1e-11)  # 12 digits
    assert values["measured_side"] == "a"


def test_state_usage_errors(tmp_path, capsys):
    fixture = tmp_path / "bell.json"
    save_state(fixture, bell_state())
    assert main(["state", "--in", str(tmp_path / "nope.json"), "--split", "0|1"]) == 2
    assert main(["state", "--in", str(fixture), "--split", "0|5"]) == 2
    assert main(["state", "--in", str(fixture), "--split", "01"]) == 2
    assert main(["state", "--in", str(fixture), "--split", "0|1,1"]) == 2
    assert "side_b index 1 is repeated in (1, 1)" in capsys.readouterr().err
    assert main(["state", "--in", str(fixture), "--split", "x|1"]) == 2
    assert "malformed --split side 'x'" in capsys.readouterr().err
    assert main(["state", "--in", str(fixture), "--split", "|1"]) == 2
    assert "--split side '' is empty" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    assert main(["state", "--in", str(broken), "--split", "0|1"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_state_reports_non_finite_entries(tmp_path, capsys):
    # JSON allows NaN; the state check names it instead of the eigensolver failing.
    fixture = tmp_path / "nan.json"
    fixture.write_text('{"dims": [2, 2], "vector": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}',
                       encoding="utf-8")
    assert main(["state", "--in", str(fixture), "--split", "0|1"]) == 2
    assert "error: entries must be finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# installed entry point
# ---------------------------------------------------------------------------


def test_console_script_is_wired_up():
    # The installed console script where there is one; else the module entry point
    # of this source tree, which the console script calls.
    exe = shutil.which("qcorr")
    if exe is not None:
        cmd, env = [exe, "--version"], None
    else:
        src = str(Path(qcorr.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        cmd = [sys.executable, "-m", "qcorr.cli", "--version"]
        env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "qcorr" in proc.stdout
