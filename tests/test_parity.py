"""Tests for the exit codes and listings of `tools/parity.py --compare` on small
synthetic outputs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

_CSV = "n,a,J\n1,0.5,0.25\n2,0.5,0.125\n"


def _j_record(j=0.5, state_id="2x2/r2/m0/s0"):
    return {"id": state_id, "family": "2x2", "j": j, "evaluations": 400, "converged": True}


def _audit_record(satisfied=True, lhs="0.1"):
    return {"id": "kw/3q/s0/0", "kind": "kw", "label": "KW", "lhs": lhs, "rhs": "0.2",
            "slack": "0.1", "satisfied": satisfied, "extras": {"h_s": "0.3"}}


def _output(root: Path, name: str, j=None, audits=None, csvs=None) -> Path:
    out = root / name
    (out / "cli").mkdir(parents=True)
    parity._write_records(out / "j.json", 1, [_j_record()] if j is None else j)
    parity._write_records(out / "audits.json", 1, [_audit_record()] if audits is None else audits)
    for csv_name, text in ({"sweep.csv": _CSV} if csvs is None else csvs).items():
        (out / "cli" / csv_name).write_text(text)
    return out


def _compare(tmp_path, **change) -> int:
    return parity.main(["--compare", str(_output(tmp_path, "a")),
                        str(_output(tmp_path, "b", **change))])


def test_identical_outputs_exit_0(tmp_path, capsys):
    assert _compare(tmp_path) == 0
    assert "0 CSV cells moved in 1 files" in capsys.readouterr().out


def test_a_j_drop_above_the_limit_exits_1_and_a_rise_exits_0(tmp_path):
    assert parity.DROP_LIMIT == 1e-13
    assert _compare(tmp_path / "drop", j=[_j_record(0.5 - 2e-13)]) == 1
    assert _compare(tmp_path / "rise", j=[_j_record(0.5 + 1e-3)]) == 0


def test_an_audit_that_is_no_longer_satisfied_exits_1(tmp_path, capsys):
    assert _compare(tmp_path, audits=[_audit_record(satisfied=False)]) == 1
    assert "no longer satisfied: kw/3q/s0/0" in capsys.readouterr().out


def test_a_moved_audit_field_is_counted_and_exits_0(tmp_path, capsys):
    assert _compare(tmp_path, audits=[_audit_record(lhs="0.125")]) == 0
    out = capsys.readouterr().out
    assert "kw                 1 audits,     1 changed" in out
    assert "lhs                        1 moved, largest change 0.025" in out


def test_a_moved_csv_cell_is_listed_and_exits_0(tmp_path, capsys):
    assert _compare(tmp_path, csvs={"sweep.csv": _CSV.replace("0.125", "0.126")}) == 0
    out = capsys.readouterr().out
    assert "sweep.csv row 2 column J: 0.125 -> 0.126" in out
    assert "1 CSV cells moved in 1 files" in out


@pytest.mark.parametrize("change", [
    {"j": [_j_record(state_id="2x2/r3/m0/s0")]},
    {"j": [_j_record(), _j_record(state_id="2x2/r3/m0/s0")]},
    {"audits": []},
    {"csvs": {}},
    {"csvs": {"sweep.csv": _CSV, "state.csv": _CSV}},
], ids=["j-id-renamed", "j-id-added", "audit-id-missing", "csv-missing", "csv-added"])
def test_outputs_of_different_cases_exit_2(tmp_path, change):
    assert _compare(tmp_path, **change) == 2
