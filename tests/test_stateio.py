"""Tests for the JSON state-file round trip."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcorr import (
    DensityMatrix,
    PureState,
    bell_state,
    load_state,
    random_density_matrix,
    random_pure_state,
    save_state,
)


def test_pure_state_round_trip(tmp_path):
    psi = random_pure_state((2, 2, 2), 3)
    path = tmp_path / "psi.json"
    save_state(path, psi)
    back = load_state(path)
    assert isinstance(back, PureState)
    assert back.dims == psi.dims
    assert_allclose(back.vec, psi.vec, atol=1e-15)


def test_density_matrix_round_trip(tmp_path):
    rho = random_density_matrix((2, 3), 4, 7)
    path = tmp_path / "rho.json"
    save_state(path, rho)
    back = load_state(path)
    assert isinstance(back, DensityMatrix)
    assert back.dims == rho.dims
    assert_allclose(back.mat, rho.mat, atol=1e-15)


def test_file_layout_is_language_neutral(tmp_path):
    path = tmp_path / "bell.json"
    save_state(path, bell_state())
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["dims"] == [2, 2]
    assert len(payload["vector"]) == 4
    for entry in payload["vector"]:
        assert isinstance(entry, list) and len(entry) == 2


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="malformed"):
        load_state(path)


def test_load_rejects_undecodable_files(tmp_path):
    # Bytes that are not UTF-8 raise the malformed-file error naming the file, not a
    # bare UnicodeDecodeError.
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dims": [2], "vector": [[1, 0], [0, 0]], "note": "\xe9"}')
    with pytest.raises(ValueError, match=f"malformed state file {path}") as info:
        load_state(path)
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def test_load_rejects_a_file_with_both_a_vector_and_a_matrix(tmp_path):
    # Such a file was read as its vector, whatever its matrix held.
    path = tmp_path / "both.json"
    payload = {"dims": [2], "vector": [[1.0, 0.0], [0.0, 0.0]],
               "matrix": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="holds both 'vector' and 'matrix'"):
        load_state(path)


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "nodims.json"
    path.write_text(json.dumps({"vector": [[1.0, 0.0], [0.0, 0.0]]}), encoding="utf-8")
    with pytest.raises(ValueError, match="dims"):
        load_state(path)
    path.write_text(json.dumps({"dims": [2]}), encoding="utf-8")
    with pytest.raises(ValueError, match="vector"):
        load_state(path)


def test_load_rejects_non_integral_dims(tmp_path):
    path = tmp_path / "fractional.json"
    payload = {"dims": [2.9, 2], "vector": [[1.0, 0.0]] + [[0.0, 0.0]] * 3}
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="2.9"):
        load_state(path)


def test_load_rejects_malformed_entries(tmp_path):
    path = tmp_path / "badentry.json"
    path.write_text(json.dumps({"dims": [2], "vector": [1.0, 0.0]}), encoding="utf-8")
    with pytest.raises(ValueError, match="pairs"):
        load_state(path)


def test_load_rejects_non_numeric_entries_and_non_object_payloads(tmp_path):
    path = tmp_path / "text.json"
    path.write_text(json.dumps({"dims": [2], "vector": [["a", 0.0], [0.0, 0.0]]}),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=r"vector entries must be \[real, imaginary\] pairs"):
        load_state(path)
    path.write_text(json.dumps([2, 2]), encoding="utf-8")
    with pytest.raises(ValueError, match="must hold an object"):
        load_state(path)


def test_load_reports_invariant_violations(tmp_path):
    path = tmp_path / "trace.json"
    payload = {
        "dims": [2],
        "matrix": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]],
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="trace"):
        load_state(path)
    payload["matrix"] = [[[0.5, 0.0], [0.5, 0.3]], [[0.5, -0.3], [0.5, 0.0]]]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="positive semidefinite"):
        load_state(path)


def test_load_rejects_non_finite_entries(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"dims": [2], "matrix": [[[NaN, 0], [0, 0]], [[0, 0], [0.5, 0]]]}',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="entries must be finite"):
        load_state(path)


def test_save_rejects_unknown_payloads(tmp_path):
    with pytest.raises(TypeError):
        save_state(tmp_path / "x.json", np.eye(2))
