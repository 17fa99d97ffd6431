"""Reading and writing states as structured text files.

The container is JSON with a fixed shape: a ``dims`` list plus either a
``vector`` (pure state) or a ``matrix`` (density matrix), every complex
entry written as a ``[real, imaginary]`` pair. The format is deliberately
language-neutral so fixture files diff cleanly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import DensityMatrix, PureState, _as_dims


def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def save_state(path, state: DensityMatrix | PureState) -> None:
    """Write a state file; pure states keep their vector form."""
    if isinstance(state, PureState):
        payload = {"dims": list(state.dims), "vector": _pairs(state.vec)}
    elif isinstance(state, DensityMatrix):
        payload = {"dims": list(state.dims), "matrix": [_pairs(row) for row in state.mat]}
    else:
        raise TypeError(f"cannot serialize {type(state).__name__}")
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def _complex_array(entries, what: str, ndim: int) -> np.ndarray:
    try:
        arr = np.asarray(entries, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} entries must be [real, imaginary] pairs") from exc
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise ValueError(f"{what} entries must be [real, imaginary] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def load_state(path) -> DensityMatrix | PureState:
    """Read a state file back into a PureState or DensityMatrix.

    Raises ValueError with the failing check for malformed files, including
    violations of the state invariants (finite entries, trace, Hermiticity,
    positivity, normalization) enforced by the returned types.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed state file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"state file {path} must hold an object with a 'dims' field")
    if "dims" not in payload:
        raise ValueError(f"state file {path} is missing 'dims'")
    try:
        dims = _as_dims(payload["dims"])
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"state file {path} has malformed dims {payload['dims']!r}: {exc}"
        ) from exc
    if "vector" in payload:
        return PureState(_complex_array(payload["vector"], "vector", 1), dims)
    if "matrix" in payload:
        return DensityMatrix(_complex_array(payload["matrix"], "matrix", 2), dims)
    raise ValueError(f"state file {path} needs a 'vector' or 'matrix' field")
