"""Definition-route references that the tests compare the library's fast paths against."""

from math import prod

import numpy as np

from qcorr import DensityMatrix, ProjectiveMeasurement


def apply_local_measurement(rho: DensityMatrix, m: ProjectiveMeasurement) -> DensityMatrix:
    """Post-measurement (pinched) state sum_a (I x P_a x I) rho (I x P_a x I)."""
    n = len(rho.dims)
    if not 0 <= m.subsystem < n:
        raise ValueError(f"subsystem {m.subsystem} out of range for dims {rho.dims}")
    d_sub = rho.dims[m.subsystem]
    if m.projectors[0].shape[0] != d_sub:
        raise ValueError(
            f"projector dimension {m.projectors[0].shape[0]} does not match "
            f"subsystem dimension {d_sub}"
        )
    left = np.eye(prod(rho.dims[: m.subsystem]))
    right = np.eye(prod(rho.dims[m.subsystem + 1 :]))
    out = np.zeros_like(rho.mat)
    for p in m.projectors:
        full = np.kron(np.kron(left, p), right)
        out += full @ rho.mat @ full
    out = (out + out.conj().T) / 2.0
    return DensityMatrix(out, rho.dims)
