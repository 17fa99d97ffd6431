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


def roof_member_terms(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entanglement p H(w/|w|) of each member of a (N, d_a, d_b) stack, and its gradient G.

    One SVD per member, w = U diag(s) V^dag with p = sum s^2: the value is
    p log2 p - sum s^2 log2 s^2 and G = U diag(s log2(p / s^2)) V^dag, with
    0 log 0 = 0 and no term where s = 0.
    """
    values, grads = [], []
    for member in w:
        u, s, vh = np.linalg.svd(member, full_matrices=False)
        s2 = s * s
        p = s2.sum()
        nz = s2 > 0.0
        values.append(p * np.log2(p) - np.sum(s2[nz] * np.log2(s2[nz])) if p > 0.0 else 0.0)
        coeff = np.zeros_like(s)
        coeff[nz] = s[nz] * np.log2(p / s2[nz])
        grads.append((u * coeff) @ vh)
    return np.array(values), np.array(grads)
