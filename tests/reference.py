"""Independent oracles on plain arrays, with no validation.

The sequential single-trial LMS and RLS recursions in the vertex domain
check the batched kernels of ``graphadapt.filters``, one trial and one
instant at a time; the localization norm checks the reconstructability
eigenvalue of ``graphadapt.sampling``, and the explicit node information
matrices check the closed form that ``graphadapt.distributed`` keeps.
``u`` is the (n, |F|) bandlimited basis, ``mask`` the 0/1 sampling mask.
"""

import numpy as np


def lms_step(x, y, mask, u, mu):
    """x <- x + mu U_F U_F^T D_S (y - x)."""
    return x + mu * (u @ (u.T @ (mask * (y - x))))


def rls_step(psi, psiv, y, mask, u, inv_var, beta):
    """Psi <- beta Psi + U_S^T C_S^{-1} U_S, psi <- beta psi + U_S^T C_S^{-1} y_S
    over the sampled rows S."""
    sampled = mask.astype(bool)
    rows, w = u[sampled], inv_var[sampled]
    psi = beta * psi + rows.T @ (w[:, None] * rows)
    return (psi + psi.T) / 2.0, beta * psiv + rows.T @ (w * y[sampled])


def rls_estimate(psi, psiv, u):
    """The vertex-domain estimate U_F Psi^{-1} psi."""
    return u @ np.linalg.solve(psi, psiv)


def localization_norm(sampled, u):
    """Spectral norm ||D_c U_F|| of the basis rows off the ``sampled``
    vertices: below one exactly when sampling that set sees every
    bandlimited signal, one when some such signal lives entirely off it."""
    off = np.ones(u.shape[0], dtype=bool)
    off[list(sampled)] = False
    return float(np.linalg.norm(u[off], 2))


def drls_information(scale, weights, u):
    """The node information matrices scale I + omega_i u_i u_i^T, (..., n, |F|, |F|),
    from the weights omega (..., n)."""
    return scale * np.eye(u.shape[1]) + weights[..., None, None] * np.einsum("ij,ik->ijk", u, u)
