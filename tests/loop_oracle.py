"""Reference oracle: the original per-cube loop version of
haarlab.analysis.testing_constants, kept to check the array version
against it exactly.

Named without a `test` prefix so pytest collects nothing from it.
"""
import numpy as np

from haarlab.analysis import TestingReport, operator_norm


def loop_testing_constants(t_mu, r):
    """Exact suprema over active cubes of the indicator testing quantities."""
    lattice = t_mu.lattice
    cubes = lattice.active_cubes
    x = np.array([lattice.indicator(q) for q in cubes]).T
    mu_mass = t_mu.mu.leaf_mass
    nu_mass = t_mu.nu.leaf_mass
    mu_q = mu_mass @ x
    nu_q = nu_mass @ x
    tx = t_mu.matrix @ x
    ax = t_mu.adjoint_matrix @ x

    direct_global = nu_mass @ (tx * tx)
    direct_local = nu_mass @ (tx * tx * x)
    adjoint_global = mu_mass @ (ax * ax)
    adjoint_local = mu_mass @ (ax * ax * x)
    adjoint_local_nu = nu_mass @ (ax * ax * x)

    witness = None
    c_dg = c_dl = c_ag = c_al = c_aln = 0.0
    for j, q in enumerate(cubes):
        if mu_q[j] > 0:
            c_dg = max(c_dg, direct_global[j] / mu_q[j])
            c_dl = max(c_dl, direct_local[j] / mu_q[j])
        elif direct_global[j] > 0:
            c_dg = c_dl = float("inf")
            witness = ("direct", q)
        if nu_q[j] > 0:
            c_ag = max(c_ag, adjoint_global[j] / nu_q[j])
            c_al = max(c_al, adjoint_local[j] / nu_q[j])
            c_aln = max(c_aln, adjoint_local_nu[j] / nu_q[j])
        elif adjoint_global[j] > 0:
            c_ag = c_al = float("inf")
            witness = ("adjoint", q)

    # comparable-size bilinear pairings
    b = x.T @ (nu_mass[:, None] * tx)
    c_diag = 0.0
    for i, rq in enumerate(cubes):
        for j, q in enumerate(cubes):
            if abs(rq.level - q.level) > r:
                continue
            if mu_q[j] > 0 and nu_q[i] > 0:
                c_diag = max(c_diag, abs(b[i, j]) / np.sqrt(mu_q[j] * nu_q[i]))
            elif abs(b[i, j]) > 0:
                c_diag = float("inf")
                witness = ("diag", q, rq)

    norm = operator_norm(t_mu)
    denom = np.sqrt(c_dl) + np.sqrt(c_al) + c_diag if np.isfinite(
        c_dl + c_al + c_diag) else float("inf")
    rho = 0.0 if norm == 0.0 else (norm / denom if denom > 0 else float("inf"))
    return TestingReport(c_direct_global=c_dg, c_adjoint_global=c_ag,
                         c_direct_local=c_dl, c_adjoint_local=c_al,
                         c_adjoint_local_nu=c_aln, c_diag=c_diag,
                         norm=norm, rho=rho, unbounded_witness=witness)
