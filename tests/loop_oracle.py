"""Reference oracles: the original per-cube loop versions of functions
that now run on arrays, kept to check the array versions against them
(exactly, except where the summation order changed: the comparable-scale
sum of the decomposition identity, the identity on stacks of pairs (one
matrix product for all of them), everything the InducedOperator chi
tables feed, and the paraproducts' Haar blocks (formed from the factors W
and A, where the oracle takes the dense W^T A), compared at ORACLE_RTOL;
and the weighted Haar rows, which
the code writes in closed form where the loop runs Gram-Schmidt, compared
at the drift bound of test_haar_kernel.py).  The Carleson functions here
work on {cube: a_Q} dicts, the representation CarlesonSequence used before it
became an array; the search and band_to_json oracles sort BandOperator
keys by repr, where the code now ranks Haar-system positions, and the band
oracles build dicts keyed by HaarIndex / RootIndex and look each key up
with basis_positions, where every band builder now writes arrays of
Haar-system positions.

The Cube helpers `cube_side`, `cube_children` and `cube_contains` are the
per-cube geometry the library's index tables replaced.

Named without a `test` prefix so pytest collects nothing from it.
"""
import itertools
import math

import numpy as np

from haarlab import (NO_COMMON_ANCESTOR, Cube, MeasureGrid, build_lattice, induce, random_band,
                     tree_distance, uniform_measure)
from haarlab.analysis import DecompositionReport, TestingReport, testing_constants
from haarlab.io import cube_to_json
from haarlab.operators import (BandOperator, HaarIndex, RootIndex, WellLocalizedReport,
                               assemble)
from haarlab.paraproduct import (CarlesonPropertyReport,
                                 ParaproductStructureReport, RemainderReport,
                                 _largest_eigenvalue, _largest_singular_value)
from haarlab.search import SearchResult

# The InducedOperator chi tables are one BLAS product, T @ membership, where
# the oracles form T @ indicator(Q) one cube at a time, so the paraproducts,
# the Carleson sequence and the Carleson property round in another order.
# On 2300 random 1D-3D instances (1-3 roots, zero-mass leaves, band and dense
# operators) the drift stayed below 1.5e-15 of each array's scale, and below
# 3.6e-15 in max_excess, a difference of nearly equal sums.
ORACLE_RTOL = 1e-14


def oracle_close(got, want, floor=0.0) -> bool:
    """got and want agree to ORACLE_RTOL of their scale: the largest
    magnitude in want, or `floor` where that is larger.  The floor is the
    size of the terms the array is summed from, for arrays whose exact
    value can be 0 while round-off leaves noise in both."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want), initial=0.0)), floor)
    return got.shape == want.shape and bool(
        np.max(np.abs(got - want), initial=0.0) <= ORACLE_RTOL * scale)


def cube_side(q):
    """The side 2**level of a cube (the Cube.side property this replaces)."""
    return 2.0 ** q.level


def cube_children(q):
    """The 2**dim sub-cubes of q at level - 1, in lexicographic coordinate order."""
    return [Cube(q.dim, q.level - 1, tuple(2 * c + o for c, o in zip(q.coords, offs)))
            for offs in itertools.product((0, 1), repeat=q.dim)]


def cube_contains(q, other):
    """Whether the cube `other` lies inside the cube q."""
    if other.dim != q.dim or other.level > q.level:
        return False
    return other.ancestor(q.level - other.level) == q


def haar_cubes(measure):
    """haar_rows with the row cubes as Cube objects."""
    cubes, rows = measure.haar_rows
    return [measure.lattice.active_cubes[i] for i in cubes], rows


def loop_average(measure, values, q):
    idx = loop_leaf_indices(measure.lattice, q)
    m = float(measure.leaf_mass[idx].sum())
    if m == 0.0:
        return 0.0
    return float(np.sum(values[idx] * measure.leaf_mass[idx]) / m)


def loop_martingale_difference(measure, values, q):
    """Delta_Q f: on each child of q, (average on child) - (average on q)."""
    lattice = measure.lattice
    out = np.zeros(lattice.n_leaves)
    base = loop_average(measure, values, q)
    for child in cube_children(q):
        out[loop_leaf_indices(lattice, child)] = loop_average(measure, values, child) - base
    return out


def loop_expectation(measure, values, q):
    """E_Q f: the average of f on q, as a function supported on q."""
    out = np.zeros(measure.lattice.n_leaves)
    out[loop_leaf_indices(measure.lattice, q)] = loop_average(measure, values, q)
    return out


def loop_parseval_residuals(mu, nu, functions):
    """suite_verify's Parseval residuals |sum of ||piece||^2 - ||f||^2| / ||f||^2,
    one function, measure and cube at a time, in the order it once ran."""
    residuals = []
    for f in functions:
        for measure in (mu, nu):
            lattice, mass = measure.lattice, measure.leaf_mass
            deltas = [loop_martingale_difference(measure, f, q) for q in lattice.nonleaf_cubes]
            exps = [loop_expectation(measure, f, root) for root in lattice.roots]
            total = sum(float(np.sum(d * d * mass)) for d in deltas)
            total += sum(float(np.sum(e * e * mass)) for e in exps)
            norm2 = float(np.sum(f * f * mass))
            if norm2 > 0:
                residuals.append(abs(total - norm2) / norm2)
    return residuals


def loop_delta_level_within(measure, values, level, q):
    """Sum of Delta_R over the cubes R inside q at the given level; 0 on the
    leaves of zero-mass children."""
    lattice = measure.lattice
    mass = measure.leaf_mass
    out = np.zeros(lattice.n_leaves)
    cubes = [r for r in lattice.cubes_at_level(level) if cube_contains(q, r)]
    for r in cubes:
        ridx = loop_leaf_indices(lattice, r)
        mr = float(mass[ridx].sum())
        base = float(np.sum(values[ridx] * mass[ridx]) / mr) if mr > 0 else 0.0
        for child in cube_children(r):
            cidx = loop_leaf_indices(lattice, child)
            mc = float(mass[cidx].sum())
            if mc > 0:
                out[cidx] = float(np.sum(values[cidx] * mass[cidx]) / mc) - base
    return out


def loop_build_paraproduct(t, r, enlarge=0):
    """The leaf matrix W^T A of t's paraproduct, its rows assembled one cube
    at a time: the dense product that Paraproduct keeps as its factors."""
    lattice = t.lattice
    op, avg_measure, delta_measure = t.matrix, t.mu, t.nu
    w_rows = []
    a_rows = []
    for q in lattice.active_cubes:
        if q.level - r < lattice.leaf_level + 1:
            continue
        mq = avg_measure.cube_masses[lattice.cube_index[q]]
        if mq == 0.0:
            continue
        big = q
        for _ in range(enlarge):
            cand = big.parent()
            if cand not in lattice.cube_index:
                break
            big = cand
        t_chi = op @ lattice.indicator(big)
        w_rows.append(loop_delta_level_within(delta_measure, t_chi, q.level - r, q))
        a_rows.append(lattice.indicator(q) * avg_measure.leaf_mass / mq)
    n = lattice.n_leaves
    if not w_rows:
        return np.zeros((n, n))
    return np.array(w_rows).T @ np.array(a_rows)


def paraproduct_matrix(pi):
    """The leaf matrix W^T A of a Paraproduct, which the code never forms."""
    return pi.w.T @ pi.a


def factored_block(pi, out_weighted, in_rows):
    """pi's Haar block from its factors in the order Paraproduct.haar_block
    forms it, ((H_out out) W^T)(A H_in^T), for the loop oracles of the checks
    that read the block; the block itself is compared with the dense
    loop_haar_block(paraproduct_matrix(pi), ...) at a drift bound."""
    return (out_weighted @ pi.w.T) @ (pi.a @ in_rows.T)


def loop_haar_block(matrix, in_measure, out_measure):
    """<matrix h_Q, h_R>_out over the out_measure Haar rows R (rows) and
    the in_measure Haar rows Q (columns), with the measures named by the
    caller, as before each operator and paraproduct cached its own block."""
    out_rows, in_rows = out_measure.haar_rows[1], in_measure.haar_rows[1]
    return (out_rows * out_measure.leaf_mass) @ matrix @ in_rows.T


def loop_carleson_values(t_mu, r):
    """a_Q per active cube, one cube at a time."""
    lattice = t_mu.lattice
    values = np.zeros(len(lattice.active_cubes))
    for i, q in enumerate(lattice.active_cubes):
        if q.level - r < lattice.leaf_level + 1:
            continue
        t_chi = t_mu.matrix @ lattice.indicator(q)
        d = loop_delta_level_within(t_mu.nu, t_chi, q.level - r, q)
        values[i] = np.sum(d * d * t_mu.nu.leaf_mass)
    return values


def loop_comparable_sum(t_mu, r, f, g):
    """sum over non-leaf Q, R with |level(Q) - level(R)| <= r of
    <T_mu Delta_Q f, Delta_R g>_nu, one pair at a time."""
    lattice, mu, nu = t_mu.lattice, t_mu.mu, t_mu.nu
    deltas_f = {q: loop_martingale_difference(mu, f, q) for q in lattice.nonleaf_cubes}
    deltas_g = {q: loop_martingale_difference(nu, g, q) for q in lattice.nonleaf_cubes}
    comparable = 0.0
    for q, df in deltas_f.items():
        tdf = t_mu.matrix @ df
        for rq, dg in deltas_g.items():
            if abs(rq.level - q.level) <= r:
                comparable += float(np.sum(tdf * dg * nu.leaf_mass))
    return comparable


def loop_decomposition_identity(t_mu, r, f, g, pi_mu, pi_nu):
    """decomposition_identity for one pair (f, g), with matrix-vector
    products, as it ran once per pair."""
    lattice, mu, nu = t_mu.lattice, t_mu.mu, t_mu.nu
    f_mean = mu.mean_part(f)
    f_fluct = f - f_mean
    g_mean = nu.mean_part(g)
    g_fluct = g - g_mean
    lhs = nu.inner(t_mu.matrix @ f, g)
    term_pi_mu = nu.inner(pi_mu.w.T @ (pi_mu.a @ f_fluct), g)
    term_pi_nu = mu.inner(f, pi_nu.w.T @ (pi_nu.a @ g_fluct))
    levels = np.arange(lattice.top_level, lattice.leaf_level, -1)
    delta_f = mu.level_deltas(f, levels)
    delta_g = nu.level_deltas(g, levels) * nu.leaf_mass
    pairs = delta_f @ t_mu.matrix.T @ delta_g.T
    comparable = float(pairs[np.abs(levels[:, None] - levels) <= r].sum())
    mean_terms = (nu.inner(t_mu.matrix @ f_mean, g)
                  + nu.inner(t_mu.matrix @ f_fluct, g_mean))
    residual = abs(lhs - (term_pi_mu + term_pi_nu + comparable + mean_terms))
    scale = (nu.norm(t_mu.matrix @ f) * nu.norm(g)
             + mu.norm(f) * mu.norm(t_mu.adjoint.matrix @ g))
    if not (math.isfinite(residual) and math.isfinite(scale)):
        relative = float("nan")
    else:
        relative = residual / scale if scale > 0 else residual
    return DecompositionReport(lhs=lhs, paraproduct_mu=term_pi_mu,
                               paraproduct_nu=term_pi_nu, comparable=comparable,
                               mean_terms=mean_terms, residual=residual,
                               relative=relative)


def loop_operator_norm(t_mu):
    """Largest singular value of D_nu^(1/2) [T_mu] D_mu^(-1/2), gathered
    onto the positive-mass leaf coordinates for every operator."""
    mu_mass = t_mu.mu.leaf_mass
    nu_mass = t_mu.nu.leaf_mass
    cols = np.flatnonzero(mu_mass > 0)
    rows = np.flatnonzero(nu_mass > 0)
    k = (np.sqrt(nu_mass[rows])[:, None] * t_mu.matrix[np.ix_(rows, cols)]
         / np.sqrt(mu_mass[cols])[None, :])
    return _largest_singular_value(k)


def loop_testing_constants(t_mu, r):
    """Exact suprema over active cubes of the indicator testing quantities."""
    lattice = t_mu.lattice
    cubes = lattice.active_cubes
    x = np.array([lattice.indicator(q) for q in cubes]).T
    mu_mass = t_mu.mu.leaf_mass
    nu_mass = t_mu.nu.leaf_mass
    mu_masses, nu_masses = loop_cube_masses(t_mu.mu), loop_cube_masses(t_mu.nu)
    mu_q = np.array([mu_masses[q] for q in cubes])
    nu_q = np.array([nu_masses[q] for q in cubes])
    tx = t_mu.matrix @ x
    ax = t_mu.adjoint.matrix @ x

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

    norm = loop_operator_norm(t_mu)
    denom = np.sqrt(c_dl) + np.sqrt(c_al) + c_diag
    if np.isnan(norm + denom):
        rho = float("nan")
    elif denom > 0:
        rho = norm / denom
    else:
        rho = 0.0 if norm == 0.0 else float("inf")
    return TestingReport(c_direct_global=c_dg, c_adjoint_global=c_ag,
                         c_direct_local=c_dl, c_adjoint_local=c_al,
                         c_adjoint_local_nu=c_aln, c_diag=c_diag,
                         norm=norm, rho=rho, unbounded_witness=witness)


def loop_leaf_indices(lattice, q):
    """Leaves inside an active cube, enumerated cube by cube."""
    k = q.level - lattice.leaf_level
    ranges = [range(c << k, (c + 1) << k) for c in q.coords]
    # leaves close active_cubes, in leaf order
    first = len(lattice.nonleaf_cubes)
    return np.array(sorted(lattice.cube_index[Cube(lattice.dim, lattice.leaf_level, cs)] - first
                           for cs in itertools.product(*ranges)), dtype=np.intp)


def loop_children_index(lattice):
    """Lattice.children_index built from Cube objects, as it was before
    position arithmetic."""
    index = lattice.cube_index
    return np.array([[index[c] for c in cube_children(q)] for q in lattice.nonleaf_cubes],
                    dtype=np.intp).reshape(-1, 2 ** lattice.dim)


def loop_levels(lattice):
    return np.array([q.level for q in lattice.active_cubes])


def loop_ancestor_index(lattice):
    """Row k: active position of each leaf's ancestor k levels below the top."""
    return np.array([[lattice.cube_index[leaf.ancestor(lattice.depth - k)]
                      for leaf in lattice.leaves] for k in range(lattice.depth + 1)])


def loop_level_leaves(lattice):
    return tuple(np.array([loop_leaf_indices(lattice, q) for q in lattice.cubes_at_level(level)])
                 for level in range(lattice.top_level, lattice.leaf_level - 1, -1))


def loop_membership(lattice):
    x = np.zeros((len(lattice.leaves), len(lattice.active_cubes)))
    for j, q in enumerate(lattice.active_cubes):
        x[loop_leaf_indices(lattice, q), j] = 1.0
    return x


def loop_cube_masses(mu):
    """{cube: mu(Q)} over the active cubes, as MeasureGrid once cached it."""
    return {q: float(mu.leaf_mass[loop_leaf_indices(mu.lattice, q)].sum())
            for q in mu.lattice.active_cubes}


def loop_subtree_sums(lattice, values):
    """sum of a_Q over active Q contained in each active cube."""
    sums = {}
    for level in range(lattice.leaf_level, lattice.top_level + 1):
        for q in lattice.cubes_at_level(level):
            s = values.get(q, 0.0)
            if level > lattice.leaf_level:
                s += sum(sums[c] for c in cube_children(q))
            sums[q] = s
    return sums


def loop_carleson_constant(lattice, values, masses):
    """`masses` is loop_cube_masses(mu)."""
    sums = loop_subtree_sums(lattice, values)
    best = 0.0
    for q in lattice.active_cubes:
        m = masses[q]
        s = sums[q]
        if m == 0.0:
            if s > 0.0:
                return float("inf")
            continue
        best = max(best, s / m)
    return best


def loop_embedding_rows(lattice, values, mu, masses):
    """Rows of the square root of the embedding form; None when it is 0."""
    mass = mu.leaf_mass
    pos = np.flatnonzero(mass > 0)
    if pos.size == 0:
        return None
    sqrt_mass = np.sqrt(mass[pos])
    rows = []
    for q in lattice.active_cubes:
        a = values.get(q, 0.0)
        if a == 0.0:
            continue
        m = masses[q]
        if m == 0.0:
            continue
        ind = np.zeros(lattice.n_leaves)
        ind[loop_leaf_indices(lattice, q)] = 1.0
        rows.append(np.sqrt(a) * ind[pos] * sqrt_mass / m)
    return np.array(rows) if rows else None


def loop_embedding_constant(lattice, values, mu, masses):
    # the dense SVD, independent of the Gram eigensolve under test
    rows = loop_embedding_rows(lattice, values, mu, masses)
    if rows is None:
        return 0.0
    s = np.linalg.svd(rows, compute_uv=False)[0]
    return float(s * s)


def _loop_greedy_value(lattice, values, masses):
    # The greedy oracle checks the draw, normalization and accept order bit
    # for bit, so it builds the code's cube-side Gram entry by entry with the
    # same roundings and shares the code's eigen kernel; that kernel is
    # checked against the SVD through loop_embedding_constant.
    support = [q for q in lattice.active_cubes
               if values.get(q, 0.0) > 0.0 and masses[q] > 0.0]
    gram = np.zeros((len(support),) * 2)
    for i, r in enumerate(support):
        gram[i, i] = values[r] / masses[r]
        for j, s in enumerate(support[:i]):
            if cube_contains(s, r):
                gram[i, j] = gram[j, i] = (math.sqrt(values[r]) * math.sqrt(values[s])
                                           / masses[s])
    top = max(gram.ravel().tolist(), default=0.0)
    if not 0.0 < top < math.inf:
        return top
    e = math.frexp(top)[1]
    return math.ldexp(_largest_eigenvalue(np.ldexp(gram, -e)), e)


def _loop_normalized(lattice, values, masses):
    c = loop_carleson_constant(lattice, values, masses)
    if c == 0 or not np.isfinite(c):
        return values
    return {q: a / c for q, a in values.items()}


def loop_greedy_embedding_sequence(depth, seed=0, iterations=40, init=None):
    """The greedy maximizer on {cube: a_Q} dicts; init and the returned
    sequence are such dicts."""
    lattice = build_lattice(1, 0, -depth)
    mu = uniform_measure(lattice, total=1.0)
    masses = loop_cube_masses(mu)
    chain = {Cube(1, -j, (0,)): masses[Cube(1, -j, (0,))]
             for j in range(depth + 1)}
    candidates = [_loop_normalized(lattice, chain, masses)]
    if init is not None:
        carried = {q: a for q, a in init.items()
                   if q in lattice.cube_index and a > 0}
        if carried:
            candidates.append(carried)
    seq, best = None, -1.0
    for cand in candidates:
        val = _loop_greedy_value(lattice, cand, masses)
        if val > best:
            seq, best = cand, val
    rng = np.random.default_rng(seed)
    cubes = list(lattice.active_cubes)
    for _ in range(iterations):
        cand_values = dict(seq)
        for _ in range(1 + rng.integers(3)):
            q = cubes[rng.integers(len(cubes))]
            old = cand_values.get(q, 0.0)
            if old > 0:
                cand_values[q] = old * np.exp(0.5 * rng.standard_normal())
            else:
                cand_values[q] = masses[q] * rng.uniform(0.1, 1.0)
        cand = _loop_normalized(lattice, cand_values, masses)
        val = _loop_greedy_value(lattice, cand, masses)
        if val > best:
            best, seq = val, cand
    return seq, best


def loop_carleson_property(t_mu, values, tol=1e-10):
    lattice = t_mu.lattice
    sums = loop_subtree_sums(lattice, values)
    masses = loop_cube_masses(t_mu.mu)
    excess = 0.0
    c_local = 0.0
    witness = None  # the first cube of the largest positive excess
    for q in lattice.active_cubes:
        ind = lattice.indicator(q)
        out = (t_mu.matrix @ ind) * ind
        bound = float(np.sum(out * out * t_mu.nu.leaf_mass))
        scale = max(bound, 1.0)
        if (sums[q] - bound) / scale > excess:
            excess, witness = (sums[q] - bound) / scale, q
        m = masses[q]
        if m > 0:
            c_local = max(c_local, bound / m)
    return CarlesonPropertyReport(passed=excess <= tol, max_excess=excess,
                                  local_testing_constant=c_local, witness=witness)


def loop_paraproduct_structure_verify(pi, t, tol=1e-9):
    r = pi.r
    op, in_measure, out_measure = t.matrix, t.mu, t.nu
    mu_cubes, mu_rows = haar_cubes(in_measure)
    nu_cubes, nu_rows = haar_cubes(out_measure)
    if not mu_cubes or not nu_cubes:
        return ParaproductStructureReport(True, 0.0, 0.0, 0.0, 0.0, None)
    weighted = nu_rows * out_measure.leaf_mass
    g_pi = factored_block(pi, weighted, mu_rows)
    g_t = weighted @ op @ mu_rows.T
    scale = max(float(np.max(np.abs(g_t))), float(np.max(np.abs(g_pi))))
    if scale == 0.0:
        return ParaproductStructureReport(True, 0.0, 0.0, 0.0, 0.0, None)
    dev1 = dev2 = dev3 = 0.0
    witness = None
    for i, rc in enumerate(nu_cubes):
        for j, qc in enumerate(mu_cubes):
            if rc.level >= qc.level - r:
                d = abs(g_pi[i, j]) / scale
                if d > dev1:
                    dev1, witness = d, ("vanish_scale", qc, rc)
            if not cube_contains(qc, rc):
                d = abs(g_pi[i, j]) / scale
                if d > dev2:
                    dev2, witness = d, ("vanish_outside", qc, rc)
            if rc.level < qc.level - r:
                d = abs(g_pi[i, j] - g_t[i, j]) / scale
                if d > dev3:
                    dev3, witness = d, ("equality", qc, rc)
    passed = max(dev1, dev2, dev3) <= tol
    return ParaproductStructureReport(passed=passed, scale=scale, max_dev_vanish_scale=dev1,
                                      max_dev_vanish_outside=dev2, max_dev_equality=dev3,
                                      witness=None if passed else witness)


def loop_remainder_diagonals(t_mu, pi_mu, pi_nu, tol=1e-12):
    r = pi_mu.r
    mu_cubes, mu_rows = haar_cubes(t_mu.mu)
    nu_cubes, nu_rows = haar_cubes(t_mu.nu)
    if not mu_cubes or not nu_cubes:
        return RemainderReport(True, 0.0, 0.0, 0.0)
    nu_weighted = nu_rows * t_mu.nu.leaf_mass
    mu_weighted = mu_rows * t_mu.mu.leaf_mass
    g_t = nu_weighted @ t_mu.matrix @ mu_rows.T
    g_pi = factored_block(pi_mu, nu_weighted, mu_rows)
    g_pin = factored_block(pi_nu, mu_weighted, nu_rows).T
    diff = g_t - g_pi - g_pin
    scale = float(np.max(np.abs(g_t)))
    if scale == 0.0:
        scale = max(float(np.max(np.abs(diff))), 1.0)
    off = in_band = 0.0
    for i, rc in enumerate(nu_cubes):
        for j, qc in enumerate(mu_cubes):
            d = abs(diff[i, j])
            if abs(rc.level - qc.level) > r:
                off = max(off, d / scale)
            else:
                in_band = max(in_band, d)
    return RemainderReport(passed=off <= tol, scale=scale,
                           off_band_max=off, in_band_max=in_band)


def _haar_pairings(op_matrix, out_measure, lattice):
    """Matrix of <Op chi_Q, h_R^w>_w over non-leaf R (rows, stacked by basis
    element) and all active Q (columns); also the active position of the
    cube of each row."""
    row_cubes, rows = out_measure.haar_rows
    pair = (rows * out_measure.leaf_mass) @ (op_matrix @ lattice.membership)
    return pair, row_cubes


def loop_check_well_localized(t_mu, r, tol=1e-12):
    lattice = t_mu.lattice
    scans = [
        _haar_pairings(t_mu.matrix, t_mu.nu, lattice),
        _haar_pairings(t_mu.adjoint.matrix, t_mu.mu, lattice),
    ]
    scale = max((float(np.max(np.abs(p))) for p, _ in scans if p.size), default=0.0)
    if scale == 0.0:
        return WellLocalizedReport(True, r, 0.0, 0.0, None, 0)
    worst = 0.0
    witness = None
    checked = 0
    for direction, (pair, row_cubes) in zip(("direct", "adjoint"), scans):
        for i, rc in enumerate(lattice.active_cubes[k] for k in row_cubes):
            for j, q in enumerate(lattice.active_cubes):
                if rc.level > q.level:
                    continue
                grand = q.ancestor(r)
                flagged = (not cube_contains(grand, rc)) or (
                    rc.level <= q.level - r and not cube_contains(q, rc))
                if not flagged:
                    continue
                checked += 1
                v = abs(pair[i, j]) / scale
                if v > worst:
                    worst = v
                    witness = (direction, q, rc)
    return WellLocalizedReport(passed=worst <= tol, r=r, max_violation=worst,
                               scale=scale, witness=witness,
                               checked_pairs=checked)


def loop_comparable_pairing_count(t_mu, r, tol=1e-12):
    mu_cubes, mu_rows = haar_cubes(t_mu.mu)
    nu_cubes, nu_rows = haar_cubes(t_mu.nu)
    if not mu_cubes or not nu_cubes:
        return 0
    block = (nu_rows * t_mu.nu.leaf_mass) @ t_mu.matrix @ mu_rows.T
    scale = float(np.max(np.abs(block)))
    if scale == 0.0:
        return 0
    cols_of = {}
    for k, c in enumerate(mu_cubes):
        cols_of.setdefault(c, []).append(k)
    best = 0
    for q, cols in cols_of.items():
        hit = set()
        for i, rc in enumerate(nu_cubes):
            if abs(rc.level - q.level) > r:
                continue
            if any(abs(block[i, k]) / scale > tol for k in cols):
                hit.add(rc)
        best = max(best, len(hit))
    return best


def loop_weighted_haar_basis(measure, q):
    """The weighted Haar basis of q as leaf vectors: Gram-Schmidt in the mu
    inner product over the positive-mass children, one cube at a time.

    The loop runs in np.longdouble and rounds each entry to float64 once, so
    its round-off on the children where a vector is exactly 0 stays far
    below the drift bound of test_haar_kernel.py: in float64 it reached
    1.06e-15 of the row's largest entry on a 3D cube with one child 83 times
    heavier than the others.  Where longdouble is float64 (some platforms)
    this is the plain float64 loop."""
    lattice = measure.lattice
    children = cube_children(q)
    masses = measure.cube_masses[[lattice.cube_index[c] for c in children]]
    alive = np.flatnonzero(masses > 0)
    funcs = []
    if alive.size >= 2:
        w = masses[alive].astype(np.longdouble)
        done = []
        for k in range(1, alive.size):
            v = np.zeros(alive.size, dtype=np.longdouble)
            v[k] = 1.0
            v -= np.sum(v * w) / np.sum(w)
            for u in done:
                v -= np.sum(v * u * w) * u
            nrm = np.sqrt(np.sum(v * v * w))
            v /= nrm
            if v[k] < 0:
                v = -v
            done.append(v)
            leafvals = np.zeros(lattice.n_leaves)
            for j, ci in enumerate(alive):
                leafvals[loop_leaf_indices(lattice, children[ci])] = v[j]
            funcs.append(leafvals)
    return funcs


def loop_haar_rows(measure):
    """(cubes, rows) as MeasureGrid.haar_rows, stacked cube by cube."""
    lattice = measure.lattice
    cubes, rows = [], []
    for i, q in enumerate(lattice.nonleaf_cubes):
        for h in loop_weighted_haar_basis(measure, q):
            cubes.append(i)
            rows.append(h)
    return (np.array(cubes, dtype=np.intp),
            np.array(rows).reshape(len(cubes), lattice.n_leaves))


def loop_haar_system(lattice):
    """(indices, rows) of the Lebesgue Haar system, stacked cube by cube."""
    lebesgue = uniform_measure(lattice)
    indices, rows = [], []
    for q in lattice.nonleaf_cubes:
        for k, h in enumerate(loop_weighted_haar_basis(lebesgue, q)):
            indices.append(HaarIndex(q, k))
            rows.append(h)
    for root in lattice.roots:
        indices.append(RootIndex(root))
        rows.append(lattice.indicator(root) / np.sqrt(2.0 ** (root.level * lattice.dim)))
    return tuple(indices), np.array(rows)


def basis_positions(lattice, indices) -> np.ndarray:
    """Row of each basis index in haar_system(lattice), looked up index by
    index: HaarIndex(Q, k) is row (2**dim - 1) * i + k for the i-th active
    cube Q, and the roots follow all Haar rows, in order.  Raises ValueError
    for an index outside the lattice's Haar system: a leaf or inactive cube,
    a component out of range, or a RootIndex of a cube that is not a root."""
    n_comp = 2 ** lattice.dim - 1
    n_nonleaf, n_roots = len(lattice.nonleaf_cubes), len(lattice.roots)
    index = lattice.cube_index
    out = []
    for ix in indices:
        i = index.get(getattr(ix, "cube", None), n_nonleaf)
        if isinstance(ix, HaarIndex) and i < n_nonleaf and 0 <= ix.component < n_comp:
            out.append(n_comp * i + ix.component)
        elif isinstance(ix, RootIndex) and i < n_roots:
            out.append(n_comp * n_nonleaf + i)
        else:
            raise ValueError(f"{ix!r} is not a basis index of the lattice")
    return np.array(out, dtype=np.intp)


def band_from_entries(lattice, band_radius, entries, meta=None):
    """The band of a {(row index, col index): value} dict, in its order."""
    return BandOperator(lattice, band_radius,
                        *(basis_positions(lattice, [key[j] for key in entries]) for j in (0, 1)),
                        list(entries.values()), meta or {})


def loop_haar_multiplier_entries(lattice, spec, root_alpha=0.0):
    """haar_multiplier's entries as a dict: (h, h) for every Haar function h
    of a cube with nonzero alpha, in spec order, then the root indicators."""
    alpha = spec if isinstance(spec, dict) else {q: float(spec) for q in lattice.nonleaf_cubes}
    entries = {(HaarIndex(q, k),) * 2: float(a) for q, a in alpha.items() if a != 0.0
               for k in range(2 ** lattice.dim - 1)}
    if root_alpha != 0.0:
        entries.update(((RootIndex(root),) * 2, float(root_alpha)) for root in lattice.roots)
    return entries


def loop_haar_shift_entries(lattice):
    """(haar_shift's entries as a dict, the number of dropped terms), one
    Cube.children call per non-leaf cube."""
    entries, dropped = {}, 0
    for q in lattice.nonleaf_cubes:
        left, right = cube_children(q)
        if left.level > lattice.leaf_level:
            entries[(HaarIndex(right, 0), HaarIndex(q, 0))] = 1.0
            entries[(HaarIndex(left, 0), HaarIndex(q, 0))] = -1.0
        else:
            dropped += 1
    return entries, dropped


def loop_tree_distance(q, r):
    """tree_distance by walking Cube objects up to the common ancestor,
    one parent() call per level; inf for cubes that never meet."""
    if q.dim != r.dim:
        raise ValueError("cubes have different dimensions")
    dist = 0
    if q.level < r.level:
        dist = r.level - q.level
        q = q.ancestor(r.level - q.level)
    elif r.level < q.level:
        dist = q.level - r.level
        r = r.ancestor(q.level - r.level)
    while q.coords != r.coords:
        qp, rp = q.parent(), r.parent()
        if qp.coords == q.coords and rp.coords == r.coords:
            # both at a fixed point of the parent map, never meet
            return NO_COMMON_ANCESTOR
        q, r = qp, rp
        dist += 2
    return dist


def loop_cubes_within_distance(lattice, q, r):
    return [p for p in lattice.nonleaf_cubes if tree_distance(q, p) <= r]


def loop_random_band_entries(lattice, r, seed, amplitude=1.0, root_amplitude=0.0):
    """random_band's entries as a {(row index, col index): value} dict, drawn
    pair by pair over a tree_distance scan of every pair of non-leaf cubes,
    one scalar draw per entry."""
    rng = np.random.default_rng(seed)
    n_comp = 2 ** lattice.dim - 1
    entries = {}
    for q in lattice.nonleaf_cubes:
        for p in loop_cubes_within_distance(lattice, q, r):
            for kq in range(n_comp):
                for kp in range(n_comp):
                    val = rng.uniform(-amplitude, amplitude)
                    if amplitude > 0:
                        entries[(HaarIndex(p, kp), HaarIndex(q, kq))] = val
    if root_amplitude > 0:
        for root in lattice.roots:
            rix = RootIndex(root)
            for other in lattice.roots:
                entries[(RootIndex(other), rix)] = rng.uniform(
                    -root_amplitude, root_amplitude)
            near = [p for p in lattice.nonleaf_cubes
                    if cube_contains(root, p) and root.level - p.level <= r]
            for p in near:
                for k in range(n_comp):
                    entries[(HaarIndex(p, k), rix)] = rng.uniform(
                        -root_amplitude, root_amplitude)
                    entries[(rix, HaarIndex(p, k))] = rng.uniform(
                        -root_amplitude, root_amplitude)
    return entries


def loop_random_band(lattice, r, seed, amplitude=1.0, root_amplitude=0.0):
    """random_band built from loop_random_band_entries' dict."""
    return band_from_entries(lattice, r, loop_random_band_entries(
        lattice, r, seed, amplitude, root_amplitude))


def loop_leaf_matrix(lattice, entries):
    """The leaf matrix of an entries dict, its positions looked up index by
    index with basis_positions."""
    return assemble(lattice, *(basis_positions(lattice, [key[j] for key in entries])
                               for j in (0, 1)), list(entries.values()))


def index_to_json(ix) -> dict:
    """The JSON of a basis index object."""
    if isinstance(ix, HaarIndex):
        return {"kind": "haar", "cube": cube_to_json(ix.cube),
                "component": ix.component}
    if isinstance(ix, RootIndex):
        return {"kind": "root", "cube": cube_to_json(ix.cube)}
    raise TypeError(f"not a basis index: {ix!r}")


def loop_band_to_json(op):
    """band_to_json with its entries sorted by the repr of (row, col)."""
    entries = [{"row": index_to_json(row), "col": index_to_json(col),
                "value": float(val)}
               for (row, col), val in sorted(
                   op.entries.items(), key=lambda kv: repr(kv[0]))]
    return {"type": "explicit", "r": op.band_radius, "entries": entries}


def _loop_evaluate(band, mu, nu, r):
    report = testing_constants(induce(band, mu, nu), r)
    return report.rho, report


def loop_extremal_search(config):
    """extremal_search on BandOperator dicts: move keys sorted by repr, and
    every band move copies the entries dict and rebuilds a BandOperator
    from it."""
    rng = np.random.default_rng(config.seed)
    lattice = build_lattice(config.dim, config.top_level, config.leaf_level)
    band = random_band(lattice, config.r, seed=config.seed,
                       amplitude=config.amplitude,
                       root_amplitude=config.root_amplitude)
    mu = MeasureGrid(lattice, np.exp(
        config.weight_sigma * rng.standard_normal(lattice.n_leaves)))
    nu = MeasureGrid(lattice, np.exp(
        config.weight_sigma * rng.standard_normal(lattice.n_leaves)))

    rho, report = _loop_evaluate(band, mu, nu, config.r)
    history = [rho]
    keys = sorted(band.entries, key=repr)
    for _ in range(config.iterations):
        move = rng.integers(3)
        cand_band, cand_mu, cand_nu = band, mu, nu
        if move == 0 and keys:
            key = keys[rng.integers(len(keys))]
            entries = dict(band.entries)
            entries[key] = entries[key] + config.step * rng.standard_normal()
            cand_band = band_from_entries(lattice, config.r, entries)
        elif move == 1:
            mass = mu.leaf_mass.copy()
            i = rng.integers(mass.size)
            mass[i] = mass[i] * np.exp(config.step * rng.standard_normal())
            cand_mu = MeasureGrid(lattice, mass)
        else:
            mass = nu.leaf_mass.copy()
            i = rng.integers(mass.size)
            mass[i] = mass[i] * np.exp(config.step * rng.standard_normal())
            cand_nu = MeasureGrid(lattice, mass)
        cand_rho, cand_report = _loop_evaluate(cand_band, cand_mu, cand_nu, config.r)
        if cand_rho > rho:
            band, mu, nu = cand_band, cand_mu, cand_nu
            rho, report = cand_rho, cand_report
        history.append(rho)
    return SearchResult(config=config, rho=rho, report=report, band=band,
                        mu=mu, nu=nu, history=history)
