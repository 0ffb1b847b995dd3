"""Stacks of leaf functions: the MeasureGrid methods and the decomposition
identity on a stack against row-by-row calls and the loop oracles, the
scale of the identity's relative residual, off-lattice cubes, and the call
and Haar block counts of a verify run.
"""
import json
import os
import re
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from haarlab import (Cube, MeasureGrid, build_lattice, build_paraproduct,
                     decomposition_identity, induce, random_band, runner,
                     sparse_atoms_measure, zero_blocks_measure)
from haarlab.operators import InducedOperator
from haarlab.paraproduct import Paraproduct

from loop_oracle import (cube_children, lattice_leaves, loop_decomposition_identity,
                         loop_expectation, loop_martingale_difference, loop_parseval_residuals,
                         oracle_close)

REPO = os.path.join(os.path.dirname(__file__), os.pardir)


@st.composite
def measure_stacks(draw, max_dim=3):
    """(measure, values, other): a zero_blocks or sparse_atoms measure on a
    dim 1-max_dim lattice with 1-3 roots, and two stacks of leaf functions of
    one shape (n,), (k, n) or (a, b, n), C-ordered, F-ordered or strided views."""
    dim = draw(st.integers(1, max_dim))
    depth = draw(st.integers(1, {1: 4, 2: 3, 3: 2}[dim]))
    coords = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True))
    lat = build_lattice(dim, 0, -depth, [Cube(dim, 0, (c,) + (0,) * (dim - 1))
                                         for c in coords])
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        measure = zero_blocks_measure(lat, draw(st.sampled_from([0.3, 0.7])), seed)
    else:
        measure = sparse_atoms_measure(lat, draw(st.integers(1, 6)), seed)
    shape = draw(st.sampled_from([(), (3,), (2, 3)]))
    draws = np.random.default_rng(seed).standard_normal(shape + (2, lat.n_leaves))
    values, other = draws[..., 0, :], draws[..., 1, :]   # strided views
    layout = draw(st.sampled_from(["view", "C", "F"]))
    if layout != "view":
        values, other = (np.asarray(v, order=layout) for v in (values, other))
    return measure, values, other


@settings(max_examples=60, deadline=None)
@given(case=measure_stacks())
def test_stacked_measure_methods_equal_row_by_row_calls(case):
    mu, values, other = case
    lat = mu.lattice
    shape = values.shape[:-1]
    stacked = {
        "inner": mu.inner(values, other),
        "norm": mu.norm(values),
        "mean_part": mu.mean_part(values),
        "martingale_difference": [mu.martingale_difference(values, q)
                                  for q in lat.nonleaf_cubes],
        "delta_level_within": [mu.delta_level_within(values, level, q)
                               for q in lat.nonleaf_cubes
                               for level in range(q.level, lat.leaf_level, -1)],
    }
    deltas, exps = mu.martingale_decompose(values)
    assert list(deltas) == list(lat.nonleaf_cubes) and list(exps) == list(lat.roots)
    stacked["decompose"] = list(deltas.values()) + list(exps.values())
    assert np.shape(stacked["inner"]) == np.shape(stacked["norm"]) == shape
    for name in ("martingale_difference", "delta_level_within", "decompose"):
        assert all(v.shape == values.shape for v in stacked[name])
    assert stacked["mean_part"].shape == values.shape
    for row in (np.ndindex(shape) if shape else ()):
        f, g = values[row], other[row]
        assert np.array_equal(stacked["inner"][row], mu.inner(f, g))
        assert np.array_equal(stacked["norm"][row], mu.norm(f))
        assert np.array_equal(stacked["mean_part"][row], mu.mean_part(f))
        for q, got in zip(lat.nonleaf_cubes, stacked["martingale_difference"]):
            assert np.array_equal(got[row], mu.martingale_difference(f, q))
        within = [mu.delta_level_within(f, level, q) for q in lat.nonleaf_cubes
                  for level in range(q.level, lat.leaf_level, -1)]
        for got, want in zip(stacked["delta_level_within"], within):
            assert np.array_equal(got[row], want)
        d, e = mu.martingale_decompose(f)
        for got, want in zip(stacked["decompose"], list(d.values()) + list(e.values())):
            assert np.array_equal(got[row], want)
    if not shape:
        # one function: floats, and the per-cube loops' values
        f, g, mass = values, other, mu.leaf_mass
        assert type(stacked["inner"]) is float and type(stacked["norm"]) is float
        assert stacked["inner"] == float(np.sum(f * g * mass))
        for q, got in zip(lat.nonleaf_cubes, stacked["martingale_difference"]):
            assert np.array_equal(got, loop_martingale_difference(mu, f, q))
        # the root averages E_R f, which mean_part sums and martingale_decompose masks
        roots = [loop_expectation(mu, f, root) for root in lat.roots]
        assert np.array_equal(stacked["mean_part"], sum(roots))
        assert all(np.array_equal(got, want) for got, want in zip(exps.values(), roots))


@settings(max_examples=60, deadline=None)
@given(case=measure_stacks(max_dim=2), data=st.data())
def test_martingale_difference_of_cubes_at_one_level_stacks_the_single_calls(case, data):
    # zero_blocks and sparse_atoms masses leave zero-mass children; the
    # cubes come in any order, repeats and the empty sequence included
    mu, values, _ = case
    lat = mu.lattice
    level = data.draw(st.integers(lat.leaf_level + 1, lat.top_level))
    cubes = data.draw(st.lists(st.sampled_from(lat.cubes_at_level(level)), max_size=6))
    got = mu.martingale_difference(values, cubes)
    assert got.shape == values.shape[:-1] + (len(cubes), lat.n_leaves)
    for k, q in enumerate(cubes):
        assert np.array_equal(got[..., k, :], mu.martingale_difference(values, q))


def test_martingale_difference_of_cubes_with_long_rows_stacks_the_single_calls():
    # children of 256 and 512 leaves, where numpy's pairwise sum splits its rows
    lat = build_lattice(1, 0, -10, [Cube(1, 0, (0,)), Cube(1, 0, (3,))])
    mu = zero_blocks_measure(lat, 0.3, 5)
    f = np.random.default_rng(5).standard_normal((3, lat.n_leaves))
    for level in (0, -1):
        cubes = lat.cubes_at_level(level)
        got = mu.martingale_difference(f, cubes)
        for k, q in enumerate(cubes):
            assert np.array_equal(got[:, k], mu.martingale_difference(f, q))


def test_martingale_difference_of_a_cube_sequence_rejects_what_single_calls_reject():
    lat = build_lattice(1, 0, -3, [Cube(1, 0, (0,)), Cube(1, 0, (2,))])
    mu = MeasureGrid(lat, np.ones(lat.n_leaves))
    f = np.ones((2, lat.n_leaves))
    root = lat.roots[0]
    assert mu.martingale_difference(f, ()).shape == (2, 0, lat.n_leaves)
    assert mu.martingale_difference(f[0], iter([])).shape == (0, lat.n_leaves)
    with pytest.raises(ValueError, match=r"levels \[-1, 0\], not at one level"):
        mu.martingale_difference(f, [root, cube_children(root)[1]])
    with pytest.raises(ValueError, match="is a leaf"):
        mu.martingale_difference(f, lattice_leaves(lat)[:2])
    with pytest.raises(ValueError, match="is not a cube of the lattice"):
        mu.martingale_difference(f, [root, Cube(1, 0, (1,))])


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 3), depth=st.integers(1, 11), roots=st.integers(1, 3))
def test_parseval_chunks_run_over_the_nonleaf_cubes_in_order(dim, depth, roots):
    depth = min(depth, 12 // dim)
    lat = build_lattice(dim, 0, -depth, [Cube(dim, 0, (c,) * dim) for c in range(roots)])
    size = max(1, runner.PARSEVAL_CHUNK // lat.n_leaves)
    chunks = runner._level_chunks(lat)
    assert [q for chunk in chunks for q in chunk] == list(lat.nonleaf_cubes)
    assert all(1 <= len(chunk) <= size and len({q.level for q in chunk}) == 1
               for chunk in chunks)
    # a run is cut short only at the end of its level
    assert all(len(a) == size for a, b in zip(chunks, chunks[1:]) if a[0].level == b[0].level)


@pytest.mark.parametrize("q", [Cube(1, 0, (1,)), Cube(1, -2, (4,)), Cube(1, 1, (0,)),
                               Cube(1, -4, (0,)), Cube(2, 0, (0, 0))])
def test_cube_off_the_lattice_is_a_value_error(q):
    mu = MeasureGrid(build_lattice(1, 0, -3), np.ones(8))
    f = np.ones(8)
    for call in (lambda: mu.martingale_difference(f, q),
                 lambda: mu.weighted_haar_basis(q)):
        with pytest.raises(ValueError, match=re.escape(f"{q!r} is not a cube of the lattice")):
            call()


def test_leaf_still_has_no_martingale_difference_or_basis():
    lat = build_lattice(2, 0, -1)
    mu = MeasureGrid(lat, np.ones(4))
    with pytest.raises(ValueError, match="is a leaf"):
        mu.martingale_difference(np.ones((2, 4)), lattice_leaves(lat)[0])
    with pytest.raises(ValueError, match="is a leaf"):
        mu.weighted_haar_basis(lattice_leaves(lat)[0])


def _instance(dim, depth, r, seed, mu_scale=1.0, nu_scale=1.0):
    lat = build_lattice(dim, 0, -depth, [Cube(dim, 0, (c,) + (0,) * (dim - 1))
                                         for c in (0, 1)])
    mu = zero_blocks_measure(lat, 0.2, 3 * seed + 1)
    nu = zero_blocks_measure(lat, 0.3, 3 * seed + 2)
    band = random_band(lat, r, seed=seed, amplitude=1.0, root_amplitude=0.5)
    t = induce(band, MeasureGrid(lat, mu.leaf_mass * mu_scale),
               MeasureGrid(lat, nu.leaf_mass * nu_scale))
    return t, build_paraproduct(t, r), build_paraproduct(t.adjoint, r)


def _scale(t, f, g):
    """What decomposition_identity divides the residual by, for one pair."""
    return (t.nu.norm(t.matrix @ f) * t.nu.norm(g)
            + t.mu.norm(f) * t.mu.norm(t.adjoint.matrix @ g))


CELLS = [(1, 4, 0), (1, 5, 1), (1, 6, 2), (2, 3, 1), (3, 2, 1)]


@pytest.mark.parametrize("dim,depth,r", CELLS)
def test_stacked_decomposition_matches_the_per_pair_oracle(dim, depth, r):
    t, pi_mu, pi_nu = _instance(dim, depth, r, seed=depth + r)
    pairs = np.random.default_rng(r).standard_normal((12, 2, t.lattice.n_leaves))
    f, g = pairs[:, 0], pairs[:, 1]
    rep = decomposition_identity(t, pi_mu, pi_nu, f, g)
    want = [loop_decomposition_identity(t, r, a, b, pi_mu, pi_nu) for a, b in pairs]
    # one pair is the per-pair body itself, bit for bit
    assert decomposition_identity(t, pi_mu, pi_nu, f[0], g[0]) == want[0]
    scale = max(_scale(t, a, b) for a, b in pairs)
    for name in ("lhs", "paraproduct_mu", "paraproduct_nu", "comparable",
                 "mean_terms", "residual"):
        got = getattr(rep, name)
        assert isinstance(got, np.ndarray) and got.shape == (12,)
        assert oracle_close(got, [getattr(w, name) for w in want], floor=scale)
    assert oracle_close(rep.relative, [w.relative for w in want], floor=1.0)
    assert np.max(rep.relative) <= 1e-12


@pytest.mark.parametrize("dim,depth,r", CELLS)
def test_relative_residual_ignores_the_scale_of_the_measures(dim, depth, r):
    t, pi_mu, pi_nu = _instance(dim, depth, r, seed=depth + r)
    pairs = np.random.default_rng(r).standard_normal((6, 2, t.lattice.n_leaves))
    want = decomposition_identity(t, pi_mu, pi_nu, pairs[:, 0], pairs[:, 1]).relative
    for mu_scale, nu_scale in ((2.0 ** 40, 1.0), (2.0 ** -40, 1.0),
                               (1.0, 2.0 ** 40), (1.0, 2.0 ** -40)):
        t2, p2_mu, p2_nu = _instance(dim, depth, r, depth + r, mu_scale, nu_scale)
        got = decomposition_identity(t2, p2_mu, p2_nu, pairs[:, 0], pairs[:, 1]).relative
        assert np.array_equal(got, want)


def test_non_finite_scale_makes_relative_nan():
    t, pi_mu, pi_nu = _instance(1, 4, 1, seed=0)
    f = np.full(t.lattice.n_leaves, 1e200)   # ||T_mu f||_nu overflows, the identity does not
    g = np.ones(t.lattice.n_leaves)
    with np.errstate(over="ignore", invalid="ignore"):
        rep = decomposition_identity(t, pi_mu, pi_nu, np.stack([f, g]), np.stack([g, g]))
        one = decomposition_identity(t, pi_mu, pi_nu, f, g)
    assert np.isfinite(rep.residual).all()
    assert np.isnan(rep.relative[0]) and rep.relative[1] <= 1e-12
    assert type(one.relative) is float and np.isnan(one.relative)


def _configs():
    with open(os.path.join(REPO, "configs", "default.json")) as fh:
        default = json.load(fh)
    two_d = dict(default, lattice={"dim": 2, "top_level": 0, "leaf_level": -3},
                 operator=dict(default["operator"], seed=5), seed=7)
    atoms = dict(default, nu={"type": "sparse_atoms", "count": 5, "seed": 4}, seed=3)
    roots = dict(default, lattice={"dim": 1, "top_level": 0, "leaf_level": -5,
                                   "roots": [{"level": 0, "coords": [c]} for c in (0, 1, 3)]},
                 r=2,
                 operator=dict(default["operator"], r=2), seed=11)
    return {"default": default, "2d": two_d, "atoms": atoms, "roots": roots}


@pytest.mark.parametrize("name", list(_configs()))
def test_verify_parseval_equals_the_per_function_loop(tmp_path, name):
    config = _configs()[name]
    code, report = runner.run(config, str(tmp_path), suite="verify")
    assert code == 0
    lattice, mu, nu, *_ = runner.build_instance(config)
    fs = runner._random_functions(lattice, config["seed"], 20)[:, 0]
    want = float(np.max(loop_parseval_residuals(mu, nu, fs), initial=0.0))
    parseval, = (c for c in report["checks"] if c["name"] == "parseval")
    assert parseval["details"]["max_relative_residual"] == want


@pytest.mark.parametrize("name", ["default", "2d"])
def test_verify_makes_one_call_per_measure_and_one_identity(tmp_path, monkeypatch, name):
    # one martingale_difference call per chunk of cubes at one level; a
    # relapse to per-cube or per-function loops would multiply the counts
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MeasureGrid, "martingale_difference",
                        counted("martingale_difference", MeasureGrid.martingale_difference))
    monkeypatch.setattr(runner, "decomposition_identity",
                        counted("decomposition_identity", runner.decomposition_identity))
    config = _configs()[name]
    assert runner.run(config, str(tmp_path), suite="verify")[0] == 0
    lattice = runner.build_instance(config)[0]
    assert calls == {"martingale_difference": 2 * len(runner._level_chunks(lattice)),
                     "decomposition_identity": 1}


@pytest.mark.parametrize("name", ["default", "2d"])
def test_verify_forms_each_haar_block_once(tmp_path, monkeypatch, name):
    # T_mu, Pi_mu and Pi_nu; the structure check and the remainder share them
    formed = Counter()

    def counted(cls):
        func = cls.__dict__["haar_block"].func

        def count(self):
            formed[type(self).__name__] += 1
            return func(self)

        block = cached_property(count)
        block.__set_name__(cls, "haar_block")
        monkeypatch.setattr(cls, "haar_block", block)

    counted(InducedOperator)
    counted(Paraproduct)  # its own block, from its factors
    assert runner.run(_configs()[name], str(tmp_path), suite="verify")[0] == 0
    assert formed == {"InducedOperator": 1, "Paraproduct": 2}


@pytest.mark.parametrize("total", [1e12, 1e-24])
def test_decomposition_check_holds_at_any_mass_scale(tmp_path, total):
    # the old ||f||_mu ||g||_nu scale failed at 1e12 (the residual grows like
    # the mass) and at 1e-24 was so large that a dropped term would pass
    config = dict(_configs()["default"], mu={"type": "uniform", "total": total})
    code, report = runner.run(config, str(tmp_path), suite="verify")
    assert code == 0
    check, = (c for c in report["checks"] if c["name"] == "decomposition_identity")
    assert check["details"]["max_relative_residual"] <= 1e-14
    # and the terms are of the order of the scale, so none can go missing
    # (Pi^mu f~ vanishes for this band operator under a uniform mu)
    lattice, mu, nu, band, r = runner.build_instance(config)
    t = induce(band, mu, nu)
    pairs = runner._random_functions(lattice, 1, 20)
    pi_mu, pi_nu = build_paraproduct(t, r), build_paraproduct(t.adjoint, r)
    reps = [decomposition_identity(t, pi_mu, pi_nu, f, g) for f, g in pairs]
    scales = [_scale(t, f, g) for f, g in pairs]
    for name in ("lhs", "paraproduct_nu", "comparable", "mean_terms"):
        assert max(abs(getattr(rep, name)) / s for rep, s in zip(reps, scales)) > 1e-3
