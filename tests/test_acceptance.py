"""Acceptance gate: one printed pass/fail line per criterion.

Run with `pytest -v tests/test_acceptance.py`; the [pass]/[FAIL] lines
bypass output capture so they always appear.
"""
import time

import numpy as np
import pytest

from haarlab import (CarlesonSequence, MeasureGrid,
                     build_lattice, build_paraproduct, carleson_constant,
                     check_well_localized, decomposition_identity,
                     embedding_constant, greedy_embedding_sequence,
                     paraproduct_structure_verify, remainder_diagonals)
from haarlab import testing_constants as constants_of
from haarlab.runner import run as runner_run

from conftest import random_instance


@pytest.fixture
def console(capfd):
    def _print(line):
        with capfd.disabled():
            print(line, flush=True)
    return _print


@pytest.fixture
def emit(console):
    def _emit(num, name, passed, detail=""):
        status = "pass" if passed else "FAIL"
        console(f"[{status}] criterion {num} ({name}) {detail}".rstrip())
        assert passed, f"criterion {num} ({name}) failed: {detail}"
    return _emit


# (dim, depth) cells mixed through the shared 200-instance suite
CELLS = [(1, 4), (1, 5), (2, 2), (2, 3)]


@pytest.fixture(scope="session")
def suite():
    """200 random induced band operators with mixed radii and weights."""
    instances = []
    for i in range(200):
        dim, depth = CELLS[i % len(CELLS)]
        r = i % min(3, depth)
        t = random_instance(dim, depth, r, seed=i,
                            zero_fraction=0.25 if i % 2 else 0.0,
                            root_amplitude=0.5 if i % 3 == 0 else 0.0)
        instances.append((i, t, r))
    return instances


@pytest.fixture(scope="session")
def suite_paraproducts(suite):
    return {i: (build_paraproduct(t, r), build_paraproduct(t.adjoint, r))
            for i, t, r in suite}


def test_criterion_1_orthogonal_decomposition(emit):
    start = time.monotonic()
    worst = 0.0
    for i in range(200):
        dim = 1 if i % 2 else 2
        depth = 3 + i % 3 if dim == 1 else 2 + i % 2
        lat = build_lattice(dim, 0, -depth)
        rng = np.random.default_rng(i)
        mass = rng.uniform(0.0, 2.0, lat.n_leaves)
        mass[rng.random(lat.n_leaves) < 0.2] = 0.0
        mu = MeasureGrid(lat, mass)
        f = rng.standard_normal(lat.n_leaves)
        deltas, exps = mu.martingale_decompose(f)
        pieces = list(deltas.values()) + list(exps.values())
        norm2 = mu.inner(f, f)
        if norm2 == 0.0:
            continue
        total = sum(mu.inner(p, p) for p in pieces)
        recon = sum(pieces)
        pos = mass > 0
        dev = float(np.max(np.abs(recon[pos] - f[pos]), initial=0.0))
        worst = max(worst, abs(total - norm2) / norm2,
                    dev / max(1.0, float(np.max(np.abs(f[pos])))))
    elapsed = time.monotonic() - start
    emit(1, "orthogonal decomposition", worst <= 1e-10 and elapsed <= 10.0,
         f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_well_localized_pattern(suite, emit):
    start = time.monotonic()
    worst = 0.0
    for _, t, r in suite:
        rep = check_well_localized(t, r)
        worst = max(worst, rep.max_violation)
    elapsed = time.monotonic() - start
    emit(2, "induced well-localized pattern",
         worst <= 1e-12 and elapsed <= 60.0,
         f"max violation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_paraproduct_matrix_structure(suite, suite_paraproducts, emit):
    start = time.monotonic()
    worst = 0.0
    for i, t, r in suite:
        for pi, op in zip(suite_paraproducts[i], (t, t.adjoint)):
            rep = paraproduct_structure_verify(pi, op)
            worst = max(worst, rep.max_dev_vanish_scale,
                        rep.max_dev_vanish_outside, rep.max_dev_equality)
    elapsed = time.monotonic() - start
    emit(3, "paraproduct matrix structure, three cases",
         worst <= 1e-9 and elapsed <= 60.0,
         f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_remainder_diagonals(suite, suite_paraproducts, emit):
    worst = 0.0
    for i, t, r in suite:
        pi_mu, pi_nu = suite_paraproducts[i]
        rep = remainder_diagonals(t, pi_mu, pi_nu)
        worst = max(worst, rep.off_band_max)
    emit(4, "remainder has only comparable diagonals", worst <= 1e-12,
         f"max off-band entry {worst:.2e}")


def test_criterion_5_carleson_embedding(emit, console):
    worst = 0.0
    lat = build_lattice(1, 0, -4)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        mu = MeasureGrid(lat, rng.uniform(0.05, 2.0, lat.n_leaves))
        raw = CarlesonSequence(lat, [rng.uniform(0.0, 1.0)
                                     for _ in lat.active_cubes])
        c = carleson_constant(raw, mu)
        seq = CarlesonSequence(lat, raw.values / c)
        worst = max(worst, embedding_constant(seq, mu))
    console("depth embedding_constant")
    prev_seq, prev, monotone = None, 0.0, True
    for depth in range(3, 11):
        prev_seq, const = greedy_embedding_sequence(depth, seed=0,
                                                    iterations=30,
                                                    init=prev_seq)
        console(f"{depth:5d} {const:.6f}")
        monotone = monotone and const >= prev and const <= 4.0
        prev = const
    emit(5, "Carleson embedding constant at most 4",
         worst <= 4.0 + 1e-9 and monotone,
         f"max random {worst:.6f}, greedy depth-10 {prev:.6f}")


def test_criterion_6_necessity_of_testing_conditions(suite, emit):
    worst = -np.inf
    for _, t, r in suite:
        rep = constants_of(t, r)
        worst = max(worst,
                    np.sqrt(rep.c_direct_global) - rep.norm,
                    np.sqrt(rep.c_adjoint_global) - rep.norm,
                    rep.c_diag - rep.norm)
    emit(6, "testing constants below operator norm", worst <= 1e-9,
         f"max excess {worst:.2e}")


def test_criterion_7_bilinear_decomposition(suite, suite_paraproducts, emit):
    worst = 0.0
    for i, t, r in suite:
        pi_mu, pi_nu = suite_paraproducts[i]
        rng = np.random.default_rng(10_000 + i)
        f = rng.standard_normal(t.lattice.n_leaves)
        g = rng.standard_normal(t.lattice.n_leaves)
        rep = decomposition_identity(t, pi_mu, pi_nu, f, g)
        worst = max(worst, rep.relative)
    emit(7, "bilinear form decomposition identity", worst <= 1e-10,
         f"max relative residual {worst:.2e}")


RATIO_CELLS = [(1, 0, 3), (1, 1, 3), (1, 1, 4), (1, 2, 4),
               (2, 1, 2), (2, 1, 3)]


def test_criterion_8_sufficiency_ratio_stability(emit, console):
    start = time.monotonic()
    console("N r depth sup_rho_500 sup_rho_1000 rel_change")
    stable = True
    for dim, r, depth in RATIO_CELLS:
        rhos = []
        for seed in range(1000):
            t = random_instance(dim, depth, r, seed=seed)
            rep = constants_of(t, r)
            assert np.sqrt(rep.c_direct_global) <= rep.norm + 1e-9
            assert np.sqrt(rep.c_adjoint_global) <= rep.norm + 1e-9
            rhos.append(rep.rho)
        sup_half = max(rhos[:500])
        sup_full = max(rhos)
        change = (sup_full - sup_half) / sup_half
        console(f"{dim} {r} {depth:5d} {sup_half:11.6f} "
                f"{sup_full:12.6f} {change:10.4%}")
        stable = stable and change < 0.05
    elapsed = time.monotonic() - start
    emit(8, "sufficiency ratio stability under doubling",
         stable and elapsed <= 600.0, f"{elapsed:.0f}s")


def test_criterion_9_deterministic_replay(tmp_path, emit):
    config = {
        "lattice": {"dim": 1, "top_level": 0, "leaf_level": -4},
        "mu": {"type": "lognormal", "sigma": 1.0, "seed": 11},
        "nu": {"type": "zero_blocks", "fraction": 0.2, "seed": 12},
        "operator": {"type": "random_band", "r": 1, "seed": 13,
                     "amplitude": 1.0, "root_amplitude": 0.5},
        "r": 1,
        "seed": 0,
        "search": {"iterations": 40},
    }
    same = True
    for suite_name in ("verify", "testing", "carleson", "search"):
        _, rep_a = runner_run(config, str(tmp_path / f"{suite_name}_a"),
                              suite=suite_name)
        _, rep_b = runner_run(config, str(tmp_path / f"{suite_name}_b"),
                              suite=suite_name)
        rep_a.pop("timestamp"), rep_b.pop("timestamp")
        same = same and rep_a == rep_b
    emit(9, "seeded runs reproduce all reported numbers", same)
