"""Seeded randomized search: hill climbing on weights and operator entries
to maximize the norm-to-testing ratio, and a greedy maximizer for the
Carleson embedding constant on deepening trees.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import testing_constants
from .io import (_container, _number, band_to_json, band_from_json, lattice_from_json,
                 lattice_to_json, measure_from_json)
from .lattice import build_lattice
from .measures import MeasureGrid, uniform_measure
from .operators import DEFAULT_TOLERANCES, BandOperator, induce, random_band, repr_order
from .paraproduct import (CarlesonSequence, _carleson_ratio, _check_values, _embedding_constant,
                          _massive, _subtree_sums, _update_subtree_sums)


@dataclass(frozen=True)
class SearchConfig:
    dim: int = 1
    top_level: int = 0
    leaf_level: int = -3
    r: int = 1
    seed: int = 0
    iterations: int = 200
    amplitude: float = 1.0
    root_amplitude: float = 0.0
    weight_sigma: float = 1.0
    step: float = 0.5
    roots: tuple | None = None  # the lattice's root cubes; None: the one at the origin


@dataclass
class SearchResult:
    config: SearchConfig
    rho: float
    report: object
    band: BandOperator
    mu: MeasureGrid
    nu: MeasureGrid
    history: list = field(default_factory=list)

    def to_artifact(self) -> dict:
        return {
            "schema_version": 1,
            "lattice": lattice_to_json(self.band.lattice),
            "r": self.config.r,
            "operator": band_to_json(self.band),
            "mu": self.mu.leaf_mass.tolist(),
            "nu": self.nu.leaf_mass.tolist(),
            "rho": float(self.rho),
            "constants": _artifact_constants(self.report),
            "search": {"seed": self.config.seed,
                       "iterations": self.config.iterations},
        }


def _artifact_constants(report) -> dict:
    """The testing constants an artifact stores and its replay compares."""
    return {name: float(getattr(report, name)) for name in (
        "norm", "c_direct_local", "c_adjoint_local", "c_direct_global",
        "c_adjoint_global", "c_diag")}


def _evaluate(band: BandOperator, mu: MeasureGrid, nu: MeasureGrid, r: int):
    report = testing_constants(induce(band, mu, nu), r)
    return report.rho, report


def extremal_search(config: SearchConfig) -> SearchResult:
    """Hill climbing on leaf masses and operator entries maximizing rho.

    Each candidate is a BandOperator induced between two measures; a band
    move edits one entry of a copy of the incumbent's values.  A move to a
    non-finite entry or mass (too large a `step`) is rejected unevaluated;
    initial masses that overflow under weight_sigma are a ValueError.
    Fully deterministic in the seed; the incumbent never decreases.
    """
    if config.iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {config.iterations}")
    rng = np.random.default_rng(config.seed)
    lattice = build_lattice(config.dim, config.top_level, config.leaf_level, config.roots)
    band = random_band(lattice, config.r, seed=config.seed,
                       amplitude=config.amplitude,
                       root_amplitude=config.root_amplitude)
    with np.errstate(over="ignore"):  # an overflow is the ValueError below
        masses = [np.exp(config.weight_sigma * rng.standard_normal(lattice.n_leaves))
                  for _ in range(2)]
    if not np.isfinite(masses).all():
        raise ValueError(f"search weight_sigma {config.weight_sigma!r} overflows leaf masses")
    mu, nu = (MeasureGrid(lattice, mass) for mass in masses)

    order = repr_order(lattice, band.rows, band.cols)  # moves pick entries in repr order
    rho, report = _evaluate(band, mu, nu, config.r)
    history = [rho]
    for _ in range(config.iterations):
        move = rng.integers(3)
        # a move edits the band's values (move 0), mu's leaf masses (move 1) or
        # nu's (move 2, and move 0 on an empty band)
        band_move = move == 0 and band.values.size > 0
        edit = (band.values if band_move else (mu if move == 1 else nu).leaf_mass).copy()
        i = order[rng.integers(edit.size)] if band_move else rng.integers(edit.size)
        with np.errstate(over="ignore"):  # an overflowing move is rejected below
            z = config.step * rng.standard_normal()
            edit[i] = edit[i] + z if band_move else edit[i] * np.exp(z)
        if np.isfinite(edit[i]):
            cand = ((BandOperator(lattice, config.r, band.rows, band.cols, edit), mu, nu)
                    if band_move else (band, MeasureGrid(lattice, edit), nu) if move == 1
                    else (band, mu, MeasureGrid(lattice, edit)))
            cand_rho, cand_report = _evaluate(*cand, config.r)
            if cand_rho > rho:
                (band, mu, nu), rho, report = cand, cand_rho, cand_report
        history.append(rho)
    return SearchResult(config=config, rho=rho, report=report, band=band, mu=mu, nu=nu,
                        history=history)


def replay_artifact(artifact: dict, tol: float = DEFAULT_TOLERANCES["replay"]):
    """Rebuild the instance stored in a search artifact and recompute all
    constants; each must match to relative `tol` (the `replay` tolerance).
    Returns (matches, recomputed dict).  Only schema_version 1 is read."""
    version = _container(artifact, "artifact").get("schema_version")
    if _number(version, "artifact schema_version", int) != 1:
        raise ValueError(f"artifact schema_version {version} is not supported")
    lattice = lattice_from_json(artifact["lattice"])
    band = band_from_json(artifact["operator"], lattice)
    mu = measure_from_json(artifact["mu"], lattice)
    nu = measure_from_json(artifact["nu"], lattice)
    r = _number(artifact["r"], "artifact r", int, nonnegative=True)
    rho, report = _evaluate(band, mu, nu, r)
    recomputed = {"rho": float(rho), "constants": _artifact_constants(report)}
    stored = {**_container(artifact["constants"], "artifact constants"), "rho": artifact["rho"]}
    pairs = [(val, _number(stored[name], f"artifact {name}", finite=False))
             for name, val in {"rho": rho, **recomputed["constants"]}.items()]
    # an infinity matches only itself, NaN nothing
    ok = all(val == stored if np.isinf([val, stored]).any()
             else abs(val - stored) <= tol * abs(val) for val, stored in pairs)
    return ok, recomputed


def greedy_embedding_sequence(depth: int, seed: int = 0, iterations: int = 40,
                              init: CarlesonSequence | None = None):
    """Greedy maximizer of the embedding constant over Carleson-normalized
    sequences on the 1D uniform tree of the given depth.

    `init`, a result of this function on a shallower tree (or a deeper
    one, cut), is a candidate as it is, extended by zeros and not
    re-normalized: it keeps its embedding constant bit for bit, so a
    chain of calls gives constants nondecreasing in depth.  A random
    candidate changes 1 to 3 a_Q of the incumbent array: only those are
    checked and only their cubes and ancestors are summed again; it scores
    bit for bit as the whole array, through the kernels behind
    carleson_constant and embedding_constant.  Every uniform cube has mass,
    so they take their mask-free path.  Only the optimum becomes a CarlesonSequence.
    Returns (sequence, constant), with the sequence normalized to
    Carleson constant 1 up to round-off.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    lattice = build_lattice(1, 0, -depth)
    m = uniform_measure(lattice, total=1.0).cube_masses
    pos, n = _massive(m), len(lattice.levels)  # None: every uniform cube has mass

    def normalized(values, sums):
        c = _carleson_ratio(sums, m, pos)
        return values if c == 0 or not np.isfinite(c) else values / c

    # chain seed: mass-proportional values along the branch at 0 (level -j at 2^j - 1)
    branch = (1 << np.arange(depth + 1)) - 1
    chain = np.zeros(n)
    chain[branch] = m[branch]
    candidates = [normalized(chain, _subtree_sums(lattice, chain))]
    if init is not None:
        if init.lattice.roots != lattice.roots:
            raise ValueError(f"init lives under {init.lattice.roots}, not {lattice.roots}")
        # the shallower optimum extended by zeros (a deeper one cut), as the
        # shallower tree's cubes come first: same form on a finer space, so
        # its constant can only grow with depth
        carried = np.zeros(n)
        carried[:init.values.size] = init.values[:n]
        if np.any(carried > 0):
            candidates.append(carried)
    values, best = None, -1.0
    for cand in candidates:
        val = _embedding_constant(lattice, cand, m, pos)
        if val > best:
            values, best = cand, val
    sums = _subtree_sums(lattice, values)  # the incumbent's, updated per candidate
    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        cand, changed = values.copy(), []
        for _ in range(1 + rng.integers(3)):
            i = rng.integers(n)
            old = cand[i]
            if old > 0:
                cand[i] = old * np.exp(0.5 * rng.standard_normal())
            else:
                cand[i] = m[i] * rng.uniform(0.1, 1.0)
            changed.append(i)
        if not all(0.0 <= cand.item(i) < np.inf for i in changed):
            _check_values(lattice, cand)  # names the first bad cube in active order
        cand = normalized(cand, _update_subtree_sums(lattice, sums, cand, changed))
        val = _embedding_constant(lattice, cand, m, pos)
        if val > best:
            best, values, sums = val, cand, _subtree_sums(lattice, cand)
    return CarlesonSequence(lattice, values), best
