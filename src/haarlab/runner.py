"""Config-driven execution of the verification suites, with JSON reports
and CSV tables.
"""
from __future__ import annotations

import csv
import dataclasses
import datetime
import json
import math
import os

import numpy as np

from .analysis import decomposition_identity, testing_constants
from .io import (Key, _fields, _index_json, _number, band_from_json, cube_to_json,
                 lattice_from_json, measure_from_json)
from .lattice import Lattice
from .operators import (DEFAULT_TOLERANCES, basis_table, check_amplitude, check_band,
                        check_well_localized, induce)
from .paraproduct import (build_paraproduct, carleson_constant,
                          carleson_property, carleson_sequence,
                          embedding_constant, paraproduct_structure_verify,
                          remainder_diagonals)
from .search import SearchConfig, extremal_search, replay_artifact

SCHEMA_VERSION = 1

SUITES = ("verify", "testing", "carleson", "search", "decompose")

CONFIG_KEYS = ("lattice", "mu", "nu", "operator", "r", "suite", "seed", "tolerances", "search")
SEARCH_FIELDS = {"iterations": Key(int, True), "amplitude": Key(float, True),
                 "root_amplitude": Key(float, True), "weight_sigma": Key(float),
                 "step": Key(float)}

# Budget for the dense arrays of one instance: DENSE_CUBE_TABLES leaves x
# active cubes tables (membership, the chi tables of T_mu and its adjoint)
# and DENSE_LEAF_MATRICES n x n leaf matrices (band leaf matrix, Haar system,
# induced operator and adjoint, Haar blocks, ...).
MAX_DENSE_BYTES = 2 ** 31
DENSE_CUBE_TABLES = 3
DENSE_LEAF_MATRICES = 8

# Cubes x leaves per martingale_difference call of the Parseval check, so its
# (20, cubes, leaves) result stays 160 kB; past 2**10 leaves a call per cube.
PARSEVAL_CHUNK = 2 ** 10


class ConfigError(ValueError):
    """A run config that cannot be read or built (exit 2 at the CLI)."""


def validate_config(config: dict) -> None:
    """Read the config's top level, lattice, integers, suite and search section
    with io's checked readers and bound the instance size, before anything is
    built; every suite's build_instance reads the measure and operator specs."""
    try:
        lattice = lattice_from_json(_fields(config, "config", CONFIG_KEYS)["lattice"])
        _number(config["r"], "r", int, nonnegative=True)
        _number(config.get("seed", 0), "seed", int, nonnegative=True)
        if config.get("suite", "verify") not in SUITES:
            raise ValueError(f"suite must be one of {SUITES}, got {config['suite']!r}")
        _search_fields(config)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"missing key {exc}" if type(exc) is KeyError else str(exc)) from exc
    need = dense_bytes(lattice)
    if need > MAX_DENSE_BYTES:
        raise ConfigError(f"instance needs about {need / 2 ** 30:.3g} GiB of dense "
                          f"arrays, over the {MAX_DENSE_BYTES / 2 ** 30:g} GiB budget")


def dense_bytes(lattice: Lattice) -> int:
    """Bytes of the dense float arrays an instance on this lattice holds, as
    listed above MAX_DENSE_BYTES; counted from its shape, nothing is built."""
    dim, depth, roots = lattice.dim, lattice.depth, len(lattice.roots)
    if dim * depth > 64:  # 2^64 leaves: no need to count further
        return 2 ** 128
    leaves = roots << (dim * depth)
    cubes = roots * ((1 << (dim * (depth + 1))) - 1) // ((1 << dim) - 1)
    return 8 * leaves * (DENSE_CUBE_TABLES * cubes + DENSE_LEAF_MATRICES * leaves)


def build_instance(config: dict):
    try:
        lattice = lattice_from_json(config["lattice"])
        mu = measure_from_json(config["mu"], lattice)
        nu = measure_from_json(config["nu"], lattice)
        band = band_from_json(config["operator"], lattice)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"cannot build instance: {exc}") from exc
    return lattice, mu, nu, band, int(config["r"])


def _search_fields(config: dict) -> dict:
    """The config's search section as SearchConfig keywords, each checked."""
    search = _fields(config.get("search", {}), "search", SEARCH_FIELDS)
    fields = {name: _number(search[name], f"search {name}", key.kind, key.nonnegative)
              for name, key in SEARCH_FIELDS.items() if name in search}
    for name in ("amplitude", "root_amplitude"):  # the search's random_band draws with them
        check_amplitude(f"search {name}", fields.get(name, 0.0))
    return fields


def _tolerances(*overrides) -> dict:
    """DEFAULT_TOLERANCES updated by each JSON object of names; anything but
    finite numbers (inf passes every check) and unknown names are a ConfigError."""
    tol = dict(DEFAULT_TOLERANCES)
    for names in overrides:
        if not (isinstance(names, dict) and all(type(v) in (int, float) and math.isfinite(v)
                                                for v in names.values())):
            raise ConfigError(f"tolerances must be finite numbers in a JSON object: {names}")
        if set(names) - set(tol):
            raise ConfigError(f"unknown tolerance names {sorted(set(names) - set(tol))}")
        tol.update(names)
    return tol


def _paraproduct(t, r):
    """t's paraproduct; it needs a lattice deeper than r."""
    if r >= t.lattice.depth:
        raise ConfigError(f"r={r} must be below the lattice depth {t.lattice.depth}")
    return build_paraproduct(t, r)


def _paraproducts(t_mu, r):
    """(Pi_mu, Pi_nu)."""
    return _paraproduct(t_mu, r), _paraproduct(t_mu.adjoint, r)


def _random_functions(lattice, seed, count):
    """count (f, g) pairs of standard normal leaf functions."""
    return np.random.default_rng(seed).standard_normal((count, 2, lattice.n_leaves))


def _check(name, passed, **details):
    """One check result; a non-finite number among the details fails it."""
    finite = all(math.isfinite(v) for v in details.values()
                 if isinstance(v, (int, float, np.number)))
    return {"name": name, "passed": bool(passed) and finite, "details": details}


def _worst(residuals) -> float:
    """The largest residual, NaN if any is NaN (the builtin max drops it)."""
    return float(np.max(residuals, initial=0.0))


def _decomposition(t_mu, pi_mu, pi_nu, seed, count):
    """decomposition_identity's relative residuals on count random pairs,
    in one call on the stacks."""
    f, g = np.moveaxis(_random_functions(t_mu.lattice, seed, count), 1, 0)
    return decomposition_identity(t_mu, pi_mu, pi_nu, f, g).relative


def _carleson_sequence(pi_mu):
    """(T_mu's sequence, None), or (None, details) when the instance
    overflows and some a_Q is not finite, for the Carleson checks to fail with."""
    try:
        return carleson_sequence(pi_mu), None
    except ValueError as exc:
        return None, {"error": str(exc)}


def _level_chunks(lattice: Lattice) -> list[tuple]:
    """nonleaf_cubes in order, cut into runs of cubes at one level, at most
    max(1, PARSEVAL_CHUNK // n_leaves) cubes in a run."""
    size = max(1, PARSEVAL_CHUNK // lattice.n_leaves)
    cubes, starts = lattice.nonleaf_cubes, lattice.level_starts[:-1].tolist()
    return [cubes[i:min(i + size, end)] for start, end in zip(starts, starts[1:])
            for i in range(start, end, size)]


def suite_verify(config, tol) -> tuple[list, dict]:
    lattice, mu, nu, band, r = build_instance(config)
    seed = int(config.get("seed", 0))
    checks = []

    residuals = []
    fs = _random_functions(lattice, seed, 20)[:, 0]
    chunks = _level_chunks(lattice)
    for measure in (mu, nu):
        # one stack of 20 functions, one call per chunk, freed as summed; the
        # per-cube columns add in nonleaf_cubes order, as one call per cube did
        deltas = (measure.martingale_difference(fs, chunk) for chunk in chunks)
        e = measure.mean_part(fs)  # the sum of the root averages E_R f
        total = sum(col for d in deltas for col in measure.inner(d, d).T) + measure.inner(e, e)
        norm2 = measure.inner(fs, fs)
        pos = norm2 > 0
        residuals.append(np.abs(total - norm2)[pos] / norm2[pos])
    worst = _worst(np.concatenate(residuals))
    checks.append(_check("parseval", worst <= tol["identity"],
                         max_relative_residual=worst))

    ok, witness = check_band(band, band.band_radius, tol=tol["zero"])
    if witness is not None:  # two haar_system positions, written as band_to_json writes them
        keys = basis_table(lattice)[3]
        witness = {"row": _index_json(*keys[witness[0]]), "col": _index_json(*keys[witness[1]])}
    checks.append(_check("band_structure", ok, witness=witness))

    t_mu = induce(band, mu, nu)
    wl = check_well_localized(t_mu, r, tol=tol["zero"])
    checks.append(_check("well_localized", wl.passed,
                         max_violation=wl.max_violation, scale=wl.scale))

    pi_mu, pi_nu = _paraproducts(t_mu, r)
    lem = paraproduct_structure_verify(pi_mu, t_mu, tol=tol["entrywise"])
    checks.append(_check("paraproduct_structure", lem.passed,
                         vanish_scale=lem.max_dev_vanish_scale,
                         vanish_outside=lem.max_dev_vanish_outside,
                         equality=lem.max_dev_equality))

    # Pi = W^T A and A does not depend on the enlargement: compare the rows of W
    pi_big = build_paraproduct(t_mu, r, enlarge=1)
    dev = float(np.max(np.abs(pi_mu.w - pi_big.w), initial=0.0))
    scale = max(float(np.max(np.abs(pi_mu.w), initial=0.0)), 1.0)
    checks.append(_check("replacement_invariance", dev / scale <= tol["zero"],
                         deviation=dev / scale))

    rem = remainder_diagonals(t_mu, pi_mu, pi_nu, tol=tol["zero"])
    checks.append(_check("remainder_diagonals", rem.passed,
                         off_band_max=rem.off_band_max,
                         in_band_max=rem.in_band_max))

    seq, overflow = _carleson_sequence(pi_mu)
    if overflow:
        checks.append(_check("carleson_property", False, **overflow))
    else:
        car = carleson_property(t_mu, seq, tol=tol["identity"])
        checks.append(_check("carleson_property", car.passed,
                             max_excess=car.max_excess,
                             local_testing_constant=car.local_testing_constant,
                             witness=cube_to_json(car.witness) if car.witness else None))

    worst = _worst(_decomposition(t_mu, pi_mu, pi_nu, seed + 1, 20))
    checks.append(_check("decomposition_identity", worst <= tol["identity"],
                         max_relative_residual=worst))
    return checks, {}


def suite_testing(config, tol) -> tuple[list, dict]:
    lattice, mu, nu, band, r = build_instance(config)
    t_mu = induce(band, mu, nu)
    rep = testing_constants(t_mu, r)
    checks = [
        _check("necessity_direct",
               np.sqrt(rep.c_direct_global) <= rep.norm + tol["necessity"],
               sqrt_c_direct_global=np.sqrt(rep.c_direct_global),
               norm=rep.norm),
        _check("necessity_adjoint",
               np.sqrt(rep.c_adjoint_global) <= rep.norm + tol["necessity"],
               sqrt_c_adjoint_global=np.sqrt(rep.c_adjoint_global)),
        _check("necessity_diag", rep.c_diag <= rep.norm + tol["necessity"],
               c_diag=rep.c_diag),
        _check("local_le_global",
               rep.c_direct_local <= rep.c_direct_global + tol["ordering"]
               and rep.c_adjoint_local <= rep.c_adjoint_global + tol["ordering"]),
    ]
    constants = {k: v for k, v in dataclasses.asdict(rep).items()
                 if k != "unbounded_witness"}
    table = [[lattice.dim, r, lattice.depth, int(config.get("seed", 0)),
              rep.norm, rep.c_direct_local, rep.c_adjoint_local, rep.c_diag,
              rep.rho]]
    tables = {"testing_constants": {
        "header": ["N", "r", "depth", "seed", "norm", "c_direct_local",
                   "c_adjoint_local", "c_diag", "rho"],
        "rows": table}}
    return checks, {"constants": constants, "tables": tables}


def suite_carleson(config, tol) -> tuple[list, dict]:
    lattice, mu, nu, band, r = build_instance(config)
    t_mu = induce(band, mu, nu)
    seq, overflow = _carleson_sequence(_paraproduct(t_mu, r))
    if overflow:
        return [_check(name, False, **overflow) for name in (
            "carleson_property", "embedding_le_4_carleson")], {}
    c_car = carleson_constant(seq, mu)
    c_emb = embedding_constant(seq, mu)
    car = carleson_property(t_mu, seq, tol=tol["identity"])
    checks = [
        _check("carleson_property", car.passed, max_excess=car.max_excess,
               witness=cube_to_json(car.witness) if car.witness else None),
        _check("embedding_le_4_carleson",
               c_emb <= 4.0 * c_car + tol["embedding"] or c_car == 0.0,
               embedding=c_emb, carleson=c_car),
    ]
    rows = [[q.level, *q.coords, a]
            for q, a in zip(lattice.active_cubes, seq.values.tolist())]
    tables = {"carleson_sequence": {
        "header": ["level"] + [f"coord{i}" for i in range(lattice.dim)] + ["a_Q"],
        "rows": rows}}
    constants = {"carleson_constant": c_car, "embedding_constant": c_emb,
                 "local_testing_constant": car.local_testing_constant}
    return checks, {"constants": constants, "tables": tables}


def suite_search(config, tol) -> tuple[list, dict]:
    lattice, *_, r = build_instance(config)  # reject what the other suites reject
    sc = SearchConfig(dim=lattice.dim, top_level=lattice.top_level,
                      leaf_level=lattice.leaf_level, roots=lattice.roots, r=r,
                      seed=int(config.get("seed", 0)), **_search_fields(config))
    try:
        result = extremal_search(sc)
    except ValueError as exc:  # initial masses that overflow under weight_sigma
        raise ConfigError(str(exc)) from exc
    monotone = all(b >= a for a, b in zip(result.history, result.history[1:]))
    checks = [_check("search_monotone", monotone, final_rho=result.rho)]
    constants = {"rho": result.rho}
    return checks, {"constants": constants,
                    "artifact": result.to_artifact()}


def suite_decompose(config, tol) -> tuple[list, dict]:
    _, mu, nu, band, r = build_instance(config)
    t_mu = induce(band, mu, nu)
    worst = _worst(_decomposition(t_mu, *_paraproducts(t_mu, r), int(config.get("seed", 0)), 50))
    checks = [_check("decomposition_identity", worst <= tol["identity"],
                     max_relative_residual=worst)]
    return checks, {"constants": {"max_relative_residual": worst}}


SUITE_RUNNERS = {
    "verify": suite_verify,
    "testing": suite_testing,
    "carleson": suite_carleson,
    "search": suite_search,
    "decompose": suite_decompose,
}


def run(config: dict, out_dir: str, suite: str | None = None,
        tolerance_overrides: dict | None = None) -> tuple[int, dict]:
    """Execute the selected suite; write report.json and CSV tables.

    Returns (exit_code, report): 0 when all checks pass, 1 on a failed
    assertion.  Raises ConfigError (exit 2 at the CLI) on a bad config.
    """
    validate_config(config)
    suite = suite or config.get("suite", "verify")
    if suite not in SUITE_RUNNERS:
        raise ConfigError(f"unknown suite {suite!r}")
    tol = _tolerances(config.get("tolerances", {}), tolerance_overrides or {})

    with np.errstate(over="ignore", invalid="ignore"):  # the checks report NaN and inf
        checks, extra = SUITE_RUNNERS[suite](config, tol)
    passed = all(c["passed"] for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "config": config,
        "tolerances": tol,
        "checks": checks,
        "passed": passed,
    }
    report.update({k: v for k, v in extra.items() if k != "tables"})
    os.makedirs(out_dir, exist_ok=True)
    for name, table in extra.get("tables", {}).items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(table["header"])
            writer.writerows(table["rows"])
    if "artifact" in extra:
        _write_json(extra["artifact"], os.path.join(out_dir, "artifact.json"))
    _write_report(report, out_dir)
    return (0 if passed else 1), report


def replay(artifact_path: str, out_dir: str,
           tolerance_overrides: dict | None = None) -> tuple[int, dict]:
    """Recompute all constants of a stored search instance and compare."""
    tol = _tolerances(tolerance_overrides or {})
    with open(artifact_path) as fh:
        artifact = json.load(fh)
    with np.errstate(over="ignore", invalid="ignore"):
        ok, recomputed = replay_artifact(artifact, tol=tol["replay"])
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": "replay",
        "artifact_path": artifact_path,
        "checks": [_check("replay_match", ok, recomputed=recomputed)],
        "passed": ok,
    }
    _write_report(report, out_dir)
    return (0 if ok else 1), report


def _write_report(report: dict, out_dir: str) -> None:
    """Stamp the report and write out_dir/report.json, creating out_dir."""
    # the timestamp is the single nondeterministic field, kept isolated so
    # determinism is testable by exclusion
    report["timestamp"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    os.makedirs(out_dir, exist_ok=True)
    _write_json(report, os.path.join(out_dir, "report.json"))


def _write_json(obj, path: str) -> None:
    """Write obj as indented, key-sorted JSON in one write (json.dump makes
    hundreds of small ones); the same bytes."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
