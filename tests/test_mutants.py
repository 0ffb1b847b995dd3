"""Mutation matrix: each mutant seeds one defect through a public
constructor or a test double, and exactly the checks that watch for that
defect must fail.
"""
import dataclasses

import numpy as np
import pytest

from haarlab import CarlesonSequence, Cube, InducedOperator, io, runner, tree_distance
from haarlab.operators import local_testing_integrals

CONFIG = {
    "lattice": {"dim": 1, "top_level": 0, "leaf_level": -4},
    "mu": {"type": "lognormal", "sigma": 1.0, "seed": 11},
    "nu": {"type": "zero_blocks", "fraction": 0.2, "seed": 12},
    "operator": {"type": "random_band", "r": 1, "seed": 13, "amplitude": 1.0,
                 "root_amplitude": 0.5},
    "r": 1,
    "seed": 0,
}
RAISED_CUBE = 1  # the first cube below the root
true_carleson_sequence = runner.carleson_sequence


def raised_carleson_sequence(t_mu, r, pi_mu=None):
    """The operator's true sequence with a_Q of one cube raised past
    sum_{Q' inside Q} a_Q' <= ||chi_Q T_mu chi_Q||^2, its local testing bound;
    `verify` passes its Pi_mu, `carleson` none."""
    seq = true_carleson_sequence(t_mu, r, pi_mu)
    bound = local_testing_integrals(t_mu)[RAISED_CUBE]
    values = np.array(seq.values)
    values[RAISED_CUBE] = bound + max(bound, 1.0)
    return CarlesonSequence(seq.lattice, values)


def failed_checks(tmp_path, suite, config=CONFIG):
    code, report = runner.run(config, str(tmp_path / suite), suite)
    failed = {c["name"] for c in report["checks"] if not c["passed"]}
    assert code == (1 if failed else 0)
    return failed, report


@pytest.mark.parametrize("suite", ["carleson", "verify", "testing"])
def test_the_instance_passes_unmutated(tmp_path, suite):
    assert failed_checks(tmp_path, suite)[0] == set()


@pytest.mark.parametrize("suite,failed", [
    ("carleson", {"carleson_property"}),   # embedding <= 4 Carleson holds for any sequence
    ("verify", {"carleson_property"}),
    ("testing", set())],                   # reads no Carleson sequence
    ids=["carleson", "verify", "testing"])
def test_carleson_value_past_its_testing_bound(tmp_path, monkeypatch, suite, failed):
    monkeypatch.setattr(runner, "carleson_sequence", raised_carleson_sequence)
    got, report = failed_checks(tmp_path, suite)
    assert got == failed
    lattice = io.lattice_from_json(CONFIG["lattice"])
    raised = io.cube_to_json(lattice.active_cubes[RAISED_CUBE])
    for check in report["checks"]:
        if check["name"] == "carleson_property":
            assert check["details"]["max_excess"] > report["tolerances"]["identity"]
            assert check["details"]["witness"] == raised


# one Haar-Haar entry at tree distance r + 2: row h_Q for Q at level -3 under
# the root, column h_R for the root R
OFF_BAND = (Cube(1, -3, (0,)), Cube(1, 0, (0,)))


def off_band_config():
    """CONFIG with its band as io.band_to_json writes it, plus the OFF_BAND entry."""
    lattice = io.lattice_from_json(CONFIG["lattice"])
    spec = io.band_to_json(io.band_from_json(CONFIG["operator"], lattice))
    spec["entries"].append({"row": {"kind": "haar", "cube": io.cube_to_json(OFF_BAND[0]),
                                    "component": 0},
                            "col": {"kind": "haar", "cube": io.cube_to_json(OFF_BAND[1]),
                                    "component": 0},
                            "value": 1.0})
    return {**CONFIG, "operator": spec}


@pytest.mark.parametrize("suite,failed", [
    # every check of the structure that well-localization gives; Parseval
    # reads no operator, and the Carleson and testing bounds hold for any one
    ("verify", {"band_structure", "well_localized", "paraproduct_structure",
                "replacement_invariance", "remainder_diagonals", "decomposition_identity"}),
    ("testing", set()),
    ("carleson", set())],
    ids=["verify", "testing", "carleson"])
def test_one_off_band_entry(tmp_path, suite, failed):
    assert tree_distance(*OFF_BAND) == CONFIG["r"] + 2
    got, report = failed_checks(tmp_path, suite, off_band_config())
    assert got == failed
    for check in report["checks"]:
        if check["name"] == "band_structure":
            row, col = ({"kind": "haar", "cube": io.cube_to_json(q), "component": 0}
                        for q in OFF_BAND)
            assert check["details"]["witness"] == {"row": row, "col": col}


true_paraproducts = runner._paraproducts


TOP_CUBE = 0  # the root, the lattice's one top cube


def perturbed_paraproducts(side, size, cube=RAISED_CUBE):
    """runner._paraproducts with one entry of W raised by `size` in Pi_mu
    (side 0) or Pi_nu (side 1): in the row of `cube`, at its first leaf of
    positive output mass.  In the row of TOP_CUBE it is a blind spot: E_root
    of every Haar function and of every mean-free f is 0, so no check that
    reads Pi through Haar functions can see it."""
    def paraproducts(t_mu, r):
        pis = list(true_paraproducts(t_mu, r))
        pi = pis[side]
        row = int(np.flatnonzero(pi.cubes == cube)[0])
        leaf = int(np.flatnonzero((pi.a[row] > 0) & (pi.nu.leaf_mass > 0))[0])
        w = np.array(pi.w)
        w[row, leaf] += size
        pis[side] = dataclasses.replace(pi, w=w)
        return tuple(pis)
    return paraproducts


PI_MU_CHECKS = {"paraproduct_structure", "replacement_invariance", "remainder_diagonals",
                "decomposition_identity"}


@pytest.mark.parametrize("side,size,cube,suite,failed", [
    # Pi_mu's structure and replacement invariance are checked on it, the
    # remainder and the identity on both paraproducts
    (0, 1.0, RAISED_CUBE, "verify", PI_MU_CHECKS),
    (0, 1.0, RAISED_CUBE, "decompose", {"decomposition_identity"}),
    # carleson_property reads a_Q off Pi_mu's rows: it fails once a_Q passes
    # its testing bound, which has slack below that
    (0, 30.0, RAISED_CUBE, "verify", PI_MU_CHECKS | {"carleson_property"}),
    # Pi_nu's own structure is not checked: the remainder and the identity see it
    (1, 1.0, RAISED_CUBE, "verify", {"remainder_diagonals", "decomposition_identity"}),
    (1, 1.0, RAISED_CUBE, "decompose", {"decomposition_identity"}),
    # the top cube's row, the blind spot: structure, remainder and identity
    # never read it; replacement invariance fails only because the double
    # leaves the enlarge=1 rebuild unperturbed (for the top cube the
    # enlargement is the cube itself).  The root's testing bound has more
    # slack than RAISED_CUBE's: raised by 30 a_root stays below it, by 100
    # carleson_property fails
    (0, 1.0, TOP_CUBE, "verify", {"replacement_invariance"}),
    (0, 30.0, TOP_CUBE, "verify", {"replacement_invariance"}),
    (0, 100.0, TOP_CUBE, "verify", {"replacement_invariance", "carleson_property"})],
    ids=["pi_mu-verify", "pi_mu-decompose", "pi_mu-past-carleson-verify", "pi_nu-verify",
         "pi_nu-decompose", "pi_mu-top-verify", "pi_mu-top-30-verify",
         "pi_mu-top-past-carleson-verify"])
def test_one_perturbed_paraproduct_entry(tmp_path, monkeypatch, side, size, cube, suite,
                                         failed):
    monkeypatch.setattr(runner, "_paraproducts", perturbed_paraproducts(side, size, cube))
    assert failed_checks(tmp_path, suite)[0] == failed


def coupled_induce(band, mu, nu):
    """The band's leaf matrix plus one coupling from the last leaf to the
    first, induced as a leaf matrix that no band operator gives."""
    matrix = np.array(band.leaf_matrix)
    matrix[0, -1] += 1.0
    return InducedOperator.from_leaf_matrix(matrix, mu, nu)


@pytest.mark.parametrize("suite,failed", [
    # the checks whose identities need a well localized operator; band_structure
    # reads the band, which the double does not change, Parseval no operator,
    # and the testing and embedding bounds hold for any operator and sequence
    ("verify", {"well_localized", "paraproduct_structure", "replacement_invariance",
                "remainder_diagonals", "carleson_property", "decomposition_identity"}),
    ("testing", set()),
    ("carleson", {"carleson_property"})],
    ids=["verify", "testing", "carleson"])
def test_a_leaf_coupling_not_induced_from_a_band(tmp_path, monkeypatch, suite, failed):
    leaves = io.lattice_from_json(CONFIG["lattice"]).leaves
    assert tree_distance(leaves[0], leaves[-1]) > CONFIG["r"] + 2
    monkeypatch.setattr(runner, "induce", coupled_induce)
    got, report = failed_checks(tmp_path, suite)
    assert got == failed
    for check in report["checks"]:
        if check["name"] == "carleson_property":
            assert check["details"]["witness"] == io.cube_to_json(Cube(1, 0, (0,)))


def non_finite_induce(entry):
    """runner.induce, with one entry of the band's leaf matrix set to `entry`."""
    def induce(band, mu, nu):
        matrix = np.array(band.leaf_matrix)
        matrix[0, 0] = entry
        return InducedOperator.from_leaf_matrix(matrix, mu, nu)
    return induce


@pytest.mark.parametrize("entry", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("suite,failed", [
    # every check that reads the operator; band_structure reads the band,
    # which the double leaves finite, and Parseval reads no operator
    ("testing", {"necessity_direct", "necessity_adjoint", "necessity_diag",
                 "local_le_global"}),
    ("verify", {"well_localized", "paraproduct_structure", "replacement_invariance",
                "remainder_diagonals", "carleson_property", "decomposition_identity"}),
    ("carleson", {"carleson_property", "embedding_le_4_carleson"})],
    ids=["testing", "verify", "carleson"])
def test_a_non_finite_leaf_matrix_entry(tmp_path, monkeypatch, suite, failed, entry):
    monkeypatch.setattr(runner, "induce", non_finite_induce(entry))
    assert failed_checks(tmp_path, suite)[0] == failed
