"""Finite-lattice laboratory for two-weight estimates of dyadic band
operators: weighted Haar systems, induced operators, paraproducts,
Carleson embedding and indicator testing constants.
"""

from .lattice import NO_COMMON_ANCESTOR, Cube, Lattice, build_lattice, tree_distance
from .measures import (MeasureGrid, generate_measure, lognormal_measure,
                       sparse_atoms_measure, uniform_measure, zero_blocks_measure)
from .operators import (BandOperator, HaarIndex, InducedOperator, RootIndex,
                        check_band, check_well_localized, haar_multiplier,
                        haar_shift, haar_system, induce, random_band)
from .paraproduct import (CarlesonSequence, Paraproduct, build_paraproduct,
                          carleson_constant, carleson_property,
                          carleson_sequence, embedding_constant,
                          paraproduct_structure_verify, remainder_diagonals)
from .analysis import (DecompositionReport, TestingReport,
                       decomposition_identity, operator_norm,
                       testing_constants)
from .search import (SearchConfig, SearchResult, extremal_search,
                     greedy_embedding_sequence, replay_artifact)

__all__ = [name for name in dir() if not name.startswith("_")]
