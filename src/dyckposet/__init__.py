"""Exact enumeration in the lattice D_n of Dyck paths under inclusion.

Every headline quantity is computed by at least two independent routes that
are required to agree: Catalan counts (closed form vs recurrence), q-analogs
(statistic sums vs recurrences and quotients), maximal chains (incidence
algebra vs hook-length formula), and the q,t-Catalan polynomial (path
statistics vs the bounce recurrence, and vs exact rational evaluation of the
partition sum).  Reference routes that no command runs, such as Stanley's
Mobius criterion on J(P_n), are oracles in the tests.
"""

from .config import MAX_ORDER, LimitExceededError, check_order
from .paths import (CellStats, DyckPath, Partition, PathStats, catalan_closed,
                    catalan_count, catalan_recurrence, cell_stats,
                    count_bad_paths, enumerate_paths, path_stats,
                    path_to_partition)
from .polynomials import BiPoly, UniPoly
from .poset import (AntichainCensus, DyckPoset, PosetCensus, antichain_census,
                    build_poset, maximal_chains, min_antichain_cover,
                    min_chain_cover, order_ideal_count, poset_census,
                    rank_sizes)
from .incidence import (ChainCensus, ExactMatrix, chain_census,
                        chain_polynomial, interval_count,
                        invert_unitriangular, maximal_chain_count,
                        maximal_chain_solve, mobius_matrix,
                        total_chain_solve, total_chains, zeta_matrix)
from .tableaux import (HookDiagram, hook_lengths,
                       maxchain_tableau_bijection_check, staircase_maxchain,
                       syt_count)
from .qt import (GH_CHECK_POINT, GH_POINT_SEED, PoleError, QtCensus, cn_area,
                 cn_inv, cn_maj, gh_evaluate, gh_pole_check, gh_sample_points,
                 qt_catalan, qt_census, qt_specialize, symmetry_check)
from .chromatic import (SimpleGraph, chromatic_polynomial,
                        count_colourings_brute, hasse_chromatic, hasse_graph)
from .parking import (AreaLabelPair, LabelledDyckPath, ParkingCensus,
                      ParkingFunction, area_from_parking,
                      count_parking_by_filter, count_parking_functions,
                      enumerate_labelled_paths, enumerate_parking_functions,
                      is_parking_function, labelled_to_parking,
                      parking_census, parking_to_labelled, vectors_of)
from .oeis import (REGISTRY, OrderOutOfRangeError, SequenceEntry,
                   SnapshotParseError, UnknownSequenceError,
                   VerificationReport, load_snapshot, parse_snapshot,
                   verify_sequence)

__all__ = [name for name in dir() if not name.startswith("_")]
