"""opalg: a finite-dimensional workbench for C*-covers of operator
algebras, their lattice, group actions, crossed products and partial-action
recovery.

Everything is concrete and dense-matrix: operator algebras are unital
subspaces of block-diagonal complex matrix ambients; covers, envelopes and
crossed products are computed, not postulated, and every completely
bounded claim is certified, by the structure of the map (a *-homomorphism,
a composition with one, a direct sum) or by one of two independent
numerical oracles.
"""

__version__ = "0.1.0"

from .cb import (CC, CI, INCONCLUSIVE, NOT_CC, NOT_CI, CbReport, LinearMap,
                 Undecided, cc_check, ci_check, star_hom_violations)
from .covers import (CoverError, CoverMorphism, CstarCover, MorphismAbsence,
                     NotCompletelyIsometric, NotHomomorphism,
                     OperatorAlgebra, envelope, equivalent, inclusion_cover,
                     induced_morphism, is_boundary, join, leq, make_cover,
                     meet, quotient_cover, quotient_map, shilov)
from .crossed import (CrossedProduct, NotAdmissibleCover, crossed_equivalent,
                      cstar_crossed, full_crossed, relative_crossed,
                      trivialization_iso)
from .dynamics import (ADMISSIBLE, NOT_ADMISSIBLE, AdmissibilityReport,
                       DynamicalSystem, FiniteGroup, InnerReport,
                       admissible, inner_in_itself, invariant_kernel_check,
                       locally_inner, make_system, trivial_system)
from .linalg import (AlgebraSpan, Ambient, AmbientMismatch, NotInSpan,
                     diagonal, direct_sum, generate_algebra, operator_norm,
                     orthonormal_span)
from .partialact import (PartialActionSpec, PartialCrossed, RecoveryReport,
                         build_partial_action, partial_crossed,
                         verify_partial_recovery)
from .structure import (BlockStructure, BlockStructureError, annihilator,
                        blocks_of_ideal, center, ideal_blocks, is_essential,
                        is_maximal_ideal, minimal_central_projections)
from .suite import paper_suite
