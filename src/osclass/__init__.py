"""Complete invariants and decision procedures for finite-dimensional operator
systems, unitary spectra under rigid circle motions, degree-1 homeomorphism of
finite point sets, and finite metric structures."""

from .degree1 import (Deg1Decision, DegreeOneMap, PointSet, deg1_via_opsys,
                      degree_one_homeomorphic, is_degree_one_assignment,
                      monomial_matrix, normal_system)
from .linalg import SpectralDecomposition, eig_normal, gram_rank, op_norm
from .metric import FiniteStructure, Signature, dgh_structures, dk_bruteforce
from .opsys import (AmplifiedElement, OperatorSystemSpan, PolyhedralDualBall,
                    amplified_norm, build_system, find_unit_coeffs,
                    is_operator_system, min_os_norm)
from .osdist import (DistanceReport, LinearMapCoords, WtParams,
                     amplified_map_norm, dgh_weighted, dn_search, trace_invariants,
                     wt_classify, wt_system)
from .unitary import (CanonicalNecklace, CircleSet, CoisDecision, RigidMotion,
                      canonical_form, cois_unitary_oracle,
                      cois_unitary_theorem, four_point_obstruction,
                      rigid_equivalent, spectrum)
from .formulas import eval_formula, universal_fingerprint

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
