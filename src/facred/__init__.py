"""facred: facial reduction and extended strong duals for conic linear
programs over products of nonnegative-orthant and PSD blocks.

The package regularizes programs that lack a strictly feasible point: it
computes the minimal cone by facial reduction, verifies the certificate
chains it produces, and builds explicit extended (Ramana-type) duals whose
optimal values are always attained and equal to the primal value.
"""

from .extended import (VARIANTS, ExtendedDualPoint, ExtendedDualProgram,
                       assemble_optimal_point, build_extended_dual,
                       check_extended_point, fmin_membership, lift_to_psd,
                       solve_extended_dual)
from .faces import (FaceRep, face_dual_membership, faces_equal,
                    in_tangent_space, intersect_with_hyperplane,
                    longest_chain_length, minimal_face,
                    relative_interior_point, subspace_distance,
                    tangent_membership_schur)
from .linalg import (EigenDecomposition, numeric_rank, nullspace_basis,
                     sym_eig)
from .model import (ConeBlock, ConicProgram, StructureMismatchError,
                    YElement, adjoint_apply, primal_slack)
from .reducing import (AmbiguousOutcome, ReducingOutcome,
                       solve_reducing_pair, solve_restricted_to_face)
from .reduction import (DecomposedChain, ReductionCertificate, ReductionError,
                        VerificationReport, compute_ell,
                        decompose_certificates, run_facial_reduction,
                        verify_certificate_chain)
from .sdpa import SdpaFormatError, emit_sdpa, parse_sdpa
from .solver import (SolveResult, SolverError, SolverOptions, SolveStatus,
                     solve_conic_lp, standard_dual)

__version__ = "0.1.0"
