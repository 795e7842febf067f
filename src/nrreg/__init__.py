"""Robust non-rigid surface registration.

Aligns a deformable source surface to a target point set by blending
per-node affine transforms of an embedded deformation graph, minimizing
Welsch-robust alignment and smoothness energies with a
majorization-minimization outer loop and an L-BFGS inner solver.
"""

from .correspond import (CorrespondenceSet, RigidIcpResult, RigidTransform, best_rigid,
                         find_correspondences, lift_rigid_to_state, rigid_icp_init)
from .energy import (Deformed, EnergyParams, SurrogateSystem, assemble_surrogate,
                     deform, identity_state, pack_state, total_energy, unpack_state,
                     welsch)
from .errors import (DegenerateInputError, FormatError, InitializationError,
                     InvalidInputError, NrregError, SolverError)
from .evaluate import (GroundTruth, add_gaussian_normal_noise, remove_region,
                       rmse, synthesize_deformation)
from .geodesic import GeodesicField, geodesic_from
from .graph import (DeformationGraph, build_graph, sample_nodes_farthest,
                    sample_nodes_pca, transform_points)
from .mesh import (NormalizationRecord, Surface, compute_normals, load_surface,
                   mean_edge_length, normalize_pair, save_ply, surface_edges,
                   write_error_mesh)
from .solver import (RegistrationResult, SolverParams, register, solve_inner,
                     two_loop_direction)

__version__ = "0.1.0"
