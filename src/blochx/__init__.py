"""blochx: generalized Bloch-ball toolkit for N-level quantum systems.

Generator bases, state/coordinate-vector maps, directional spin
observables, a simplex-collapse measurement simulator reproducing quantum
outcome statistics, two-spin composites, and the unit vectors representing
Euclidean directions inside the ball.
"""
from .bloch import (BlochVector, DensityState, PureState, bloch_to_operator,
                    is_state, projector_to_ket, pure_state_from_direction,
                    purity, random_density, random_ket, state_to_bloch)
from .composite import (CompositeSpinSystem, CoupledBasis, ProductBasis,
                        build_composite, coupled_basis, product_basis)
from .correspondence import (SpaceVector, direction_scale_composite,
                             direction_scale_single, eigenstate_projections,
                             isomorphism_sweep, space_vector_composite,
                             space_vector_single, v_overlap_with_extremal,
                             verify_isomorphism)
from .generators import GeneratorSet, build_generators, expand_on_generators, scale_constant
from .linalg import ValidationError, degeneracy_groups, eigh
from .measurement import (MeasurementRecord, MeasurementSimplex,
                          MeasurementStatistics, OnSimplexState,
                          approach_trajectory, barycentric_stream,
                          born_probabilities, lueders_post_state,
                          project_onto_simplex, run_measurement,
                          sample_collapse, simplex_from_observable)
from .spin import (Direction3, SpinObservable, SpinSystem, X1, X2, X3,
                   build_spin_system, classical_resultant_range,
                   cone_parameters, cone_projection_range, spin_along)

__version__ = "0.1.0"

__all__ = [
    "BlochVector", "DensityState", "PureState", "bloch_to_operator",
    "is_state", "projector_to_ket", "pure_state_from_direction", "purity",
    "random_density", "random_ket", "state_to_bloch",
    "CompositeSpinSystem", "CoupledBasis", "ProductBasis", "build_composite",
    "coupled_basis", "product_basis",
    "SpaceVector", "direction_scale_composite", "direction_scale_single",
    "eigenstate_projections", "isomorphism_sweep", "space_vector_composite",
    "space_vector_single", "v_overlap_with_extremal", "verify_isomorphism",
    "GeneratorSet", "build_generators", "expand_on_generators", "scale_constant",
    "ValidationError", "degeneracy_groups", "eigh",
    "MeasurementRecord", "MeasurementSimplex", "MeasurementStatistics",
    "OnSimplexState", "approach_trajectory", "barycentric_stream",
    "born_probabilities", "lueders_post_state",
    "project_onto_simplex", "run_measurement", "sample_collapse",
    "simplex_from_observable",
    "Direction3", "SpinObservable", "SpinSystem", "X1", "X2", "X3",
    "build_spin_system", "classical_resultant_range", "cone_parameters",
    "cone_projection_range", "spin_along",
    "__version__",
]
