"""qackit: a gate-level toolkit for low-depth QAC circuits.

Circuit IR and structural metrics, compiler-style rewrites (reflection
normal form, lowering to one-qubit gates and Toffolis, Hadamard
conjugation), fanout trees and parity/cat/nekomata constructions, an exact
dense state-vector oracle, classical samplers for mostly-classical
circuits, and numerical checks of the quantitative facts behind the
constructions.
"""
from .ir import (
    Circuit,
    Gate,
    KET0,
    KET1,
    Layer,
    LocalState,
    MINUS,
    OneQubit,
    Or,
    PLUS,
    RTensor,
    Toffoli,
    circuit,
    cnot,
    cz,
    depth,
    h_gate,
    rtensor,
    size,
    support,
    topology,
    validate,
    x_gate,
)
from .serial import CircuitFormatError, deserialize, serialize
from .statevec import (
    MeasurementDistribution,
    NekomataReport,
    StateVector,
    basis_state,
    best_nekomata_fidelity,
    max_unitary_difference,
    measurement_distribution,
    product_state,
    run,
    unitary,
    zero_state,
)
from .transforms import (
    cat_from_restricted_fanout,
    conjugate_by_hadamards,
    dagger,
    fanout_tree,
    lower,
    parity_from_nekomata,
    permute_qubits,
    to_rtensor_normal_form,
)
from .nekomata import (
    GridParams,
    ImpurityBound,
    build_depth2_nekomata,
    build_depthd_nekomata,
    choose_columns,
    core_targets,
    grid_law,
    impurity_bound,
    parity_error,
    solve_bias,
)
from .sampling import (
    GateLaw,
    HammingStats,
    classical_read_bound,
    direct_sample_batch,
    factorized_sample_batch,
    gate_law,
    hamming_stats_of_samples,
    sample_mostly_classical_batch,
)
from .analysis import (
    ChainBoundReport,
    Depth2Construction,
    Graph,
    IndependentSetResult,
    InterpolationResult,
    ProjectionChain,
    ReductionResult,
    angular_distance,
    angular_triangle_check,
    chain_product_value,
    check_cos_exp_inequality,
    check_projection_chain_bound,
    construction_success,
    generalized_markov_threshold,
    is_independent,
    optimal_interpolation,
    permutation_independent_set,
    reduce_depth2_construction,
)
from .rng import substream

__version__ = "0.1.0"
