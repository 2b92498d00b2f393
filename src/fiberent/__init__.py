"""Fiber entropy experiments for random dynamical systems over amenable groups.

The package verifies, numerically and at desk scale, that the empirical
fiber information rate of a symbolic random dynamical system converges
along tempered Folner sequences to the closed-form fiber entropy, and it
implements the supporting machinery end to end: exact group and Folner
set algebra, lazy symbolic configurations, fiber measures with exact cell
probabilities, information functions and chain-rule identities,
quasi-tiling cover constructions, and a reproducible CLI runner.
"""

from .covering import (
    CoverInstance,
    CoverSolution,
    RandomCoverInstance,
    check_hypotheses,
    greedy_cover,
    iter_samples,
    sample_many,
    sample_random_cover,
    verify_greedy_cover,
    verify_random_cover,
)
from .entropy import (
    ConvergenceTrace,
    TraceRow,
    chain_rule_residual,
    chain_rule_terms,
    conditional_entropy_trace,
    conditional_information,
    information,
    smb_trace,
)
from .folner import (
    FolnerSequence,
    ValidationReport,
    box_folner,
    box_folner_sizes,
    folner_defect,
    heisenberg_folner,
    tempered_constant,
    validate_sequence,
    window_folner,
)
from .groups import (
    FiniteSubset,
    GroupElement,
    GroupMismatchError,
    HeisenbergGroup,
    ZdGroup,
    inverse,
    inverse_set,
    mul,
    product_set,
    product_set_size,
    subset,
    subset_from_coords,
    symmetric_difference_size,
    translate,
)
from .measures import (
    PartitionSpec,
    canonical_partition,
    cell_measure,
    cell_of,
    check_invariance,
    enumerate_cells,
)
from .rds import (
    BernoulliModel,
    MarkovModel,
    RandomAlphabetModel,
    SkewPoint,
    SymbolicConfiguration,
    ZeroMeasureError,
    check_cocycle,
    configuration_from_pins,
    constant_configuration,
    exact_distribution,
    sample_point,
    shannon_entropy,
    shift,
    skew,
)
from .rng import derive_seed, mix64, uniform01, uniform01_stream

__version__ = "0.1.0"
