"""Deterministic simulator and audit suite for a value-first EPR-Bell
protocol: beam-split a singlet pair across three magnet orientations,
measure each particle's spin value while the orientation stays
superposed, then complete the measurement and study what the ordering
reversal does to the correlations.
"""

from ._version import __version__
from .audit import (
    VerificationReport,
    literal_value_state,
    oracle_conditional_state,
    oracle_value_state,
    verify_states,
)
from .experiments import (
    EstimateRow,
    EstimateTable,
    ExperimentConfig,
    run_epr,
    run_erasure,
    run_interference,
    run_lhv_compare,
    run_toolate,
    run_verify,
    sample_protocol,
)
from .interference import (
    ErasureResult,
    erase_paths,
    interference_discriminator,
    recombine,
    swap_report,
)
from .lhv import (
    ConspiracyModel,
    DeterministicStrategy,
    conspiracy_predictions,
    enumerate_chsh_max,
)
from .protocol import (
    ExitLabel,
    JointState,
    OutcomeRecord,
    Trine,
    exit_vector,
    joint_distribution,
    measure_orientation,
    measure_value,
    prepare_joint,
    run_trial,
    three_port_splitter,
    value_projectors,
)
from .qcore import (
    InvalidPartition,
    ProjectorFamily,
    ZeroProbability,
    entanglement_entropy,
    fidelity,
    project,
    reduced_density,
    sample,
)
from .rng import TrialRng, mix64, trial_seed
from .spinlab import (
    SpinValue,
    chsh_value,
    correlation_exact,
    correlations,
    singlet,
    spin_eigenstates,
    wrap_angle,
)

__all__ = [name for name in dir() if not name.startswith("_")]
