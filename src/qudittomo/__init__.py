"""Simulation and maximum-likelihood reconstruction of noisy qudit tomography."""

from .qcore import (
    apply_choi,
    choi_depolarize,
    choi_from_unitary,
    choi_output_trace,
    depolarize,
    derive_seed,
    fidelity,
    haar_state,
    haar_unitary,
    infidelity,
    ket,
    make_rng,
    process_fidelity,
    projector,
)
from .circuits import GateSequence, TwoLevelGate, euler_decompose, gate_unitary, \
    sequence_unitary, su2_rotation
from .readout import (
    DiagonalSpamModel,
    cascade_response,
    gauge_transform,
    gibbs_cascade_model,
    gibbs_populations,
    ideal_spam_model,
    level_reads,
)
from .protocols import (
    MeasurementCircuit,
    TomographyProtocol,
    completeness_check,
    mub_bases,
    mub_gate_compile,
    mub_protocol,
    qpt_preparations,
    qpt_two_level,
    qst_two_level,
    spam_calibration_circuits,
)
from .sim import (
    CountsDataset,
    GibbsInit,
    LevelReadoutError,
    NoiseConfig,
    allocate_shots,
    circuit_probabilities,
    noisy_prep_state,
    outcome_probabilities,
    run_protocol,
    sample_counts,
    simulate_level_reads,
)
from .recon import (
    FitReport,
    MeasurementModel,
    build_measurement_model,
    estimate_spam_general,
    estimate_spam_gibbs,
    mle_process,
    mle_state,
    mle_state_pure,
    project_cptp,
    select_rank,
)

__version__ = "0.1.0"
