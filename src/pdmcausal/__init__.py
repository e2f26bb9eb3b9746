"""Pseudo-density matrices for multi-time qubit statistics.

Build PDMs from sequential coarse-grained measurement statistics, quantify
their negativity, extract forward and time-reversed Choi matrices, and
classify the observed correlations among five causal structures.
"""

from .linalg import (
    ComplexMatrix,
    NumericalInconsistencyError,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    permute_factors,
    swap_operator,
)
from .pauli import pauli_basis
from .channels import (
    QuantumChannel,
    QuantumState,
    channel_from_id,
    channel_from_json,
    choi_of,
    haar_unitary,
    input_transpose,
    measure_prepare_z,
    partial_swap,
    random_channel,
    random_pure_state,
    random_semicausal,
    random_state,
    semicausal,
    swap_channel,
)
from .pdm import (
    PDM,
    Slot,
    marginal_state,
    negativity,
    pdm_closed_form,
    pdm_from_json,
    pdm_from_measurements,
    pdm_iterative,
    pdm_to_json,
    reduce,
    time_reverse,
)
from .inference import (
    CausalStructure,
    CausalVerdict,
    ExtractionResult,
    Thresholds,
    classify,
    extract_choi,
    extract_reverse_choi,
    sdp_least_negative,
)

__version__ = "0.1.0"
