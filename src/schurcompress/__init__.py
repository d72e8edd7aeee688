"""Exact block-level simulation and resource planning for one-shot
compression of N identically prepared mixed states.

The N-copy state of a d-level system never leaves its Schur-Weyl block
decomposition here: weights and block matrices are computed exactly at
desk scale, the encode/decode channels act block by block, and every
closed-form qubit-count or error bound is available next to the exact
simulated error it bounds.
"""

__version__ = "0.1.0"

from .blocksim import (
    Block,
    BlochVector,
    BlockState,
    ErrorReport,
    block_weights,
    decode,
    encode,
    exact_protocol_error,
    product_state,
    qubit_weight,
    trace_distance,
)
from .errors import (
    ContractViolationError,
    NotApplicableError,
    OracleMismatchError,
    ParameterError,
    ResourceLimitError,
    UnsupportedFeatureError,
)
from .planner import (
    CompressionPlan,
    ResourceEstimate,
    circuit_resource_estimate,
    keyl_werner_tail_bound,
    mixed_prep_cost,
    pure_state_lower_bound,
    qubit_approx_plan,
    qubit_error_upper_bound,
    qudit_approx_plan,
    spectrum_estimate,
    truncation_lower_bound,
    zero_error_plan,
)
from .schur_core import (
    Spectrum,
    YoungDiagram,
    diagram_rows,
    enumerate_diagrams,
    irrep_dim,
    irrep_dims,
    multiplicity_dim,
    multiplicity_dims,
)

__all__ = [
    "Block",
    "BlochVector",
    "BlockState",
    "CompressionPlan",
    "ContractViolationError",
    "ErrorReport",
    "NotApplicableError",
    "OracleMismatchError",
    "ParameterError",
    "ResourceEstimate",
    "ResourceLimitError",
    "Spectrum",
    "UnsupportedFeatureError",
    "YoungDiagram",
    "block_weights",
    "circuit_resource_estimate",
    "decode",
    "diagram_rows",
    "encode",
    "enumerate_diagrams",
    "exact_protocol_error",
    "irrep_dim",
    "irrep_dims",
    "keyl_werner_tail_bound",
    "mixed_prep_cost",
    "multiplicity_dim",
    "multiplicity_dims",
    "product_state",
    "pure_state_lower_bound",
    "qubit_approx_plan",
    "qubit_error_upper_bound",
    "qubit_weight",
    "qudit_approx_plan",
    "spectrum_estimate",
    "trace_distance",
    "truncation_lower_bound",
    "zero_error_plan",
]
