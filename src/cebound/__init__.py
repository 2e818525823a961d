"""cebound: lower bounds for the relative entropy of coherence via the BKM kernel."""

from .bkm import (
    ChannelWeights,
    bkm_apply,
    bkm_form,
    bkm_hessian,
    channel_weights,
    log_mean_kernel,
    midpoint_margin,
    midpoint_margins,
    petz_form,
    petz_midpoint_margin,
)
from .bounds import (
    BoundReport,
    bound_report,
    fidelity,
    fidelity_bound,
    find_separation_eps,
    log_boundary_bound,
    operator_bound,
    pinsker_bound,
    separation_family,
    sharpness_family,
    trace_norm,
)
from .dephasing import (
    OrbitConfig,
    entropy_production,
    log_enhanced_bound,
    orbit_state,
    orbit_trace,
    write_orbit_csv,
)
from .errors import (
    CeboundError,
    DomainError,
    InfeasibleError,
    NumericError,
    PositivityError,
    ValidationError,
)
from .linalg import (
    BlockState,
    block_decompose,
    coherence_entropy,
    pinch,
    pythagorean_residual,
    random_block_state,
    read_state_json,
    state_payload,
    two_level_pure,
    validate_density,
    validate_hermitian,
    write_state_json,
)
from .twolevel import (
    TwoLevelParams,
    binary_entropy,
    phi,
    phi_dx,
    phi_dxx,
)
from .variational import (
    KrausChannel,
    MergeSpec,
    PinchedData,
    equality_state,
    merge_channel,
    modulus_curve,
    optimizer,
    pipeline_values,
    polygon_phases,
    svd_pinch,
)
from .verify import verify_group

__version__ = "0.1.0"
