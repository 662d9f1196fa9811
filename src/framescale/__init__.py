"""Finite frame pairs: multiplier norms, rescaling weights, and dilations.

The package is organized around FramePair, a finite family of vector
pairs in C^d.  frames computes Bessel and frame bounds; multiplier
estimates the masked-combination operator norm from below and evaluates
its matrix-coefficient (amplified) maps; rescale finds log-weights whose
balanced Bessel bounds certify the completely bounded norm from above,
bounds it and the multiplier norm from below by a dual certificate with
a replayable witness, and builds the explicit dilation; verify turns
every supporting inequality into an executable check.
"""

from .frames import (
    BesselBounds,
    FramePair,
    bessel_and_frame_bounds,
    frame_operator,
    is_schauder_identity,
    pair_operator,
)
from .instances import GENERATOR_KINDS, generate, mangle, mangling_scalars
from .multiplier import (
    MultiplierNormEstimate,
    apply_mask,
    mask_matrix,
    norm_lower_alternating,
    norm_oracle_grid,
)
from .rescale import (
    CbBracket,
    Dilation,
    ScalingResult,
    build_dilation,
    dilation_reconstruct,
    extract_scaling,
    optimize,
)
from .verify import (
    VerificationError,
    end_to_end_rescale_check,
    khintchine_check,
    ratio_experiment,
    run_suite,
    super_key_check,
    trace_lemma_check,
)

__version__ = "0.1.0"

__all__ = [
    "BesselBounds",
    "CbBracket",
    "Dilation",
    "FramePair",
    "GENERATOR_KINDS",
    "MultiplierNormEstimate",
    "ScalingResult",
    "VerificationError",
    "apply_mask",
    "bessel_and_frame_bounds",
    "build_dilation",
    "dilation_reconstruct",
    "end_to_end_rescale_check",
    "extract_scaling",
    "frame_operator",
    "generate",
    "is_schauder_identity",
    "khintchine_check",
    "mangle",
    "mangling_scalars",
    "mask_matrix",
    "norm_lower_alternating",
    "norm_oracle_grid",
    "optimize",
    "pair_operator",
    "ratio_experiment",
    "run_suite",
    "super_key_check",
    "trace_lemma_check",
    "__version__",
]
