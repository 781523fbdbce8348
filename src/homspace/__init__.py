"""
Dyadic cube systems, Besov/Triebel-Lizorkin sequence norms, and measure
lower-bound diagnostics on finite quasi-metric measure spaces.
"""
from homspace.common import DEFAULT_SEED
from homspace.dyadic import (
    CubeSystem,
    NetSystem,
    build_cubes,
    build_nets,
    default_constants,
    default_level_range,
    max_single_child_chain,
    propagate_cube_lower_bound,
    ball_lower_bound_from_cubes,
    verify_cube_axioms,
)
from homspace.embed import (
    EmbedParams,
    characterize,
    delta_necessity_test,
    embedding_ratio_scan,
)
from homspace.gallery import GallerySpec, build, load_space
from homspace.maximal import (
    KernelParams,
    calibrate_kernel_bound,
    hl_maximal,
    kernel_maximal_bound_check,
)
from homspace.seqnorm import (
    CoefSequence,
    NormParams,
    besov_norm,
    layer_cake_tl_norm,
    triebel_lizorkin_norm,
)
from homspace.space import (
    FiniteHomSpace,
    check_local_lower_bound,
    check_lower_bound,
    check_reverse_doubling,
    estimate_doubling,
    estimate_quasi_triangle_constant,
    space_stats,
    validate_quasi_metric,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SEED",
    "FiniteHomSpace",
    "GallerySpec",
    "NetSystem",
    "CubeSystem",
    "CoefSequence",
    "NormParams",
    "EmbedParams",
    "KernelParams",
    "build",
    "load_space",
    "build_nets",
    "build_cubes",
    "default_constants",
    "default_level_range",
    "verify_cube_axioms",
    "max_single_child_chain",
    "propagate_cube_lower_bound",
    "ball_lower_bound_from_cubes",
    "validate_quasi_metric",
    "estimate_quasi_triangle_constant",
    "estimate_doubling",
    "check_lower_bound",
    "check_local_lower_bound",
    "check_reverse_doubling",
    "space_stats",
    "besov_norm",
    "triebel_lizorkin_norm",
    "layer_cake_tl_norm",
    "delta_necessity_test",
    "embedding_ratio_scan",
    "characterize",
    "hl_maximal",
    "kernel_maximal_bound_check",
    "calibrate_kernel_bound",
]
