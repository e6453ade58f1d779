"""Mixed-smoothness function classes on the torus: norms, moduli, verification.

The package computes Lorentz norms of trigonometric polynomials on the
unit-measure m-torus, mixed moduli of smoothness, dyadic block and angle
decompositions, Jackson-type approximants, the sequence and modulus forms of
log-weighted smoothness norms, and ships a seeded ratio-verification harness
(`mixsmooth verify`) that exercises the implemented inequalities end to end.
"""

from .core import (
    DEGREE_GUARD,
    GridTooCoarse,
    InvalidParams,
    LorentzParams,
    SmoothParams,
    TrigPoly,
    cosine,
    default_grid_shape,
    evaluate_on_grid,
    tensor,
    validate_params,
)
from .lorentz import (
    batch_norms,
    lorentz_norm,
    norm_with_refinement,
    poly_norm,
)
from .spectral import (
    BlockDecomposition,
    BlockIndex,
    angle_operator,
    angle_residual,
    angle_residual_norms,
    block_norms,
    block_of_frequency,
    decompose,
    delta_block,
    lp_tail_norm,
    max_block_index,
    partial_sum,
    tail_square_norms,
)
from .smoothness import (
    ModulusGrid,
    SeminormResult,
    TailNotConverged,
    derivative,
    difference_norms,
    log_modulus_seminorm,
    mixed_difference,
    mixed_modulus,
    modulus_grid,
)
from .approx import (
    JacksonKernel,
    angle_surrogate,
    direct_approximant,
    jackson_kernel,
    kernel_moment,
    kernel_residual_norm,
    smoothing_multiplier,
)
from .seqnorms import (
    ConditionReport,
    EmbeddingExponents,
    UncoveredParams,
    embedding_exponents,
    norm_bold_B,
    seq_norm_B,
    theorem1_rhs,
    theorem2_rhs,
    theorem3_norm,
    theorem5_condition,
    theta_sum,
)
from .verify import (
    CHECK_NAMES,
    Corpus,
    CorpusFunction,
    RatioReport,
    RatioRow,
    UnknownCheck,
    VerifyConfig,
    Workspace,
    generate_corpus,
    lacunary,
    load_golden_windows,
    run_check,
)

__version__ = "0.1.0"
