"""Isotropic positive definite functions on spheres.

Evaluates Schoenberg-type expansions on the d-dimensional and
infinite-dimensional (Hilbert) spheres, computes exact derivative
coefficient tables for powers of cosine together with their growth
constants, transforms Hilbert-sphere coefficient sequences into circle
sequences, and classifies kernel smoothness from sequence decay.
"""

from .asymptotics import (
    ConvergenceTrace,
    LeadingCoeffTable,
    asymptotic_ratio,
    build_leading_table,
    even_binomial_sum,
    limit_constant_report,
    odd_binomial_sum,
    scaled_sum,
    trace_convergence,
)
from .derivatives import (
    DerivTable,
    SinCosPoly,
    build_deriv_table,
    cos_power_derivative,
    derivative_at_zero,
    diagonal_closed_form,
    symbolic_derivative,
    table_polynomial,
)
from .errors import (
    DimensionMismatch,
    DivergentSeries,
    SphereKernelError,
    ToleranceUnreachable,
    UnsupportedRange,
)
from .kernels import (
    KernelSpec,
    PsdVerdict,
    UnitVector,
    gegenbauer_normalized,
    geodesic_distance,
    phi_eval,
    phi_eval_d,
    phi_eval_inf,
    psd_spot_check,
)
from .sequences import (
    Finite,
    Geometric,
    PoissonType,
    PowerLaw,
    SequenceModel,
    TailBound,
    converges_weighted,
    model_from_dict,
    model_from_json,
    model_to_dict,
    term,
    total_mass_bound,
    truncation_index,
    weighted_tail_bound,
)
from .transform import (
    CircleSequence,
    EllVerdict,
    SmoothnessReport,
    circle_coefficient,
    circle_sequence,
    classify_d,
    classify_inf,
    derivative_at_zero_series,
    reconstruct_error,
)

__version__ = "0.1.0"
