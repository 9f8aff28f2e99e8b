"""Computer algebra for the rank-3 Clifford algebra and its quadratic cone.

The algebra splits into a pair of quaternion copies through its two central
idempotents; this package implements that splitting and everything the
package builds on it: cone geometry, stem-induced slice functions,
polynomials with right coefficients and their star product, a two-slice
Cauchy kernel with numerical reproduction, zero classification of
quadratics with four multiplicity counts, and determinants of 2x2 matrices
over the cone.
"""

from .clifford3 import (
    BASIS,
    BASIS_NAMES,
    E0,
    E1,
    E2,
    E3,
    E12,
    E13,
    E23,
    E123,
    EPS,
    OMEGA_MINUS,
    OMEGA_PLUS,
    ZERO,
    CliffordElement,
    conj,
    element,
    mul,
    norm_n,
    scalar,
    trace,
)
from .qsplit import (
    ConePoint,
    Quat,
    QuatPair,
    SphereDescriptor,
    cone_point,
    in_ball,
    in_cone,
    inverse,
    is_sqrt_minus_one,
    join,
    power,
    split,
)
from .bislice import (
    BiSlicePoly,
    QuatPoly,
    SliceSamples,
    dbar_residual,
    dbar_residual_single,
    regular_conjugate,
    representation_formula,
    sample_slice_values,
    split_poly,
    splitting_projection,
    star_mul,
    star_mul_pointwise,
    symmetrization,
)
from .stem import (
    StemFunction,
    RectDomain,
    builtin_stem,
    check_cauchy_riemann,
    check_parity,
    constant_stem,
    induce,
    spherical_derivative,
    spherical_value,
    stem_from_poly,
)
from .cauchy import (
    SliceContour,
    cauchy_kernel,
    cauchy_kernel_quat,
    cauchy_reconstruct,
    contour_integral,
    contour_integral_vanishes,
    kernel_regularity_residual,
)
from .zeros import (
    MultiplicityReport,
    QuatQuadraticZeros,
    ZeroSetQuadratic,
    classify_quadratic,
    classify_split,
    fta_witness,
    multiplicities,
    quat_quadratic_zeros,
    split_factors,
    verify_zeros,
)
from .qdet import Matrix2, det, det_both_sides, is_right_invertible, matmul, split_matrix
from .grammar import (
    format_element,
    format_quat,
    format_quat_pair,
    parse_element,
    parse_factored,
    parse_matrix,
    parse_poly,
    parse_quat,
    parse_sphere,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
