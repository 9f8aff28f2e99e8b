"""Computer algebra for the rank-3 Clifford algebra and its quadratic cone.

The algebra splits into a pair of quaternion copies through its two central
idempotents; this package implements that splitting and everything the
package builds on it: cone geometry, stem-induced slice functions,
polynomials with right coefficients and their star product, a two-slice
Cauchy kernel with numerical reproduction, zero classification of
quadratics with four multiplicity counts, and determinants of 2x2 matrices
over the cone.

Submodules load on demand: ``import qcone3`` loads none of them, and the
first access to a name in ``__all__`` (``qcone3.Quat``, ``from qcone3
import det``, ``from qcone3 import *``) imports the module that defines it.
"""

#: Each public name, under the submodule that defines it.
_EXPORTS = {
    "clifford3": (
        "BASIS",
        "BASIS_NAMES",
        "E0",
        "E1",
        "E2",
        "E3",
        "E12",
        "E13",
        "E23",
        "E123",
        "EPS",
        "OMEGA_MINUS",
        "OMEGA_PLUS",
        "ZERO",
        "CliffordElement",
        "Quat",
        "QuatPair",
        "conj",
        "join",
        "mul",
        "norm_n",
        "scalar",
        "split",
        "trace",
    ),
    "qsplit": (
        "ConePoint",
        "SphereDescriptor",
        "cone_point",
        "in_ball",
        "in_cone",
        "inverse",
        "is_sqrt_minus_one",
        "power",
    ),
    "bislice": (
        "BiSlicePoly",
        "QuatPoly",
        "SliceSamples",
        "dbar_residual",
        "dbar_residual_single",
        "regular_conjugate",
        "representation_formula",
        "sample_slice_values",
        "splitting_projection",
        "star_mul",
        "star_mul_pointwise",
        "symmetrization",
    ),
    "stem": (
        "StemFunction",
        "RectDomain",
        "check_cauchy_riemann",
        "check_parity",
        "constant_stem",
        "induce",
        "spherical_derivative",
        "spherical_value",
        "stem_from_poly",
    ),
    "cauchy": (
        "SliceContour",
        "cauchy_kernel",
        "cauchy_kernel_quat",
        "cauchy_reconstruct",
        "contour_integral_vanishes",
        "kernel_regularity_residual",
    ),
    "zeros": (
        "MultiplicityReport",
        "QuatQuadraticZeros",
        "ZeroSetQuadratic",
        "classify_quadratic",
        "classify_split",
        "fta_witness",
        "multiplicities",
        "quat_quadratic_zeros",
        "verify_zeros",
    ),
    "qdet": (
        "Matrix2",
        "det",
        "det_both_sides",
        "is_right_invertible",
        "matmul",
        "split_matrix",
    ),
    "grammar": (
        "format_element",
        "format_quat",
        "format_quat_pair",
        "parse_element",
        "parse_factored",
        "parse_matrix",
        "parse_poly",
        "parse_sphere",
    ),
}
_SUBMODULES = tuple(sorted([*_EXPORTS, "errors"]))
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_OWNER, *_SUBMODULES]

__version__ = "0.1.0"


def __getattr__(name: str):
    # Reached only for names not yet bound here.  ``__import__`` binds the
    # submodule in this namespace and, unlike ``importlib.import_module``,
    # shows in ``python -X importtime``.
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _OWNER[name]
    __import__(f"{__name__}.{module}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
