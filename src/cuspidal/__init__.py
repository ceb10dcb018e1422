"""Exact rank computations for binary forms and for their images under the
tangential projection of the rational normal curve."""

from .binform import (
    ApolarCoeffs,
    BinaryForm,
    GrammarError,
    P1Point,
    PrecisionError,
    ZeroFormError,
    ZeroScheme,
    apolar_coeffs,
    is_square_free,
    parse_form,
    squarefree_decompose,
)

__all__ = [
    "ApolarCoeffs",
    "BinaryForm",
    "GrammarError",
    "P1Point",
    "PrecisionError",
    "ZeroFormError",
    "ZeroScheme",
    "apolar_coeffs",
    "is_square_free",
    "parse_form",
    "squarefree_decompose",
]
