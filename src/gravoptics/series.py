"""Exact Taylor coefficients of exp(quadratic) in two formal variables.

Used to differentiate Gaussian generating and characteristic functions at the
origin without numeric differentiation: the exponent is a polynomial, so the
series coefficients are exact up to floating-point rounding.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray


def exp_bivariate_quadratic(
    q20: complex,
    q11: complex,
    q02: complex,
    q10: complex,
    q01: complex,
    max_degree: int,
) -> NDArray[np.complex128]:
    """Coefficient table of exp(q20 z^2 + q11 z w + q02 w^2 + q10 z + q01 w).

    Returns C with C[i, j] the coefficient of z^i w^j, for all
    i, j <= max_degree. Computed as sum_k Q^k / k! with polynomial products
    truncated at total degree 2*max_degree, which is exact for the retained
    coefficients because Q has no constant term.
    """
    deg = 2 * max_degree
    size = deg + 1
    q = np.zeros((size, size), dtype=complex)
    if deg >= 2:
        q[2, 0] = q20
        q[1, 1] = q11
        q[0, 2] = q02
    if deg >= 1:
        q[1, 0] = q10
        q[0, 1] = q01

    out = np.zeros((size, size), dtype=complex)
    out[0, 0] = 1.0
    term = out.copy()
    for k in range(1, deg + 1):
        term = _truncated_product(term, q, deg) / k
        out += term
    return out[: max_degree + 1, : max_degree + 1]


def _truncated_product(
    a: NDArray[np.complex128], b: NDArray[np.complex128], deg: int
) -> NDArray[np.complex128]:
    """2-D polynomial product keeping only total degree <= deg."""
    size = deg + 1
    out = np.zeros((size, size), dtype=complex)
    rows, cols = np.nonzero(b)
    for i, j in zip(rows, cols):
        coeff = b[i, j]
        if i or j:
            out[i:, j:] += coeff * a[: size - i, : size - j]
        else:
            out += coeff * a
    return out
