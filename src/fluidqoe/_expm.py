"""Matrix exponential by scaling and squaring with Pade approximants.

This is Algorithm 2.3 of Higham, "The scaling and squaring method for the
matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005: the
smallest Pade degree ``m`` in {3, 5, 7, 9} whose 1-norm bound ``theta_m``
covers the matrix, or degree 13 after scaling the matrix by ``2^-s`` into
``theta_13`` and squaring the result ``s`` times.  The bounds keep the
backward error below the unit round-off of double precision.  The number of
matrix products is bounded by the degree and ``s``, not by the norm, unlike
a truncated power or uniformization series.

A stack of matrices is exponentiated in one pass at degree 13, each matrix
scaled by its own power of two.  Stacks of 2x2 matrices have a closed form,
:func:`expm2`, which is several times cheaper.
"""

from __future__ import annotations

import math

import numpy as np

# theta_m from Higham (2005), Table 2.3
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068e0,
          13: 5.371920351148152e0}

# Numerator coefficients b_k = (2m - k)! / (k! (m - k)!) of the diagonal
# [m/m] Pade approximant, scaled so that b_m = 1
_PADE = {m: [float(math.factorial(2 * m - k) // (math.factorial(k) * math.factorial(m - k)))
             for k in range(m + 1)] for m in _THETA}


def expm(A) -> np.ndarray:
    """``exp(A)`` of a real or complex square matrix, or of each matrix of a
    ``(K, n, n)`` stack."""
    A = np.asarray(A)
    A = A.astype(np.result_type(A.dtype, float))
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    if A.ndim == 2:
        m = next(m for m in _THETA if norm <= _THETA[m] or m == 13)
        s = max(0, math.ceil(math.log2(norm / _THETA[13]))) if m == 13 else 0
        R = _pade(A / 2.0**s, m)
        for _ in range(s):
            R = R @ R
        return R
    # a stack takes degree 13 throughout, each matrix scaled on its own; the
    # most squarings first, so that each squaring step runs on a leading slice
    s = np.ceil(np.log2(np.maximum(norm, _THETA[13]) / _THETA[13])).astype(int)
    order = np.argsort(-s)
    s = s[order]
    R = _pade(A[order] / (2.0**s)[:, None, None], 13)
    for live in (s[:, None] > np.arange(s[0])).sum(axis=0).tolist():
        R[:live] = R[:live] @ R[:live]
    out = np.empty_like(R)
    out[order] = R
    return out


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """Degree-``m`` Pade approximant of ``exp`` on a matrix or a stack."""
    ident = np.eye(A.shape[-1])
    b = _PADE[m]
    A2 = A @ A
    if m == 13:
        A4 = A2 @ A2
        A6 = A4 @ A2
        odd = (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
               + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
        even = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
                + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    else:
        odd, even, power = b[1] * ident, b[0] * ident, ident
        for k in range(2, m + 1, 2):
            power = power @ A2
            odd = odd + b[k + 1] * power
            even = even + b[k] * power
    U = A @ odd
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: the identity part is exact
    return ident + 2.0 * np.linalg.solve(even - U, U)


def expm2(A) -> np.ndarray:
    """``exp(A)`` of each matrix of a ``(K, 2, 2)`` stack, in closed form.

    With ``m`` the half trace, ``A - m I`` squares to ``d^2 I``, so
    ``exp(A) = e^m (cosh(d) I + sinh(d)/d (A - m I))``.  Both coefficients
    are even in ``d``; they are formed from ``e^(m + d)`` with ``Re d >= 0``
    and ``expm1(-2d)``, which neither overflows nor cancels, and stay
    accurate where the two eigenvalues ``m -+ d`` coincide.
    """
    A = np.asarray(A, dtype=complex)
    a, b, c, e = A.reshape(-1, 4).T
    m = (a + e) / 2
    h = (a - e) / 2
    d = np.sqrt(h * h + b * c)
    top = np.exp(m + d)
    gap = np.expm1(-2.0 * d)
    cosh = top * (1.0 + gap / 2)
    sinhc = top * np.divide(-gap, 2.0 * d, out=np.ones_like(d), where=d != 0.0)
    return np.stack([cosh + sinhc * h, sinhc * b, sinhc * c, cosh - sinhc * h],
                    axis=-1).reshape(A.shape)
