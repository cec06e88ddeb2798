"""Matrix exponential by scaling and squaring with Pade approximants.

This is Algorithm 2.3 of Higham, "The scaling and squaring method for the
matrix exponential revisited", SIAM J. Matrix Anal. Appl. 26(4), 2005, at
its top degree 13 throughout: each matrix of a stack is scaled by its own
power of two ``2^-s`` into the 1-norm bound ``theta_13``, which keeps the
backward error below the unit round-off of double precision, and the
result is squared ``s`` times.  The number of matrix products is bounded by
the degree and ``s``, not by the norm, unlike a truncated power or
uniformization series.

A single matrix is a stack of one.  Stacks of 1x1 and 2x2 matrices skip
the Pade path: ``np.exp`` and the closed form :func:`expm2` are several
times cheaper.
"""

from __future__ import annotations

import math

import numpy as np

# theta_13 from Higham (2005), Table 2.3
_THETA13 = 5.371920351148152e0

# Numerator coefficients b_k = (26 - k)! / (k! (13 - k)!) of the diagonal
# [13/13] Pade approximant, scaled so that b_13 = 1
_PADE13 = [float(math.factorial(26 - k) // (math.factorial(k) * math.factorial(13 - k)))
           for k in range(14)]


def expm(A) -> np.ndarray:
    """``exp(A)`` of a real or complex square matrix, or of each matrix of a
    ``(K, n, n)`` stack.  Stacks of 1x1 matrices take ``np.exp`` and stacks
    of 2x2 matrices :func:`expm2`; the result is real for a real input."""
    A = np.asarray(A)
    A = A.astype(np.result_type(A.dtype, float), copy=False)
    if A.ndim == 2:
        return expm(A[None])[0]
    if A.shape[-1] == 1:
        return np.exp(A)
    if A.shape[-1] == 2:
        return expm2(A) if np.iscomplexobj(A) else expm2(A).real
    # each matrix scaled on its own; the most squarings first, so that each
    # squaring step runs on a leading slice
    norm = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    order = np.argsort(-s)
    s = s[order]
    R = _pade(A[order] / (2.0**s)[:, None, None])
    for live in (s[:, None] > np.arange(s[0])).sum(axis=0).tolist():
        R[:live] = R[:live] @ R[:live]
    out = np.empty_like(R)
    out[order] = R
    return out


def _pade(A: np.ndarray) -> np.ndarray:
    """Degree-13 Pade approximant of ``exp`` on each matrix of a stack."""
    ident = np.eye(A.shape[-1])
    b = _PADE13
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    odd = (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
           + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * ident)
    even = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
            + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * ident)
    U = A @ odd
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U: the identity part is exact
    return ident + 2.0 * np.linalg.solve(even - U, U)


def expm2(A) -> np.ndarray:
    """``exp(A)`` of each matrix of a ``(K, 2, 2)`` stack, in closed form.

    With ``m`` the half trace, ``A - m I`` squares to ``d^2 I``, so
    ``exp(A) = e^m (cosh(d) I + sinh(d)/d (A - m I))``.  Both coefficients
    are even in ``d``; they are formed from ``e^(m + d)`` with ``Re d >= 0``
    and ``expm1(-2d)``, which neither overflows nor cancels, and stay
    accurate where the two eigenvalues ``m -+ d`` coincide.  Where the
    eigenvalue ``m + d`` is near 0 (a level generator at ``w = 0``), the sum
    cancels, so it is taken as ``det(A) / (m - d)`` instead.
    """
    A = np.asarray(A, dtype=complex)
    a, b, c, e = A.reshape(-1, 4).T
    m = (a + e) / 2
    h = (a - e) / 2
    d = np.sqrt(h * h + b * c)
    lead = m + d
    k = np.abs(lead) < 1e-3 * np.abs(m)
    lead[k] = (a[k] * e[k] - b[k] * c[k]) / (m[k] - d[k])
    top = np.exp(lead)
    gap = np.expm1(-2.0 * d)
    cosh = top * (1.0 + gap / 2)
    sinhc = top * np.divide(-gap, 2.0 * d, out=np.ones_like(d), where=d != 0.0)
    return np.stack([cosh + sinhc * h, sinhc * b, sinhc * c, cosh - sinhc * h],
                    axis=-1).reshape(A.shape)
