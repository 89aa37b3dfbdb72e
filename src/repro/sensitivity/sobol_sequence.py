"""Sobol' low-discrepancy sequence generator (system S16).

A from-scratch digital-sequence implementation replacing SALib's sampler.
Direction numbers follow the classic construction: dimension 1 uses the
van der Corput sequence in base 2; higher dimensions use primitive
polynomials over GF(2) with initial direction integers in the style of
Joe & Kuo.  The generator supports up to :data:`MAX_DIM` dimensions and
uses the Antonov–Saleev Gray-code ordering, so generating ``n`` points
costs ``O(n * dim)``.

Correctness does not hinge on matching any particular published table:
any odd initial integers ``m_i < 2^i`` paired with a primitive polynomial
yield a valid (t, s)-sequence in base 2.  The property tests in
``tests/sensitivity/test_sobol_sequence.py`` verify the defining digital
net properties (dyadic stratification, balance) and compare discrepancy
against plain Monte Carlo.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SobolSequence", "MAX_DIM"]

#: number of output bits per coordinate (points are multiples of 2**-N_BITS)
N_BITS = 30

# (degree s, primitive-polynomial coefficient bits a, initial m values).
# ``a`` encodes the middle coefficients of a degree-s primitive polynomial
# over GF(2): x^s + a_1 x^{s-1} + ... + a_{s-1} x + 1.  The m values are
# odd and m_i < 2^i as the construction requires.
_DIRECTION_TABLE: list[tuple[int, int, list[int]]] = [
    (1, 0, [1]),
    (2, 1, [1, 3]),
    (3, 1, [1, 3, 1]),
    (3, 2, [1, 1, 1]),
    (4, 1, [1, 1, 3, 3]),
    (4, 4, [1, 3, 5, 13]),
    (5, 2, [1, 1, 5, 5, 17]),
    (5, 4, [1, 1, 5, 5, 5]),
    (5, 7, [1, 1, 7, 11, 19]),
    (5, 11, [1, 1, 5, 1, 1]),
    (5, 13, [1, 1, 1, 3, 11]),
    (5, 14, [1, 3, 5, 5, 31]),
    (6, 1, [1, 3, 3, 9, 7, 49]),
    (6, 13, [1, 1, 1, 15, 21, 21]),
    (6, 16, [1, 3, 1, 13, 27, 49]),
    (6, 19, [1, 1, 1, 15, 7, 5]),
    (6, 22, [1, 3, 1, 15, 13, 25]),
    (6, 25, [1, 1, 5, 5, 19, 61]),
    (7, 1, [1, 3, 7, 11, 23, 15, 103]),
    (7, 4, [1, 3, 7, 13, 13, 15, 69]),
    (7, 7, [1, 1, 3, 13, 7, 35, 63]),
    (7, 8, [1, 3, 5, 9, 1, 25, 53]),
    (7, 14, [1, 3, 1, 13, 9, 35, 107]),
    (7, 19, [1, 1, 1, 9, 23, 13, 103]),
    (7, 21, [1, 3, 3, 11, 27, 31, 35]),
    (7, 28, [1, 1, 7, 7, 17, 1, 19]),
    (7, 31, [1, 3, 7, 9, 31, 15, 57]),
    (7, 32, [1, 1, 3, 5, 11, 3, 117]),
    (7, 37, [1, 3, 1, 1, 21, 19, 83]),
    (7, 41, [1, 1, 5, 15, 11, 49, 29]),
    (7, 42, [1, 3, 5, 15, 17, 19, 97]),
    (7, 50, [1, 1, 7, 5, 9, 51, 105]),
    (7, 55, [1, 3, 7, 1, 21, 9, 7]),
    (7, 56, [1, 1, 1, 11, 19, 45, 113]),
    (7, 59, [1, 3, 3, 5, 23, 53, 29]),
    (7, 62, [1, 1, 7, 15, 5, 27, 91]),
]

#: maximum supported dimensionality (first dim is van der Corput)
MAX_DIM = len(_DIRECTION_TABLE) + 1


class SobolSequence:
    """Stateful Sobol' sequence over ``[0, 1)^dim``.

    Parameters
    ----------
    dim:
        Number of dimensions, ``1 <= dim <= MAX_DIM``.
    skip:
        Number of leading points to discard.  Skipping the initial point
        (the origin) is conventional for quasi-Monte Carlo integration;
        the default keeps it so the digital-net property tests see the
        full net.
    scramble:
        Apply a random digital shift (XOR with a fixed random integer per
        dimension).  A digital shift preserves the net structure while
        decorrelating repeated analyses; used by the bootstrap confidence
        intervals in :mod:`repro.sensitivity.sobol`.
    seed:
        RNG seed for the digital shift (ignored unless ``scramble``).
    """

    def __init__(
        self,
        dim: int,
        *,
        skip: int = 0,
        scramble: bool = False,
        seed: int | None = None,
    ) -> None:
        if not 1 <= dim <= MAX_DIM:
            raise ValueError(f"dim must be in [1, {MAX_DIM}], got {dim}")
        self.dim = dim
        self._v = _direction_vectors(dim)  # (dim, N_BITS) uint64
        self._x = np.zeros(dim, dtype=np.uint64)  # current Gray-code state
        self._count = 0
        if scramble:
            rng = np.random.default_rng(seed)
            self._shift = rng.integers(0, 1 << N_BITS, size=dim, dtype=np.uint64)
        else:
            self._shift = np.zeros(dim, dtype=np.uint64)
        if skip:
            self.generate(skip)

    def generate(self, n: int) -> np.ndarray:
        """The next ``n`` points as an ``(n, dim)`` float array."""
        if n < 0:
            raise ValueError("n must be non-negative")
        out = np.empty((n, self.dim), dtype=np.uint64)
        x = self._x
        for i in range(n):
            if self._count == 0:
                # the first point of the sequence is the all-zeros point
                out[i] = x
            else:
                c = _lowest_zero_bit(self._count - 1)
                x = x ^ self._v[:, c]
                out[i] = x
            self._count += 1
        self._x = x
        shifted = out ^ self._shift
        return shifted.astype(np.float64) / float(1 << N_BITS)

    def reset(self) -> None:
        """Rewind to the start of the sequence (keeps the digital shift)."""
        self._x = np.zeros(self.dim, dtype=np.uint64)
        self._count = 0


def _lowest_zero_bit(k: int) -> int:
    """Index of the lowest zero bit of ``k`` (Antonov–Saleev Gray-code step)."""
    c = 0
    while k & 1:
        k >>= 1
        c += 1
    return c


def _direction_vectors(dim: int) -> np.ndarray:
    """Direction integers ``V[j, c] = v_{c+1}`` scaled to N_BITS bits."""
    V = np.zeros((dim, N_BITS), dtype=np.uint64)
    # dimension 1: van der Corput, v_k = 2^(N_BITS - k)
    for c in range(N_BITS):
        V[0, c] = np.uint64(1) << np.uint64(N_BITS - 1 - c)
    for j in range(1, dim):
        s, a, m = _DIRECTION_TABLE[j - 1]
        v = np.zeros(N_BITS, dtype=np.uint64)
        for c in range(min(s, N_BITS)):
            v[c] = np.uint64(m[c]) << np.uint64(N_BITS - 1 - c)
        for c in range(s, N_BITS):
            acc = v[c - s] ^ (v[c - s] >> np.uint64(s))
            for k in range(1, s):
                if (a >> (s - 1 - k)) & 1:
                    acc ^= v[c - k]
            v[c] = acc
        V[j] = v
    return V
