"""Finite vector-sequence pairs and their frame-theoretic operators.

A pair is two finite sequences (x_k), (y_k) in C^d of equal length.  The
inner product convention is linear in the first slot: <a, b> = sum a_i
conj(b_i).  Vectors are stored as rows of (n, d) arrays.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import eigh, top_singular_triplet

FRAME_TOL = 1e-10  # is_frame needs lower > FRAME_TOL * upper


def pow2_scale(a: np.ndarray, name: str = "array") -> float:
    """The power of two, at most 2^1023, that puts the largest |Re| or
    |Im| of a (read off its float64 view) in [0.5, 1); 1 if a is zero.

    Multiplying by it is exact, so it moves no comparison, and squares
    and cubes of the scaled entries stay in the float range.  ValueError
    names a as name unless a is finite.
    """
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    big = float(np.abs(parts).max())
    if not math.isfinite(big):
        raise ValueError(f"{name} has non-finite entries")
    return math.ldexp(1.0, min(1023, -math.frexp(big)[1]))


def _check_vectors(vectors: np.ndarray, name: str):
    """vectors as an (n, d) complex array, and the largest |Re| or |Im| of
    each row, read off its float64 view.  ValueError names vectors as
    name unless every row is finite and nonzero."""
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2:
        raise ValueError(f"{name}: expected shape (n, d), got {v.shape}")
    if v.shape[0] < 1 or v.shape[1] < 1:
        raise ValueError(f"{name}: need at least one vector in dimension >= 1")
    tops = np.abs(np.ascontiguousarray(v).view(np.float64)).max(axis=1)
    if not np.isfinite(tops).all():
        raise ValueError(f"{name} has non-finite entries")
    if not tops.all():
        raise ValueError(f"{name}: every vector must be nonzero")
    return v, tops


def _shifted(v: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Row k of v times 2^shifts[k], by ldexp on the float64 view."""
    parts = np.ascontiguousarray(v).view(np.float64)
    return np.ldexp(parts, shifts[:, None]).view(np.complex128)


@dataclass(frozen=True)
class FramePair:
    """Two equal-length sequences of vectors in the same C^d, each index
    balanced by exact powers of two on construction.

    With ex_k and ey_k the frexp exponents of the largest |Re| or |Im| of
    x_k and y_k, balance holds e_k = floor((ex_k - ey_k) / 2) per index,
    and one power of two c puts the largest part of the balanced pair
    (c 2^-e_k x_k, c 2^e_k y_k) in [0.5, 1).  unit = c^2 is exact: each
    balanced x_k y_k^* is unit x_k y_k^*, so phi, the cb norm, masks and
    dilations of the balanced pair are those of the pair, times unit.
    A pair is refused (ValueError) when a row is zero or not finite, when
    unit is not a normal float (its products x_k y_k^* lie beyond what a
    float bracket can report), and when an index's balanced y_k, the
    smaller of its two rows, has its largest part below 2^-511, where its
    square is subnormal: that is, when ||x_k|| ||y_k|| lies below about
    2^-1022 of the largest such product.  The last two rules read the
    integer exponents alone.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs, top_x = _check_vectors(self.xs, "xs")
        ys, top_y = _check_vectors(self.ys, "ys")
        if xs.shape != ys.shape:
            raise ValueError(f"shape mismatch: xs {xs.shape} vs ys {ys.shape}")
        ex, ey = np.frexp(np.array([top_x, top_y]))[1]
        balance = (ex - ey) // 2
        # exponents of the balanced rows' largest parts before c: the x
        # row's is the y row's or one above it
        low = ey + balance
        top = int((ex - balance).max())
        if not -511 <= top <= 511:
            raise ValueError(
                f"the products x_k y_k^* leave the float range: the balanced "
                f"pair's unit 2^{-2 * top} is not a normal float")
        if int(low.min()) - top < -510:
            k = int(np.argmin(low))
            raise ValueError(
                f"index {k}: ||x_k|| ||y_k|| is below about 2^-1022 of the "
                f"largest product, so its balanced squares are subnormal")
        self.__dict__.update(xs=xs, ys=ys, balance=balance,
                             unit=math.ldexp(1.0, -2 * top), _lift=-top)

    @functools.cached_property
    def balanced(self) -> "FramePair":
        """The pair (c 2^-e_k x_k, c 2^e_k y_k), built once, on first use;
        its balance is 0 and its unit 1."""
        return FramePair(_shifted(self.xs, self._lift - self.balance),
                         _shifted(self.ys, self._lift + self.balance))

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


class BesselBounds(NamedTuple):
    lower: float
    upper: float
    is_frame: bool


def frame_operator(vectors: np.ndarray) -> np.ndarray:
    """Sum of rank-one maps v_k v_k^*; Hermitian positive semidefinite.
    frame_eigh diagonalises both of a pair's at once."""
    v, _ = _check_vectors(vectors, "vectors")
    return np.einsum("ki,kj->ij", v, v.conj())


def frame_eigh(pair: FramePair):
    """(w, V) of the frame operators of xs and ys, formed as frame_operator
    forms them, stacked (2, d, d) into one LAPACK call; not re-validated."""
    vecs = np.stack([pair.xs, pair.ys])
    return eigh(np.einsum("ski,skj->sij", vecs, vecs.conj()))


def bounds_from_spectrum(w: np.ndarray) -> BesselBounds:
    """Bounds from the ascending spectrum w of a frame operator: upper w[-1],
    lower w[0] clamped at 0, and is_frame when lower > FRAME_TOL * upper,
    a test that no global scale of the vectors moves."""
    lam_min, upper = max(float(w[0]), 0.0), float(w[-1])
    return BesselBounds(lam_min, upper, lam_min > FRAME_TOL * upper)


def bessel_and_frame_bounds(vectors: np.ndarray) -> BesselBounds:
    """Optimal Bessel bound and lower frame bound of a vector sequence."""
    w, _ = eigh(frame_operator(vectors))
    return bounds_from_spectrum(w)


def pair_operator(pair: FramePair) -> np.ndarray:
    """The map u -> sum_k <u, y_k> x_k as a d x d matrix."""
    return np.einsum("ki,kj->ij", pair.xs, pair.ys.conj())


def coefficients(pair: FramePair, us: np.ndarray, vs: np.ndarray):
    """The coefficient tables cu[k, j] = <u_j, y_k> and cv[k, i] = <x_k, v_i>
    of (m, d) tuples us and vs; 1-D u and v give the (n,) tables of m = 1.

    Every bilinear form of the pair in u and v is read off these two
    tables.  us and vs are arrays, validated by the caller.
    """
    return pair.ys.conj() @ us.T, pair.xs @ vs.conj().T


def dual_terms(cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """The terms ||cu_k|| ||cv_k|| of D for coefficient tables cu and cv:
    rows of (n, m) tables, entries of (n,) tables."""
    if cu.ndim == 1:
        return np.abs(cu) * np.abs(cv)
    return (np.sqrt((np.abs(cu) ** 2).sum(axis=1))
            * np.sqrt((np.abs(cv) ** 2).sum(axis=1)))


def dual_value(pair: FramePair, us: np.ndarray, vs: np.ndarray) -> float:
    """D = sum_k ||(<u_j, y_k>)_j|| ||(<x_k, v_i>)_i|| of (m, d) tuples; at
    unit tuples a lower bound on the cb norm (see rescale.CbBracket)."""
    return float(dual_terms(*coefficients(pair, us, vs)).sum())


def identity_deviation(pair: FramePair) -> float:
    """Operator norm of pair_operator(pair) - I: 0 for a reproducing pair."""
    sigma, _, _ = top_singular_triplet(pair_operator(pair) - np.eye(pair.dim))
    return sigma


def is_schauder_identity(pair: FramePair, tol: float = 1e-10) -> bool:
    """Whether the pair reproduces every vector: sum_k <u, y_k> x_k = u."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    return identity_deviation(pair) <= tol
