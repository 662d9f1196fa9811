"""Validated wrappers over LAPACK for small dense complex matrices.

Every routine checks its input (finite entries, and Hermitian symmetry
where the decomposition assumes it) and then calls numpy.linalg, which
runs LAPACK.  Matrices are complex (or real float64) ndarrays of shape
(d, d) with d small (tens, not thousands).  check_hermitian, eigh,
top_singular_triplet and singular_values also take a stack of shape
(..., r, c): every matrix in it gets the same checks, and the whole stack
goes to LAPACK in one call, whose results are bitwise equal to one call
per matrix.
"""

import numpy as np

HERMITIAN_RTOL = 1e-12


def check_matrix(mat: np.ndarray, square: bool = True,
                 stack: bool = False) -> np.ndarray:
    """Validate a finite matrix; return it as complex128 unless float64.

    With stack=True the input may also be a stack of shape (..., r, c).
    """
    a = np.asarray(mat)
    a = a if a.dtype == np.float64 else a.astype(np.complex128, copy=False)
    if a.ndim != 2 and not (stack and a.ndim > 2):
        raise ValueError(f"expected a 2d matrix, got shape {a.shape}")
    if square and a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def check_hermitian(mat: np.ndarray) -> np.ndarray:
    """Validate Hermitian symmetry entrywise and return the symmetrized copy.

    mat is one (d, d) matrix or a (..., d, d) stack; every matrix must
    satisfy max |a - a^H| <= HERMITIAN_RTOL * max |a|, a rule that a
    global scale of the matrix leaves unchanged.  The symmetrized copy
    (mat + mat^H)/2 removes roundoff-level asymmetry, so the
    decomposition sees an exactly Hermitian matrix.
    """
    a = check_matrix(mat, square=True, stack=True)
    ah = np.swapaxes(a.conj(), -1, -2)
    # F, G and the Newton Hessian arrive exactly Hermitian; they skip the
    # per-matrix norms below
    if (a != ah).any():
        drift = np.abs(a - ah).max(axis=(-2, -1))
        size = np.abs(a).max(axis=(-2, -1))
        bad = drift > HERMITIAN_RTOL * size
        if bad.any():
            where = np.unravel_index(np.argmax(bad), bad.shape)
            at = f" at stack index {','.join(map(str, where))}" if where else ""
            raise ValueError(f"matrix is not Hermitian{at}: max |a - a^H| = "
                             f"{drift[where]:.3e}, max |a| = {size[where]:.3e}")
    return 0.5 * (a + ah)


def eigh(mat: np.ndarray):
    """Hermitian eigendecomposition (w, V): w ascending, mat = V diag(w) V^H.

    For a (..., d, d) stack, w has shape (..., d) and V (..., d, d).
    """
    return np.linalg.eigh(check_hermitian(mat))


def top_singular_triplet(mat: np.ndarray):
    """Largest singular triplet (sigma, u, v) with mat @ v = sigma * u.

    u and v are unit vectors; for the zero matrix sigma is 0 and u is the
    first standard basis vector.  For an (..., r, c) stack, sigma has
    shape (...), u (..., r) and v (..., c), and the zero-matrix rule
    holds per matrix.
    """
    a = check_matrix(mat, square=False, stack=True)
    left, s, right_h = np.linalg.svd(a)
    sigma = s[..., 0]
    u = left[..., :, 0]
    v = right_h[..., 0, :].conj()
    zero = sigma == 0.0
    if zero.any():
        e0 = np.eye(1, a.shape[-2], dtype=np.complex128)[0]
        u = np.where(zero[..., None], e0, u)
    if a.ndim == 2:
        return float(sigma), u, v
    return sigma, u, v


def singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, descending, without singular vectors.

    For an (..., r, c) stack the result has shape (..., min(r, c)).
    """
    return np.linalg.svd(check_matrix(mat, square=False, stack=True),
                         compute_uv=False)


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values of a square matrix."""
    a = check_matrix(mat, square=True)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))
