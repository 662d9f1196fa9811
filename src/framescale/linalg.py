"""Validated wrappers over LAPACK for small dense complex matrices.

Every routine checks its input (finite entries, and Hermitian symmetry
where the decomposition assumes it) and then calls numpy.linalg, which
runs LAPACK.  Matrices are complex (or real float64) ndarrays of shape
(d, d) with d small (tens, not thousands).  check_matrix,
check_hermitian, eigh and singular_values also take a stack of shape
(..., r, c): every matrix in it gets the same checks, and the whole stack
goes to LAPACK in one call, whose results are bitwise equal to one call
per matrix.  top_singular_triplet takes one matrix.
"""

import numpy as np

HERMITIAN_RTOL = 1e-12


def check_matrix(mat: np.ndarray, square: bool = True) -> np.ndarray:
    """Validate a finite matrix, or a stack of shape (..., r, c); return
    it as complex128 unless float64."""
    a = np.asarray(mat)
    a = a if a.dtype == np.float64 else a.astype(np.complex128, copy=False)
    if a.ndim < 2:
        raise ValueError(f"expected a 2d matrix, got shape {a.shape}")
    if square and a.shape[-2] != a.shape[-1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix has non-finite entries")
    return a


def check_hermitian(mat: np.ndarray) -> np.ndarray:
    """Validate Hermitian symmetry entrywise and return the matrix checked.

    mat is one (d, d) matrix or a (..., d, d) stack; every matrix must
    satisfy max |a - a^H| <= HERMITIAN_RTOL * max |a|, a rule that a
    global scale of the matrix leaves unchanged.  No symmetrized copy is
    made: LAPACK's eigh reads only the lower triangle.
    """
    a = check_matrix(mat)
    ah = np.swapaxes(a.conj(), -1, -2)
    # F and G (einsum products, see rescale._Objective) and the symmetrised
    # Newton Hessian arrive exactly Hermitian; they skip the norms below
    if (a != ah).any():
        drift = np.abs(a - ah).max(axis=(-2, -1))
        size = np.abs(a).max(axis=(-2, -1))
        bad = drift > HERMITIAN_RTOL * size
        if bad.any():
            where = np.unravel_index(np.argmax(bad), bad.shape)
            at = f" at stack index {','.join(map(str, where))}" if where else ""
            raise ValueError(f"matrix is not Hermitian{at}: max |a - a^H| = "
                             f"{drift[where]:.3e}, max |a| = {size[where]:.3e}")
    return a


def eigh(mat: np.ndarray):
    """Hermitian eigendecomposition (w, V): w ascending, mat = V diag(w) V^H.

    For a (..., d, d) stack, w has shape (..., d) and V (..., d, d).
    """
    return np.linalg.eigh(check_hermitian(mat))


def top_singular_triplet(mat: np.ndarray):
    """Largest singular triplet (sigma, u, v) with mat @ v = sigma * u.

    mat is one (r, c) matrix.  u and v are unit vectors; for the zero
    matrix sigma is 0 and u is the first standard basis vector.
    """
    a = check_matrix(mat, square=False)
    if a.ndim != 2:
        raise ValueError(f"expected a 2d matrix, got shape {a.shape}")
    left, s, right_h = np.linalg.svd(a)
    sigma, u, v = float(s[0]), left[:, 0], right_h[0].conj()
    if sigma == 0.0:
        u = np.eye(1, a.shape[0], dtype=np.complex128)[0]
    return sigma, u, v


def singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, descending, without singular vectors.

    For an (..., r, c) stack the result has shape (..., min(r, c)).
    """
    return np.linalg.svd(check_matrix(mat, square=False), compute_uv=False)
