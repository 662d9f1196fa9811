"""Shared random-instance helpers for the test suite.

The package's linear algebra is numpy.linalg (LAPACK) behind thin
validating wrappers, so a numpy.linalg value in a test is a cross-check of
the code around the wrappers, not an independent oracle for them.  The
wrappers themselves are checked against closed forms and properties in
test_linalg.py.
"""

import numpy as np

from framescale.frames import FramePair
from framescale.instances import random_complex


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = random_complex(rng, d, d)
    return 0.5 * (a + a.conj().T)


def random_vectors(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    return random_complex(rng, n, d) / np.sqrt(d)


def pow2_mangled(pair, shifts: np.ndarray) -> FramePair:
    """(2^shifts[k] x_k, 2^-shifts[k] y_k), exactly."""
    def shifted(rows, e):
        return np.ldexp(rows.real, e[:, None]) + 1j * np.ldexp(rows.imag,
                                                               e[:, None])
    return FramePair(shifted(pair.xs, shifts), shifted(pair.ys, -shifts))


def dual_coefficients(pair, us, vs):
    """A_k = (cv_k / |cv_k|)(conj cu_k / |cu_k|)^T of the CbBracket docstring."""
    cu = pair.ys.conj() @ us.T
    cv = pair.xs.conj() @ vs.T
    nu = np.linalg.norm(cu, axis=1)[:, None]
    nv = np.linalg.norm(cv, axis=1)[:, None]
    live = (nu > 0.0) & (nv > 0.0)
    cu = np.where(live, cu / np.where(live, nu, 1.0), 0.0)
    cv = np.where(live, cv / np.where(live, nv, 1.0), 0.0)
    return np.einsum("ki,kj->kij", cv, cu.conj())


# the data arguments of every public verify check, spoiled one at a time by
# test_verify's non-finite refusal test; test_cli's guard holds every
# check of framescale.verify to this table
VERIFY_CHECK_ARGUMENTS = {
    "khintchine_check": ("a",),
    "trace_lemma_check": ("alpha", "beta"),
    "holder_trace_check": ("a", "b"),
    "key_simple_check": ("pair", "u", "v", "phi_norm"),
    "super_key_check": ("pair", "us", "vs", "phi_norm"),
    "trace_pairing_check": ("pair", "mats", "us", "vs"),
    "end_to_end_rescale_check": ("pair",),
}
