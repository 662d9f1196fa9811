"""Wrapper checks against closed forms and algebraic properties.

The wrappers call numpy.linalg, so comparing them with numpy.linalg would
prove nothing.  Every expected value here is known in advance: a spectrum
or singular values planted through random unitaries, a 2x2 or rank-one
closed form, or an inequality and invariance every correct result obeys.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescale.instances import haar_unitary, random_complex
from framescale.linalg import (
    check_hermitian,
    eigh,
    singular_values,
    top_singular_triplet,
    trace_norm,
)

from conftest import random_hermitian

SEEDS = st.integers(0, 2 ** 32 - 1)


def planted(rng, rows, cols, s):
    """A rows x cols matrix whose singular values are exactly s (descending)."""
    k = len(s)
    u = haar_unitary(rng, rows)[:, :k]
    w = haar_unitary(rng, cols)[:, :k]
    return (u * s) @ w.conj().T


def test_extreme_eig_closed_form_2x2():
    s = np.array([[1.5, 0.5], [0.5, 0.5]], dtype=complex)
    w, v = eigh(s)
    # trace 2, determinant 1/2: eigenvalues 1 +- 1/sqrt(2)
    assert np.max(np.abs(w - (1.0 + np.array([-1.0, 1.0]) / np.sqrt(2.0)))) <= 1e-14
    for lam, vec in zip(w, v.T):
        assert np.linalg.norm(s @ vec - lam * vec) <= 1e-14


def test_extreme_eig_matches_oracle():
    # the oracle is the planted spectrum of U diag(w) U^H
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5, 8):
        for _ in range(6):
            planted_w = np.sort(rng.uniform(-3.0, 3.0, d))
            u = haar_unitary(rng, d)
            a = (u * planted_w) @ u.conj().T
            w, v = eigh(a)
            assert np.max(np.abs(w - planted_w)) <= 1e-13 * 3.0
            assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-13
            assert np.max(np.abs((v * w) @ v.conj().T - a)) <= 1e-13 * 3.0


def test_extreme_eig_rayleigh_sandwich():
    rng = np.random.default_rng(12)
    a = random_hermitian(rng, 5)
    w, _ = eigh(a)
    scale = float(np.max(np.abs(w)))
    for _ in range(100):
        z = random_complex(rng, 5)
        z = z / np.linalg.norm(z)
        quad = float(np.real(np.vdot(z, a @ z)))
        assert w[0] - 1e-14 * scale <= quad <= w[-1] + 1e-14 * scale


def test_extreme_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        eigh(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        eigh(np.ones((2, 3)))


def test_eigh_keeps_a_real_matrix_real():
    # a float64 matrix goes to LAPACK's real routine: real eigenvectors,
    # and the planted spectrum as on the complex route
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    planted_w = np.array([-2.0, -0.5, 0.25, 1.0, 3.0])
    a = (q * planted_w) @ q.T
    w, v = eigh(a)
    assert w.dtype == v.dtype == np.float64
    assert np.max(np.abs(w - planted_w)) <= 1e-14 * 3.0
    assert np.max(np.abs(a @ v - v * w)) <= 1e-14 * 3.0
    assert np.max(np.abs(eigh(a.astype(complex))[0] - w)) <= 1e-14 * 3.0


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 6), st.integers(-150, 150), st.integers(0, 3))
def test_eigh_is_scale_equivariant(seed, d, exponent, count):
    # no absolute tolerance may act inside the wrapper; count > 0 passes a
    # (count, d, d) stack, whose matrices must each obey the property
    rng = np.random.default_rng(seed)
    if count:
        a = np.stack([random_hermitian(rng, d) for _ in range(count)])
    else:
        a = random_hermitian(rng, d)
    c = 10.0 ** exponent
    w, _ = eigh(a)
    wc, vc = eigh(c * a)
    assert wc.shape == w.shape == a.shape[:-1]
    scale = np.max(np.abs(w), axis=-1)[..., None]
    assert np.all(np.abs(wc / c - w) <= 1e-13 * scale)
    resid = np.abs(c * a @ vc - vc * wc[..., None, :])
    assert np.all(resid <= 1e-13 * c * scale[..., None])


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_eigh_stack_is_bitwise_equal_to_single_calls(d):
    rng = np.random.default_rng(30 + d)
    a = np.stack([random_hermitian(rng, d) for _ in range(12)]).reshape(
        3, 4, d, d)
    w, v = eigh(a)
    assert w.shape == (3, 4, d) and v.shape == (3, 4, d, d)
    for i in range(3):
        for j in range(4):
            wi, vi = eigh(a[i, j])
            assert np.array_equal(w[i, j], wi)
            assert np.array_equal(v[i, j], vi)


@pytest.mark.parametrize("bad", ["skew", np.nan, np.inf])
def test_eigh_stack_rejects_one_bad_matrix(bad):
    rng = np.random.default_rng(33)
    a = np.stack([random_hermitian(rng, 3) for _ in range(5)])
    if bad == "skew":
        a[3, 0, 1] += 1e-9
        match = "not Hermitian at stack index 3:"
    else:
        a[3, 1, 1] = bad
        match = "non-finite"
    with pytest.raises(ValueError, match=match):
        eigh(a)
    with pytest.raises(ValueError, match=match):
        check_hermitian(a)
    # the same stack without the bad matrix passes
    eigh(np.delete(a, 3, axis=0))


def test_top_singular_triplet_matches_oracle():
    # the oracle is the largest planted singular value
    rng = np.random.default_rng(15)
    for shape in ((4, 4), (3, 5), (6, 2)):
        for _ in range(5):
            s = np.sort(rng.uniform(0.1, 4.0, min(shape)))[::-1]
            m = planted(rng, *shape, s)
            sigma, u, v = top_singular_triplet(m)
            assert abs(sigma - s[0]) <= 1e-13 * s[0]
            assert np.linalg.norm(m @ v - sigma * u) <= 1e-13 * s[0]
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-14


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(1, 6), st.integers(1, 6))
def test_top_singular_triplet_dominates_every_bilinear_value(seed, rows, cols):
    rng = np.random.default_rng(seed)
    m = random_complex(rng, rows, cols)
    sigma, u, v = top_singular_triplet(m)
    assert np.linalg.norm(m @ v - sigma * u) <= 1e-13 * sigma
    assert abs(np.vdot(u, m @ v) - sigma) <= 1e-13 * sigma
    for _ in range(10):
        a = random_complex(rng, rows)
        b = random_complex(rng, cols)
        value = abs(np.vdot(a, m @ b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert value <= sigma * (1.0 + 1e-13)


def test_top_singular_triplet_zero_matrix():
    for shape in ((3, 3), (2, 4), (4, 1)):
        m = np.zeros(shape, dtype=complex)
        sigma, u, v = top_singular_triplet(m)
        assert sigma == 0.0
        assert np.array_equal(u, np.eye(shape[0])[0])
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14
        assert np.array_equal(m @ v, sigma * u)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_top_singular_triplet_stack_is_bitwise_equal_to_single_calls(d):
    rng = np.random.default_rng(40 + d)
    for shape in ((3, 4, d, d), (6, d, d + 2)):
        a = random_complex(rng, *shape)
        sigma, u, v = top_singular_triplet(a)
        assert sigma.shape == shape[:-2]
        assert u.shape == shape[:-1] and v.shape == shape[:-2] + shape[-1:]
        for idx in np.ndindex(*shape[:-2]):
            si, ui, vi = top_singular_triplet(a[idx])
            assert sigma[idx] == si
            assert np.array_equal(u[idx], ui) and np.array_equal(v[idx], vi)


def test_top_singular_triplet_zero_matrix_inside_a_stack():
    rng = np.random.default_rng(46)
    a = random_complex(rng, 4, 3, 2)
    a[2] = 0.0
    sigma, u, v = top_singular_triplet(a)
    assert sigma[2] == 0.0
    assert np.array_equal(u[2], np.eye(3)[0])
    assert abs(np.linalg.norm(v[2]) - 1.0) <= 1e-14
    assert np.all(sigma[[0, 1, 3]] > 0.0)
    for i in (0, 1, 3):
        assert np.linalg.norm(a[i] @ v[i] - sigma[i] * u[i]) <= 1e-13 * sigma[i]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_top_singular_triplet_stack_rejects_one_bad_matrix(bad):
    rng = np.random.default_rng(47)
    a = random_complex(rng, 5, 3, 3)
    a[3, 1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        top_singular_triplet(a)
    top_singular_triplet(np.delete(a, 3, axis=0))


def test_singular_values_of_a_stack_are_the_planted_ones():
    # one LAPACK call for the whole stack, bitwise equal to one per matrix
    rng = np.random.default_rng(48)
    want = [np.sort(rng.uniform(0.0, 4.0, 3))[::-1] for _ in range(4)]
    a = np.array([planted(rng, 3, 5, s) for s in want])
    s = singular_values(a)
    assert s.shape == (4, 3)
    for i, w in enumerate(want):
        assert np.max(np.abs(s[i] - w)) <= 1e-14 * w[0]
        assert np.array_equal(s[i], singular_values(a[i]))


def test_zero_matrix_through_every_wrapper():
    z = np.zeros((3, 3), dtype=complex)
    w, v = eigh(z)
    assert np.array_equal(w, np.zeros(3))
    assert np.max(np.abs(v.conj().T @ v - np.eye(3))) <= 1e-15
    assert trace_norm(z) == 0.0


def test_trace_norm_rank_one_equality():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(1, 7))
        x = random_complex(rng, d)
        y = random_complex(rng, d)
        b = np.outer(x, y.conj())
        expected = np.linalg.norm(x) * np.linalg.norm(y)
        assert abs(trace_norm(b) - expected) <= 1e-12 * (1.0 + expected)


def test_trace_norm_dominates_operator_norm():
    # ||m||_op <= ||m||_1 <= sqrt(d) ||m||_F, and ||m||_1 = sum of planted s
    rng = np.random.default_rng(18)
    for _ in range(10):
        m = random_complex(rng, 4, 4)
        tn = trace_norm(m)
        on, _, _ = top_singular_triplet(m)
        assert on * (1.0 - 1e-14) <= tn <= 2.0 * np.linalg.norm(m) * (1.0 + 1e-14)
        s = rng.uniform(0.0, 4.0, 4)
        assert abs(trace_norm(planted(rng, 4, 4, s)) - np.sum(s)) <= 1e-13 * np.sum(s)


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(19)
    m = random_complex(rng, 4, 4)
    u = haar_unitary(rng, 4)
    w = haar_unitary(rng, 4)
    base = trace_norm(m)
    assert abs(trace_norm(u @ m @ w) - base) <= 1e-11 * (1.0 + base)


def test_trace_norm_rejects_non_square():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wrappers_reject_non_finite_input(bad):
    m = np.eye(3, dtype=complex)
    m[1, 1] = bad
    for wrapper in (eigh, top_singular_triplet, trace_norm, singular_values):
        with pytest.raises(ValueError, match="non-finite"):
            wrapper(m)


def test_check_hermitian_symmetrizes():
    a = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]], dtype=complex)
    h = check_hermitian(a)
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_check_hermitian_accepts_roundoff_of_a_large_matrix():
    # a planted spectrum of size 1e5: the roundoff skew of q diag(w) q^H
    # exceeds 1e-12 in absolute terms but is ~1e-16 of the entries
    rng = np.random.default_rng(0)
    q = haar_unitary(rng, 4)
    planted_w = 1e5 * np.array([1.0, 2.0, 3.0, 4.0])
    a = (q * planted_w) @ q.conj().T
    assert np.max(np.abs(a - a.conj().T)) > 1e-12
    w, _ = eigh(a)
    assert np.all(np.abs(w - planted_w) <= 1e-12 * planted_w[-1])


def test_check_hermitian_refuses_a_tiny_asymmetric_matrix():
    # every entry is below 1e-12, yet the matrix is far from Hermitian
    a = 1e-14 * np.random.default_rng(1).standard_normal((3, 3))
    with pytest.raises(ValueError, match="not Hermitian"):
        eigh(a)
    with pytest.raises(ValueError, match="not Hermitian at stack index 1:"):
        check_hermitian(np.stack([np.eye(3), a]))
