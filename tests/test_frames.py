"""Frame operator, bounds, and reproducing-pair checks."""

import math
import warnings

import numpy as np
import pytest

from framescale.frames import (
    FramePair,
    bessel_and_frame_bounds,
    frame_operator,
    is_schauder_identity,
    pair_operator,
    pow2_scale,
)
from framescale.instances import (
    canonical_dual_pair,
    gaussian_pair,
    haar_unitary,
    mangle,
    mangling_scalars,
    onb_union_pair,
    random_complex,
)

from conftest import random_vectors


def test_frame_operator_matches_direct_sum_of_quadratic_forms():
    rng = np.random.default_rng(30)
    xs = random_vectors(rng, 6, 3)
    s = frame_operator(xs)
    for _ in range(100):
        u = random_complex(rng, 3)
        quad = float(np.real(np.vdot(u, s @ u)))
        direct = float(np.sum(np.abs(xs.conj() @ u) ** 2))
        assert abs(quad - direct) <= 1e-12 * (1.0 + direct)


def test_union_of_two_orthonormal_bases_is_tight():
    rng = np.random.default_rng(31)
    pair = onb_union_pair(rng, 6, 3)
    bounds = bessel_and_frame_bounds(pair.xs)
    assert abs(bounds.lower - 2.0) <= 1e-9
    assert abs(bounds.upper - 2.0) <= 1e-9
    assert bounds.is_frame


def test_bessel_bound_as_best_constant():
    rng = np.random.default_rng(32)
    xs = random_vectors(rng, 5, 3)
    bounds = bessel_and_frame_bounds(xs)
    worst = 0.0
    for _ in range(300):
        u = random_complex(rng, 3)
        u = u / np.linalg.norm(u)
        total = float(np.sum(np.abs(xs.conj() @ u) ** 2))
        worst = max(worst, total)
        assert bounds.lower - 1e-9 <= total <= bounds.upper + 1e-9
    # the bound is attained by the top eigenvector, so sampling gets close
    assert worst >= 0.5 * bounds.upper


def test_is_frame_ignores_a_global_scale():
    xs = canonical_dual_pair(np.random.default_rng(0), 5, 3).xs
    # a rank-one family: its lower bound is zero up to rounding
    line = np.outer(np.arange(1.0, 6.0), [1.0, 2.0j, -1.0])
    for c in (1.0, 1e-6, 1e6):
        assert bessel_and_frame_bounds(c * xs).is_frame
        assert not bessel_and_frame_bounds(c * line).is_frame


def test_canonical_dual_reproduces_identity():
    rng = np.random.default_rng(33)
    for n, d in ((3, 2), (5, 3), (4, 4)):
        pair = canonical_dual_pair(rng, n, d)
        t = pair_operator(pair)
        assert np.max(np.abs(t - np.eye(d))) <= 1e-11
        assert is_schauder_identity(pair, tol=1e-10)


def test_schauder_property_survives_adversarial_scaling():
    rng = np.random.default_rng(34)
    pair = canonical_dual_pair(rng, 5, 3)
    beta = mangling_scalars(rng, 5, (1e-3, 1e3))
    scaled = mangle(pair, beta)
    assert is_schauder_identity(scaled, tol=1e-8)
    t = pair_operator(scaled)
    assert np.max(np.abs(t - np.eye(3))) <= 1e-8


def test_gaussian_pair_is_generically_not_reproducing():
    rng = np.random.default_rng(35)
    pair = gaussian_pair(rng, 5, 3)
    assert not is_schauder_identity(pair, tol=1e-6)


def test_upper_bound_convex_in_squared_weights():
    rng = np.random.default_rng(36)
    xs = random_vectors(rng, 6, 3)
    for _ in range(20):
        wa = rng.uniform(0.1, 2.0, size=6)
        wb = rng.uniform(0.1, 2.0, size=6)
        mid = 0.5 * (wa + wb)

        def upper(wsq):
            return bessel_and_frame_bounds(np.sqrt(wsq)[:, None] * xs).upper

        assert upper(mid) <= 0.5 * (upper(wa) + upper(wb)) + 1e-9


def test_bounds_invariant_under_common_unitary():
    rng = np.random.default_rng(37)
    xs = random_vectors(rng, 6, 3)
    u = haar_unitary(rng, 3)
    a = bessel_and_frame_bounds(xs)
    b = bessel_and_frame_bounds(xs @ u.T)
    assert abs(a.lower - b.lower) <= 1e-9 * (1.0 + a.upper)
    assert abs(a.upper - b.upper) <= 1e-9 * (1.0 + a.upper)


def test_frame_pair_validation():
    with pytest.raises(ValueError):
        FramePair(np.zeros((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        FramePair(np.ones((2, 2)), np.ones((3, 2)))
    with pytest.raises(ValueError):
        FramePair(np.array([[np.inf, 0.0]]), np.array([[1.0, 0.0]]))


def test_frame_pair_decides_vector_norms_without_overflow():
    # a row is refused only when its norm at its family's power of two is
    # zero, and no step overflows or warns.  Each case is (the family's
    # largest entry, the probe row's entries, accepted): 1e-170 below the
    # largest, the probe's squares underflow at the family's scale, 1e-150
    # below they do not, and under a family at 1e-300 even the smallest
    # subnormal is only about 1e-24 below it
    pair = gaussian_pair(np.random.default_rng(3), 3, 2)
    cases = ((1e-300, 0.0, False), (1e-300, 5e-324, True),
             (1.0, 0.0, False), (1.0, 1e-170, False), (1.0, 1e-150, True),
             (1e300, 0.0, False), (1e300, 1e130, False), (1e300, 1e150, True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FramePair(1e160 * pair.xs, 1e160 * pair.ys)
        FramePair(np.array([[1.5e308 + 1.5e308j, 0.0]]), np.ones((1, 2)))
        FramePair(np.array([[5e-324, 0.0]]), np.ones((1, 2)))
        for big, probe, accepted in cases:
            fam = np.array([[big, 0.0], [0.0, 1j * big], [probe, probe]])
            if accepted:
                FramePair(fam, pair.ys)
                FramePair(pair.xs, fam)
            else:
                with pytest.raises(ValueError, match="xs: every vector"):
                    FramePair(fam, pair.ys)
                with pytest.raises(ValueError, match="ys: every vector"):
                    FramePair(pair.xs, fam)


def test_frame_pair_scales_each_family_by_a_power_of_two():
    # each family's largest |Re| or |Im| times its scale lies in [0.5, 1),
    # and pair.scaled, built once, holds both families at those scales
    pair = gaussian_pair(np.random.default_rng(5), 4, 3)
    for c in (1e-10, 1.0, 1e300):
        far = FramePair(c * pair.xs, pair.ys / 3.0)
        assert far.scaled is far.scaled
        assert (far.scaled.scale_x, far.scaled.scale_y) == (1.0, 1.0)
        for fam, scale, scaled in ((far.xs, far.scale_x, far.scaled.xs),
                                   (far.ys, far.scale_y, far.scaled.ys)):
            assert math.frexp(scale)[0] == 0.5, c
            assert scale == pow2_scale(fam)
            big = max(np.abs(fam.real).max(), np.abs(fam.imag).max())
            assert 0.5 <= big * scale < 1.0, c
            assert np.array_equal(scaled, scale * fam), c
    # the largest part, not the largest modulus, and any memory layout
    assert pow2_scale(np.array([0.75 + 0.75j])) == 1.0
    assert pow2_scale(pair.xs.T) == pow2_scale(pair.xs)
    assert pow2_scale(np.zeros(3)) == 1.0
    assert pow2_scale(np.array([1e-310])) == 2.0 ** 1023
    with pytest.raises(ValueError, match="u has non-finite"):
        pow2_scale(np.array([1.0, complex(0.0, np.nan)]), "u")


def test_pair_operator_matches_apply_convention():
    rng = np.random.default_rng(38)
    pair = gaussian_pair(rng, 4, 3)
    t = pair_operator(pair)
    for _ in range(20):
        u = random_complex(rng, 3)
        direct = np.sum((pair.ys.conj() @ u)[:, None] * pair.xs, axis=0)
        assert np.linalg.norm(t @ u - direct) <= 1e-12 * (1.0 + np.linalg.norm(direct))
