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
    generate,
    haar_unitary,
    mangle,
    mangling_scalars,
    onb_union_pair,
    random_complex,
)

from conftest import pow2_mangled, random_vectors


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


def test_generators_refuse_what_they_cannot_draw():
    rng = np.random.default_rng(35)
    pair = gaussian_pair(rng, 3, 2)
    for lo, hi in ((0.0, 1.0), (2.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="bad scaling range"):
            mangling_scalars(rng, 3, (lo, hi))
    for beta in (np.ones(2), np.array([1.0, 0.0, 1.0])):
        with pytest.raises(ValueError, match="length-n vector of nonzero"):
            mangle(pair, beta)
    with pytest.raises(ValueError, match="need n >= d for a frame, got n=2, d=3"):
        canonical_dual_pair(rng, 2, 3)
    with pytest.raises(ValueError, match="n divisible by d, got n=5, d=2"):
        onb_union_pair(rng, 5, 2)
    # the CLI's --kind choices stop an unknown kind before generate
    with pytest.raises(ValueError, match="unknown generator kind 'frame'"):
        generate("frame", rng, 3, 2)


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
    # a row is refused when it is zero, or when its index's product
    # ||x_k|| ||y_k|| lies about 2^-1022 below the largest, and no step
    # overflows or warns.  Each case is (the family's largest entry, the
    # probe row's entries, accepted): against the other family near 1, a
    # probe row of 1e-170 or 1e-150 balances to rows near 1e-85 and 1e-75,
    # one of 1e-310 to rows near 1e-155, below 2^-511, and even the
    # smallest subnormal under a family at 1e-300 is only about 1e-12
    # below it once balanced
    pair = gaussian_pair(np.random.default_rng(3), 3, 2)
    cases = ((1e-300, 0.0, False), (1e-300, 5e-324, True),
             (1.0, 0.0, False), (1.0, 1e-170, True), (1.0, 1e-150, True),
             (1.0, 1e-310, False),
             (1e300, 0.0, False), (1e300, 1e130, True), (1e300, 1e150, True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big, probe, accepted in cases:
            fam = np.array([[big, 0.0], [0.0, 1j * big], [probe, probe]])
            if accepted:
                FramePair(fam, pair.ys)
                FramePair(pair.xs, fam)
            elif probe == 0.0:
                with pytest.raises(ValueError, match="xs: every vector"):
                    FramePair(fam, pair.ys)
                with pytest.raises(ValueError, match="ys: every vector"):
                    FramePair(pair.xs, fam)
            else:
                for xs, ys in ((fam, pair.ys), (pair.xs, fam)):
                    with pytest.raises(ValueError,
                                       match="index 2: .* subnormal"):
                        FramePair(xs, ys)
        # products whose bracket is no normal float are refused up front:
        # both families x 1e160 (products near 1e320), x 1e-170 (1e-340), a
        # single product near 2^1025, and the smallest subnormal times 1
        for xs, ys in ((1e160 * pair.xs, 1e160 * pair.ys),
                       (1e-170 * pair.xs, 1e-170 * pair.ys),
                       (np.array([[1.5e308 + 1.5e308j, 0.0]]), np.ones((1, 2))),
                       (np.array([[5e-324, 0.0]]), np.ones((1, 2)))):
            with pytest.raises(ValueError, match="not a normal float"):
                FramePair(xs, ys)
        # one index 1e-160 on both families sits 1e-320 below the others;
        # at 1e-150 it is 1e-300 below them and kept
        for tiny, accepted in ((1e-160, False), (1e-150, True)):
            rows = np.array([1.0, 1.0, tiny])[:, None]
            if accepted:
                FramePair(rows * pair.xs, rows * pair.ys)
            else:
                with pytest.raises(ValueError, match="index 2: .* subnormal"):
                    FramePair(rows * pair.xs, rows * pair.ys)


def test_frame_pair_refusals_sit_at_their_exponent_bounds():
    # in [0.5, 1) times 2^e, each boundary is one exponent step wide: the
    # unit 2^-2B of a pair whose balanced largest exponent is B must be
    # normal, and an index whose balanced y row lies 511 exponents below
    # B has subnormal squares, while at 510 its squares are normal
    one = np.array([[0.75]])
    for e, accepted in ((511, True), (512, False), (-511, True),
                        (-512, False)):
        part = math.ldexp(0.75, e)
        if accepted:
            pair = FramePair(part * one, part * one)
            assert pair.unit == math.ldexp(1.0, -2 * e)
        else:
            with pytest.raises(ValueError, match="not a normal float"):
                FramePair(part * one, part * one)
    for e, accepted in ((-510, True), (-511, False)):
        rows = np.array([[0.75], [math.ldexp(0.75, e)]])
        if accepted:
            low = FramePair(rows, rows).balanced.ys[1, 0].real
            assert low ** 2 >= np.finfo(np.float64).tiny
        else:
            with pytest.raises(ValueError, match="index 1: .* subnormal"):
                FramePair(rows, rows)


def _part_exponent(rows: np.ndarray) -> np.ndarray:
    """frexp exponent of the largest |Re| or |Im| of each row."""
    tops = np.maximum(np.abs(rows.real), np.abs(rows.imag)).max(axis=1)
    return np.array([math.frexp(float(top))[1] for top in tops])


def test_frame_pair_balances_each_index_by_a_power_of_two():
    # e_k = floor((ex_k - ey_k) / 2) from the rows' largest parts, one
    # power of two c puts the balanced pair's largest part in [0.5, 1),
    # each balanced x_k y_k^* is exactly unit x_k y_k^*, and
    # pair.balanced, built once, is balanced already
    rng = np.random.default_rng(5)
    pair = gaussian_pair(rng, 4, 3)
    for cx, cy in ((1e-10, 1.0 / 3.0), (1.0, 1.0), (1e300, 1.0 / 3.0),
                   (1e-150, 1e-150)):
        far = FramePair(cx * pair.xs, cy * pair.ys)
        bal = far.balanced
        assert bal is far.balanced
        assert not bal.balance.any() and bal.unit == 1.0
        ex, ey = _part_exponent(far.xs), _part_exponent(far.ys)
        assert np.array_equal(far.balance, (ex - ey) // 2)
        parts = np.abs(np.concatenate([bal.xs, bal.ys]).view(np.float64))
        assert 0.5 <= parts.max() < 1.0, (cx, cy)
        c = math.sqrt(far.unit)
        assert math.frexp(c)[0] == 0.5
        for k, e in enumerate(far.balance.tolist()):
            assert np.array_equal(bal.xs[k],
                                  far.xs[k] * math.ldexp(c, -e)), (cx, cy)
            assert np.array_equal(bal.ys[k],
                                  far.ys[k] * math.ldexp(c, e)), (cx, cy)
            assert np.array_equal(np.outer(bal.xs[k], bal.ys[k].conj()),
                                  far.unit * np.outer(far.xs[k],
                                                      far.ys[k].conj()))
    # a mangling by powers of two shifts e_k by its exponent and leaves
    # the balanced pair bitwise
    shifts = rng.integers(-300, 301, size=4)
    mangled = pow2_mangled(pair, shifts)
    assert np.array_equal(mangled.balance, pair.balance + shifts)
    assert mangled.unit == pair.unit
    assert np.array_equal(mangled.balanced.xs, pair.balanced.xs)
    assert np.array_equal(mangled.balanced.ys, pair.balanced.ys)
    # pow2_scale, the verify layer's rule for one array: the largest part,
    # not the largest modulus, and any memory layout
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


def test_frame_pair_refuses_a_flat_or_empty_family():
    with pytest.raises(ValueError, match=r"xs: expected shape \(n, d\)"):
        FramePair(np.ones(3), np.ones((3, 1)))
    for empty in (np.ones((0, 2)), np.ones((2, 0))):
        with pytest.raises(ValueError, match="ys: need at least one vector"):
            FramePair(np.ones((2, 2)), empty)


def test_is_schauder_identity_refuses_a_negative_tolerance():
    pair = canonical_dual_pair(np.random.default_rng(31), 4, 2)
    assert is_schauder_identity(pair, tol=1e-10)
    with pytest.raises(ValueError, match="tol must be nonnegative"):
        is_schauder_identity(pair, tol=-1e-12)
