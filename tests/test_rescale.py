"""Weight optimization, certificates, and the explicit dilation."""

import numpy as np
import pytest

import framescale.frames as frames
import framescale.rescale as rescale
from framescale.frames import (FramePair, bessel_and_frame_bounds, dual_value,
                               pair_operator)
from framescale.instances import (
    canonical_dual_pair,
    d1_scalar_pair,
    gaussian_pair,
    generate,
    haar_unitary,
    mangle,
    mangling_scalars,
    onb_union_pair,
    random_complex,
)
from framescale.linalg import top_singular_triplet
from framescale.multiplier import (
    amplified_input_norm,
    assemble_block,
    mask_matrix,
    norm_lower_alternating,
)
from framescale.rescale import (
    ARMIJO_STEPS,
    CbBracket,
    Dilation,
    _armijo_step,
    _balanced,
    _divided_exp,
    _Objective,
    _psi,
    _smoothed_state,
    build_dilation,
    dilation_reconstruct,
    extract_scaling,
    optimize,
    phi_lower,
)
from framescale.verify import (RATIO_D_MAX, RATIO_INSTANCES, RATIO_N_MAX,
                               witness_defect)

from conftest import dual_coefficients, pow2_mangled


def _tops(pair, t):
    """(f, g): the top eigenvalues of F(t) and G(t) from _Objective.spectra."""
    w, _ = _Objective(pair).spectra(t)
    return float(w[0, -1]), float(w[1, -1])


def test_objective_matches_frame_bounds_of_scaled_families():
    rng = np.random.default_rng(70)
    pair = gaussian_pair(rng, 5, 3)
    t = rng.uniform(-1.0, 1.0, 5)
    f, g = _tops(pair, t)
    alpha = np.exp(0.5 * t)
    fx = bessel_and_frame_bounds(alpha[:, None] * pair.xs).upper
    gy = bessel_and_frame_bounds(pair.ys / alpha[:, None]).upper
    assert abs(f - fx) <= 1e-9 * (1.0 + f)
    assert abs(g - gy) <= 1e-9 * (1.0 + g)


def test_objective_homogeneity_under_common_shift():
    rng = np.random.default_rng(71)
    pair = gaussian_pair(rng, 4, 2)
    t = rng.uniform(-1.0, 1.0, 4)
    f, g = _tops(pair, t)
    c = 0.7
    fc, gc = _tops(pair, t + c)
    assert abs(fc - np.exp(c) * f) <= 1e-10 * (1.0 + fc)
    assert abs(gc - np.exp(-c) * g) <= 1e-10 * (1.0 + gc)


def test_balance_closed_form_and_fixed_point():
    rng = np.random.default_rng(72)
    pair = gaussian_pair(rng, 4, 2)
    obj = _Objective(pair)
    t = rng.uniform(-1.0, 1.0, 4)
    f, g = _tops(pair, t)
    shifted = _balanced(t, obj.spectra(t))
    assert np.max(np.abs((shifted - t) - 0.5 * np.log(g / f))) <= 1e-12
    f2, g2 = _tops(pair, shifted)
    assert abs(f2 - g2) <= 1e-10 * (f2 + g2)
    assert abs(f2 - np.sqrt(f * g)) <= 1e-10 * (1.0 + f2)
    again = _balanced(shifted, obj.spectra(shifted))
    assert np.max(np.abs(again - shifted)) <= 1e-10


def _state_at(pair, t, b_rel):
    """psi, gradient and Hessian from _smoothed_state of pair at t and
    sharpness b = b_rel / h."""
    obj = _Objective(pair)
    spectra = obj.spectra(t)
    psi, grad, _, hessian = _smoothed_state(
        obj, t, b_rel / float(spectra[0][:, -1].max()), spectra)
    return psi, grad, hessian()


@pytest.mark.parametrize("c", [1e-6, 1e6])
def test_smoothed_state_is_homogeneous_of_degree_two(c):
    # a factor c on both families scales F, G and h by c^2 and b by c^-2,
    # so psi, its gradient and its Hessian all scale by c^2
    rng = np.random.default_rng(87)
    pair = gaussian_pair(rng, 4, 2)
    scaled_pair = FramePair(c * pair.xs, c * pair.ys)
    for b_rel in (1e2, 1e6):
        for _ in range(3):
            t = rng.uniform(-1.0, 1.0, 4)
            base = _state_at(pair, t, b_rel)
            scaled = _state_at(scaled_pair, t, b_rel)
            # the Hessian's curvature and outer-product terms cancel to
            # about 1 / b_rel of their size
            for got, want, rtol in zip(scaled, base, (1e-14, 1e-13,
                                                      1e-14 * b_rel)):
                assert np.max(np.abs(got - c * c * want)) <= (
                    rtol * c * c * np.max(np.abs(want)))


def test_smoothed_state_swap_symmetry():
    # swapping the families and negating t swaps F and G: psi and the
    # Hessian stay, and the gradient changes sign
    rng = np.random.default_rng(74)
    pair = gaussian_pair(rng, 4, 2)
    swapped = FramePair(pair.ys, pair.xs)
    for b_rel in (1e2, 1e6):
        t = rng.uniform(-1.0, 1.0, 4)
        psi, grad, hess = _state_at(pair, t, b_rel)
        psi_s, grad_s, hess_s = _state_at(swapped, -t, b_rel)
        assert abs(psi_s - psi) <= 1e-14 * abs(psi)
        assert np.max(np.abs(grad_s + grad)) <= 1e-12 * np.max(np.abs(grad))
        assert np.max(np.abs(hess_s - hess)) <= 1e-12 * np.max(np.abs(hess))


def test_spectra_makes_one_eigh_call(monkeypatch):
    calls = []
    eigh = rescale.eigh

    def counted(mat):
        calls.append(np.shape(mat))
        return eigh(mat)

    monkeypatch.setattr(rescale, "eigh", counted)
    pair = gaussian_pair(np.random.default_rng(88), 5, 3)
    _Objective(pair).spectra(np.zeros(5))
    assert calls == [(2, 3, 3)]


def test_armijo_step_returns_the_first_passing_alpha():
    # every earlier alpha fails Armijo, the returned point passes, its
    # spectra are those obj.spectra gives there, and each candidate is
    # counted once
    rng = np.random.default_rng(89)
    deepest = 0
    for n, d in ((4, 2), (5, 3), (3, 1)):
        pair = gaussian_pair(rng, n, d)
        obj = _Objective(pair)
        t = rng.uniform(-1.0, 1.0, n)
        t = _balanced(t, obj.spectra(t))
        f, g = _tops(pair, t)
        b = 1e3 / max(f, g)
        psi, grad, _, _ = _smoothed_state(obj, t, b, obj.spectra(t))
        for stretch in (1.0, 10.0, 1e3):
            step = -stretch * grad / max(f, g)
            slope = float(grad @ step)
            before = obj.candidates
            accepted, (w, v), smoothed = _armijo_step(obj, t, step, b, psi,
                                                      slope)
            j = obj.candidates - before - 1
            for alpha in ARMIJO_STEPS[:j]:
                w_at = obj.spectra(t + alpha * step)[0]
                assert _psi(w_at, b)[0] > psi + 1e-4 * alpha * slope
            alpha = ARMIJO_STEPS[j]
            assert np.array_equal(accepted, t + alpha * step)
            assert _psi(w, b)[0] <= psi + 1e-4 * alpha * slope
            assert all(np.array_equal(got, want)
                       for got, want in zip(smoothed, _psi(w, b)))
            spectra = obj.spectra(accepted)
            assert np.array_equal(w, spectra[0])
            assert np.array_equal(v, spectra[1])
            deepest = max(deepest, j)
        # an ascent direction never passes: all 40 candidates, then None
        before = obj.candidates
        assert _armijo_step(obj, t, grad, b, psi, float(grad @ grad)) is None
        assert obj.candidates - before == ARMIJO_STEPS.size
    assert deepest > 4


def test_optimize_on_orthonormal_pair_is_exact():
    rng = np.random.default_rng(75)
    u = haar_unitary(rng, 3)
    pair = FramePair(u.T, u.T)
    br = optimize(pair)
    assert abs(br.m_upper - 1.0) <= 1e-9
    assert np.max(np.abs(br.log_weights)) <= 1e-9
    assert br.m_lower <= br.m_upper + 1e-8
    assert br.m_lower >= 1.0 - 1e-9


def test_optimize_scalar_pair_closed_form():
    pair = FramePair(np.array([[10.0], [0.1]], dtype=complex),
                     np.array([[1.0], [1.0]], dtype=complex))
    br = optimize(pair)
    assert abs(br.m_upper - 10.1) <= 1e-6 * 10.1
    sc = extract_scaling(pair, br.log_weights)
    ratio = sc.alpha / sc.alpha[0]
    expected = np.array([1.0, np.sqrt(10.0) / np.sqrt(0.1)])
    assert np.max(np.abs(ratio - expected) / expected) <= 1e-4


def test_optimize_invariant_under_diagonal_reparameterization():
    rng = np.random.default_rng(76)
    pair = canonical_dual_pair(rng, 4, 2)
    scaled = mangle(pair, mangling_scalars(rng, 4, (1e-3, 1e3)))
    a = optimize(pair)
    b = optimize(scaled)
    assert abs(a.m_upper - b.m_upper) <= 1e-6 * a.m_upper
    # a global factor on either family, or on both, scales both bounds and
    # phi by their product c, to rounding, and nothing overflows; the
    # rescaled pair stays within the bracket and its dilation isometric
    xs, ys = pair.xs, pair.ys
    phi = phi_lower(pair, a).value
    for cx, cy in ((1e-6, 1.0), (1e6, 1.0), (1.0, 1e-6), (1.0, 1e6),
                   (1e150, 1.0), (1.0, 1e150), (1e150, 1e150), (1e300, 1.0),
                   (1e-150, 1.0), (1.0, 1e-150), (1e-150, 1e-150)):
        far = FramePair(cx * xs, cy * ys)
        br = optimize(far)
        c = cx * cy
        assert abs(br.m_upper - c * a.m_upper) <= 1e-14 * c * a.m_upper
        assert abs(br.m_lower - c * a.m_lower) <= 1e-14 * c * a.m_lower
        assert abs(phi_lower(far, br).value - c * phi) <= 1e-14 * c * phi
        scaling = extract_scaling(far, br.log_weights)
        assert scaling.bounds_within(br.m_upper), (cx, cy)
        assert build_dilation(scaling, br.m_upper).is_isometric, (cx, cy)
    # a mangling that moves one index up by 10^s and another down by it
    # leaves every x_k y_k^*, so the bracket and phi stay, to rounding;
    # the rows are built one by one, since 10^300 squared is not a float
    for s in (80, 150, 300):
        for beta in (np.array([10.0 ** s, 1.0, 1.0, 10.0 ** -s]),
                     np.array([10.0 ** -s, 1.0, 1.0, 10.0 ** s])):
            far = FramePair(beta[:, None] * xs, ys / beta[:, None])
            br = optimize(far)
            assert abs(br.m_upper - a.m_upper) <= 1e-14 * a.m_upper, s
            assert abs(br.m_lower - a.m_lower) <= 1e-14 * a.m_lower, s
            assert abs(phi_lower(far, br).value - phi) <= 1e-14 * phi, s
            scaling = extract_scaling(far, br.log_weights)
            assert scaling.bounds_within(br.m_upper), s
            assert build_dilation(scaling, br.m_upper).is_isometric, s


def test_optimize_is_bitwise_under_power_of_two_mangling():
    # FramePair balances each index before optimize sees it, so a mangling
    # by powers of two gives the same balanced pair and the same bracket
    rng = np.random.default_rng(79)
    for kind, n, d in (("gaussian", 6, 3), ("schauder_mangled", 8, 2),
                       ("onb_union", 6, 3)):
        pair = generate(kind, rng, n, d)
        base = optimize(pair)
        for spread in (3, 60, 300):
            br = optimize(pow2_mangled(pair, rng.integers(-spread, spread + 1,
                                                           size=n)))
            assert br.m_upper == base.m_upper, (kind, spread)
            assert br.m_lower == base.m_lower, (kind, spread)
            assert np.array_equal(br.dual_us, base.dual_us), (kind, spread)
            assert np.array_equal(br.dual_vs, base.dual_vs), (kind, spread)


def _symmetric_images(pair: FramePair, rng: np.random.Generator):
    """The pair with its indices relabelled, with x and y swapped, and with
    both families conjugated; each has the pair's cb norm."""
    perm = rng.permutation(pair.n)
    return {"relabel": FramePair(pair.xs[perm], pair.ys[perm]),
            "swap": FramePair(pair.ys, pair.xs),
            "conjugate": FramePair(pair.xs.conj(), pair.ys.conj())}


def test_optimize_brackets_agree_under_relabelling_swap_and_conjugation():
    # each image's bracket overlaps the pair's; where both stop on "gap",
    # m_upper agrees to 1e-14.  A "top_stage" pair's m_upper is only as
    # sharp as its smoothing bias, so it is not held to 1e-14.  Swapping
    # flips the parity of ex_k - ey_k, so e_k's floor rounds the other way
    rng = np.random.default_rng(80)
    gated = 0
    for kind in ("gaussian", "schauder_mangled", "onb_union"):
        for n, d in ((6, 3), (8, 2), (12, 4)):
            pair = generate(kind, rng, n, d)
            base = optimize(pair)
            for name, image in _symmetric_images(pair, rng).items():
                br = optimize(image)
                slack = 1.0 + 1e-14
                assert base.m_lower <= br.m_upper * slack, (kind, n, name)
                assert br.m_lower <= base.m_upper * slack, (kind, n, name)
                if base.stats["stop"] == br.stats["stop"] == "gap":
                    gated += 1
                    assert abs(br.m_upper - base.m_upper) <= \
                        1e-14 * base.m_upper, (kind, n, name)
    assert gated >= 15


def test_optimize_invariant_under_common_unitary():
    rng = np.random.default_rng(77)
    pair = gaussian_pair(rng, 4, 3)
    u = haar_unitary(rng, 3)
    rotated = FramePair(pair.xs @ u.T, pair.ys @ u.T)
    a = optimize(pair)
    b = optimize(rotated)
    assert abs(a.m_upper - b.m_upper) <= 1e-9 * a.m_upper


def test_bracket_fields_consistent():
    rng = np.random.default_rng(78)
    pair = gaussian_pair(rng, 4, 2)
    br = optimize(pair)
    assert br.m_lower <= br.m_upper * (1.0 + 1e-8)
    assert abs(max(br.f, br.g) - br.m_upper) <= 1e-10 * br.m_upper
    assert abs(br.f - br.g) <= 1e-8 * (br.f + br.g)
    assert br.gap == (br.m_upper - br.m_lower) / br.m_upper
    tuples = br.dual_us, br.dual_vs
    with pytest.raises(ValueError):
        CbBracket(2.0, np.zeros(4), 1.0, 1.0, *tuples)
    # m_lower always comes with the tuples that replay it
    with pytest.raises(TypeError):
        CbBracket(1.0, np.zeros(4), 1.0, 1.0)


def test_bracket_checks_are_relative_to_the_bound():
    tuples = np.ones((1, 2)), np.ones((1, 2))
    # inverted by 50 %, far below any absolute slack
    with pytest.raises(ValueError, match="inverted"):
        CbBracket(1.5e-9, np.zeros(4), 1e-9, 1e-9, *tuples)
    CbBracket(1e-9 * (1.0 + 1e-9), np.zeros(4), 1e-9, 1e-9, *tuples)
    # m_upper is max(f, g) by construction, not a field to keep in step
    assert CbBracket(1e-9, np.zeros(4), 1.01e-9, 1e-9, *tuples).m_upper \
        == 1.01e-9


def test_optimize_reports_repeatable_counts():
    pair = gaussian_pair(np.random.default_rng(90), 4, 3)
    first, second = optimize(pair), optimize(pair)
    counts = {k: v for k, v in first.stats.items() if k != "wall_s"}
    assert set(counts) == {"stages", "newton_steps",
                           "line_search_candidates", "eigh_calls", "stop",
                           "stage_gaps", "stage_steps", "stage_stops",
                           "best_lower_stage", "best_upper_stage"}
    assert all(isinstance(counts[k], int) and counts[k] > 0
               for k in set(counts) - {"stop", "stage_gaps", "stage_steps",
                                       "stage_stops"})
    assert all(isinstance(steps, int) for steps in counts["stage_steps"])
    assert sum(counts["stage_steps"]) == counts["newton_steps"]
    assert counts == {k: v for k, v in second.stats.items() if k != "wall_s"}
    assert first.stats["wall_s"] > 0.0


def _assert_stop_matches_stage_gaps(br):
    stats = br.stats
    assert len(stats["stage_gaps"]) == len(stats["stage_steps"]) == stats["stages"]
    assert sum(stats["stage_steps"]) == stats["newton_steps"]
    assert (stats["stop"] == "gap") == (stats["stage_gaps"][-1] <= rescale.GAP_TOL)
    assert stats["stop"] in ("gap", "top_stage")
    # m_lower is at least D, so the bracket is no wider than the last stage gap
    assert br.gap <= stats["stage_gaps"][-1]


def test_stats_record_each_stage_gap_and_the_stop_reason():
    rng = np.random.default_rng(92)
    for _ in range(8):
        br = optimize(gaussian_pair(rng, int(rng.integers(2, 7)),
                                    int(rng.integers(1, 4))))
        _assert_stop_matches_stage_gaps(br)
        assert br.stats["stop"] == "gap"


def test_newton_stage_ends_at_its_fixed_point(monkeypatch):
    # a 3 x 3 mangled Schauder pair with x scaled by 10^-6.81.  Its second
    # stage starts with the gap certified and ends there (5 steps in all).
    # Without the gap stop, the stage's gradient stalls at 4.7e-13 psi,
    # above the 1e-13 stop, and Armijo accepts t + alpha step == t from
    # its fourth step on; the fixed-point stop then ends it (9 steps in
    # all, against 30 with neither stop)
    rng = np.random.default_rng(np.random.SeedSequence([2508, 10, 3, 3]))
    pair = generate("schauder_mangled", rng, 3, 3, scaling_range=(1e-3, 1e3))
    pair = FramePair(pair.xs * 10.0 ** rng.uniform(-8.0, 0.0), pair.ys)
    ends = []
    newton_stage = rescale._newton_stage

    def restarted(obj, t, spectra, b):
        # a stage restarted from where it ended must not move: every step
        # the fixed-point stop saves would have left t unchanged
        t, spectra, steps, stop = newton_stage(obj, t, spectra, b)
        again, again_spectra, _, _ = newton_stage(_Objective(pair), t,
                                                  spectra, b)
        ends.append(np.array_equal(again, t)
                    and np.array_equal(again_spectra[0], spectra[0]))
        return t, spectra, steps, stop

    br = optimize(pair)
    stats = br.stats
    _assert_stop_matches_stage_gaps(br)
    assert stats["stop"] == "gap"
    assert stats["stage_stops"] == ["gradient", "gap"]
    assert all(steps < rescale.NEWTON_STEPS for steps in stats["stage_steps"])
    assert stats["newton_steps"] <= 12
    monkeypatch.setattr(rescale, "_newton_stage", restarted)
    spied = optimize(pair)
    assert ends and all(ends)
    assert spied.m_upper == br.m_upper and spied.m_lower == br.m_lower
    assert np.array_equal(spied.log_weights, br.log_weights)


def _stage_pairs(count):
    """count seeded pairs, n 2-7, d 1-4: gaussian, and mangled Schauder
    pairs with x scaled by 10^-8 ... 1."""
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([2525, i]))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(max(d, 2), 8))
        if i % 2:
            pair = generate("schauder_mangled", rng, n, d)
            yield FramePair(pair.xs * 10.0 ** rng.uniform(-8.0, 0.0), pair.ys)
        else:
            yield generate("gaussian", rng, n, d)


def _gibbs_dual(pair, spectra, b):
    """D from the Gibbs density matrices rho and sigma, formed explicitly."""
    rho, sigma = (v @ np.diag(p / p.sum()) @ v.conj().T
                  for w, v in zip(*spectra)
                  for p in [np.exp(b * (w - w[-1]))])
    a = np.einsum("ki,ij,kj->k", pair.xs.conj(), rho, pair.xs).real
    c = np.einsum("ki,ij,kj->k", pair.ys.conj(), sigma, pair.ys).real
    return float(np.sum(np.sqrt(a) * np.sqrt(c)))


def test_stage_ends_on_gap_only_where_the_iterate_certifies_it(monkeypatch):
    # spy on every stage: one that reports "gap" must end at an iterate
    # whose sqrt(f g) and D, as the stage read them, meet GAP_TOL, and
    # that D is the Gibbs states' value; restarted from where it ended, a
    # stage stopped on gap or at a fixed point must not move
    newton_stage, smoothed_state = rescale._newton_stage, rescale._smoothed_state
    duals, seen = [], set()

    def recorded(obj, t, b, spectra, smoothed=None):
        out = smoothed_state(obj, t, b, spectra, smoothed)
        duals.append(out[2])
        return out

    def spied(obj, t, spectra, b):
        start = len(duals)
        t, spectra, steps, stop = newton_stage(obj, t, spectra, b)
        seen.add(stop)
        if stop == "gap":
            f, g = spectra[0][:, -1]
            upper = np.sqrt(f) * np.sqrt(g)
            assert len(duals) > start
            assert upper - duals[-1] <= rescale.GAP_TOL * upper
            want = _gibbs_dual(pair.balanced, spectra, b)
            assert abs(duals[-1] - want) <= 1e-13 * want
        if stop in ("gap", "fixed_point"):
            again = newton_stage(_Objective(pair.balanced), t, spectra, b)[0]
            assert np.array_equal(again, t)
        return t, spectra, steps, stop

    monkeypatch.setattr(rescale, "_smoothed_state", recorded)
    monkeypatch.setattr(rescale, "_newton_stage", spied)
    for pair in _stage_pairs(50):
        br = optimize(pair)
        stops = br.stats["stage_stops"]
        assert len(stops) == br.stats["stages"]
        assert set(stops) <= {"gap", "gradient", "fixed_point", "no_descent",
                              "steps"}
    assert {"gap", "gradient", "fixed_point"} <= seen


def test_a_hessian_is_formed_only_for_a_step(monkeypatch):
    formed = []
    divided_exp = rescale._divided_exp

    def counted(*args):
        formed.append(1)
        return divided_exp(*args)

    monkeypatch.setattr(rescale, "_divided_exp", counted)
    for pair in _stage_pairs(50):
        del formed[:]
        br = optimize(pair)
        assert len(formed) == br.stats["newton_steps"]


def test_divided_exp_is_exact_symmetric_and_finite():
    rng = np.random.default_rng(2526)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        # ascending spectra whose neighbours lie 1e-15 ... 1 apart
        steps = 10.0 ** rng.uniform(-15.0, 0.0, (2, d - 1))
        lam = np.cumsum(np.concatenate([rng.standard_normal((2, 1)), steps],
                                       axis=-1), axis=-1)
        b = 10.0 ** rng.uniform(0.0, 12.0)
        p = np.exp(b * (lam - lam[:, -1:].max()))
        got = _divided_exp(b, lam, p)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, np.swapaxes(got, -1, -2))
        assert np.array_equal(np.diagonal(got, axis1=-2, axis2=-1), b * p)
        dl = lam[:, :, None] - lam[:, None, :]
        far = np.abs(b * dl) >= 1.0
        direct = (p[:, :, None] - p[:, None, :]) / np.where(far, dl, 1.0)
        assert np.all(np.abs(got - direct)[far]
                      <= 1e-12 * np.abs(direct)[far])
    # weights that underflow to 0, and b |dl| of 1e12
    lam = np.array([[0.0, 1e-3, 1.0], [-1.0, 0.5, 1.0]])
    for b in (1e3, 1e12):
        p = np.exp(b * (lam - 1.0))
        got = _divided_exp(b, lam, p)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, np.swapaxes(got, -1, -2))
        assert np.array_equal(np.diagonal(got, axis1=-2, axis2=-1), b * p)
    # at b = 1e12 only the top weight of the first family survives
    assert got[0, 0, 1] == 0.0 and got[0, 2, 2] == 1e12


def test_optimize_is_equivariant_under_a_tiny_global_scale():
    # the Newton stop rule is relative to psi: a factor c on both families
    # scales m_upper by exactly c^2 (an absolute rule drifted 9e-4 at 1e-8)
    pair = generate("gaussian", np.random.default_rng(3), 4, 2)
    base = optimize(pair)
    for c in (1e-8, 1e-6):
        br = optimize(FramePair(c * pair.xs, c * pair.ys))
        assert abs(br.m_upper / c ** 2 - base.m_upper) <= 1e-12 * base.m_upper
        assert abs(br.m_lower / c ** 2 - base.m_lower) <= 1e-12 * base.m_lower


def test_dual_certificate_replays():
    rng = np.random.default_rng(91)
    for _ in range(12):
        d = int(rng.integers(1, 4))
        pair = gaussian_pair(rng, int(rng.integers(1, 7)), d)
        br = optimize(pair)
        us, vs = br.dual_us, br.dual_vs
        assert us.shape == vs.shape == (d, d)
        # each tuple is a unit vector of C^d (x) C^d: a density matrix's root
        assert abs(np.linalg.norm(us) - 1.0) <= 1e-12
        assert abs(np.linalg.norm(vs) - 1.0) <= 1e-12
        mats = dual_coefficients(pair, us, vs)
        assert amplified_input_norm(mats) <= 1.0 + 1e-12
        block = assemble_block(pair, mats)
        sigma, _, _ = top_singular_triplet(block)
        bilinear = np.real(vs.reshape(-1).conj() @ block @ us.reshape(-1))
        assert sigma >= bilinear * (1.0 - 1e-12)
        assert sigma >= br.m_lower * (1.0 - 1e-12)
        assert abs(br.m_lower - bilinear) <= 1e-12 * br.m_lower


def test_m_lower_is_the_replay_of_its_witness():
    # criterion 01's pairs: m_lower is D of the returned tuples, bitwise,
    # by the formula a reader would write from the CbBracket docstring
    rng = np.random.default_rng(np.random.SeedSequence([0, 2024]))
    for _ in range(RATIO_INSTANCES):
        n = int(rng.integers(1, RATIO_N_MAX + 1))
        d = int(rng.integers(1, RATIO_D_MAX + 1))
        pair = mangle(gaussian_pair(rng, n, d), mangling_scalars(rng, n))
        br = optimize(pair)
        us, vs = br.dual_us, br.dual_vs
        cu, cv = pair.ys.conj() @ us.T, pair.xs @ vs.conj().T
        replay = float(np.sum(np.sqrt(np.sum(np.abs(cu) ** 2, axis=1))
                              * np.sqrt(np.sum(np.abs(cv) ** 2, axis=1))))
        assert br.m_lower == replay == dual_value(pair, us, vs)
        assert br.gap <= min(br.stats["stage_gaps"])


def test_dual_certificate_dominates_unmasked_norm_and_ascent():
    # the bracket closes, so D meets the cb norm, which is at least the
    # norm of the unmasked map and of every scalar mask
    rng = np.random.default_rng(62)
    for _ in range(8):
        pair = gaussian_pair(rng, int(rng.integers(2, 6)),
                             int(rng.integers(1, 4)))
        br = optimize(pair)
        t_norm, _, _ = top_singular_triplet(pair_operator(pair))
        assert br.m_lower >= t_norm * (1.0 - 1e-12)
        alt = norm_lower_alternating(pair).value
        assert br.m_lower >= alt * (1.0 - 1e-12)


def test_dual_certificate_on_orthonormal_basis_pair_is_one():
    rng = np.random.default_rng(63)
    for d in (1, 2, 3, 5):
        u = haar_unitary(rng, d)
        br = optimize(FramePair(u.T, u.T))
        assert abs(br.m_lower - 1.0) <= 1e-12
        assert abs(br.m_upper - 1.0) <= 1e-12


def test_dual_certificate_closes_a_large_bracket():
    pair = generate("gaussian", np.random.default_rng(0), 40, 8)
    br = optimize(pair)
    assert br.gap <= 1e-9
    assert br.gap == (br.m_upper - br.m_lower) / br.m_upper
    # the gap stays above GAP_TOL here, so every stage runs
    _assert_stop_matches_stage_gaps(br)
    assert br.stats["stop"] == "top_stage"


def test_certificate_valid_at_arbitrary_weights():
    # any weights give a bound sqrt(f g) on every amplified norm
    rng = np.random.default_rng(79)
    pair = gaussian_pair(rng, 4, 2)
    for _ in range(5):
        t = rng.uniform(-1.5, 1.5, 4)
        f, g = _tops(pair, t)
        cert = np.sqrt(f * g)
        for m in (1, 2, 3):
            mats = np.stack([haar_unitary(rng, m) for _ in range(4)])
            sigma, _, _ = top_singular_triplet(assemble_block(pair, mats))
            assert sigma <= cert * amplified_input_norm(mats) + 1e-8


def test_optimized_bound_dominates_sampled_cb_norm():
    rng = np.random.default_rng(80)
    for _ in range(5):
        pair = gaussian_pair(rng, int(rng.integers(2, 6)), int(rng.integers(1, 4)))
        br = optimize(pair)
        assert br.m_lower <= br.m_upper + 1e-8


def test_extract_scaling_cross_checks_objective():
    rng = np.random.default_rng(81)
    pair = gaussian_pair(rng, 5, 2)
    br = optimize(pair)
    sc = extract_scaling(pair, br.log_weights)
    assert abs(sc.bounds_x.upper - br.f) <= 1e-9 * (1.0 + br.f)
    assert abs(sc.bounds_y.upper - br.g) <= 1e-9 * (1.0 + br.g)
    assert np.all(sc.alpha > 0.0)
    # the scaled pair and its bounds are the ones the families give alone
    assert np.array_equal(sc.scaled.xs, sc.alpha[:, None] * pair.xs)
    assert np.array_equal(sc.scaled.ys, pair.ys / sc.alpha[:, None])
    assert sc.bounds_x == bessel_and_frame_bounds(sc.scaled.xs)
    assert sc.bounds_y == bessel_and_frame_bounds(sc.scaled.ys)
    assert sc.bounds_within(br.m_upper)
    assert not sc.bounds_within(0.5 * br.m_upper)


def test_scaling_and_dilation_diagonalise_each_family_once(monkeypatch):
    rng = np.random.default_rng(81)
    pair = gaussian_pair(rng, 5, 2)
    br = optimize(pair)
    calls = []
    eigh = rescale.eigh

    def counted(mat):
        calls.append(np.shape(mat))
        return eigh(mat)

    monkeypatch.setattr(rescale, "eigh", counted)
    monkeypatch.setattr(frames, "eigh", counted)
    build_dilation(extract_scaling(pair, br.log_weights), br.m_upper)
    assert calls == [(2, 2, 2)]


def test_dilation_isometries_and_reconstruction():
    rng = np.random.default_rng(82)
    for n, d in ((3, 2), (5, 3), (4, 1)):
        pair = gaussian_pair(rng, n, d)
        br = optimize(pair)
        dil = build_dilation(extract_scaling(pair, br.log_weights), br.m_upper)
        eye = np.eye(d)
        assert np.max(np.abs(dil.v1.conj().T @ dil.v1 - eye)) <= 1e-10
        assert np.max(np.abs(dil.v2.conj().T @ dil.v2 - eye)) <= 1e-10
        assert dil.v1.shape == (n + 2 * d, d)
        for _ in range(10):
            a = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
            lhs = dilation_reconstruct(dil, a)
            rhs = mask_matrix(pair, a)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


def test_dilation_identity_mask_gives_pair_operator():
    rng = np.random.default_rng(83)
    pair = canonical_dual_pair(rng, 4, 2)
    br = optimize(pair)
    dil = build_dilation(extract_scaling(pair, br.log_weights), br.m_upper)
    rec = dilation_reconstruct(dil, np.ones(4))
    assert np.max(np.abs(rec - pair_operator(pair))) <= 1e-10


def test_dilation_rejects_insufficient_norm():
    # the refusal is relative to the bound: half of max(f, g) is refused
    # at every scale of x
    rng = np.random.default_rng(84)
    base = gaussian_pair(rng, 4, 2)
    for c in (1e-6, 1.0, 1e6):
        pair = FramePair(c * base.xs, base.ys)
        br = optimize(pair)
        sc = extract_scaling(pair, br.log_weights)
        with pytest.raises(ValueError, match="exceeds multiplier_norm"):
            build_dilation(sc, 0.5 * max(br.f, br.g))
        build_dilation(sc, br.m_upper)


def test_end_to_end_rescaled_schauder_frame_bounds():
    rng = np.random.default_rng(85)
    pair = mangle(canonical_dual_pair(rng, 5, 3),
                  mangling_scalars(rng, 5, (1e-3, 1e3)))
    br = optimize(pair)
    sc = extract_scaling(pair, br.log_weights)
    assert sc.bounds_x.lower > 1e-10
    assert sc.bounds_y.lower > 1e-10
    assert sc.bounds_x.upper <= br.m_upper + 1e-8
    assert sc.bounds_y.upper <= br.m_upper + 1e-8


def test_union_of_bases_bound_between_one_and_count():
    rng = np.random.default_rng(86)
    pair = onb_union_pair(rng, 6, 3)
    br = optimize(pair)
    # two bases with duals x/2: unmasked sum is the identity, worst mask
    # can at most double the energy
    assert br.m_lower >= 1.0 - 1e-9
    assert br.m_upper <= 2.0 + 1e-6


def test_dilation_is_isometric_on_tight_frames_at_every_scale():
    # the paddings vanish here, so I - G / m is pure rounding
    rng = np.random.default_rng(82)
    for d in (1, 3):
        u = haar_unitary(rng, d)
        for c in (1.0, 1e-8, 1e8):
            pair = FramePair(c * u.T, u.T)
            br = optimize(pair)
            dil = build_dilation(extract_scaling(pair, br.log_weights),
                                 br.m_upper)
            for v in (dil.v1, dil.v2):
                assert np.max(np.abs(v.conj().T @ v - np.eye(d))) <= 1e-12


def test_isometry_defect_is_the_explicit_formula():
    # on built dilations, and on factors far from isometric where each of
    # v1 and v2 in turn carries the larger defect
    rng = np.random.default_rng(87)
    for n, d in ((3, 2), (5, 3), (4, 1)):
        pair = gaussian_pair(rng, n, d)
        br = optimize(pair)
        built = build_dilation(extract_scaling(pair, br.log_weights), br.m_upper)
        a, b = (random_complex(rng, n + 2 * d, d) for _ in range(2))
        for dil in (built, Dilation(a, 3.0 * b, 1.0, n, d),
                    Dilation(3.0 * a, b, 1.0, n, d)):
            eye = np.eye(d)
            explicit = max(float(np.max(np.abs(v.conj().T @ v - eye)))
                           for v in (dil.v1, dil.v2))
            assert dil.isometry_defect == explicit
    assert built.isometry_defect <= 1e-10


def test_is_isometric_gates_the_defect_at_1e_10():
    # hand-made factors [diag(sqrt(1 + delta), 1); 0]: v^H v - I has the
    # single entry delta, so the defect is delta up to rounding
    n, d = 3, 2
    for delta, isometric in ((1e-9, False), (1e-11, True)):
        v = np.zeros((n + 2 * d, d), dtype=np.complex128)
        v[:d] = np.diag([np.sqrt(1.0 + delta), 1.0])
        dil = Dilation(v, np.eye(n + 2 * d, d, dtype=np.complex128), 1.0, n, d)
        assert dil.isometry_defect == pytest.approx(delta, rel=1e-5)
        assert dil.is_isometric is isometric


def _pure_value(pair, br):
    """sum_k |<x_k, v>| |<y_k, u>| at the unit top eigenvectors of F and G."""
    v = br.dual_vs[-1] / np.linalg.norm(br.dual_vs[-1])
    u = br.dual_us[-1] / np.linalg.norm(br.dual_us[-1])
    return float(np.sum(np.abs(pair.xs @ v.conj()) * np.abs(pair.ys.conj() @ u)))


def test_phi_lower_witness_replays_below_the_bound():
    rng = np.random.default_rng(80)
    for i in range(24):
        n, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        pair = gaussian_pair(rng, n, d)
        if i % 2:
            pair = mangle(pair, mangling_scalars(rng, n, (1e-3, 1e3)))
        br = optimize(pair)
        est = phi_lower(pair, br)
        assert witness_defect(pair, est) <= 1e-12
        assert est.value <= br.m_upper * (1.0 + 1e-12)
        assert est.method in ("pure", "ascent")
        assert (est.method == "pure") == (est.iterations == 0)


def test_phi_lower_is_exact_on_closed_form_pairs():
    rng = np.random.default_rng(81)
    for d in (1, 2, 3, 5):
        u = haar_unitary(rng, d)
        pair = FramePair(u.T, u.T)
        est = phi_lower(pair, optimize(pair))
        assert est.method == "pure"
        assert abs(est.value - 1.0) <= 1e-12
    for n in (2, 3, 5):
        pair = d1_scalar_pair(rng, n)
        est = phi_lower(pair, optimize(pair))
        closed = float(np.sum(np.abs(pair.xs[:, 0] * pair.ys[:, 0])))
        assert est.method == "pure"
        assert est.value == pytest.approx(closed, rel=1e-12)


def test_phi_lower_warm_ascent_never_falls_below_the_pure_value():
    # these draws leave the pure value short of m_upper, so the ascent runs
    for seed in (22, 45, 124, 235):
        rng = np.random.default_rng(seed)
        n, d = int(rng.integers(3, 6)), int(rng.integers(2, 4))
        pair = gaussian_pair(rng, n, d)
        br = optimize(pair)
        pure = _pure_value(pair, br)
        assert br.m_upper - pure > rescale.PINNED_RTOL * br.m_upper
        est = phi_lower(pair, br)
        assert est.method == "ascent" and est.iterations >= 1
        assert est.value >= pure

