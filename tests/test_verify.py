import itertools
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import framescale.linalg as linalg
import framescale.multiplier as multiplier
import framescale.rescale as rescale
import framescale.verify as verify
from framescale.frames import (FramePair, bessel_and_frame_bounds,
                               frame_operator)
from framescale.instances import (
    canonical_dual_pair,
    d1_scalar_pair,
    gaussian_pair,
    haar_unitary,
    mangle,
    mangling_scalars,
    onb_union_pair,
    random_complex,
)
from framescale.multiplier import norm_lower_alternating, phi_lower
from framescale.rescale import optimize
from framescale.verify import (
    MAX_PATTERN_ORDER,
    VerificationError,
    _sign_rows,
    end_to_end_rescale_check,
    holder_trace_check,
    key_simple_check,
    khintchine_check,
    run_suite,
    suite_d1,
    suite_psi_fd,
    super_key_check,
    trace_lemma_check,
    trace_pairing_check,
    witness_defect,
)

from conftest import VERIFY_CHECK_ARGUMENTS


def scalar_phi(pair):
    """Closed-form multiplier norm of a d = 1 pair: sum_k |x_k y_k|."""
    return float(np.sum(np.abs(pair.xs[:, 0] * pair.ys[:, 0])))


def test_sign_patterns_enumerates_all():
    # the sign classes and their negatives are all 2^m patterns, once each
    s = _sign_rows(3)
    assert s.shape == (4, 3)
    assert np.all(s[:, -1] == 1.0)
    rows = {tuple(row) for row in np.concatenate([s, -s])}
    assert rows == set(itertools.product((-1.0, 1.0), repeat=3))


def test_sign_patterns_bounds():
    with pytest.raises(ValueError):
        _sign_rows(0)
    with pytest.raises(ValueError):
        _sign_rows(15)


def test_sign_rows_are_one_shared_read_only_matrix_per_m():
    s = _sign_rows(6)
    assert _sign_rows(6) is s
    with pytest.raises(ValueError):
        s[0, 0] = 1.0


def test_khintchine_equality_at_two_equal_entries():
    rec = khintchine_check(np.array([1.0, 1.0]))
    assert abs(rec["ratio"] - 1.0) <= 1e-12


def test_khintchine_single_entry_ratio_sqrt_two():
    rec = khintchine_check(np.array([1.0]))
    assert rec["lhs"] == pytest.approx(1.0)
    assert rec["ratio"] == pytest.approx(np.sqrt(2.0), rel=1e-12)
    rec = khintchine_check(np.array([3.0 - 4.0j]))
    assert rec["lhs"] == pytest.approx(5.0)
    assert rec["ratio"] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_khintchine_random_never_below_one():
    rng = np.random.default_rng(5)
    worst = np.inf
    for _ in range(200):
        m = int(rng.integers(1, 11))
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        worst = min(worst, khintchine_check(a)["ratio"])
    assert worst >= 1.0 - 1e-12


def test_khintchine_gate_refuses_a_factor_above_the_best_constant(monkeypatch):
    # E|s . a| <= ||a||_2, with equality only where |s . a| is the same for
    # every s: factor 1 must fail at two equal entries and at random ones
    rng = np.random.default_rng(19)
    monkeypatch.setattr(verify, "KHINTCHINE_FACTOR", 1.0)
    cases = [np.array([1.0, 1.0])] + [random_complex(rng, m) for m in (2, 3, 5, 8)]
    for a in cases:
        with pytest.raises(VerificationError, match="first-moment bound violated"):
            khintchine_check(a)


def test_trace_lemma_matches_closed_form():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(1, 9))
        alpha = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        beta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        rec = trace_lemma_check(alpha, beta)
        assert rec["svd_value"] == pytest.approx(rec["closed_form"], rel=1e-10)


def test_trace_lemma_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        trace_lemma_check(np.ones(3), np.ones(4))


def test_trace_lemma_gate_refuses_singular_values_one_percent_off(monkeypatch):
    rng = np.random.default_rng(20)
    alpha, beta = random_complex(rng, 4), random_complex(rng, 4)
    trace_lemma_check(alpha, beta)
    singular_values = verify.singular_values
    monkeypatch.setattr(verify, "singular_values",
                        lambda mat: 1.01 * singular_values(mat))
    with pytest.raises(VerificationError, match="rank-one trace norm mismatch"):
        trace_lemma_check(alpha, beta)


def test_key_simple_orthonormal_saturates():
    rng = np.random.default_rng(7)
    pair = onb_union_pair(rng, 3, 3)
    e1 = np.zeros(3, dtype=np.complex128)
    e1[0] = 1.0
    rec = key_simple_check(pair, pair.xs[0], pair.xs[0], 1.0)
    assert rec["slack"] == pytest.approx(0.0, abs=1e-12)
    rec = key_simple_check(pair, e1, e1, 1.0)
    assert rec["slack"] >= -1e-12


def test_key_simple_detects_deflated_norm():
    rng = np.random.default_rng(8)
    pair = d1_scalar_pair(rng, 4)
    phi = scalar_phi(pair)
    # at 1e-6 both sides are near 1e-12 phi, so the gate must scale too;
    # at 1e160 they lie beyond the float range, and the gate compares the
    # scaled sides
    for scale in (1.0, 1e-6, 1e160):
        u = np.full(1, scale, dtype=np.complex128)
        key_simple_check(pair, u, u, phi)
        with pytest.raises(VerificationError):
            key_simple_check(pair, u, u, 0.5 * phi)


def test_key_simple_gate_sits_at_its_relative_tolerance():
    # with phi0 = lhs / (||u|| ||v||) the two sides are equal; phi0 less
    # 10 rtol of itself must fail, and less 0.1 rtol must pass.  rtol is
    # the module's documented 1e-9 for one-sided inequalities, written out
    # so that a looser INEQ_RTOL fails here
    rtol = 1e-9
    rng = np.random.default_rng(8)
    pair = gaussian_pair(rng, 4, 2)
    u, v = random_complex(rng, 2), random_complex(rng, 2)
    phi = norm_lower_alternating(pair).value
    lhs = key_simple_check(pair, u, v, phi)["lhs"]
    phi0 = lhs / (np.linalg.norm(u) * np.linalg.norm(v))
    key_simple_check(pair, u, v, phi0 * (1.0 - 0.1 * rtol))
    with pytest.raises(VerificationError,
                       match="bilinear key estimate violated"):
        key_simple_check(pair, u, v, phi0 * (1.0 - 10.0 * rtol))


def test_super_key_chain_runs_below_cap():
    rng = np.random.default_rng(9)
    pair = gaussian_pair(rng, 3, 2)
    phi = norm_lower_alternating(pair).value
    us = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    vs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    rec = super_key_check(pair, us, vs, phi)
    assert rec["chain_checked"]
    assert rec["slack"] >= -1e-9 * rec["rhs"]
    assert rec["khintchine_link"] >= -1e-9 * rec["rhs"]
    assert rec["masked_bound_link"] >= -1e-9 * rec["rhs"] * phi
    assert rec["average_identity"] <= 1e-10 * rec["rhs"]


def test_super_key_masked_link_gate_scales_with_the_tuples():
    # 0.7 phi still passes the final inequality (constant 2), so only the
    # masked-norm link can catch it, at every scale of the tuples
    rng = np.random.default_rng(9)
    pair = gaussian_pair(rng, 3, 2)
    phi = norm_lower_alternating(pair).value
    us = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    vs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    for scale in (1.0, 1e-6, 1e6):
        super_key_check(pair, scale * us, scale * vs, phi)
        with pytest.raises(VerificationError, match="masked-norm link"):
            super_key_check(pair, scale * us, scale * vs, 0.7 * phi)


def test_super_key_chain_skipped_above_cap():
    rng = np.random.default_rng(10)
    pair = gaussian_pair(rng, 3, 2)
    phi = norm_lower_alternating(pair).value
    m = 12
    us = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    vs = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    rec = super_key_check(pair, us, vs, phi, chain_m_cap=10)
    assert not rec["chain_checked"]
    assert "masked_bound_link" not in rec
    rec = super_key_check(pair, us[:1], vs[:1], phi, chain_m_cap=0)
    assert not rec["chain_checked"]
    assert "masked_bound_link" not in rec


def test_super_key_refuses_a_cap_beyond_the_pattern_order():
    # the cap is checked on entry: a cap above MAX_PATTERN_ORDER would
    # otherwise fail in _sign_rows only after the final inequality had run
    rng = np.random.default_rng(10)
    pair = gaussian_pair(rng, 3, 2)
    phi = norm_lower_alternating(pair).value
    us = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    vs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    for cap in (MAX_PATTERN_ORDER + 1, -1):
        with pytest.raises(ValueError, match="chain_m_cap"):
            super_key_check(pair, us, vs, phi, chain_m_cap=cap)


def test_super_key_refuses_empty_tuples():
    pair = gaussian_pair(np.random.default_rng(10), 3, 2)
    empty = np.zeros((0, 2), dtype=np.complex128)
    for cap in (0, 10):
        with pytest.raises(ValueError, match="us and vs"):
            super_key_check(pair, empty, empty, 1.0, chain_m_cap=cap)


def test_super_key_detects_deflated_norm():
    rng = np.random.default_rng(11)
    pair = d1_scalar_pair(rng, 3)
    phi = scalar_phi(pair)
    us = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    vs = rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1))
    # at 1e160 lhs and rhs lie beyond the float range; the gates compare
    # the scaled sides, so they still fire
    for scale in (1.0, 1e-6, 1e160):
        super_key_check(pair, scale * us, scale * vs, phi)
        with pytest.raises(VerificationError,
                           match="block key estimate violated"):
            super_key_check(pair, scale * us, scale * vs, 0.25 * phi)


def test_super_key_chain_detects_a_broken_first_moment_link(monkeypatch):
    # sign sums shrunk to 0.4 of their size leave the final inequality as
    # it was, but put 2 mean(p) mean(q) below some ||cu_k|| ||cv_k||: the
    # per-index link is the first gate of the chain to see it
    rng = np.random.default_rng(9)
    pair = gaussian_pair(rng, 3, 2)
    phi = norm_lower_alternating(pair).value
    us = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    vs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    super_key_check(pair, us, vs, phi)
    signed_sums = verify._signed_sums
    monkeypatch.setattr(verify, "_signed_sums",
                        lambda table: 0.4 * signed_sums(table))
    with pytest.raises(VerificationError, match="per-index first-moment link"):
        super_key_check(pair, us, vs, phi)


def test_super_key_orthogonality_gate_refuses_a_sign_class_counted_twice(monkeypatch):
    # one sign class listed twice leaves links 1 to 3 standing (2 and 3
    # hold for any set of sign vectors), but its ||u(s)||^2 then weighs
    # twice in the mean, which misses sum_j ||u_j||^2
    rng = np.random.default_rng(9)
    pair = gaussian_pair(rng, 3, 2)
    phi = norm_lower_alternating(pair).value
    us, vs = random_complex(rng, 3, 2), random_complex(rng, 3, 2)
    super_key_check(pair, us, vs, phi)
    sign_rows = verify._sign_rows
    monkeypatch.setattr(verify, "_sign_rows",
                        lambda m: np.vstack([sign_rows(m), sign_rows(m)[:1]]))
    with pytest.raises(VerificationError,
                       match="sign-average orthogonality identity broken"):
        super_key_check(pair, us, vs, phi)


def test_sign_classes_are_the_mirrored_half():
    # in the 2^m patterns with s_1 fastest, row i of the first half is
    # minus row 2^m - 1 - i, so the rows with s_m = +1 hold one pattern
    # of each class {s, -s}
    for m in range(1, MAX_PATTERN_ORDER + 1):
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        signs, h = signs[:, ::-1], 1 << (m - 1)
        assert np.array_equal(-signs[:h][::-1], signs[h:])
        assert np.array_equal(_sign_rows(m), signs[h:])


def _full_chain(pair, us, vs, phi):
    """super_key_check's numbers over all 2^m x 2^m sign pairs."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=us.shape[0])))
    cu = pair.ys.conj() @ us.T
    cv = pair.xs @ vs.conj().T
    norm_u = np.sqrt(np.sum(np.abs(cu) ** 2, axis=1))
    norm_v = np.sqrt(np.sum(np.abs(cv) ** 2, axis=1))
    lhs = float(np.sum(norm_u * norm_v))
    l2_u = float(np.sqrt(np.sum(np.abs(us) ** 2)))
    l2_v = float(np.sqrt(np.sum(np.abs(vs) ** 2)))
    rhs = 2.0 * phi * l2_u * l2_v
    p = np.abs(signs @ cu.T)
    q = np.abs(signs @ cv.T)
    mean_p, mean_q = np.mean(p, axis=0), np.mean(q, axis=0)
    joint = p @ q.T
    nu = np.sqrt(np.sum(np.abs(signs @ us) ** 2, axis=1))
    nv = np.sqrt(np.sum(np.abs(signs @ vs) ** 2, axis=1))
    links = {
        "khintchine_link": float(np.min(2.0 * mean_p * mean_q - norm_u * norm_v)),
        # the mean of row means: at tuples x 1e150 the plain sum of the
        # 2^20 entries of joint overflows
        "average_identity": abs(float(np.mean(np.mean(joint, axis=1)))
                                - float(np.sum(mean_p * mean_q))),
        "masked_bound_link": float(np.min(phi * np.outer(nu, nv) - joint)),
        "mean_vs_quadratic": min(l2_u - float(np.mean(nu)),
                                 l2_v - float(np.mean(nv))),
        "orthogonality_identity": max(
            abs(float(np.sqrt(np.mean(nu ** 2))) - l2_u),
            abs(float(np.sqrt(np.mean(nv ** 2))) - l2_v)),
    }
    # each link against the scale its gate uses
    scales = {"khintchine_link": rhs, "average_identity": rhs,
              "masked_bound_link": phi * float(np.max(nu)) * float(np.max(nv)),
              "mean_vs_quadratic": max(l2_u, l2_v),
              "orthogonality_identity": max(l2_u, l2_v)}
    return {"lhs": lhs, "rhs": rhs, "slack": rhs - lhs}, links, scales


def test_sign_classes_match_the_full_enumeration():
    rng = np.random.default_rng(17)
    gauss = gaussian_pair(rng, 4, 2)
    scalars = d1_scalar_pair(rng, 4)
    cases = ((onb_union_pair(rng, 3, 3), 1.0), (scalars, scalar_phi(scalars)),
             (gauss, norm_lower_alternating(gauss).value))
    for m in range(1, 12):
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        for c in (1e-150, 1.0, 1e150):
            want = float(np.mean(np.abs(signs @ (c * a))))
            assert khintchine_check(c * a)["lhs"] == pytest.approx(want, rel=1e-12)
        for pair, phi in cases:
            us = rng.standard_normal((m, pair.dim)) + 1j * rng.standard_normal((m, pair.dim))
            vs = rng.standard_normal((m, pair.dim)) + 1j * rng.standard_normal((m, pair.dim))
            for c in (1e-150, 1.0, 1e150):
                rec = super_key_check(pair, c * us, c * vs, phi, chain_m_cap=m)
                final, links, scales = _full_chain(pair, c * us, c * vs, phi)
                assert rec["chain_checked"]
                for key, value in final.items():
                    assert rec[key] == value, (m, c, key)
                for key, value in links.items():
                    assert abs(rec[key] - value) <= 1e-12 * scales[key], (m, c, key)


def test_super_key_average_identity_stays_finite_near_the_float_limit():
    # at tuples x 1e151 rhs is near 1e303 and joint's entries near 1e304:
    # summing all 2^(2m - 2) entries at once overflowed to inf and raised
    rng = np.random.default_rng(18)
    pair = gaussian_pair(rng, 4, 2)
    phi = norm_lower_alternating(pair).value
    for m in (9, 10):
        us = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        vs = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        rec = super_key_check(pair, 1e151 * us, 1e151 * vs, phi)
        assert rec["average_identity"] <= 1e-12 * rec["rhs"]


def _scaled_baseline(pair, us, vs, phi, cu, cv):
    """super_key_check's record at tuples (cu us, cv vs) from its records at
    scale 1: key -> (value, the scale its gate uses there)."""
    base = super_key_check(pair, us, vs, phi)
    want = {key: (cu * cv * base[key], cu * cv * base["rhs"])
            for key in ("lhs", "rhs", "slack", "khintchine_link",
                        "average_identity", "masked_bound_link")}
    # links 4 and 5 hold per tuple; a check of a tuple against itself
    # reports that tuple's side alone
    sides = [(c * super_key_check(pair, t, t, phi)[key], c * np.linalg.norm(t))
             for c, t in ((cu, us), (cv, vs))
             for key in ("mean_vs_quadratic", "orthogonality_identity")]
    want["mean_vs_quadratic"] = min(sides[0], sides[2])
    want["orthogonality_identity"] = max(sides[1], sides[3])
    return want


def test_super_key_record_is_the_scaled_baseline_at_the_float_limits():
    # both tuples x 1e152 overflowed the average identity to inf, and u
    # alone x 1e-160 underflowed |u|^2 and broke the orthogonality identity
    rng = np.random.default_rng(18)
    pair = gaussian_pair(rng, 4, 2)
    phi = norm_lower_alternating(pair).value
    us = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    vs = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    for cu, cv in ((1e152, 1e152), (1e-160, 1.0)):
        rec = super_key_check(pair, cu * us, cv * vs, phi)
        assert rec["chain_checked"]
        for key, (value, scale) in _scaled_baseline(pair, us, vs, phi,
                                                    cu, cv).items():
            assert abs(rec[key] - value) <= 1e-15 * scale, (cu, key)


def test_khintchine_record_is_the_scaled_baseline_at_the_float_limits():
    # |a|^2 overflowed at a x 1e154 (ratio 0) and underflowed at 1e-170 (inf)
    a = np.random.default_rng(19).standard_normal(6) + 1j
    base = khintchine_check(a)
    for c in (1e154, 1e-170):
        rec = khintchine_check(c * a)
        for key, scale in (("ratio", 1.0), ("lhs", c), ("rhs", c)):
            want = scale * base[key]
            assert abs(rec[key] - want) <= 1e-15 * want, (c, key)
    # subnormal entries: the scale stops at 2^1023 instead of overflowing
    assert abs(khintchine_check(np.array([1e-310, 1e-310]))["ratio"] - 1.0) <= 1e-12


def test_super_key_chain_memory_at_m_10():
    # one 128 x 512 gap block and the sign sums peak at about 0.76 MB, and
    # the bound is about twice that
    rng = np.random.default_rng(18)
    pair = gaussian_pair(rng, 4, 2)
    phi = norm_lower_alternating(pair).value
    us = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    vs = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    tracemalloc.start()
    try:
        assert super_key_check(pair, us, vs, phi)["chain_checked"]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_super_key_row_blocks_equal_the_whole_matrix(monkeypatch):
    # links 2 and 3, read off one GEMM of the augmented factors per row
    # block, give the numbers of the whole sign-pair matrix joint = p @ q.T:
    # each gap entry rounds apart from phi nu_s nv_t - joint[s, t], and BLAS
    # does not promise a row slice's product to be bitwise that of the whole
    # one; so the links agree to a few ulps of their terms' scale, on full
    # blocks and on ragged ones
    rng = np.random.default_rng(20)
    pair = gaussian_pair(rng, 4, 2)
    phi = norm_lower_alternating(pair).value
    for block in (verify.SIGN_BLOCK, 100):
        monkeypatch.setattr(verify, "SIGN_BLOCK", block)
        for m in (9, 10, 11):
            us = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
            vs = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
            rec = super_key_check(pair, us, vs, phi, chain_m_cap=m)
            signs = _sign_rows(m)
            cu, cv = pair.ys.conj() @ us.T, pair.xs @ vs.conj().T
            p, q = np.abs(signs @ cu.T), np.abs(signs @ cv.T)
            joint = p @ q.T
            nu = np.sqrt(np.sum(np.abs(signs @ us) ** 2, axis=1))
            nv = np.sqrt(np.sum(np.abs(signs @ vs) ** 2, axis=1))
            gap = np.multiply.outer(nu, nv) * phi
            ulps = 8 * np.finfo(float).eps * float(max(np.max(joint), np.max(gap)))
            average = abs(float(np.mean(np.mean(joint, axis=1)))
                          - float(np.sum(np.mean(p, axis=0) * np.mean(q, axis=0))))
            assert abs(rec["average_identity"] - average) <= ulps, (block, m)
            assert abs(rec["masked_bound_link"]
                       - float(np.min(gap - joint))) <= ulps, (block, m)


def test_trace_pairing_routes_agree():
    rng = np.random.default_rng(13)
    pair = gaussian_pair(rng, 4, 2)
    m = 3
    mats = rng.standard_normal((4, m, m)) + 1j * rng.standard_normal((4, m, m))
    us = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    vs = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
    # the form sum_kij A_kij <x_k, v_i> <u_j, y_k>, one term at a time
    cu = np.array([[np.vdot(y, u) for u in us] for y in pair.ys])
    cv = np.array([[np.vdot(v, x) for v in vs] for x in pair.xs])
    for c in (1e-150, 1.0, 1e150):
        terms = mats * (c * cv[:, :, None]) * cu[:, None, :]
        rec = trace_pairing_check(pair, mats, us, c * vs)
        scale = float(np.sum(np.abs(terms)))
        assert abs(rec["value"] - complex(np.sum(terms))) <= 1e-14 * scale, c
        assert rec["residual"] <= 1e-10 * scale, c
    with pytest.raises(ValueError):
        trace_pairing_check(pair, mats, us[:2], vs)
    with pytest.raises(ValueError):
        trace_pairing_check(pair, mats, us, vs[:2])


def test_trace_pairing_gate_refuses_a_route_one_percent_off(monkeypatch):
    rng = np.random.default_rng(13)
    pair = gaussian_pair(rng, 4, 2)
    mats = random_complex(rng, 4, 3, 3)
    us, vs = random_complex(rng, 3, 2), random_complex(rng, 3, 2)
    trace_pairing_check(pair, mats, us, vs)
    amplified_apply = verify.amplified_apply
    monkeypatch.setattr(verify, "amplified_apply",
                        lambda *args: 1.01 * amplified_apply(*args))
    with pytest.raises(VerificationError, match="trace pairing residual"):
        trace_pairing_check(pair, mats, us, vs)


def test_bilinear_checks_are_exact_at_power_of_two_scales():
    # the bilinear checks form their numbers on the tuples and on the
    # pair's families times exact powers of two, so a family or a tuple
    # times 2^70 or 2^-40 gives the unit-scale record times that power,
    # bit for bit; links 4 and 5 hold per tuple and do not move
    rng = np.random.default_rng(13)
    pair = gaussian_pair(rng, 4, 2)
    mats = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    us = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    vs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    phi = norm_lower_alternating(pair).value

    def records(p, phi_norm):
        return {"pairing": trace_pairing_check(p, mats, us, vs),
                "key_simple": key_simple_check(p, us[0], vs[0], phi_norm),
                "super_key": super_key_check(p, us, vs, phi_norm)}

    base = records(pair, phi)
    assert base["super_key"]["chain_checked"]
    fixed = {"m", "chain_checked", "mean_vs_quadratic", "orthogonality_identity"}
    for c in (2.0 ** 70, 2.0 ** -40):
        for far in (FramePair(c * pair.xs, pair.ys),
                    FramePair(pair.xs, c * pair.ys)):
            for name, rec in records(far, c * phi).items():
                assert rec == {key: value if key in fixed else c * value
                               for key, value in base[name].items()}, (c, name)
        rec = trace_pairing_check(pair, mats, c * us, vs)
        assert rec == {key: c * value for key, value in base["pairing"].items()}


def test_trace_pairing_validates_its_coefficients_once(monkeypatch):
    calls = []
    check = multiplier.check_amplified

    def spy(mats, n):
        calls.append(n)
        return check(mats, n)

    # count the validations wherever verify reaches check_amplified from
    monkeypatch.setattr(multiplier, "check_amplified", spy)
    monkeypatch.setattr(verify, "check_amplified", spy, raising=False)
    rng = np.random.default_rng(13)
    pair = gaussian_pair(rng, 4, 2)
    mats = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    us = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    trace_pairing_check(pair, mats, us, us)
    assert calls == [4]


@pytest.mark.filterwarnings("error")
def test_relative_gates_pass_at_every_scale():
    # no gate carries an absolute term, so tiny and huge data pass alike
    rng = np.random.default_rng(15)
    pair = gaussian_pair(rng, 4, 2)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mats = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    us = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    vs = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    phi = norm_lower_alternating(pair).value
    for c in (1e-150, 1.0, 1e150):
        khintchine_check(c * a[0])
        trace_lemma_check(c * a[0], b[0])
        holder_trace_check(c * a, b)
        trace_pairing_check(pair, mats, c * us, vs)
        super_key_check(pair, c * us, vs, phi)

    def records(c1, c2):
        """Each two-argument check at its arguments times c1 and c2: name ->
        (record, the keys that scale by c1 c2)."""
        return {
            "trace_lemma": (trace_lemma_check(c1 * a[0], c2 * b[0]),
                            ("closed_form", "svd_value")),
            "holder": (holder_trace_check(c1 * a, c2 * b),
                       ("lhs", "rhs", "slack")),
            "key_simple": (key_simple_check(pair, c1 * us[0], c2 * vs[0], phi),
                           ("lhs", "rhs", "slack")),
            "pairing": (trace_pairing_check(pair, mats, c1 * us, c2 * vs),
                        ("value",)),
        }

    # opposite scales: each record stays inside the float range, while a
    # square of the larger argument overflows and one of the smaller
    # underflows
    base = {name: rec for name, (rec, _) in records(1.0, 1.0).items()}
    # the unit-scale size each check's rounding is measured against; the
    # pairing's terms may cancel, so its size is the sum of their moduli
    cu, cv = np.abs(pair.ys.conj() @ us.T), np.abs(pair.xs @ vs.conj().T)
    sizes = {"trace_lemma": base["trace_lemma"]["closed_form"],
             "holder": base["holder"]["rhs"],
             "key_simple": base["key_simple"]["rhs"],
             "pairing": float(np.sum(np.abs(mats) * cv[:, :, None]
                                     * cu[:, None, :]))}
    for c1, c2 in ((1e200, 1e-100), (1e-200, 1e100), (1e170, 1e-170),
                   (1e-170, 1e170)):
        for name, (rec, keys) in records(c1, c2).items():
            for key in keys:
                assert abs(rec[key] - c1 * c2 * base[name][key]) <= \
                    1e-14 * c1 * c2 * sizes[name], (c1, c2, name, key)
        rec = super_key_check(pair, c1 * us, c2 * vs, phi)
        want = _scaled_baseline(pair, us, vs, phi, c1, c2)
        # a rounding residual of the larger tuple does not scale from the
        # baseline's, which may come from the other tuple
        del want["orthogonality_identity"]
        for key, (value, scale) in want.items():
            assert abs(rec[key] - value) <= 1e-14 * scale, (c1, c2, key)
        assert rec["orthogonality_identity"] <= 1e-14 * max(
            c1 * np.linalg.norm(us), c2 * np.linalg.norm(vs))

    # both families x 1e150 and one tuple x 1e10 with mats x 1e-150:
    # unscaled, route 1's blocks would overflow, the record would read
    # NaN, and the gate would pass
    small = gaussian_pair(np.random.default_rng(3), 3, 2)
    huge = FramePair(1e150 * small.xs, 1e150 * small.ys)
    units = np.eye(2)
    pmats = mats[:3, :2, :2]
    base = trace_pairing_check(small, pmats, units, units)
    rec = trace_pairing_check(huge, 1e-150 * pmats, 1e10 * units, units)
    size = float(np.sum(np.abs(pmats) * np.abs(small.xs)[:, :, None]
                        * np.abs(small.ys)[:, None, :]))
    assert abs(rec["value"] - 1e160 * base["value"]) <= 1e-14 * 1e160 * size
    assert rec["residual"] <= 1e-14 * 1e160 * size

    # one family x 1e200 squared entries of cv near 1e200 in
    # super_key_check's dual terms: lhs read inf and the check failed
    rng = np.random.default_rng(18)
    pair = gaussian_pair(rng, 4, 2)
    phi = norm_lower_alternating(pair).value
    us = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    vs = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
    base = {"key_simple": key_simple_check(pair, us[0], vs[0], phi),
            "super_key": super_key_check(pair, us, vs, phi)}
    tuple_only = {"m", "chain_checked", "mean_vs_quadratic",
                  "orthogonality_identity"}
    for c, far in ((1e200, FramePair(1e200 * pair.xs, pair.ys)),
                   (1e200, FramePair(pair.xs, 1e200 * pair.ys)),
                   (1e-200, FramePair(pair.xs, 1e-200 * pair.ys))):
        recs = {"key_simple": key_simple_check(far, us[0], vs[0], c * phi),
                "super_key": super_key_check(far, us, vs, c * phi)}
        for name, rec in recs.items():
            assert rec.keys() == base[name].keys()
            for key, value in base[name].items():
                if key in tuple_only:
                    assert rec[key] == value, (c, name, key)
                else:
                    assert abs(rec[key] - c * value) <= \
                        1e-14 * c * base[name]["rhs"], (c, name, key)


def _valid_check_arguments():
    """Arguments of every check of VERIFY_CHECK_ARGUMENTS that pass it."""
    rng = np.random.default_rng(23)
    pair = gaussian_pair(rng, 3, 2)
    # sum_k ||x_k|| ||y_k|| bounds the multiplier norm from above
    phi = float(np.sum(np.linalg.norm(pair.xs, axis=1)
                       * np.linalg.norm(pair.ys, axis=1)))
    return {
        "khintchine_check": {"a": random_complex(rng, 4)},
        "trace_lemma_check": {"alpha": random_complex(rng, 3),
                              "beta": random_complex(rng, 3)},
        "holder_trace_check": {"a": random_complex(rng, 3, 3),
                               "b": random_complex(rng, 3, 3)},
        "key_simple_check": {"pair": pair, "u": random_complex(rng, 2),
                             "v": random_complex(rng, 2), "phi_norm": phi},
        "super_key_check": {"pair": pair, "us": random_complex(rng, 3, 2),
                            "vs": random_complex(rng, 3, 2), "phi_norm": phi},
        "trace_pairing_check": {"pair": pair,
                                "mats": random_complex(rng, 3, 2, 2),
                                "us": random_complex(rng, 2, 2),
                                "vs": random_complex(rng, 2, 2)},
        "end_to_end_rescale_check": {"pair": canonical_dual_pair(rng, 4, 2)},
    }


def _spoiled(value, bad):
    """value with one entry set to bad: a pair's first x entry, an array's
    last entry, or phi_norm itself (bad's imaginary part if bad is not real)."""
    if isinstance(value, FramePair):
        xs = value.xs.copy()
        xs[0, 0] = bad
        return FramePair(xs, value.ys)
    if isinstance(value, float):
        return bad.imag if isinstance(bad, complex) else bad
    out = np.array(value, dtype=np.complex128)
    out.flat[-1] = bad
    return out


@pytest.mark.parametrize("bad", [np.nan, complex(0.0, np.inf), -np.inf],
                         ids=["nan", "inf_imag", "-inf"])
@pytest.mark.parametrize("check,arg", [
    (check, arg) for check, args in VERIFY_CHECK_ARGUMENTS.items()
    for arg in args])
def test_checks_refuse_non_finite_input(check, arg, bad):
    # every comparison with NaN is false, so a NaN that reached a gate
    # would pass it; a pair is refused when it is built
    kwargs = _valid_check_arguments()[check]
    run = getattr(verify, check)
    run(**kwargs)
    with pytest.raises(ValueError):
        kwargs[arg] = _spoiled(kwargs[arg], bad)
        run(**kwargs)


@pytest.mark.parametrize("check, name, message", [
    ("khintchine_check", "_signed_sums", "first-moment bound violated"),
    ("trace_lemma_check", "singular_values", "rank-one trace norm mismatch"),
    ("holder_trace_check", "singular_values", "trace duality estimate"),
    ("key_simple_check", "dual_terms", "bilinear key estimate violated"),
    ("super_key_check", "dual_terms", "block key estimate violated"),
    ("super_key_check", "_signed_sums", "per-index first-moment link"),
    ("trace_pairing_check", "amplified_apply", "trace pairing residual"),
])
def test_check_gates_refuse_a_nan(check, name, message, monkeypatch):
    # a NaN that reaches a gate, here through a name the check looks up
    # at call time, fails it
    kwargs = _valid_check_arguments()[check]
    run = getattr(verify, check)
    run(**kwargs)
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args: np.nan * real(*args))
    with pytest.raises(VerificationError, match=message):
        run(**kwargs)


@pytest.mark.parametrize("check, changes, message", [
    ("khintchine_check", {"a": np.zeros(0)}, "need at least one coefficient"),
    ("key_simple_check", {"u": np.ones(3)}, "u and v must live in the pair"),
    ("key_simple_check", {"v": np.ones(1)}, "u and v must live in the pair"),
    ("super_key_check", {"us": np.ones(2)}, r"us and vs must be \(m, d\)"),
    ("super_key_check", {"us": np.ones((2, 2))}, r"us and vs must be \(m, d\)"),
    ("super_key_check", {"us": np.ones((3, 3)), "vs": np.ones((3, 3))},
     "tuple vectors must live in the pair"),
    ("holder_trace_check", {"b": np.ones((3, 2))}, "a and b must be square"),
    ("holder_trace_check", {"a": np.ones((2, 3)), "b": np.ones((2, 3))},
     "a and b must be square"),
], ids=["khintchine_empty", "key_simple_u", "key_simple_v", "super_key_1d",
        "super_key_lengths", "super_key_dimension", "holder_shapes",
        "holder_not_square"])
def test_checks_refuse_arguments_of_the_wrong_shape(check, changes, message):
    kwargs = {**_valid_check_arguments()[check], **changes}
    with pytest.raises(ValueError, match=message):
        getattr(verify, check)(**kwargs)


def test_checks_refuse_a_negative_phi_norm():
    for check in ("key_simple_check", "super_key_check"):
        kwargs = _valid_check_arguments()[check]
        kwargs["phi_norm"] = -1.0
        with pytest.raises(ValueError, match="phi_norm"):
            getattr(verify, check)(**kwargs)


def test_holder_gate_decides_where_the_record_overflows(monkeypatch):
    # at a x 1e160 and b x 1e160 both sides are near 1e320, beyond the
    # float range; the gate compares the scaled sides, so halved singular
    # values are caught there as at unit scale
    u = haar_unitary(np.random.default_rng(24), 3)
    singular_values = linalg.singular_values
    monkeypatch.setattr(verify, "singular_values",
                        lambda mat: 0.5 * singular_values(mat))
    for c in (1.0, 1e160):
        with pytest.raises(VerificationError, match="trace duality"):
            holder_trace_check(c * u, c * u.conj().T)


def test_holder_trace_random_and_identity_case():
    rng = np.random.default_rng(14)
    for _ in range(10):
        m = int(rng.integers(1, 5))
        a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        rec = holder_trace_check(a, b)
        assert rec["slack"] >= -1e-9 * (1.0 + rec["rhs"])
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rec = holder_trace_check(np.eye(3, dtype=np.complex128), b)
    assert rec["lhs"] <= rec["rhs"] + 1e-12


def test_holder_trace_equality_cases():
    # identity against identity: tr(I I) = m and 1 * ||I||_1 = m
    rec = holder_trace_check(np.eye(4, dtype=np.complex128),
                             np.eye(4, dtype=np.complex128))
    assert rec["lhs"] == pytest.approx(4.0)
    assert rec["slack"] == pytest.approx(0.0, abs=1e-10)
    # unitary against its adjoint saturates the duality
    rng = np.random.default_rng(41)
    u = haar_unitary(rng, 4)
    rec = holder_trace_check(u, u.conj().T)
    assert rec["lhs"] == pytest.approx(4.0, rel=1e-10)
    assert abs(rec["slack"]) <= 1e-9


def test_alternating_matches_closed_form_at_d1():
    rng = np.random.default_rng(15)
    pair = d1_scalar_pair(rng, 5)
    alt = norm_lower_alternating(pair).value
    assert alt == pytest.approx(scalar_phi(pair), rel=1e-9)


def test_witness_defect_replays_the_ascent():
    rng = np.random.default_rng(19)
    pair = gaussian_pair(rng, 4, 3)
    est = norm_lower_alternating(pair)
    assert witness_defect(pair, est) <= 1e-12
    # an inflated value, a long vector or a mask outside the disc is caught
    assert witness_defect(pair, replace(est, value=est.value * (1 + 1e-9))) \
        >= 0.5e-9
    assert witness_defect(pair, replace(est, witness_u=2 * est.witness_u)) \
        >= 1.0
    with pytest.raises(ValueError):
        witness_defect(pair, replace(est, witness_mask=1.5 * est.witness_mask))


def test_end_to_end_check_requires_reproducing_pair():
    rng = np.random.default_rng(16)
    with pytest.raises(ValueError):
        end_to_end_rescale_check(gaussian_pair(rng, 4, 2))
    rec = end_to_end_rescale_check(canonical_dual_pair(rng, 4, 2))
    assert rec["x_lower"] > 1e-10 and rec["y_lower"] > 1e-10
    assert rec["x_upper"] <= rec["m_upper"] + 1e-8
    assert rec["y_upper"] <= rec["m_upper"] + 1e-8
    # real positive scalars cancel between the families, so the scaled
    # pair reproduces the identity to the same precision as the input
    assert rec["scaled_identity_deviation"] <= 1e-8


def test_end_to_end_canonical_dual_stays_in_envelope():
    # for a canonical dual the constant shift t = c already balances the
    # two objectives at sqrt(B/A), so the optimizer can only do better
    rng = np.random.default_rng(17)
    pair = canonical_dual_pair(rng, 6, 3)
    bx = bessel_and_frame_bounds(pair.xs)
    envelope = np.sqrt(bx.upper / bx.lower)
    rec = end_to_end_rescale_check(pair)
    assert rec["m_upper"] <= envelope * (1.0 + 1e-6)


@pytest.mark.parametrize("spoil, message", [
    (lambda s: replace(s, bounds_y=s.bounds_y._replace(is_frame=False)),
     "lost the lower frame bound"),
    (lambda s: replace(s, m_upper=0.99 * s.m_upper),
     "exceeds the certified upper bound"),
    (lambda s: replace(s, scaled=FramePair(2.0 * s.scaled.xs, s.scaled.ys)),
     "broke the reproducing identity"),
], ids=["no_frame", "above_the_certified_bound", "identity_broken"])
def test_end_to_end_gates_refuse_a_spoiled_scaling(monkeypatch, spoil, message):
    pair = canonical_dual_pair(np.random.default_rng(16), 4, 2)
    extract_scaling = verify.extract_scaling
    monkeypatch.setattr(verify, "extract_scaling",
                        lambda bracket: spoil(extract_scaling(bracket)))
    with pytest.raises(VerificationError, match=message):
        end_to_end_rescale_check(pair)


def test_ratio_experiment_small_run(monkeypatch):
    monkeypatch.setattr(verify, "RATIO_INSTANCES", 6)
    report = verify.ratio_experiment(seed=3)
    records, summary = report["records"], report["summary"]
    assert len(records) == summary["instances"] == 6
    assert summary["max_ratio"] <= 2.1
    assert all(r["m_lower"] <= r["m_upper"] + 1e-8 for r in records)
    for r in records:
        assert r["ratio"] == r["m_upper"] / r["phi_norm"] >= 1.0 - 1e-12
        assert r["phi_gap"] == (r["m_upper"] - r["phi_norm"]) / r["m_upper"]
        assert r["witness_defect"] <= 1e-12
    assert summary["pinned"] == sum(r["phi_gap"] <= 1e-9 for r in records)


def test_ratio_experiment_beyond_the_old_grid_shapes():
    # the ratio suite draws n <= 5 and d <= 3; the certificate and the
    # witness replay hold on larger mangled pairs too
    rng = np.random.default_rng(np.random.SeedSequence([1, 2024]))
    for n in (6, 7, 8):
        pair = mangle(gaussian_pair(rng, n, 4), mangling_scalars(rng, n))
        bracket = optimize(pair)
        phi = phi_lower(bracket)
        assert 1.0 - 1e-12 <= bracket.m_upper / phi.value <= 2.1
        assert witness_defect(pair, phi) <= 1e-12


def _spoil(name, wrap, module=verify):
    """A provocation: module.name replaced by wrap(its current value)."""
    def apply(monkeypatch):
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    return apply


def _inflated(optimize):
    """optimize with f and g, so m_upper, 1 % high."""
    def run(pair):
        br = optimize(pair)
        return replace(br, f=1.01 * br.f, g=1.01 * br.g)
    return run


def _ramped(optimize):
    """optimize with a log-weight ramp of spread 1e-3 added."""
    def run(pair):
        br = optimize(pair)
        return replace(br, log_weights=br.log_weights
                       + np.linspace(0.0, 1e-3, pair.n))
    return run


def _nan_upper(optimize):
    """optimize with m_upper read as NaN, on a stand-in for the bracket,
    since a CbBracket refuses a non-finite end."""
    def run(pair):
        return SimpleNamespace(m_upper=np.nan,
                               log_weights=optimize(pair).log_weights)
    return run


def _nan_after_first(f):
    """f, but NaN from its second call on."""
    calls = itertools.count()
    return lambda *args: f(*args) if next(calls) == 0 else np.nan


def _nan_entry(index):
    """A wrap of a function that returns a tuple: entry index read as NaN."""
    def wrap(f):
        def run(*args):
            out = list(f(*args))
            out[index] = np.nan
            return tuple(out)
        return run
    return wrap


def _nan_value(f):
    """f with the value of the estimate it returns read as NaN."""
    return lambda *args: replace(f(*args), value=np.nan)


@pytest.mark.parametrize("suite, provoke, message", [
    ("ratio", _spoil("witness_defect", lambda _: lambda pair, est: 1.0),
     "phi's witness fails to replay"),
    ("ratio", _spoil("witness_defect", lambda _: lambda pair, est: np.nan),
     "phi's witness fails to replay"),
    ("ratio", _spoil("phi_lower", _nan_value),
     "phi's witness fails to replay"),
    ("ratio", _spoil("EXPERIMENT_CUSHION", lambda _: -0.6),
     r"ratio \S+ above 0\.80"),
    ("khintchine", _spoil("KHINTCHINE_FACTOR", lambda c: c * (1.0 - 1e-9)),
     "equality case drifted"),
    ("khintchine", _spoil("khintchine_check",
                          lambda f: lambda a: {**f(a), "ratio": np.nan}),
     "equality case drifted"),
    ("dilation", _spoil("ISOMETRY_TOL", lambda _: 0.0, rescale),
     "isometry defect"),
    ("dilation", _spoil("dilation_reconstruct",
                        lambda f: lambda dil, a: f(dil, a) * (1.0 + 1e-9)),
     "reconstruction error"),
    ("end_to_end", _spoil("identity_deviation", _nan_after_first),
     "broke the reproducing identity"),
    ("d1", _spoil("optimize", _inflated), "scalar bound off"),
    ("d1", _spoil("optimize", _nan_upper), "scalar bound off"),
    ("d1", _spoil("optimize", _ramped), "scalar weights off"),
    ("d1", _spoil("optimize", lambda f: lambda pair: replace(
        f(pair), log_weights=np.full(pair.n, np.nan))), "scalar weights off"),
    ("invariance", _spoil("haar_unitary",
                          lambda f: lambda rng, d: 2.0 * f(rng, d)),
     "image drift"),
    ("invariance", _spoil("optimize", _nan_upper), "image drift"),
    ("invariance", _spoil("pair_operator", lambda f: lambda pair: f(pair)
                          + 1e-9 * frame_operator(pair.xs)),
     "estimator symmetry drift"),
    ("invariance", _spoil("pair_operator",
                          lambda f: lambda pair: np.nan * f(pair)),
     "estimator symmetry drift"),
    ("invariance", _spoil("norm_lower_alternating", _nan_value),
     "estimator symmetry drift"),
    ("invariance", _spoil("norm_oracle_grid", _nan_value),
     "estimator symmetry drift"),
    ("psi_fd", _spoil("_psi_fd_ratios", _nan_entry(0)), "psi derivatives"),
    ("psi_fd", _spoil("_psi_fd_ratios", _nan_entry(1)), "psi derivatives"),
], ids=["ratio_witness", "ratio_witness_nan", "ratio_phi_nan", "ratio_limit",
        "khintchine_equality", "khintchine_equality_nan",
        "dilation_isometry", "dilation_reconstruction",
        "end_to_end_identity_nan", "d1_bound", "d1_bound_nan", "d1_weights",
        "d1_weights_nan", "invariance_image", "invariance_image_nan",
        "invariance_estimators", "invariance_pair_operator_nan",
        "invariance_ascent_nan", "invariance_grid_nan", "psi_fd_grad_nan",
        "psi_fd_hess_nan"])
def test_suite_gates_refuse_a_spoiled_run(suite, provoke, message,
                                          monkeypatch):
    # each suite gate fails on a run spoiled through a name its suite
    # looks up at call time, and only then; the runs are cut short
    for name, size in (("RATIO_INSTANCES", 2), ("KHINTCHINE_VECTORS", 24),
                       ("DILATION_INSTANCES", 3), ("END_TO_END_INSTANCES", 1),
                       ("D1_INSTANCES", 5), ("INVARIANCE_INSTANCES", 1),
                       ("PSI_FD_PAIRS", 2)):
        monkeypatch.setattr(verify, name, size)
    run = verify.SUITES[suite]
    run(seed=0)
    provoke(monkeypatch)
    with pytest.raises(VerificationError, match=message):
        run(seed=0)


def test_suite_d1_deterministic():
    a = suite_d1(seed=2)
    b = suite_d1(seed=2)
    assert a["summary"] == b["summary"]
    assert a["records"] == b["records"]


def test_run_suite_dispatch():
    report = run_suite("d1", seed=1)
    assert report["suite"] == "d1"
    assert report["summary"]["wall_s"] > 0.0
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_psi_fd_catches_a_relative_error_of_1e_6_in_the_curvature(monkeypatch):
    # the unpatched suite passes and meets an eigenvalue cluster, some
    # b |dl| <= CLUSTER_BAND, at every sharpness
    assert min(suite_psi_fd(seed=3)["summary"]["cluster_points"]) >= 1
    divided_exp = rescale._divided_exp
    monkeypatch.setattr(rescale, "_divided_exp",
                        lambda *args: divided_exp(*args) * (1.0 + 1e-6))
    with pytest.raises(VerificationError, match="psi derivatives"):
        suite_psi_fd(seed=3)
