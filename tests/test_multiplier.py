"""Masked maps, norm estimators, and amplified maps."""

import numpy as np
import pytest

from framescale import multiplier
from framescale.frames import FramePair
from framescale.instances import (
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
    amplified_apply,
    amplified_input_norm,
    apply_mask,
    assemble_block,
    check_amplified,
    check_mask,
    mask_matrix,
    norm_lower_alternating,
    norm_oracle_grid,
    phi_lower,
    _certify,
    _extrapolate,
    _grid_rows,
    _gram_top_norm,
    _hermitian_rows,
    _offset_weights,
)
from framescale.rescale import optimize
from framescale.verify import witness_defect


def test_apply_matches_mask_matrix():
    rng = np.random.default_rng(50)
    pair = gaussian_pair(rng, 5, 3)
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, size=5) * np.exp(2j * np.pi * rng.uniform(size=5))
        u = random_complex(rng, 3)
        direct = apply_mask(pair, a, u)
        via_matrix = mask_matrix(pair, a) @ u
        assert np.linalg.norm(direct - via_matrix) <= 1e-12 * (
            1.0 + np.linalg.norm(direct))


def test_mask_validation():
    rng = np.random.default_rng(51)
    pair = gaussian_pair(rng, 3, 2)
    with pytest.raises(ValueError):
        check_mask(np.array([1.0, 1.0]), 3)
    with pytest.raises(ValueError):
        check_mask(np.array([1.0, 2.0, 0.0]), 3)
    with pytest.raises(ValueError):
        apply_mask(pair, np.array([1.0, np.nan, 0.0]), np.zeros(2) + 1.0)
    # one mask at a time: a stack of masks is refused
    with pytest.raises(ValueError, match="does not match"):
        check_mask(np.ones((2, 3)), 3)


def test_stacked_mask_validation_checks_every_row():
    # check_mask takes one mask; a stack is checked row by row, and a bad
    # entry is caught in whichever row it sits
    rng = np.random.default_rng(71)
    masks = np.exp(2j * np.pi * rng.uniform(size=(5, 3)))
    for row in masks:
        assert np.array_equal(check_mask(row, 3), row)
    with pytest.raises(ValueError, match="does not match"):
        check_mask(masks, 3)
    with pytest.raises(ValueError, match="does not match"):
        check_mask(masks[0], 4)
    outside = masks.copy()
    outside[3, 1] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="unit disc"):
        check_mask(outside[3], 3)
    for bad in (np.nan, np.inf):
        broken = masks.copy()
        broken[2, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            check_mask(broken[2], 3)


def test_mask_norm_bounded_by_sum_of_rank_one_norms():
    rng = np.random.default_rng(52)
    pair = gaussian_pair(rng, 5, 3)
    budget = float(np.sum(np.linalg.norm(pair.xs, axis=1)
                          * np.linalg.norm(pair.ys, axis=1)))
    for _ in range(20):
        eps = np.exp(2j * np.pi * rng.uniform(size=5))
        sigma = np.linalg.svd(mask_matrix(pair, eps), compute_uv=False)[0]
        assert sigma <= budget + 1e-10


def test_alternating_on_orthonormal_basis_pair():
    rng = np.random.default_rng(53)
    u = haar_unitary(rng, 3)
    pair = FramePair(u.T, u.T)
    est = norm_lower_alternating(pair)
    assert abs(est.value - 1.0) <= 1e-9


def test_alternating_on_scalar_pair_sums_magnitudes():
    pair = FramePair(np.array([[1.0], [1.0]], dtype=complex),
                     np.array([[1.0], [1.0]], dtype=complex))
    est = norm_lower_alternating(pair)
    assert abs(est.value - 2.0) <= 1e-10


def test_alternating_certificate_replays():
    rng = np.random.default_rng(54)
    pair = gaussian_pair(rng, 4, 2)
    est = norm_lower_alternating(pair)
    terms = est.witness_mask * (pair.ys.conj() @ est.witness_u) * (
        pair.xs @ est.witness_v.conj())
    assert abs(est.value - float(np.real(np.sum(terms)))) <= 1e-10 * (1.0 + est.value)
    assert abs(np.linalg.norm(est.witness_u) - 1.0) <= 1e-9
    assert abs(np.linalg.norm(est.witness_v) - 1.0) <= 1e-9
    assert np.max(np.abs(est.witness_mask)) <= 1.0 + 1e-12


def _sequential_ascent(pair, eps, max_iters=300, tol=1e-12):
    """One mask matrix and one SVD per step, from the mask eps: the value
    and the number of steps."""
    prev = -np.inf
    for steps in range(1, max_iters + 1):
        _, left, right = top_singular_triplet(mask_matrix(pair, eps))
        terms = (pair.ys.conj() @ right) * (pair.xs @ left.conj())
        mags = np.abs(terms)
        aligned = float(np.sum(mags))
        live = mags > 0.0
        eps = np.where(live, np.conj(terms) / np.where(live, mags, 1.0), eps)
        if aligned - prev <= tol * aligned:
            break
        prev = aligned
    return float(np.real(np.sum(eps * terms))), steps


def test_alternating_matches_sequential_reference():
    # the extrapolated ascent may end nearer the fixed point than the plain
    # one's stop, so it may read above the reference, never above the
    # certified upper bound: phi <= ||Phi||_cb <= m_upper
    rng = np.random.default_rng(72)
    for _ in range(60):
        pair = gaussian_pair(rng, int(rng.integers(1, 7)),
                             int(rng.integers(1, 5)))
        m_upper = optimize(pair).m_upper
        for start in (None, np.exp(2j * np.pi * rng.uniform(size=pair.n))):
            eps = np.ones(pair.n, dtype=complex) if start is None else start
            est = norm_lower_alternating(pair, start=start)
            ref, _ = _sequential_ascent(pair, eps)
            assert est.value >= ref * (1.0 - 1e-12)
            assert est.value <= m_upper * (1.0 + 1e-12)
            assert est.iterations >= 1


def test_alternating_extrapolation_saves_steps():
    # holds the 40 x 3 seed-5 pair on which an ungated step fell 5.7e-4
    ours = plain = 0
    for seed in range(6):
        for n, d in ((5, 2), (5, 3), (40, 3)):
            pair = generate("gaussian", np.random.default_rng([seed, n, d]), n, d)
            est = norm_lower_alternating(pair)
            ref, steps = _sequential_ascent(pair, np.ones(n, dtype=complex))
            assert est.value >= ref * (1.0 - 1e-12)
            assert 0 <= est.extrapolations < est.iterations
            ours += est.iterations
            plain += steps
    assert ours <= 0.75 * plain


def test_alternating_counts_trial_steps_against_the_cap(monkeypatch):
    pair = generate("gaussian", np.random.default_rng([5, 40, 3]), 40, 3)
    full = norm_lower_alternating(pair)
    assert full.extrapolations > 0
    for cap in range(1, full.iterations + 1):
        monkeypatch.setattr(multiplier, "ASCENT_MAX_ITERS", cap)
        est = norm_lower_alternating(pair)
        assert est.iterations == cap
        assert est.value <= full.value * (1.0 + 1e-12)


def test_alternating_keeps_a_trial_step_only_when_it_rises(monkeypatch):
    # a trial from the all-ones start lands below the tail, so none is
    # kept and the plain steps run as without extrapolation
    pair = generate("gaussian", np.random.default_rng([5, 40, 3]), 40, 3)
    monkeypatch.setattr(multiplier, "ASCENT_EXTRAPOLATION_GATE", 0.0)
    plain = norm_lower_alternating(pair)
    monkeypatch.setattr(multiplier, "ASCENT_EXTRAPOLATION_GATE", 1e-4)
    monkeypatch.setattr(multiplier, "_extrapolate",
                        lambda m0, m1, m2: np.ones(pair.n))
    est = norm_lower_alternating(pair)
    assert est.extrapolations == 0
    assert est.iterations > plain.iterations
    assert est.value == plain.value


def test_alternating_value_is_its_certificate_replayed():
    rng = np.random.default_rng(74)
    for _ in range(10):
        pair = gaussian_pair(rng, int(rng.integers(1, 7)),
                             int(rng.integers(1, 5)))
        start = rng.uniform(size=pair.n) * np.exp(2j * np.pi * rng.uniform(size=pair.n))
        est = norm_lower_alternating(pair, start=start)
        u, v = est.witness_u, est.witness_v
        replay = _certify(pair, est.witness_mask, u, v, "ascent")
        assert replay.value == est.value


def test_alternating_leaves_a_vanishing_mask_matrix():
    # x_k = e1 and y_k = (-1)^k e2: the all-ones mask matrix is 0, so its
    # top singular pair says nothing; the ascent takes the largest term's
    # x_k and y_k instead of stalling at 0, and phi = n
    e1, e2 = np.eye(2, dtype=complex)
    for n in (2, 4, 6):
        pair = FramePair(np.tile(e1, (n, 1)),
                         np.array([(-1) ** k * e2 for k in range(n)]))
        est = norm_lower_alternating(pair)
        assert abs(est.value - n) <= 1e-12 * n, n
        assert est.iterations == 2, n
        assert witness_defect(pair, est) <= 1e-12, n
        # the zero start mask, which lies in the closed disc, too
        zero = norm_lower_alternating(pair, start=np.zeros(n))
        assert abs(zero.value - n) <= 1e-12 * n, n
    pair = FramePair(np.array([e1, -e1]), np.array([e2, e2]))
    assert abs(norm_lower_alternating(pair).value - 2.0) <= 1e-12


def test_extrapolate_refuses_a_null_or_undefined_step():
    # r = 0 (two equal masks) leaves no step; w = 0 (a phase ramp with a
    # constant rise) leaves alpha undefined
    ones = np.ones(3, dtype=complex)
    assert _extrapolate(ones, ones, 1j * ones) is None
    ramp = np.array([1.0, 1j, -1.0])
    assert _extrapolate(ones, ramp, ramp * ramp) is None
    assert _extrapolate(ones, ramp, ramp) is not None


def test_alternating_rejects_start_outside_disc():
    pair = gaussian_pair(np.random.default_rng(75), 3, 2)
    for bad in ([1.0, 1.0 + 1e-9, 0.0], [1.0, np.nan, 1.0], [1.0, 1.0]):
        with pytest.raises(ValueError):
            norm_lower_alternating(pair, start=np.array(bad))


def _gram(mats):
    """M^H M for each matrix M of a (..., d, d) stack."""
    return np.swapaxes(mats.conj(), -1, -2) @ mats


def test_gram_top_norm_matches_the_operator_norm():
    rng = np.random.default_rng(55)
    for d in (1, 2, 3, 4, 5):
        u, w = haar_unitary(rng, d), haar_unitary(rng, d)
        spread = np.ones(d)
        spread[0] = 2.0
        mats = np.concatenate([
            random_complex(rng, 40, d, d),
            np.zeros((1, d, d), dtype=complex),
            np.einsum("bi,bj->bij", random_complex(rng, 5, d),
                      random_complex(rng, 5, d).conj()),
            np.stack([3.0 * u, (u * spread) @ w, (u * spread[::-1]) @ w]),
        ])
        mine = _gram_top_norm(_hermitian_rows(_gram(mats)).T)
        oracle = np.array([np.linalg.norm(m, 2) for m in mats])
        assert np.all(np.abs(mine - oracle) <= 1e-12 * oracle)


def _swept_masks(n, steps):
    """Every grid mask in sweep order: coordinate 0 pinned, 1 fastest."""
    phases = np.exp(2j * np.pi * np.arange(steps) / steps)
    idx = np.arange(steps ** (n - 1))
    eps = np.ones((idx.size, n), dtype=complex)
    for pos in range(1, n):
        idx, dig = np.divmod(idx, steps)
        eps[:, pos] = phases[dig]
    return eps


def _assert_grid_matches(pair, steps, norms):
    masks = _swept_masks(pair.n, steps)
    best = int(np.argmax(norms))
    est = norm_oracle_grid(pair, phase_steps=steps)
    assert np.array_equal(est.witness_mask, masks[best])
    assert abs(est.value - norms[best]) <= 1e-12 * norms[best]


def test_grid_oracle_matches_brute_force():
    rng = np.random.default_rng(68)
    for n in (1, 2, 3, 4):
        for d in (1, 2, 3, 4):
            pair = gaussian_pair(rng, n, d)
            norms = [np.linalg.norm(mask_matrix(pair, eps), 2)
                     for eps in _swept_masks(n, 8)]
            _assert_grid_matches(pair, 8, np.array(norms))


def test_grid_oracle_edge_sizes():
    rng = np.random.default_rng(69)
    one = gaussian_pair(rng, 1, 3)
    est = norm_oracle_grid(one, phase_steps=8)
    assert np.array_equal(est.witness_mask, [1.0])
    solo = np.linalg.norm(one.xs[0]) * np.linalg.norm(one.ys[0])
    assert abs(est.value - solo) <= 1e-12 * solo
    # n = 2 fills one block with no outer digits; n = 6 at 16 steps
    # sweeps 16 outer blocks of 16^4 masks
    for n, d, steps in ((2, 3, 48), (6, 2, 16)):
        pair = gaussian_pair(rng, n, d)
        masks = _swept_masks(n, steps)
        norms = np.concatenate([
            np.linalg.svd(np.einsum("bk,ki,kj->bij", chunk, pair.xs,
                                    pair.ys.conj()), compute_uv=False)[:, 0]
            for chunk in np.array_split(masks, max(1, masks.shape[0] >> 16))])
        _assert_grid_matches(pair, steps, norms)


def test_grid_oracle_outer_offsets_match_brute_force(monkeypatch):
    # a block of 8 masks (one fast coordinate) or 64 (two) makes n = 3 to 6
    # at 8 steps sweep from 8 to 4096 outer offsets, so the trace floor
    # rises across many blocks; d >= 3 takes eigvalsh
    rng = np.random.default_rng(72)
    for chunk in (8, 64):
        monkeypatch.setattr(multiplier, "GRID_CHUNK", chunk)
        for n in (3, 4, 5, 6):
            for d in (1, 2, 3, 4, 5):
                pair = gaussian_pair(rng, n, d)
                mats = np.einsum("bk,ki,kj->bij", _swept_masks(n, 8),
                                 pair.xs, pair.ys.conj())
                norms = np.linalg.svd(mats, compute_uv=False)[:, 0]
                _assert_grid_matches(pair, 8, norms)


def test_grid_gram_rows_from_features_match_direct_rows():
    # G(I + O) = G(I) + W_O f for I = sum_c f_c basis[c], f_0 = 1
    rng = np.random.default_rng(73)
    for d in (1, 2, 3, 4, 5):
        basis = random_complex(rng, 5, d, d)
        feats = np.vstack([np.ones(64), rng.uniform(-1.0, 1.0, (4, 64))])
        offsets = random_complex(rng, d, d, 3)
        block = np.einsum("cb,cij->bij", feats, basis)
        base = _hermitian_rows(_gram(block)).T
        weights = _offset_weights(basis, offsets)
        assert weights.shape == (3, d * d, 5)
        for o in range(3):
            direct = _hermitian_rows(_gram(block + offsets[:, :, o])).T
            formed = weights[o] @ feats + base
            assert np.max(np.abs(formed - direct)) <= 1e-13 * np.max(np.abs(direct))


def _row_forms(pair, steps):
    """Each row's (A, B, C) at each offset, (P, 3, d*d, R), from _grid_rows."""
    phases, feats, triple, weights = _grid_rows(pair, steps)
    c = feats.shape[0]
    return np.stack([np.stack([w[:, :c] @ feats + triple[0],
                               triple[1] + w[:, c, None],
                               triple[2] + w[:, c + 1, None]])
                     for w in weights])


def _block_rows(pair, steps):
    """Every mask's Gram rows from the row forms, block by block."""
    d = pair.dim
    run = steps if pair.n > 1 else 1
    phases = np.exp(2j * np.pi * np.arange(run) / steps)
    return [(a[:, :, None] + b[:, :, None] * phases.real
             + c[:, :, None] * phases.imag).reshape(d * d, -1)
            for a, b, c in _row_forms(pair, steps)]


def test_grid_factor_rows_match_direct_rows_at_every_offset(monkeypatch):
    # n = fast + 2 leaves one outer digit, so every one of the 8 offsets
    # adds to the rows' forms
    rng = np.random.default_rng(74)
    for fast in (1, 2, 3):
        monkeypatch.setattr(multiplier, "GRID_CHUNK", 8 ** fast)
        for d in (1, 2, 3, 4, 5):
            pair = gaussian_pair(rng, fast + 2, d)
            blocks = _block_rows(pair, 8)
            assert len(blocks) == 8 and blocks[0].shape == (d * d, 8 ** fast)
            formed = np.concatenate(blocks, axis=1)
            mats = np.stack([mask_matrix(pair, eps)
                             for eps in _swept_masks(fast + 2, 8)])
            mats *= pair.unit  # the tables are read off pair.balanced
            direct = _hermitian_rows(_gram(mats)).T
            assert np.max(np.abs(formed - direct)) <= 1e-13 * np.max(np.abs(direct))


def test_grid_row_features_are_the_row_digits(monkeypatch):
    # row r holds coordinates 2..fast at the digits of r, coordinate 2
    # fastest; its features are 1 and the cosine and sine of each
    rng = np.random.default_rng(75)
    for steps in (8, 12):
        phases = np.exp(2j * np.pi * np.arange(steps) / steps)
        for fast in (1, 2, 3):
            monkeypatch.setattr(multiplier, "GRID_CHUNK", steps ** fast)
            feats = _grid_rows(gaussian_pair(rng, fast + 1, 2), steps)[1]
            assert feats.shape == (2 * fast - 1, steps ** (fast - 1))
            assert np.array_equal(feats[0], np.ones(feats.shape[1]))
            rem = np.arange(feats.shape[1])
            for k in range(fast - 1):
                rem, dig = np.divmod(rem, steps)
                assert np.array_equal(feats[1 + 2 * k], phases.real[dig])
                assert np.array_equal(feats[2 + 2 * k], phases.imag[dig])


def test_grid_row_bounds_bound_every_mask_of_their_row():
    # the trace bound alpha + hypot(beta, gamma) and the eigenvalue bound
    # hold for every phase of coordinate 1, at any scale of the pair
    rng = np.random.default_rng(80)
    for d in (1, 2, 3, 4, 5):
        pair = gaussian_pair(rng, 4, d)
        for c in (1.0, 1e150, 1e-150):
            scaled = FramePair(c * pair.xs, pair.ys)
            forms = _row_forms(scaled, 8)
            tops = np.stack([_gram_top_norm(rows) ** 2
                             for rows in _block_rows(scaled, 8)])
            tops = tops.reshape(len(forms), -1, 8).max(axis=2)
            for (a, b, cc), top in zip(forms, tops):
                alpha, beta, gamma = (f[:d].sum(axis=0) for f in (a, b, cc))
                trace = alpha + np.hypot(beta, gamma)
                eigen = multiplier._row_bound(np.stack([a, b, cc]), trace, d)
                assert np.all(top <= trace * (1.0 + 1e-12))
                assert np.all(top <= eigen * (1.0 + 1e-12))
            est = norm_oracle_grid(scaled, 8)
            assert est.rows_kept >= 1 and est.masks_evaluated >= 2


def _unpruned_witness(pair, steps):
    """The first maximiser of the full sweep over the row forms' rows."""
    vals = np.concatenate([_gram_top_norm(rows) for rows in _block_rows(pair, steps)])
    return _swept_masks(pair.n, steps)[int(np.argmax(vals))]


def test_grid_row_bound_and_eigenvalue_bound_keep_the_first_maximiser(monkeypatch):
    # the row bound prunes whole rows and, at d >= 3, the deviation
    # bound prunes kept masks before eigvalsh; neither may drop the
    # full sweep's first maximiser, at any scale (the ties are in
    # test_grid_oracle_keeps_exact_ties)
    rng = np.random.default_rng(76)
    for chunk in (64, multiplier.GRID_CHUNK):
        monkeypatch.setattr(multiplier, "GRID_CHUNK", chunk)
        for d in (1, 2, 3, 4, 5):
            pair = gaussian_pair(rng, 4, d)
            want = _unpruned_witness(pair, 8)
            for c in (1.0, 1e150, 1e-150):
                scaled = FramePair(c * pair.xs, pair.ys)
                est = norm_oracle_grid(scaled, phase_steps=8)
                assert np.array_equal(est.witness_mask, want)


def test_grid_computes_one_seed_norm(monkeypatch):
    # n = 3 at 8 steps is one block, so the sweep makes one _gram_top_norm
    # call; the floor's seed is one more, the largest-trace mask of the
    # row with the largest trace bound
    calls = []
    top_norm = multiplier._gram_top_norm

    def spy(rows):
        calls.append(rows.shape[1])
        return top_norm(rows)

    monkeypatch.setattr(multiplier, "_gram_top_norm", spy)
    rng = np.random.default_rng(79)
    for d in (1, 2, 3, 4):
        calls.clear()
        norm_oracle_grid(gaussian_pair(rng, 3, d), 8)
        assert len(calls) == 2 and calls[0] == 1, (d, calls)


def test_grid_oracle_keeps_exact_ties(monkeypatch):
    # y_k = x_k orthonormal: every mask matrix is unitary, so every mask
    # ties at norm 1 and the trace floor skips none of them.  In a rotated
    # basis the norms tie only to rounding; the row bound, the trace and
    # (d >= 3) the deviation bound keep every tied mask, so the first
    # maximiser is the full sweep's.  Blocks of 8 masks (one row) or 64
    # (eight rows) spread the ties over many spans and outer offsets,
    # each offset against the floor so far
    rng = np.random.default_rng(77)
    for chunk, eyes, rotated in (
            (multiplier.GRID_CHUNK, ((4, 8), (4, 16)),
             ((2, 8), (3, 8), (4, 8), (4, 16), (5, 8))),
            (8, ((3, 8), (3, 16), (4, 8), (4, 16), (5, 8)),
             ((4, 8), (4, 8), (4, 16), (5, 8), (5, 8))),
            (64, ((3, 8), (3, 16), (4, 8), (4, 16), (5, 8)),
             ((4, 8), (4, 8), (4, 16), (5, 8), (5, 8)))):
        monkeypatch.setattr(multiplier, "GRID_CHUNK", chunk)
        for n, steps in eyes:
            eye = np.eye(n, dtype=complex)
            est = norm_oracle_grid(FramePair(eye, eye), phase_steps=steps)
            assert np.array_equal(est.witness_mask, np.ones(n)), (chunk, n, steps)
            assert est.value == 1.0, (chunk, n, steps)
        for d, steps in rotated:
            x = haar_unitary(rng, d).T
            pair = FramePair(x, x)
            est = norm_oracle_grid(pair, phase_steps=steps)
            assert np.array_equal(est.witness_mask, _unpruned_witness(
                pair, steps)), (chunk, d, steps)


def test_grid_trace_floor_skips_most_masks(monkeypatch):
    kept = []
    top_norm = multiplier._gram_top_norm

    def spy(rows):
        kept.append(rows.shape[1])
        return top_norm(rows)

    def swept(pair, steps):
        # masks sent to _gram_top_norm, which the estimate counts exactly
        kept.clear()
        est = norm_oracle_grid(pair, steps)
        assert est.masks_evaluated == sum(kept)
        return est

    monkeypatch.setattr(multiplier, "_gram_top_norm", spy)
    # seeded from the row with the largest trace bound, this pair sends 6
    # masks to _gram_top_norm
    pair = gaussian_pair(np.random.default_rng(0), 5, 3)
    est = swept(pair, 32)
    assert sum(kept) <= 0.001 * 32 ** 4
    # at d = 4 the row bounds send 1.8 % of this grid on to eigvalsh
    swept(gaussian_pair(np.random.default_rng(0), 5, 4), 32)
    assert sum(kept) <= 0.03 * 32 ** 4
    # at d = 3 the trace alone keeps 12.0 % of this grid; the row bounds
    # and the mask bound send 0.12 % on to eigvalsh
    swept(gaussian_pair(np.random.default_rng(1), 5, 3), 32)
    assert sum(kept) <= 0.002 * 32 ** 4
    # with blocks of 8 masks, one row each, the floor must rise with the
    # best norm: it keeps 2.2 % of this grid
    monkeypatch.setattr(multiplier, "GRID_CHUNK", 8)
    swept(gaussian_pair(np.random.default_rng(0), 6, 2), 8)
    assert sum(kept) <= 0.03 * 8 ** 5
    monkeypatch.undo()
    assert np.array_equal(est.witness_mask, _unpruned_witness(pair, 32))


def test_gram_top_norm_clamps_rounding_below_zero():
    # a GEMM-formed Gram row of a zero matrix may read a rounding below 0
    for d in (1, 2, 3, 4):
        rows = np.zeros((d * d, 2))
        rows[:d, 0] = -1e-17
        rows[:d, 1] = 1.0
        assert np.array_equal(_gram_top_norm(rows), [0.0, 1.0])


def test_grid_oracle_is_scale_equivariant_without_overflow():
    rng = np.random.default_rng(70)
    # d = 1 and 4 come last so d = 2 and 3 keep their original draws
    for d in (2, 3, 1, 4):
        pair = gaussian_pair(rng, 4, d)
        base = norm_oracle_grid(pair, phase_steps=16)
        for c in (1e60, 1e100, 1e150):
            est = norm_oracle_grid(FramePair(c * pair.xs, pair.ys),
                                   phase_steps=16)
            assert np.array_equal(est.witness_mask, base.witness_mask)
            assert abs(est.value / c - base.value) <= 1e-12 * base.value
    # powers of two that leave the pair's terms near the bottom of the
    # float range: every route certifies on pair.balanced, so each
    # witness replays to its value
    pair = generate("gaussian", np.random.default_rng(3), 5, 3)
    for a, b in ((1000, -1000), (500, -1060), (400, -1070)):
        scaled = FramePair(pair.xs * 2.0 ** a, pair.ys * 2.0 ** b)
        for est in (norm_oracle_grid(scaled, phase_steps=16),
                    norm_lower_alternating(scaled),
                    phi_lower(optimize(scaled))):
            assert witness_defect(scaled, est) <= 1e-12, (a, b, est.method)


def test_grid_oracle_on_scalar_pair():
    # the best mask aligns both terms, so the norm is |x1 y1| + |x2 y2|
    pair = FramePair(np.array([[2.0], [1.0]], dtype=complex),
                     np.array([[0.5], [-3.0]], dtype=complex))
    est = norm_oracle_grid(pair, phase_steps=48)
    assert abs(est.value - 4.0) <= 1e-9


def test_grid_oracle_cross_validates_alternating():
    rng = np.random.default_rng(56)
    for _ in range(5):
        pair = gaussian_pair(rng, 2, 2)
        grid = norm_oracle_grid(pair, phase_steps=48)
        alt = norm_lower_alternating(pair)
        assert abs(grid.value - alt.value) <= 1e-3 * alt.value
        # finer grids only increase the certified value
        coarse = norm_oracle_grid(pair, phase_steps=12)
        assert coarse.value <= alt.value * (1.0 + 1e-9)


def test_grid_over_cos_bounds_phi_from_above():
    # the regular s-gon of phases contains the disc of radius cos(pi/s),
    # and the mask norm is convex and homogeneous, so phi <= grid /
    # cos(pi/s); phi_lower's value lies above the bare grid on most of
    # these pairs, so the cos factor is needed
    rng = np.random.default_rng(28)
    above = 0
    for kind, n, d in (("gaussian", 3, 2), ("gaussian", 5, 3),
                       ("gaussian", 4, 1), ("schauder_mangled", 4, 2),
                       ("schauder_mangled", 5, 3), ("onb_union", 4, 2),
                       ("onb_union", 3, 1)):
        pair = generate(kind, rng, n, d)
        phi = phi_lower(optimize(pair)).value
        for s in (8, 12, 16):
            grid = norm_oracle_grid(pair, s).value
            assert phi <= grid / np.cos(np.pi / s) * (1.0 + 1e-12), (kind, s)
            above += phi > grid
    assert above >= 1


def test_grid_oracle_rejects_large_n():
    rng = np.random.default_rng(57)
    with pytest.raises(ValueError):
        norm_oracle_grid(gaussian_pair(rng, 7, 2))
    with pytest.raises(ValueError):
        norm_oracle_grid(gaussian_pair(rng, 3, 2), phase_steps=4)


def test_bilinear_budget_bounded_by_norm_on_exact_instances():
    # for any units u, v: sum_k |<u,y_k>| |<v,x_k>| stays below the norm
    rng = np.random.default_rng(58)
    pair = gaussian_pair(rng, 3, 2)
    bound = norm_oracle_grid(pair, phase_steps=96).value
    for _ in range(50):
        u = random_complex(rng, 2)
        v = random_complex(rng, 2)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        total = float(np.sum(np.abs(pair.ys.conj() @ u) * np.abs(pair.xs @ v.conj())))
        assert total <= bound * (1.0 + 1e-6)


def test_amplified_apply_matches_block_matrix():
    rng = np.random.default_rng(59)
    pair = gaussian_pair(rng, 4, 3)
    for m in (1, 2, 3):
        mats = random_complex(rng, 4, m, m)
        us = random_complex(rng, m, 3)
        out = amplified_apply(pair, mats, us)
        block = assemble_block(pair, mats)
        stacked = (block @ us.reshape(-1)).reshape(m, 3)
        assert np.max(np.abs(out - stacked)) <= 1e-12 * (1.0 + np.max(np.abs(out)))


def test_amplified_order_one_reduces_to_scalar_mask():
    rng = np.random.default_rng(60)
    pair = gaussian_pair(rng, 4, 2)
    eps = np.exp(2j * np.pi * rng.uniform(size=4))
    mats = eps.reshape(4, 1, 1)
    u = random_complex(rng, 2)
    out = amplified_apply(pair, mats, u.reshape(1, 2))
    assert np.linalg.norm(out[0] - apply_mask(pair, eps, u)) <= 1e-12


def test_amplified_input_norm():
    rng = np.random.default_rng(61)
    mats = np.stack([haar_unitary(rng, 3), 0.5 * haar_unitary(rng, 3)])
    assert abs(amplified_input_norm(mats) - 1.0) <= 1e-10
    for c in (1e-200, 1e200):
        assert abs(amplified_input_norm(c * mats) / c - 1.0) <= 1e-10


def test_masked_and_amplified_maps_refuse_bad_input():
    pair = gaussian_pair(np.random.default_rng(61), 3, 2)
    with pytest.raises(ValueError, match=r"u has shape \(3,\), expected \(2,\)"):
        apply_mask(pair, np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="amplification order m must be >= 1"):
        check_amplified(np.zeros((3, 0, 0)), 3)
    mats = np.ones((3, 2, 2), dtype=complex)
    mats[1, 0, 1] = np.inf
    with pytest.raises(ValueError, match="coefficients have non-finite"):
        check_amplified(mats, 3)
    us = np.ones((2, 2), dtype=complex)
    us[1, 1] = np.nan
    with pytest.raises(ValueError, match="us has non-finite entries"):
        amplified_apply(pair, np.ones((3, 2, 2)), us)


def test_amplified_input_norm_validates_before_use():
    mats = [[[1.0, 2.0], [3.0, 4.0]], [[0.5, 0.0], [0.0, 0.5]]]
    assert amplified_input_norm(mats) == amplified_input_norm(np.array(mats))
    for bad in (1.0, [[1.0, 2.0], [3.0, 4.0]], [[[1.0, 2.0], [3.0]]],
                np.ones((2, 2, 3))):
        with pytest.raises(ValueError):
            amplified_input_norm(bad)


def test_norm_estimates_invariant_under_diagonal_reparameterization():
    rng = np.random.default_rng(65)
    pair = gaussian_pair(rng, 3, 2)
    scaled = mangle(pair, mangling_scalars(rng, 3, (1e-2, 1e2)))
    a = norm_lower_alternating(pair)
    b = norm_lower_alternating(scaled)
    assert abs(a.value - b.value) <= 1e-9 * a.value
    ga = norm_oracle_grid(pair, phase_steps=24)
    gb = norm_oracle_grid(scaled, phase_steps=24)
    assert abs(ga.value - gb.value) <= 1e-9 * ga.value


def test_norm_estimates_invariant_under_common_unitary():
    rng = np.random.default_rng(66)
    pair = gaussian_pair(rng, 3, 2)
    u = haar_unitary(rng, 2)
    rotated = FramePair(pair.xs @ u.T, pair.ys @ u.T)
    a = norm_lower_alternating(pair)
    b = norm_lower_alternating(rotated)
    assert abs(a.value - b.value) <= 1e-9 * a.value
