"""Acceptance gate: one test per published criterion, stated tolerances.

Each test prints a single summary line; run with -v to see one
pass/fail line per criterion.  The experiment suites raise with a full
failure record if any single instance breaks its bound, so a failing
criterion reports the exact instance that broke it.
"""

import time

import numpy as np
import pytest

from framescale.instances import generate
from framescale.linalg import top_singular_triplet
from framescale.multiplier import (
    amplified_input_norm,
    assemble_block,
    norm_lower_alternating,
)
from framescale.rescale import optimize
from framescale.verify import (
    ratio_experiment,
    suite_chain,
    suite_d1,
    suite_dilation,
    suite_end_to_end,
    suite_invariance,
    suite_khintchine,
    suite_psi_fd,
    suite_trace,
)

from conftest import dual_coefficients

RATIO_BUDGET_SECONDS = 300.0


def test_criterion_01_certified_bound_within_twice_oracle():
    # the denominator is the ascent each bracket keeps, a certified lower
    # bound on phi; the suite replays each witness and refuses phi above
    # m_upper
    start = time.monotonic()
    report = ratio_experiment(seed=0)
    elapsed = time.monotonic() - start
    summary, records = report["summary"], report["records"]
    assert len(records) == summary["instances"] == 200
    assert summary["max_ratio"] == max(rec["ratio"] for rec in records)
    assert summary["max_ratio"] <= 2.0 * 1.05
    assert summary["pinned"] == sum(rec["phi_gap"] <= 1e-9 for rec in records)
    assert summary["pinned"] >= 198
    for rec in records:
        assert rec["m_lower"] <= rec["m_upper"] + 1e-8
        assert rec["ratio"] == rec["m_upper"] / rec["phi_norm"] >= 1.0 - 1e-12
        assert rec["phi_gap"] == (rec["m_upper"] - rec["phi_norm"]) / rec["m_upper"]
        assert rec["witness_defect"] <= 1e-12
    assert elapsed < RATIO_BUDGET_SECONDS
    print(f"criterion 01 PASS: max ratio {summary['max_ratio']:.4f} over "
          f"{summary['instances']} instances in {elapsed:.1f}s; phi pinned "
          f"to 1e-9 on {summary['pinned']}, largest phi_gap "
          f"{max(rec['phi_gap'] for rec in records):.2e}; ascent starts "
          f"{summary['ascent_starts']}")


def test_criterion_02_first_moment_constant():
    report = suite_khintchine(seed=0)
    summary = report["summary"]
    assert summary["checks"] == 1008  # 84 vectors at each m of 1 ... 12
    assert summary["worst_ratio"] >= 1.0 - 1e-12
    assert abs(summary["equality_ratio"] - 1.0) <= 1e-12
    print(f"criterion 02 PASS: worst ratio {summary['worst_ratio']:.6f} "
          f"over {summary['checks']} vectors, equality case exact")


def test_criterion_03_rank_one_trace_norm():
    report = suite_trace(seed=0)
    summary = report["summary"]
    assert summary["checks"] == 1050  # 1000 rank-one pairs, 50 dualities
    assert summary["worst_relative_error"] <= 1e-10
    print(f"criterion 03 PASS: worst relative error "
          f"{summary['worst_relative_error']:.2e} over 1000 pairs")


def test_criterion_04_block_estimate_chain():
    report = suite_chain(seed=0)
    summary = report["summary"]
    assert summary["checks"] == 65  # 5 block checks on 7 pairs, 30 pairings
    assert summary["worst_relative_slack"] >= -1e-9
    print(f"criterion 04 PASS: worst relative slack "
          f"{summary['worst_relative_slack']:.2e} across "
          f"{summary['checks']} chained checks")


def test_criterion_05_dilation_reconstruction():
    report = suite_dilation(seed=0)
    summary = report["summary"]
    assert summary["instances"] == 100
    assert summary["worst_isometry_defect"] <= 1e-10
    assert summary["worst_reconstruction_error"] <= 1e-10
    print(f"criterion 05 PASS: isometry defect "
          f"{summary['worst_isometry_defect']:.2e}, reconstruction error "
          f"{summary['worst_reconstruction_error']:.2e} over 100 instances")


def test_criterion_06_rescaled_families_are_frames():
    report = suite_end_to_end(seed=0)
    summary = report["summary"]
    assert summary["instances"] == 100
    assert summary["min_lower_bound"] > 1e-10
    print(f"criterion 06 PASS: smallest rescaled frame bound "
          f"{summary['min_lower_bound']:.4f} over 100 instances")


def test_criterion_07_scalar_closed_form():
    report = suite_d1(seed=0)
    summary = report["summary"]
    assert summary["instances"] == 100
    assert summary["worst_bound_error"] <= 1e-6
    assert summary["worst_weight_error"] <= 1e-4
    print(f"criterion 07 PASS: bound error {summary['worst_bound_error']:.2e},"
          f" weight error {summary['worst_weight_error']:.2e}")


def test_criterion_08_reparameterization_invariance():
    report = suite_invariance(seed=0)
    summary = report["summary"]
    assert summary["instances"] == 12
    assert summary["worst_diag_drift"] <= 1e-6
    assert summary["worst_unitary_drift"] <= 1e-9
    # relabelling, swapping x and y, and conjugating both families
    for name in ("relabel", "swap", "conjugate"):
        assert summary[f"worst_{name}_drift"] <= 1e-9, name
    assert summary["worst_grid_drift"] <= 1e-9
    # a sub-pair's m_lower stays below the pair's m_upper, and the direct
    # sum's bracket overlaps the larger part's, to rounding
    assert summary["worst_sub_pair_slack"] >= -1e-12
    assert summary["worst_direct_sum_slack"] >= -1e-12
    print(f"criterion 08 PASS: diagonal drift "
          f"{summary['worst_diag_drift']:.2e}, unitary drift "
          f"{summary['worst_unitary_drift']:.2e}, relabel, swap and "
          f"conjugate drifts {summary['worst_relabel_drift']:.2e}, "
          f"{summary['worst_swap_drift']:.2e} and "
          f"{summary['worst_conjugate_drift']:.2e}, alternating drift "
          f"{summary['worst_alternating_drift']:.2e} (limit 1e-6), grid drift "
          f"{summary['worst_grid_drift']:.2e} (limit 1e-9), sub-pair and "
          f"direct-sum slacks {summary['worst_sub_pair_slack']:.2e} and "
          f"{summary['worst_direct_sum_slack']:.2e} (limit -1e-12)")


def test_criterion_09_bracket_ordering():
    rng = np.random.default_rng(17)
    worst_gap = -np.inf
    count = 0
    for kind in ("gaussian", "schauder_mangled", "onb_union", "d1_scalars"):
        for _ in range(6):
            d = int(rng.integers(1, 4))
            n = d * int(rng.integers(1, 3)) if kind == "onb_union" else \
                int(rng.integers(d, 6))
            if kind == "d1_scalars":
                d, n = 1, int(rng.integers(1, 7))
            pair = generate(kind, rng, n, d)
            bracket = optimize(pair)
            assert bracket.m_lower <= bracket.m_upper * (1.0 + 1e-12)
            alt = norm_lower_alternating(pair).value
            assert bracket.m_lower >= alt * (1.0 - 1e-12)
            # replay D's witness: unit coefficients whose block norm sits
            # between the scalar witness and the certified upper bound
            mats = dual_coefficients(pair, bracket.dual_us, bracket.dual_vs)
            assert amplified_input_norm(mats) <= 1.0 + 1e-12
            block, _, _ = top_singular_triplet(assemble_block(pair, mats))
            assert block >= alt * (1.0 - 1e-12)
            assert block <= bracket.m_upper * (1.0 + 1e-12)
            worst_gap = max(worst_gap,
                            (bracket.m_lower - bracket.m_upper) / bracket.m_upper)
            count += 1
    print(f"criterion 09 PASS: bracket ordered and D replayed on {count} "
          f"instances, largest relative lower-minus-upper {worst_gap:.2e}")


def test_criterion_10_psi_derivatives_match_finite_differences():
    # the gradient and Hessian of the smoothed objective that optimize's
    # Newton steps use, at every sharpness it runs
    summary = suite_psi_fd(seed=0)["summary"]
    worst = max(summary["worst_grad_ratio"] + summary["worst_hess_ratio"])
    assert worst <= 100.0
    assert min(summary["cluster_points"]) >= 1
    print(f"criterion 10 PASS: psi's gradient and Hessian within "
          f"{worst:.2f} (eps b_rel)^(2/3) of central differences at "
          f"{summary['points']} points, b_rel 1e2..1e10, eigenvalue "
          f"clusters at {min(summary['cluster_points'])}+ points per b_rel")
