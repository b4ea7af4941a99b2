"""Exhaustive enumeration oracle: frontiers and the two ranking claims.

Everything here runs at the population level (cell masses), so the checks
are exact up to float rounding rather than Monte Carlo estimates.
"""

import bisect
import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from softpu import oracle as oracle_module
from softpu.kernels import sigmoid
from softpu.metrics import roc_spu
from softpu.oracle import (
    MAX_CELLS,
    DiscreteProblem,
    MelaOptimalityReport,
    NoisyGapReport,
    _prefix_sums,
    _rate_fractions,
    _staircase_auc,
    assumption4_violations,
    enumerate_points,
    exhaustive_frontier,
    frontier,
    mask_rates,
    problem_from_json,
    problem_to_json,
    slice_density_bound,
    threshold_masks,
    verify_mela_optimality,
    verify_noisy_gap,
)


def random_problem(rng, m=None, eta_range=(0.02, 0.98)):
    m = m or int(rng.integers(1, 13))
    masses = rng.random(m) + 0.2
    masses /= masses.sum()
    return DiscreteProblem(
        masses=masses,
        eta=rng.uniform(*eta_range, m),
        eta_s=rng.uniform(0.02, 0.98, m),
    )


def logistic_warp(t, gain=5.0):
    lo = sigmoid(np.array(-gain / 2))
    hi = sigmoid(np.array(gain / 2))
    return (sigmoid(gain * (np.asarray(t) - 0.5)) - lo) / (hi - lo)


class TestDiscreteProblem:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DiscreteProblem(np.array([0.5, 0.4]), np.array([0.1, 0.2]), np.array([0.1, 0.2]))
        with pytest.raises(ValueError, match="lie in"):
            DiscreteProblem(np.array([1.0]), np.array([1.5]), np.array([0.5]))

    def test_non_finite_values_named(self):
        for field, index in (("masses", 1), ("eta", 0), ("eta_s", 2)):
            values = {
                "masses": np.full(3, 1 / 3),
                "eta": np.full(3, 0.5),
                "eta_s": np.full(3, 0.5),
            }
            values[field][index] = np.nan
            with pytest.raises(ValueError, match=f"{field} must be finite: index {index} is nan"):
                DiscreteProblem(**values)

    def test_more_than_max_cells_only_limits_enumeration(self):
        m = MAX_CELLS + 1
        rng = np.random.default_rng(14)
        prob = DiscreteProblem(np.full(m, 1 / m), rng.uniform(0.1, 0.9, m), rng.uniform(0.1, 0.9, m))
        with pytest.raises(ValueError, match=r"cell_count 21 too large for 2\^m enumeration \(max 20\)"):
            enumerate_points(prob, "spu")
        with pytest.raises(ValueError, match="too large for 2"):
            exhaustive_frontier(prob, "real")
        front = frontier(prob, "spu")
        assert front.points[0].tolist() == [0.0, 0.0]
        assert front.n_on_frontier == m + 1
        assert verify_noisy_gap(prob, 0.05, 1.0, 4.0).matches

    def test_json_round_trip(self, tmp_path):
        prob = random_problem(np.random.default_rng(0), m=5)
        path = tmp_path / "problem.json"
        problem_to_json(prob, path)
        back = problem_from_json(path)
        np.testing.assert_array_equal(back.masses, prob.masses)
        np.testing.assert_array_equal(back.eta, prob.eta)
        np.testing.assert_array_equal(back.eta_s, prob.eta_s)


    @pytest.mark.parametrize("field", ["masses", "eta", "eta_s"])
    def test_problem_keeps_read_only_copies(self, field):
        given = {
            "masses": np.array([0.25, 0.75]),
            "eta": np.array([0.2, 0.8]),
            "eta_s": np.array([0.3, 0.7]),
        }
        before = given[field].copy()
        prob = DiscreteProblem(**given)
        with pytest.raises(ValueError, match="read-only"):
            getattr(prob, field)[0] = 0.5
        # the caller's array is not the problem's, and stays writable
        assert given[field].flags.writeable
        given[field][0] = 0.5
        assert np.array_equal(getattr(prob, field), before)
        assert np.array_equal(given[field], np.concatenate([[0.5], before[1:]]))

    def test_each_frontier_is_built_once_per_problem(self, monkeypatch):
        built = []
        build = oracle_module._build_frontier
        monkeypatch.setattr(
            oracle_module, "_build_frontier", lambda p, kind: built.append(kind) or build(p, kind)
        )
        prob = DiscreteProblem(np.full(3, 1 / 3), np.array([0.2, 0.5, 0.8]), np.array([0.1, 0.5, 0.9]))
        spu = frontier(prob, "spu")
        assert frontier(prob, "spu") is spu and built == ["spu"]
        verify_mela_optimality(prob)
        verify_noisy_gap(prob, 0.05, 1.0, 4.0)
        assert built == ["spu", "real"]
        with pytest.raises(ValueError, match="read-only"):
            spu.points[0, 0] = 1.0
        # a problem with the same cells builds its own
        frontier(DiscreteProblem(prob.masses, prob.eta, prob.eta_s), "spu")
        assert built == ["spu", "real", "spu"]

    def test_equality_and_hash_are_by_identity(self):
        cells = (np.full(3, 1 / 3), np.array([0.2, 0.5, 0.8]), np.array([0.1, 0.5, 0.9]))
        prob, twin = DiscreteProblem(*cells), DiscreteProblem(*cells)
        assert prob == prob and prob != twin
        assert len({prob, twin, prob}) == 2
        assert {prob: "a"}[prob] == "a"

    @pytest.mark.parametrize("kind", ["both", ["spu"], None])
    def test_bad_kind_is_named(self, kind):
        prob = DiscreteProblem(np.array([1.0]), np.array([0.5]), np.array([0.5]))
        with pytest.raises(ValueError, match="kind must be 'real' or 'spu'"):
            frontier(prob, kind)


class TestEnumeration:
    def test_single_cell_frontier(self):
        prob = DiscreteProblem(np.array([1.0]), np.array([0.5]), np.array([0.4]))
        for kind in ("real", "spu"):
            front = exhaustive_frontier(prob, kind)
            np.testing.assert_array_equal(front.points, [[0.0, 0.0], [1.0, 1.0]])

    def test_mask_rates_match_enumeration(self):
        rng = np.random.default_rng(1)
        prob = random_problem(rng, m=6)
        fprs, tprs = enumerate_points(prob, "spu")
        for mask in (0, 1, 5, 63, 42):
            f, t = mask_rates(prob, "spu", mask)
            assert f == pytest.approx(fprs[mask], abs=1e-12)
            assert t == pytest.approx(tprs[mask], abs=1e-12)

    def test_mask_rates_reject_out_of_range_masks(self):
        prob = random_problem(np.random.default_rng(1), m=3)
        for mask in (-1, 8):
            with pytest.raises(ValueError, match=f"mask {mask} out of range for 3 cells"):
                mask_rates(prob, "real", mask)

    def test_degenerate_eta_requires_both_classes(self):
        prob = DiscreteProblem(np.array([1.0]), np.array([0.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="positive mass is zero"):
            enumerate_points(prob, "real")


class TestFrontier:
    def test_no_classifier_dominates_a_vertex(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            prob = random_problem(rng, m=int(rng.integers(2, 11)))
            kind = "spu" if rng.random() < 0.5 else "real"
            fprs, tprs = enumerate_points(prob, kind)
            front = exhaustive_frontier(prob, kind)
            for fx, fy in front.points:
                dominates = (
                    (fprs <= fx + 1e-15)
                    & (tprs >= fy - 1e-15)
                    & ((fprs < fx - 1e-12) | (tprs > fy + 1e-12))
                )
                assert not dominates.any()

    def test_vertices_monotone_and_concave(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            prob = random_problem(rng, m=10)
            front = exhaustive_frontier(prob, "spu")
            xs, ys = front.points[:, 0], front.points[:, 1]
            assert np.all(np.diff(xs) > 0)
            assert np.all(np.diff(ys) >= 0)
            slopes = np.diff(ys) / np.diff(xs)
            assert np.all(np.diff(slopes) < 1e-9)

    def test_thresholding_conditional_mean_lands_on_frontier(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            prob = random_problem(rng)
            front = exhaustive_frontier(prob, "spu")
            for mask in threshold_masks(prob.eta_s):
                assert front.on_frontier[mask]

    def test_tied_conditionals_grouped(self):
        prob = DiscreteProblem(
            masses=np.array([0.3, 0.3, 0.4]),
            eta=np.array([0.7, 0.7, 0.2]),
            eta_s=np.array([0.6, 0.6, 0.1]),
        )
        masks = threshold_masks(prob.eta_s)
        assert masks == [0, 0b011, 0b111]
        front = exhaustive_frontier(prob, "spu")
        for mask in masks:
            assert front.on_frontier[mask]

    def test_deterministic_labels_reach_perfect_corner(self):
        prob = DiscreteProblem(
            masses=np.array([0.4, 0.6]),
            eta=np.array([1.0, 0.0]),
            eta_s=np.array([0.9, 0.1]),
        )
        front = exhaustive_frontier(prob, "real")
        assert front.points[0].tolist() == [0.0, 1.0]

    def test_agrees_with_sweep_on_exact_finite_sample(self):
        # realize the cell masses exactly with a common denominator and give
        # every sample its cell's conditional soft-label mean: the sweep of
        # the per-cell means must reproduce the frontier point for point
        masses = np.array([0.2, 0.3, 0.1, 0.4])
        eta_s = np.array([0.9, 0.55, 0.3, 0.05])
        prob = DiscreteProblem(masses, np.array([0.8, 0.5, 0.4, 0.1]), eta_s)
        counts = (masses * 20).astype(int)
        soft = np.repeat(eta_s, counts)
        scores = np.repeat(eta_s, counts)
        curve = roc_spu(soft, scores)
        front = exhaustive_frontier(prob, "spu")
        assert len(curve) == front.points.shape[0]
        np.testing.assert_allclose(curve.xs, front.points[:, 0], atol=1e-12)
        np.testing.assert_allclose(curve.ys, front.points[:, 1], atol=1e-12)


class TestMelaOptimality:
    def test_identity_link(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            prob = random_problem(rng, m=8)
            prob = DiscreteProblem(prob.masses, prob.eta, prob.eta.copy())
            report = verify_mela_optimality(prob)
            assert report.passed and report.threshold_family_on_both

    def test_affine_link(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            prob = random_problem(rng, m=8)
            prob = DiscreteProblem(prob.masses, prob.eta, 0.1 + 0.7 * prob.eta)
            report = verify_mela_optimality(prob)
            assert report.passed

    def test_logistic_warp_link(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            prob = random_problem(rng, m=8)
            prob = DiscreteProblem(prob.masses, prob.eta, logistic_warp(prob.eta))
            report = verify_mela_optimality(prob)
            assert report.passed

    def test_strongly_nonlinear_monotone_link(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            prob = random_problem(rng, m=8)
            prob = DiscreteProblem(prob.masses, prob.eta, prob.eta**4)
            report = verify_mela_optimality(prob)
            assert report.passed

    def test_non_monotone_rejected_with_offending_pair(self):
        prob = DiscreteProblem(
            masses=np.array([0.5, 0.5]),
            eta=np.array([0.2, 0.8]),
            eta_s=np.array([0.9, 0.3]),
        )
        with pytest.raises(ValueError, match="cells 0 .* and 1"):
            verify_mela_optimality(prob)

    def test_broken_link_detected_as_frontier_mismatch(self):
        # a clear ranking flip must produce mismatch witnesses when the
        # comonotonicity check is bypassed (eta ties are allowed)
        prob = DiscreteProblem(
            masses=np.array([0.45, 0.3, 0.25]),
            eta=np.array([0.85, 0.5, 0.15]),
            eta_s=np.array([0.2, 0.5, 0.8]),
        )
        spu = exhaustive_frontier(prob, "spu")
        real = exhaustive_frontier(prob, "real")
        spu_set = set(map(int, np.flatnonzero(spu.on_frontier)))
        real_set = set(map(int, np.flatnonzero(real.on_frontier)))
        assert spu_set != real_set


def noisy_problem(rng, m, eps, equal_mass=True):
    masses = np.full(m, 1.0 / m) if equal_mass else None
    if masses is None:
        masses = rng.random(m) + 0.2
        masses /= masses.sum()
    eta = np.sort(rng.uniform(0.05, 0.95, m))
    eta_s = np.clip(eta + rng.uniform(-eps, eps, m), 0.0, 1.0)
    return DiscreteProblem(masses, eta, eta_s)


class TestNoisyGap:
    def test_zero_noise_means_zero_gap(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            prob = random_problem(rng, m=7)
            prob = DiscreteProblem(prob.masses, prob.eta, prob.eta.copy())
            report = verify_noisy_gap(prob, epsilon=0.0, c_h=1.0, m_const=1.0)
            assert report.max_point_gap == 0.0
            assert report.auc_gap == 0.0
            assert report.passed

    def test_gaps_within_bound_on_random_problems(self):
        rng = np.random.default_rng(10)
        for trial in range(60):
            eps = (0.02, 0.05, 0.1)[trial % 3]
            prob = noisy_problem(rng, 10, eps)
            m_eff = slice_density_bound(prob, 2 * eps)
            report = verify_noisy_gap(prob, eps, c_h=1.0, m_const=m_eff)
            assert report.passed, (eps, report.max_point_gap, report.point_bound)
            assert report.density_ok
            assert not report.link_violations

    def test_quadratic_scaling_of_the_bound(self):
        # doubling the noise level quadruples the bound envelope; measured
        # area gaps must stay inside it at both levels
        rng = np.random.default_rng(11)
        for _ in range(10):
            eta = np.sort(rng.uniform(0.05, 0.95, 10))
            masses = np.full(10, 0.1)
            noise = rng.uniform(-1.0, 1.0, 10)
            for eps in (0.04, 0.08):
                prob = DiscreteProblem(masses, eta, np.clip(eta + eps * noise, 0, 1))
                m_eff = slice_density_bound(prob, 2 * eps)
                report = verify_noisy_gap(prob, eps, c_h=1.0, m_const=m_eff)
                assert report.auc_gap <= report.auc_bound + 1e-9

    def test_density_bound_is_exact_window_maximum(self):
        prob = DiscreteProblem(
            masses=np.array([0.25, 0.25, 0.5]),
            eta=np.array([0.30, 0.32, 0.90]),
            eta_s=np.array([0.3, 0.3, 0.9]),
        )
        # window 0.05 captures the two nearby cells: mass 0.5 over width 0.05
        assert slice_density_bound(prob, 0.05) == pytest.approx(10.0)
        # window 0.01 isolates single cells: max single mass 0.5 over 0.01
        assert slice_density_bound(prob, 0.01) == pytest.approx(50.0)

    def test_link_violations_reported_not_asserted(self):
        prob = DiscreteProblem(
            masses=np.array([0.5, 0.5]),
            eta=np.array([0.2, 0.8]),
            eta_s=np.array([0.55, 0.45]),
        )
        # ranking flipped by more than 2*eps: incompatible with the link
        violations = assumption4_violations(prob, epsilon=0.01, c_h=1.0)
        assert (1, 0) in violations
        report = verify_noisy_gap(prob, epsilon=0.01, c_h=1.0, m_const=10.0)
        assert report.link_violations

    def test_report_serializes(self):
        rng = np.random.default_rng(12)
        prob = noisy_problem(rng, 6, 0.05)
        report = verify_noisy_gap(prob, 0.05, 1.0, slice_density_bound(prob, 0.1))
        d = report.to_dict()
        assert set(d) >= {"point_bound", "auc_gap", "matches", "passed"}

    def test_mass_matching_feasibility_reported(self):
        rng = np.random.default_rng(13)
        # equal masses: every real vertex has an exact-mass substitute match
        prob_eq = noisy_problem(rng, 8, 0.05)
        rep = verify_noisy_gap(prob_eq, 0.05, 1.0, slice_density_bound(prob_eq, 0.1))
        assert rep.mass_matching_ok
        # unequal masses with a noise-flipped ranking: the equal-mass
        # matching is infeasible, the measured gap exceeds the bound, and
        # the report must expose why
        masses = np.array([0.090042, 0.271031, 0.161001, 0.477926])
        masses = masses / masses.sum()
        eta = np.array([0.156741, 0.163228, 0.198091, 0.927153])
        eta_s = np.array([0.163514, 0.15728, 0.210825, 0.930059])
        prob_neq = DiscreteProblem(masses, eta, eta_s)
        rep2 = verify_noisy_gap(
            prob_neq, 0.02, 1.0, slice_density_bound(prob_neq, 0.04)
        )
        assert not rep2.mass_matching_ok
        assert not rep2.passed
        assert rep2.max_point_gap > rep2.point_bound

    def test_without_positive_mass_is_named_error(self):
        prob = DiscreteProblem(np.array([0.5, 0.5]), np.zeros(2), np.array([0.2, 0.4]))
        with pytest.raises(ValueError, match="real: positive mass is zero"):
            verify_noisy_gap(prob, 0.05, 1.0, 4.0)


# ---------------------------------------------------------------------------
# the threshold chain against brute force
# ---------------------------------------------------------------------------

LEVELS = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])


def tied_problem(rng, m):
    """A random problem with the cases the chain must get right: exact ties
    in eta / eta_s, duplicated cells, conditionals of exactly 0 or 1 (vertical
    and horizontal frontier segments), equal and unequal masses, monotone
    links with ties and reversed (broken) links."""
    masses = np.ones(m) if rng.random() < 0.4 else rng.random(m) + 0.2
    style = int(rng.integers(0, 6))
    if style == 0:  # continuous, unrelated conditionals
        eta, eta_s = rng.uniform(0, 1, m), rng.uniform(0, 1, m)
    elif style == 1:  # ties and pure cells, unrelated conditionals
        eta, eta_s = rng.choice(LEVELS, m), rng.choice(LEVELS, m)
    elif style == 2:  # monotone link with ties, pure cells stay pure
        eta = rng.choice(LEVELS, m)
        eta_s = eta**2
    elif style == 3:  # monotone link that makes or unmakes pure cells
        eta = rng.choice(LEVELS, m)
        top = eta.max()
        eta_s = 0.05 + 0.9 * eta if rng.random() < 0.5 or top == 0 else eta / top
    elif style == 4:  # broken link: the ranking reversed
        eta = rng.choice(LEVELS, m) if rng.random() < 0.5 else rng.uniform(0, 1, m)
        eta_s = 1.0 - eta
    else:  # noisy link, clipped onto 0 and 1
        eta = np.sort(rng.uniform(0.05, 0.95, m))
        eta_s = np.clip(eta + rng.uniform(-0.1, 0.1, m), 0.0, 1.0)
    if m > 1 and rng.random() < 0.4:  # duplicated cells
        src = rng.integers(0, m, size=int(rng.integers(1, m)))
        dst = rng.choice(m, size=src.size, replace=False)
        masses[dst], eta[dst], eta_s[dst] = masses[src], eta[src], eta_s[src]
    return DiscreteProblem(masses / masses.sum(), eta, eta_s)


@lru_cache(maxsize=1)
def cross_check_problems():
    rng = np.random.default_rng(515)
    sizes = [int(rng.integers(1, 13)) for _ in range(236)] + [13, 14, 15, 16]
    return tuple(tied_problem(rng, m) for m in sizes)


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return f"error: {exc}"


@lru_cache(maxsize=None)
def exact_brute_force(index, kind):
    """All 2^m classifiers in exact rational arithmetic on the problem's own
    values: (vertex masks, vertex points, the set of masks on the frontier).
    Rates are kept as integer numerators, so ties are exact and collinear
    points are never vertices; a vertex takes the smallest mask at its point.
    """
    problem = cross_check_problems()[index]
    cond = problem.eta if kind == "real" else problem.eta_s
    pairs = [(Fraction(w), Fraction(c)) for w, c in zip(problem.masses.tolist(), cond.tolist())]
    pos = [w * c for w, c in pairs]
    neg = [w * (1 - c) for w, c in pairs]
    den = max(x.denominator for x in pos + neg)  # powers of two: the max is the lcm
    pos = [int(x * den) for x in pos]
    neg = [int(x * den) for x in neg]
    m = problem.n_cells
    tp, fp = [0] * (1 << m), [0] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        j = low.bit_length() - 1
        tp[mask] = tp[mask ^ low] + pos[j]
        fp[mask] = fp[mask ^ low] + neg[j]
    if tp[-1] == 0 or fp[-1] == 0:
        return None
    top = {}
    for mask in range(1 << m):
        if fp[mask] not in top or tp[mask] > top[fp[mask]][0]:
            top[fp[mask]] = (tp[mask], mask)
    hull = []
    for x, (y, mask) in sorted(top.items()):
        while len(hull) >= 2:
            (x1, y1, _), (x2, y2, _) = hull[-2], hull[-1]
            if (x2 - x1) * (y - y2) - (y2 - y1) * (x - x2) >= 0:
                hull.pop()
            else:
                break
        hull.append((x, y, mask))
    xs = [h[0] for h in hull]
    on = set()
    for mask in range(1 << m):
        # the hull segment over x (the hull spans x = 0 to fp[-1] > 0);
        # every point lies on or under it
        x, y = fp[mask], tp[mask]
        k = max(bisect.bisect_left(xs, x), 1)
        (x1, y1, _), (x2, y2, _) = hull[k - 1], hull[k]
        if (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1) >= 0:
            on.add(mask)
    points = np.array(
        [[float(Fraction(x, fp[-1])), float(Fraction(y, tp[-1]))] for x, y, _ in hull]
    )
    return tuple(h[2] for h in hull), points, on


def comonotone_violations_ref(problem):
    """Every pair i < j that breaks strict comonotonicity, by the pair loop."""
    eta, eta_s = problem.eta, problem.eta_s
    bad = []
    for i in range(problem.n_cells):
        for j in range(i + 1, problem.n_cells):
            de, ds = eta[i] - eta[j], eta_s[i] - eta_s[j]
            if (de == 0.0) != (ds == 0.0) or de * ds < 0.0:
                bad.append((i, j))
    return bad


def mela_optimality_ref(problem):
    """The former 2^m verify_mela_optimality, on the brute-force frontiers."""
    eta_s = problem.eta_s
    if comonotone_violations_ref(problem):
        raise ValueError("eta_s is not a strictly monotone transform of eta")
    spu_on = exhaustive_frontier(problem, "spu").on_frontier
    real_on = exhaustive_frontier(problem, "real").on_frontier
    spu_set = frozenset(map(int, np.flatnonzero(spu_on)))
    real_set = frozenset(map(int, np.flatnonzero(real_on)))
    family = set(threshold_masks(eta_s))
    return MelaOptimalityReport(
        passed=spu_set == real_set,
        n_spu_frontier=len(spu_set),
        n_real_frontier=len(real_set),
        spu_only=tuple(sorted(spu_set - real_set)),
        real_only=tuple(sorted(real_set - spu_set)),
        threshold_family_on_both=family <= spu_set and family <= real_set,
    )


def assumption4_violations_ref(problem, epsilon, c_h):
    eta, eta_s = problem.eta, problem.eta_s
    return [
        (i, j)
        for i in range(problem.n_cells)
        for j in range(problem.n_cells)
        if eta[i] > eta[j]
        and c_h * (eta[i] - eta[j]) > eta_s[i] - eta_s[j] + 2.0 * epsilon + 1e-12
    ]


def slice_density_bound_ref(problem, width):
    order = np.argsort(problem.eta)
    eta = problem.eta[order]
    cum = np.concatenate([[0.0], np.cumsum(problem.masses[order])])
    best = 0.0
    for a in np.concatenate([eta, eta - width]):
        lo = np.searchsorted(eta, a, side="left")
        hi = np.searchsorted(eta, a + width, side="right")
        best = max(best, cum[hi] - cum[lo])
    return float(best / width)


def noisy_gap_ref(index, epsilon, c_h, m_const, exact):
    """The former 2^m verify_noisy_gap.

    ``exact=False`` runs it as it was: float enumeration, masked mass sums
    and the tolerance-based brute-force frontiers. ``exact=True`` takes the
    frontiers from :func:`exact_brute_force` and every rate and mass as a
    correctly rounded sum (math.fsum), so exactly tied candidates (duplicated
    cells) compare equal whatever order they were summed in.
    """
    problem = cross_check_problems()[index]
    m = problem.n_cells

    def cells(c):
        return ((int(c) >> np.arange(m)) & 1).astype(bool)

    if exact:
        tpr_frac, fpr_frac = _rate_fractions(problem, "real")

        def rates(masks):
            return (
                np.array([math.fsum(fpr_frac[cells(c)]) for c in masks]),
                np.array([math.fsum(tpr_frac[cells(c)]) for c in masks]),
            )

        def mass(c):
            return math.fsum(problem.masses[cells(c)])

        real_masks = exact_brute_force(index, "real")[0]
        real_points = np.column_stack(rates(real_masks))
        spu_masks = sorted(exact_brute_force(index, "spu")[2])
    else:
        fprs, tprs = enumerate_points(problem, "real")

        def rates(masks):
            return fprs[masks], tprs[masks]

        def mass(c):
            return float(problem.masses[cells(c)].sum())

        real = exhaustive_frontier(problem, "real")
        real_masks, real_points = real.vertex_masks, real.points
        spu_masks = np.flatnonzero(exhaustive_frontier(problem, "spu").on_frontier)

    pi = problem.class_prior
    point_bound = 4.0 * m_const * epsilon**2 / (pi * c_h**2)
    auc_bound = 2.0 * point_bound
    m_eff = slice_density_bound_ref(problem, 2.0 * epsilon / c_h) if epsilon > 0.0 else 0.0
    spu_fpr, spu_tpr = rates(spu_masks)
    spu_mass = np.array([mass(c) for c in spu_masks])
    max_deficit = max_excess = max_gap = 0.0
    matches = []
    mass_matching_ok = True
    for (f_r, t_r), vmask in zip(real_points, real_masks):
        deficits = np.maximum(t_r - spu_tpr, 0.0)
        excesses = np.maximum(spu_fpr - f_r, 0.0)
        worst = np.maximum(deficits, excesses)
        mass_gap = np.abs(spu_mass - mass(vmask))
        if mass_gap.min() > 1e-12:
            mass_matching_ok = False
        best = np.lexsort((worst, mass_gap))[0]
        if worst[best] > worst.min() + 1e-15:
            best = int(np.argmin(worst))
        matches.append((int(vmask), int(spu_masks[best])))
        max_deficit = max(max_deficit, float(deficits[best]))
        max_excess = max(max_excess, float(excesses[best]))
        max_gap = max(max_gap, float(worst[best]))
    prefix = threshold_masks(problem.eta_s)
    auc_real_opt = _staircase_auc(real_points)
    auc_spu_rank = _staircase_auc(np.column_stack(rates(prefix)))
    auc_gap = auc_real_opt - auc_spu_rank
    return NoisyGapReport(
        epsilon=float(epsilon),
        c_h=float(c_h),
        m_const=float(m_const),
        class_prior=pi,
        point_bound=point_bound,
        auc_bound=auc_bound,
        max_tpr_deficit=max_deficit,
        max_fpr_excess=max_excess,
        max_point_gap=max_gap,
        auc_real_optimal=auc_real_opt,
        auc_spu_ranking=auc_spu_rank,
        auc_gap=float(auc_gap),
        matches=tuple(matches),
        density_bound_effective=float(m_eff),
        density_ok=m_eff <= m_const + 1e-9,
        link_violations=tuple(assumption4_violations_ref(problem, epsilon, c_h)),
        mass_matching_ok=mass_matching_ok,
        passed=max_gap <= point_bound + 1e-9 and auc_gap <= auc_bound + 1e-9,
    )


def noisy_gap_loop_ref(problem, epsilon, c_h, m_const):
    """The former verify_noisy_gap on the threshold chain, matching one real
    vertex at a time."""
    real_frontier = frontier(problem, "real")
    spu_frontier = frontier(problem, "spu")
    pi = problem.class_prior
    point_bound = 4.0 * m_const * epsilon**2 / (pi * c_h**2)
    auc_bound = 2.0 * point_bound
    m_eff = slice_density_bound(problem, 2.0 * epsilon / c_h) if epsilon > 0.0 else 0.0
    tpr_frac, fpr_frac = _rate_fractions(problem, "real")
    spu_masks, (spu_real_fpr, spu_real_tpr, spu_pred_mass) = spu_frontier.members(
        fpr_frac, tpr_frac, problem.masses
    )
    prefix_mass = _prefix_sums(real_frontier.groups, problem.masses)
    prefix_index = dict(zip(real_frontier.prefix_masks, range(len(prefix_mass))))
    max_deficit = max_excess = max_gap = 0.0
    matches = []
    mass_matching_ok = True
    for (f_r, t_r), vmask in zip(real_frontier.points, real_frontier.vertex_masks):
        deficits = np.maximum(t_r - spu_real_tpr, 0.0)
        excesses = np.maximum(spu_real_fpr - f_r, 0.0)
        worst = np.maximum(deficits, excesses)
        mass_gap = np.abs(spu_pred_mass - prefix_mass[prefix_index[vmask]])
        if mass_gap.min() > 1e-12:
            mass_matching_ok = False
        closest = np.flatnonzero(mass_gap == mass_gap.min())
        best = closest[np.argmin(worst[closest])]
        if worst[best] > worst.min() + 1e-15:
            best = int(np.argmin(worst))
        matches.append((int(vmask), int(spu_masks[best])))
        max_deficit = max(max_deficit, float(deficits[best]))
        max_excess = max(max_excess, float(excesses[best]))
        max_gap = max(max_gap, float(worst[best]))
    spu_curve = np.column_stack(
        [_prefix_sums(spu_frontier.groups, fpr_frac), _prefix_sums(spu_frontier.groups, tpr_frac)]
    )
    auc_real_opt = _staircase_auc(real_frontier.points)
    auc_spu_rank = _staircase_auc(spu_curve)
    auc_gap = auc_real_opt - auc_spu_rank
    return NoisyGapReport(
        epsilon=float(epsilon),
        c_h=float(c_h),
        m_const=float(m_const),
        class_prior=pi,
        point_bound=point_bound,
        auc_bound=auc_bound,
        max_tpr_deficit=max_deficit,
        max_fpr_excess=max_excess,
        max_point_gap=max_gap,
        auc_real_optimal=auc_real_opt,
        auc_spu_ranking=auc_spu_rank,
        auc_gap=float(auc_gap),
        matches=tuple(matches),
        density_bound_effective=float(m_eff),
        density_ok=m_eff <= m_const + 1e-9,
        link_violations=tuple(assumption4_violations(problem, epsilon, c_h)),
        mass_matching_ok=mass_matching_ok,
        passed=max_gap <= point_bound + 1e-9 and auc_gap <= auc_bound + 1e-9,
    )


def assert_same_report(got, want):
    got, want = got.to_dict(), want.to_dict()
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, float):
            assert got[name] == pytest.approx(value, rel=0, abs=1e-12), name
        else:
            assert got[name] == value, name


def is_tie_free(problem, kind):
    cond = problem.eta if kind == "real" else problem.eta_s
    return np.unique(cond).size == problem.n_cells


class TestChainAgainstBruteForce:
    def test_problem_set_covers_the_edge_cases(self):
        problems = cross_check_problems()
        assert len(problems) >= 200 and max(p.n_cells for p in problems) == 16
        assert sum(not is_tie_free(p, "spu") for p in problems) >= 50
        assert sum(bool(np.any(p.eta == 1.0)) for p in problems) >= 20
        assert sum(bool(np.any(p.eta_s == 0.0)) for p in problems) >= 20
        assert sum(np.unique(p.masses).size > 1 for p in problems) >= 100

    def test_vertices_points_and_members_equal_exact_brute_force(self):
        checked = 0
        for index, prob in enumerate(cross_check_problems()):
            for kind in ("spu", "real"):
                ref = exact_brute_force(index, kind)
                if ref is None:
                    with pytest.raises(ValueError, match=f"{kind}: (positive|negative) mass is zero"):
                        frontier(prob, kind)
                    continue
                vertex_masks, points, on = ref
                front = frontier(prob, kind)
                assert front.vertex_masks == vertex_masks
                np.testing.assert_allclose(front.points, points, rtol=0, atol=1e-15)
                assert set(front.members()[0]) == on
                assert front.n_on_frontier == len(on)
                if prob.n_cells <= 12:
                    assert [m for m in range(1 << prob.n_cells) if front.contains(m)] == sorted(on)
                checked += 1
        assert checked >= 400

    def test_agrees_with_float_enumeration(self):
        # the float brute force keeps a tie-group subset as a vertex when
        # rounding lifts it off its segment; the chain never does, so on
        # tied cells its vertices are a subset and every extra one lies on
        # the chain's frontier
        for prob in cross_check_problems():
            for kind in ("spu", "real"):
                want = result_or_error(exhaustive_frontier, prob, kind)
                got = result_or_error(frontier, prob, kind)
                if isinstance(want, str):
                    assert got == want
                    continue
                on = np.zeros(1 << prob.n_cells, dtype=bool)
                on[got.members()[0]] = True
                assert np.array_equal(on, want.on_frontier)
                assert got.n_on_frontier == want.n_on_frontier
                assert set(got.vertex_masks) <= set(want.vertex_masks)
                assert all(got.contains(m) for m in want.vertex_masks)
                if is_tie_free(prob, kind):
                    assert got.vertex_masks == want.vertex_masks
                if got.vertex_masks == want.vertex_masks:
                    np.testing.assert_allclose(got.points, want.points, rtol=0, atol=1e-15)

    def test_mela_reports_equal_brute_force(self):
        compared = 0
        for prob in cross_check_problems():
            want = result_or_error(mela_optimality_ref, prob)
            got = result_or_error(verify_mela_optimality, prob)
            if isinstance(want, str) and "not a strictly monotone" in want:
                assert "not a strictly monotone" in got
                continue
            assert got == want
            compared += 1
        assert compared >= 50

    @pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
    def test_noisy_reports_equal_brute_force(self, exact):
        rng = np.random.default_rng(516)
        compared = 0
        for index, prob in enumerate(cross_check_problems()):
            epsilon = float(rng.choice([0.0, 0.02, 0.05, 0.1]))
            c_h = float(rng.choice([0.5, 1.0, 2.0]))
            if prob.n_cells > 12 or None in (
                exact_brute_force(index, "real"),
                exact_brute_force(index, "spu"),
            ):
                continue
            got = verify_noisy_gap(prob, epsilon, c_h, 4.0)
            if not exact and (
                exhaustive_frontier(prob, "real").vertex_masks
                != frontier(prob, "real").vertex_masks
            ):
                continue  # the float brute force has a rounding-made vertex
            assert_same_report(got, noisy_gap_ref(index, epsilon, c_h, 4.0, exact))
            compared += 1
        assert compared >= 120

    def test_edge_semantics_of_membership(self):
        # cell 0 pure positive, cells 1 and 2 tied, cell 3 pure negative
        prob = DiscreteProblem(
            masses=np.array([0.25, 0.25, 0.25, 0.25]),
            eta=np.array([1.0, 0.5, 0.5, 0.0]),
            eta_s=np.array([0.5, 0.5, 0.5, 0.5]),
        )
        real = frontier(prob, "real")
        assert real.groups == ((0,), (1, 2), (3,)) and real.whole_first
        # only the whole pure group at FPR 0; any subset of the next group
        # on top of it; any subset of the pure negative group at TPR 1
        assert real.members()[0] == [0b0001, 0b0011, 0b0101, 0b0111, 0b1111]
        assert not real.contains(0) and real.n_on_frontier == 5
        assert real.vertex_masks == (0b0001, 0b0111, 0b1111)
        spu = frontier(prob, "spu")
        assert spu.groups == ((0, 1, 2, 3),) and not spu.whole_first
        assert spu.n_on_frontier == 16 and spu.vertex_masks == (0, 0b1111)

    def test_tie_group_larger_than_max_cells_is_named(self):
        m = MAX_CELLS + 3
        eta = np.linspace(0.1, 0.9, m)
        eta_s = np.where(np.arange(m) < MAX_CELLS + 1, 0.4, eta)
        prob = DiscreteProblem(np.full(m, 1 / m), eta, eta_s)
        # three groups: the two top cells alone, then the tie: 4 prefixes
        # and the 2^21 - 2 proper non-empty subsets of the tie
        assert frontier(prob, "spu").n_on_frontier == 2 ** (MAX_CELLS + 1) + 2
        with pytest.raises(ValueError, match="tie group of 21 cells too large for subset enumeration"):
            verify_noisy_gap(prob, 0.05, 1.0, 4.0)


class TestMatchingAgainstTheLoop:
    """verify_noisy_gap matches blocks of real vertices at once; the whole
    report must equal the one-vertex-at-a-time loop's, bit for bit."""

    @staticmethod
    def settings(rng):
        return float(rng.choice([0.0, 0.02, 0.05, 0.1])), float(rng.choice([0.5, 1.0, 2.0]))

    def test_edge_problems(self):
        rng = np.random.default_rng(520)
        compared = 0
        for prob in cross_check_problems():
            epsilon, c_h = self.settings(rng)
            want = result_or_error(noisy_gap_loop_ref, prob, epsilon, c_h, 4.0)
            assert result_or_error(verify_noisy_gap, prob, epsilon, c_h, 4.0) == want
            compared += not isinstance(want, str)
        assert compared >= 200

    def test_random_problems(self):
        rng = np.random.default_rng(521)
        for trial in range(120):
            epsilon, c_h = self.settings(rng)
            if trial % 2:
                prob = random_problem(rng)
            else:
                prob = noisy_problem(rng, int(rng.integers(1, 40)), 0.1)
            m_const = float(rng.choice([0.5, 4.0]))
            want = noisy_gap_loop_ref(prob, epsilon, c_h, m_const)
            assert verify_noisy_gap(prob, epsilon, c_h, m_const) == want

    def test_unequal_masses(self):
        rng = np.random.default_rng(522)
        infeasible = 0
        for _ in range(80):
            prob = noisy_problem(rng, int(rng.integers(2, 30)), 0.1, equal_mass=False)
            epsilon, c_h = self.settings(rng)
            want = noisy_gap_loop_ref(prob, epsilon, c_h, 4.0)
            assert verify_noisy_gap(prob, epsilon, c_h, 4.0) == want
            infeasible += not want.mass_matching_ok
        assert infeasible >= 40

    def test_near_ties(self):
        # cells of mass 1e-14 to 1e-10 on tied and pure conditionals give
        # candidates whose mass gaps, or worst-case gaps, differ by less than
        # any tolerance: the exact tie rules decide their matches
        rng = np.random.default_rng(524)
        compared = 0
        for _ in range(400):
            m = int(rng.integers(2, 9))
            masses = rng.random(m) + 0.2
            tiny = rng.random(m) < 0.3
            masses[tiny] = 10.0 ** rng.uniform(-14, -10, tiny.sum())
            eta = rng.choice(LEVELS, m)
            eta_s = np.clip(eta + rng.choice([-0.1, 0.0, 0.1], m), 0.0, 1.0)
            prob = DiscreteProblem(masses / masses.sum(), eta, eta_s)
            want = result_or_error(noisy_gap_loop_ref, prob, 0.05, 1.0, 4.0)
            assert result_or_error(verify_noisy_gap, prob, 0.05, 1.0, 4.0) == want
            compared += not isinstance(want, str)
        assert compared >= 250

    def test_many_blocks(self, monkeypatch):
        rng = np.random.default_rng(523)
        prob = noisy_problem(rng, 60, 0.1, equal_mass=False)
        want = noisy_gap_loop_ref(prob, 0.05, 1.0, 4.0)
        candidates = frontier(prob, "spu").n_on_frontier
        monkeypatch.setattr(oracle_module, "BLOCK_ENTRIES", 4 * candidates)
        assert len(want.matches) >= 3 * 4  # blocks of 4 vertices: at least 3
        assert verify_noisy_gap(prob, 0.05, 1.0, 4.0) == want


class TestLinearTimeChecks:
    def test_comonotone_check_names_an_offending_pair(self):
        rng = np.random.default_rng(17)
        raised = 0
        for _ in range(30):
            m = 60
            eta = rng.choice(LEVELS, m)
            eta_s = eta**2
            i, j = rng.choice(m, 2, replace=False)
            eta_s[i] = rng.choice(LEVELS) ** 2 if rng.random() < 0.5 else eta_s[j]
            prob = DiscreteProblem(np.full(m, 1 / m), eta, eta_s)
            bad = comonotone_violations_ref(prob)
            if not bad:
                assert verify_mela_optimality(prob).passed
                continue
            with pytest.raises(ValueError, match="not a strictly monotone") as info:
                verify_mela_optimality(prob)
            named = re.search(r"cells (\d+) \(.*\) and (\d+) \(", str(info.value)).groups()
            assert tuple(map(int, named)) in bad
            raised += 1
        assert raised >= 10

    def test_link_violations_and_density_equal_the_pair_loops(self):
        rng = np.random.default_rng(18)
        for m in (1, 2, 7, 40, 1100):  # 1100 cells take more than one row block
            eta = rng.uniform(0, 1, m)
            eta_s = np.clip(eta + rng.uniform(-0.2, 0.2, m), 0, 1)
            prob = DiscreteProblem(np.full(m, 1 / m), eta, eta_s)
            settings = ((0.01, 1.0), (0.05, 2.0), (0.0, 0.5))
            for epsilon, c_h in settings[:1] if m > 40 else settings:
                want = assumption4_violations_ref(prob, epsilon, c_h)
                assert assumption4_violations(prob, epsilon, c_h) == want
                assert m < 40 or want
            for width in (1e-3, 0.05, 0.3):
                assert slice_density_bound(prob, width) == slice_density_bound_ref(prob, width)
