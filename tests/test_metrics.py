"""Substitute metrics, threshold sweeps, the area bound, and the linear map.

Hand-derived expected values are frozen from exact arithmetic (fractions
where it matters); distribution-level claims are property-tested with
seeded random draws.
"""

import csv
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpu import metrics
from softpu.dataset import GscarConfig, SoftDataset, gen_gscar
from softpu.metrics import (
    RocCurve,
    auc,
    auc_real,
    auc_spu,
    auc_spu_bound,
    bound_report,
    curve_to_csv,
    estimate_mixture_stats,
    fpr,
    fpr_spu,
    map_auc,
    mixture_coefficients,
    roc_real,
    roc_spu,
    roc_spu_and_real,
    tpr,
    tpr_spu,
)
from softpu.tables import CHUNK_ROWS

import reference
from reference import read_curve


def curve_to_csv_ref(curve, path):
    """The former per-row writer: the reference for :func:`curve_to_csv`'s bytes."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("threshold,x,y\n")
        for t, x, y in zip(curve.thresholds, curve.xs, curve.ys):
            fh.write(f"{repr(float(t))},{repr(float(x))},{repr(float(y))}\n")


def exact_rate(weights, predictions):
    """Independent oracle: the weighted-count ratio in exact rationals."""
    num = sum(Fraction(w) * p for w, p in zip(weights, predictions))
    den = sum(Fraction(w) for w in weights)
    return num / den


class TestSubstituteRates:
    S4 = np.array([1.0, 0.0, 0.5, 0.5])
    YHAT4 = np.array([1, 0, 1, 0])

    def test_hand_computed_tpr(self):
        # (1*1 + 0.5*1) / (1 + 0 + 0.5 + 0.5) = 1.5 / 2
        assert tpr_spu(self.S4, self.YHAT4) == pytest.approx(0.75, abs=1e-12)

    def test_hand_computed_fpr(self):
        # (0*1 + 0.5*1) / (0 + 1 + 0.5 + 0.5) = 0.5 / 2
        assert fpr_spu(self.S4, self.YHAT4) == pytest.approx(0.25, abs=1e-12)

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            s = rng.choice([0.0, 0.125, 0.25, 0.5, 0.75, 1.0], n)
            yhat = rng.integers(0, 2, n)
            if 0 < s.sum():
                want = float(exact_rate(s, yhat))
                assert tpr_spu(s, yhat) == pytest.approx(want, abs=1e-12)
            if s.sum() < n:
                want = float(exact_rate(1 - s, yhat))
                assert fpr_spu(s, yhat) == pytest.approx(want, abs=1e-12)

    def test_all_ones_and_zeros(self):
        s = np.array([0.9, 0.3, 0.6])
        assert tpr_spu(s, np.ones(3)) == 1.0
        assert tpr_spu(s, np.zeros(3)) == 0.0
        assert fpr_spu(s, np.ones(3)) == 1.0
        assert fpr_spu(s, np.zeros(3)) == 0.0

    def test_degenerate_soft_mass_errors(self):
        with pytest.raises(ValueError, match="no positive soft mass"):
            tpr_spu(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="no negative soft mass"):
            fpr_spu(np.ones(3), np.ones(3))

    def test_rates_bounded(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = rng.random(20)
            yhat = rng.integers(0, 2, 20)
            assert 0.0 <= tpr_spu(s, yhat) <= 1.0
            assert 0.0 <= fpr_spu(s, yhat) <= 1.0


class TestRealRates:
    def test_direct_counts(self):
        y = np.array([1, 1, 0, 0])
        yhat = np.array([1, 0, 1, 0])
        assert tpr(y, yhat) == 0.5
        assert fpr(y, yhat) == 0.5

    def test_empty_class_named(self):
        with pytest.raises(ValueError, match="positive class"):
            tpr(np.zeros(3), np.ones(3))
        with pytest.raises(ValueError, match="negative class"):
            fpr(np.ones(3), np.ones(3))

    def test_each_rate_needs_only_its_own_class(self):
        assert tpr(np.ones(3), np.array([1, 0, 1])) == pytest.approx(2 / 3)
        assert fpr(np.zeros(3), np.array([1, 0, 1])) == pytest.approx(2 / 3)
        assert tpr_spu(np.ones(3), np.array([1, 0, 1])) == pytest.approx(2 / 3)
        assert fpr_spu(np.zeros(3), np.array([1, 0, 1])) == pytest.approx(2 / 3)

    def test_scores_equal_labels_give_auc_one(self):
        y = np.array([1, 0, 1, 0, 1])
        assert auc_real(y, y.astype(float)) == 1.0

    def test_inverted_ranking_gives_auc_zero(self):
        assert auc_real(np.array([1, 0]), np.array([0.2, 0.9])) == 0.0


POSITIVE_EMPTY = "positive class (Y=1) is empty: none of the 4 true labels is 1"
NEGATIVE_EMPTY = "negative class (Y=0) is empty: none of the 4 true labels is 0"
NO_POSITIVE_MASS = "no positive soft mass: sum 0.0, so the spu rates are undefined"
NO_NEGATIVE_MASS = "no negative soft mass: sum 0.0, so the spu rates are undefined"
SCORES = np.array([0.1, 0.4, 0.2, 0.3])


def _truth(y):
    return SoftDataset(features=np.zeros((4, 1)), soft_labels=np.full(4, 0.5),
                       true_labels=np.array(y))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: tpr(np.zeros(4), np.ones(4)), POSITIVE_EMPTY),
        (lambda: fpr(np.ones(4), np.ones(4)), NEGATIVE_EMPTY),
        (lambda: roc_real(np.zeros(4), SCORES), POSITIVE_EMPTY),
        (lambda: roc_real(np.ones(4), SCORES), NEGATIVE_EMPTY),
        (lambda: roc_spu_and_real(_truth([0, 0, 0, 0]), SCORES), POSITIVE_EMPTY),
        (lambda: estimate_mixture_stats(_truth([1, 1, 1, 1])), NEGATIVE_EMPTY),
        (lambda: tpr_spu(np.zeros(4), np.ones(4)), NO_POSITIVE_MASS),
        (lambda: fpr_spu(np.ones(4), np.ones(4)), NO_NEGATIVE_MASS),
        (lambda: roc_spu(np.zeros(4), SCORES), NO_POSITIVE_MASS),
        (lambda: roc_spu_and_real(np.ones(4), SCORES), NO_NEGATIVE_MASS),
    ],
)
def test_missing_class_or_soft_mass_is_worded_once(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


class TestSweep:
    def test_perfect_separation_passes_through_corner(self):
        s = np.array([1.0, 0.0, 1.0, 0.0])
        curve = roc_spu(s, s)
        assert any((x == 0.0 and y == 1.0) for x, y in curve.points)
        assert auc(curve) == 1.0

    def test_constant_scores_two_points(self):
        curve = roc_spu(np.array([1.0, 0.0, 0.5]), np.zeros(3))
        assert len(curve) == 2
        assert auc(curve) == 0.5

    def test_random_scores_give_half_area(self):
        rng = np.random.default_rng(7)
        n = 100_000
        s = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
        scores = rng.random(n)
        assert abs(auc_spu(s, scores) - 0.5) < 0.01

    def test_threshold_semantics_strict(self):
        # every curve point must reproduce from its own threshold
        rng = np.random.default_rng(3)
        s = rng.random(50)
        scores = rng.choice([0.1, 0.4, 0.4, 0.7], 50)
        curve = roc_spu(s, scores)
        for t, x, y in zip(curve.thresholds, curve.xs, curve.ys):
            pred = scores > t
            assert tpr_spu(s, pred) == pytest.approx(y, abs=1e-12)
            assert fpr_spu(s, pred) == pytest.approx(x, abs=1e-12)

    def test_monotone_in_threshold(self):
        # growing the predicted-positive set never lowers either rate
        rng = np.random.default_rng(4)
        s = rng.random(200)
        scores = rng.random(200)
        curve = roc_spu(s, scores)
        assert np.all(np.diff(curve.xs) >= 0)
        assert np.all(np.diff(curve.ys) >= 0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        s = rng.random(100)
        scores = rng.random(100)
        perm = rng.permutation(100)
        assert auc_spu(s, scores) == pytest.approx(
            auc_spu(s[perm], scores[perm]), abs=1e-12
        )

    def test_binary_reduction_matches_real_metrics(self):
        # when S == Y exactly, substitute metrics equal the real ones
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, 300).astype(float)
        scores = rng.random(300)
        real = roc_real(y, scores)
        spu = roc_spu(y, scores)
        np.testing.assert_array_equal(real.xs, spu.xs)
        np.testing.assert_array_equal(real.ys, spu.ys)
        pred = (scores > 0.5).astype(float)
        assert tpr(y, pred) == tpr_spu(y, pred)
        assert fpr(y, pred) == fpr_spu(y, pred)


def auc_spu_pairs(s, scores):
    """The substitute AUC as a soft-weighted pair count, O(n^2): every sample
    is positive with weight s and negative with weight 1 - s; a pair counts
    when the positive scores higher, half when they tie (Fawcett 2006)."""
    won = (scores[:, None] > scores[None, :]) + 0.5 * (scores[:, None] == scores[None, :])
    return (s @ won @ (1.0 - s)) / (s.sum() * (1.0 - s).sum())


@st.composite
def scored_soft_labels(draw):
    """Soft labels with both masses positive and scores with frequent ties."""
    size = draw(st.integers(2, 40))
    s = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.9, 1.0]), min_size=size,
                      max_size=size))
    s[:2] = [0.0, 1.0]
    values = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
    scores = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    return np.array(s), np.array(scores)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=scored_soft_labels())
def test_auc_spu_is_the_soft_weighted_pair_count(data):
    s, scores = data
    assert auc_spu(s, scores) == pytest.approx(auc_spu_pairs(s, scores), rel=0, abs=1e-12)


class TestSpuAndReal:
    def test_curves_equal_the_separate_sweeps_bit_for_bit(self):
        data = gen_gscar(GscarConfig(n=5000, pi=0.3, seed=12))
        rng = np.random.default_rng(11)
        for scores in (rng.choice([0.1, 0.4, 0.7, 0.9], 5000), rng.random(5000)):
            spu, real = roc_spu_and_real(data, scores)
            for got, want in ((spu, roc_spu(data, scores)), (real, roc_real(data, scores))):
                assert got.kind == want.kind
                for name in ("thresholds", "xs", "ys"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_inputs_are_checked_as_the_separate_sweeps_check_them(self):
        data = gen_gscar(GscarConfig(n=50, pi=0.3, seed=2))
        wrong_length = "scores must be a 1-D array of 50 entries, got shape (3,)"
        with pytest.raises(ValueError, match=re.escape(wrong_length)):
            roc_spu_and_real(data, np.zeros(3))
        bad = np.zeros(50)
        bad[4] = np.nan
        with pytest.raises(ValueError, match="scores must be finite: index 4 is nan"):
            roc_spu_and_real(data, bad)


def _sweep_scores(case):
    """Scores of 3000 samples: tie-free, rounded to two decimals, or with a
    group of 0.0 and -0.0 whose first sample holds the zero named."""
    rng = np.random.default_rng(28)
    scores = rng.random(3000)
    if case == "two decimals":
        return np.round(scores, 2)
    if case != "tie-free":
        zeros = rng.choice([0.0, -0.0], 400)
        zeros[0] = -0.0 if case == "-0.0 first" else 0.0
        scores[np.sort(rng.choice(3000, 400, replace=False))] = zeros
    return scores


def _bits(result):
    """A sweep result as comparable bytes: each curve's kind and arrays, each
    float's bits."""
    if isinstance(result, tuple):
        return tuple(_bits(r) for r in result)
    if isinstance(result, RocCurve):
        return result.kind, result.thresholds.tobytes(), result.xs.tobytes(), result.ys.tobytes()
    if isinstance(result, dict):
        return {k: _bits(v) for k, v in result.items()}
    return np.float64(result).tobytes() if isinstance(result, float) else result


SWEEP_CASES = ["tie-free", "two decimals", "-0.0 first", "0.0 first"]


class TestSweepAgainstTheStableSort:
    """The sweeps give the bits of the stable-sort sweep in
    ``reference.score_order``, on tie-free and tied scores alike."""

    @pytest.mark.parametrize("case", SWEEP_CASES)
    @pytest.mark.parametrize(
        "sweep", [roc_spu, roc_real, roc_spu_and_real, auc_spu, bound_report],
        ids=lambda f: f.__name__,
    )
    def test_results_keep_their_bits(self, monkeypatch, sweep, case):
        data = gen_gscar(GscarConfig(n=3000, pi=0.3, seed=28))
        scores = _sweep_scores(case)
        got = sweep(data, scores)
        monkeypatch.setattr(metrics, "_score_order", reference.score_order)
        assert _bits(got) == _bits(sweep(data, scores))

    @pytest.mark.parametrize("case", SWEEP_CASES)
    def test_curve_files_keep_their_bytes(self, tmp_path, monkeypatch, case):
        data = gen_gscar(GscarConfig(n=3000, pi=0.3, seed=28))
        scores = _sweep_scores(case)
        written = {}
        for side in ("got", "want"):
            if side == "want":
                monkeypatch.setattr(metrics, "_score_order", reference.score_order)
            spu, real = roc_spu_and_real(data, scores)
            paths = tmp_path / f"{side}_spu.csv", tmp_path / f"{side}_real.csv"
            curve_to_csv(spu, paths[0], more=[(real, paths[1])])
            written[side] = [p.read_bytes() for p in paths]
        assert written["got"] == written["want"]
        if case.endswith("first"):
            zero = case.split()[0].encode()
            assert b"\n" + zero + b"," in written["got"][0]
            assert b"\n" + (b"0.0" if zero == b"-0.0" else b"-0.0") + b"," not in written["got"][0]


class TestNonFiniteInputs:
    """A NaN or infinite score or soft label is rejected with an error that
    names the first bad index, whether or not the scores are tied."""

    @pytest.mark.parametrize("scores", [
        [0.5, 0.5, np.nan, 0.5, 0.5],
        [0.1, 0.9, np.nan, 0.3, 0.7],
        [0.1, 0.9, np.inf, 0.3, np.nan],
    ])
    @pytest.mark.parametrize("entry", [roc_spu, auc_spu, bound_report])
    def test_soft_entry_points_reject_bad_scores(self, entry, scores):
        s = np.array([1.0, 0.0, 0.5, 0.2, 0.8])
        with pytest.raises(ValueError, match="scores must be finite: index 2"):
            entry(s, np.array(scores))

    @pytest.mark.parametrize("entry", [roc_real, auc_real])
    def test_real_entry_points_reject_bad_scores(self, entry):
        y = np.array([1, 0, 1, 0])
        with pytest.raises(ValueError, match="scores must be finite: index 1 is -inf"):
            entry(y, np.array([0.4, -np.inf, 0.4, np.nan]))

    @pytest.mark.parametrize(
        "entry, labels",
        [(tpr_spu, [0.5, 0.5]), (fpr_spu, [0.5, 0.5]), (tpr, [0, 1]), (fpr, [0, 1])],
        ids=["tpr_spu", "fpr_spu", "tpr", "fpr"],
    )
    def test_rates_reject_non_finite_predictions(self, entry, labels):
        with pytest.raises(ValueError) as info:
            entry(np.array(labels), np.array([np.nan, np.inf]))
        assert str(info.value) == "predictions must be finite: index 0 is nan"

    @pytest.mark.parametrize("entry", [tpr_spu, fpr_spu, tpr, fpr, roc_spu, roc_real])
    def test_column_of_predictions_is_refused(self, entry):
        # an (n, 1) column broadcast against n labels gave tpr_spu 1.0 for 1/3
        what = "scores" if entry in (roc_spu, roc_real) else "predictions"
        with pytest.raises(ValueError) as info:
            entry(np.array([0.0, 1.0, 0.0]), np.array([[1.0], [0.0], [0.3]]))
        assert str(info.value) == f"{what} must be a 1-D array of 3 entries, got shape (3, 1)"

    @pytest.mark.parametrize(
        "entry, labels, predictions, shape",
        [
            # broadcast against the predictions, the column gave tpr 1.0 and fpr 2.0
            (tpr, [[1], [0], [1]], [1, 0, 0], "(3, 1)"),
            (fpr, [[1], [0], [1], [0]], [1, 0, 0, 1], "(4, 1)"),
            (tpr, 1, [1], "()"),
            (fpr, 0, [1], "()"),
            (roc_real, [[1], [0]], [0.2, 0.4], "(2, 1)"),
        ],
        ids=["tpr-column", "fpr-column", "tpr-0d", "fpr-0d", "roc_real-column"],
    )
    def test_true_labels_that_are_not_a_vector_are_refused(self, entry, labels, predictions,
                                                          shape):
        with pytest.raises(ValueError) as info:
            entry(np.array(labels), np.array(predictions))
        assert str(info.value) == f"true labels must be a 1-D array, got shape {shape}"

    def test_vector_true_labels_give_the_rates(self):
        assert tpr(np.array([1, 0, 1]), np.array([1, 0, 0])) == 0.5
        assert fpr(np.array([1, 0, 1, 0]), np.array([1, 0, 0, 1])) == 0.5

    @pytest.mark.parametrize("entry", [roc_spu, auc_spu, bound_report, tpr_spu, fpr_spu])
    def test_soft_label_vector_rejects_nan(self, entry):
        s = np.array([1.0, np.nan, 0.5, 0.2])
        with pytest.raises(ValueError, match=r"^row 2: soft label nan outside \[0, 1\]$"):
            entry(s, np.array([1.0, 0.0, 1.0, 0.0]))


class TestAuc:
    def test_three_point_values(self):
        up = RocCurve(np.array([1.0, 0.5, -np.inf]), np.array([0.0, 0.0, 1.0]),
                      np.array([0.0, 1.0, 1.0]), kind="spu")
        assert auc(up) == 1.0
        diag = RocCurve(np.array([1.0, -np.inf]), np.array([0.0, 1.0]),
                        np.array([0.0, 1.0]), kind="spu")
        assert auc(diag) == 0.5
        # trapezoid by hand: 0.5*0.75*0.2 + 0.5*(0.75+1)*0.8 = 0.075 + 0.7
        mid = RocCurve(np.array([1.0, 0.5, -np.inf]), np.array([0.0, 0.2, 1.0]),
                       np.array([0.0, 0.75, 1.0]), kind="real")
        assert auc(mid) == pytest.approx(0.775, abs=1e-12)

    def test_curve_validation(self):
        with pytest.raises(ValueError, match=r"^curve y values must be non-decreasing, "
                                             r"got 1\.0 at index 1 and 0\.9 at index 2$"):
            RocCurve(np.array([1.0, 0.5, -np.inf]), np.array([0.0, 0.4, 1.0]),
                     np.array([0.0, 1.0, 0.9]), kind="spu")
        # a nan rate is out of order too, where the old check let it through
        with pytest.raises(ValueError, match="^curve x values must be non-decreasing, got 0.0 at index 0 and nan "):
            RocCurve(np.array([1.0, 0.5, -np.inf]), np.array([0.0, np.nan, 1.0]),
                     np.array([0.0, 0.5, 1.0]), kind="spu")
        with pytest.raises(ValueError, match=r"\(0,0\) to \(1,1\)"):
            RocCurve(np.array([1.0, -np.inf]), np.array([0.1, 1.0]),
                     np.array([0.0, 1.0]), kind="spu")


class TestAreaBound:
    def test_binary_soft_labels_give_bound_one(self):
        assert auc_spu_bound(np.array([1.0, 0.0, 1.0, 0.0, 0.0])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_uniform_grid_approaches_five_sixths(self):
        # for F(u) = u: I2 = 1/6, I1 = 1/2, bound = 1/2 + (1/6)/(1/2) = 5/6
        grid = np.linspace(0.0, 1.0, 1000)
        assert abs(auc_spu_bound(grid) - 5.0 / 6.0) < 0.005

    def test_point_mass_gives_half(self):
        # a constant soft label carries no ranking information
        assert auc_spu_bound(np.full(7, 0.5)) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_mean_errors(self):
        with pytest.raises(ValueError, match=r"^mean soft label must lie in \(0, 1\), got 0\.0$"):
            auc_spu_bound(np.zeros(5))
        with pytest.raises(ValueError, match=r"^mean soft label must lie in \(0, 1\), got 1\.0$"):
            auc_spu_bound(np.ones(5))
        with pytest.raises(ValueError, match=r"^row 3: soft label nan outside \[0, 1\]$"):
            auc_spu_bound(np.array([0.2, 0.7, np.nan, 0.4]))

    def test_closed_form_integrals_match_quadrature(self):
        # independent oracle: dense Riemann quadrature of the CDF integrals
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = rng.choice([0.0, 0.1, 0.35, 0.5, 0.8, 1.0], size=rng.integers(2, 40))
            if not 0 < s.mean() < 1:
                continue
            u = np.linspace(0.0, 1.0, 200_001)
            f_u = np.searchsorted(np.sort(s), u, side="right") / s.size
            i1 = np.trapezoid(f_u, u)
            i2 = np.trapezoid(f_u * (1 - f_u), u)
            want = 0.5 + i2 / (2 * i1 * (1 - i1))
            assert auc_spu_bound(s) == pytest.approx(want, abs=1e-3)

    def test_bound_dominates_any_achieved_area(self):
        rng = np.random.default_rng(9)
        for trial in range(300):
            n = 400
            kind = trial % 3
            if kind == 0:
                s = rng.random(n)
            elif kind == 1:
                s = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
            else:
                s = np.clip(rng.normal(0.4, 0.3, n), 0.0, 1.0)
            if not 0.0 < s.mean() < 1.0:
                continue
            scores = s + rng.normal(0.0, 0.5, n) if trial % 2 else rng.random(n)
            assert auc_spu(s, scores) <= auc_spu_bound(s) + 2e-9

    def test_bound_tight_when_ranking_by_soft_label(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            s = rng.random(200)
            assert auc_spu(s, s) == pytest.approx(auc_spu_bound(s), abs=1e-9)


class TestMixtureCoefficients:
    def test_hand_computed_example(self):
        mc = mixture_coefficients(0.5, 0.8, 0.2)
        assert mc.a == pytest.approx(0.8, abs=1e-12)
        assert mc.b == pytest.approx(0.2, abs=1e-12)
        assert mc.c == pytest.approx(0.2, abs=1e-12)
        assert mc.d == pytest.approx(0.8, abs=1e-12)
        assert mc.determinant == pytest.approx(0.6, abs=1e-12)

    def test_fully_informative_labels_give_identity(self):
        mc = mixture_coefficients(0.3, 1.0, 0.0)
        assert (mc.a, mc.b, mc.c, mc.d) == (1.0, 0.0, 0.0, 1.0)

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pi = rng.uniform(0.05, 0.95)
            s_p = rng.uniform(0.0, 1.0)
            s_n = rng.uniform(0.0, 1.0)
            if not 0 < pi * s_p + (1 - pi) * s_n < 1:
                continue
            mc = mixture_coefficients(pi, s_p, s_n)
            assert mc.a + mc.b == pytest.approx(1.0, abs=1e-12)
            assert mc.c + mc.d == pytest.approx(1.0, abs=1e-12)
            # determinant simplifies to a - c and is positive iff s_p > s_n
            assert mc.determinant == pytest.approx(mc.a - mc.c, abs=1e-9)
            if s_p > s_n:
                assert mc.determinant > 0

    def test_zero_denominator_errors(self):
        with pytest.raises(ValueError, match=r"mixture soft-label mean must lie in \(0, 1\), got 0\.0$"):
            mixture_coefficients(0.5, 0.0, 0.0)
        with pytest.raises(ValueError, match=r"mixture soft-label mean must lie in \(0, 1\), got 1\.0$"):
            mixture_coefficients(0.5, 1.0, 1.0)

    def test_map_auc_values(self):
        mc = mixture_coefficients(0.5, 0.8, 0.2)
        assert map_auc(mc, 1.0) == pytest.approx(0.8, abs=1e-12)
        identity = mixture_coefficients(0.3, 1.0, 0.0)
        for a in (0.0, 0.37, 1.0):
            assert map_auc(identity, a) == a

    def test_map_auc_fixed_point_at_half(self):
        # (b+c)/2 + (ad-bc)/2 = 1/2 because the rows sum to 1
        rng = np.random.default_rng(12)
        for _ in range(100):
            mc = mixture_coefficients(
                rng.uniform(0.1, 0.9), rng.uniform(0.2, 1.0), rng.uniform(0.0, 0.2)
            )
            assert map_auc(mc, 0.5) == pytest.approx(0.5, abs=1e-12)


class TestLinearRelationOnGeneratedData:
    def test_substitute_curve_is_linear_map_of_real_curve(self):
        # conditional independence of S and X given Y makes the substitute
        # rates an (a,b,c,d) mixture of the real ones at every threshold
        ds = gen_gscar(GscarConfig(n=100_000, pi=0.1, seed=17))
        pi_hat, s_p, s_n = estimate_mixture_stats(ds)
        mc = mixture_coefficients(pi_hat, s_p, s_n)
        rng = np.random.default_rng(18)
        w = rng.standard_normal(2)
        scores = ds.features @ w + 0.3 * rng.standard_normal(len(ds))
        spu = roc_spu(ds, scores)
        real = roc_real(ds, scores)
        assert len(spu) == len(real)
        pred_tpr_spu = mc.a * real.ys + mc.b * real.xs
        pred_fpr_spu = mc.c * real.ys + mc.d * real.xs
        assert np.abs(spu.ys - pred_tpr_spu).max() <= 0.02
        assert np.abs(spu.xs - pred_fpr_spu).max() <= 0.02
        assert abs(auc(spu) - map_auc(mc, auc(real))) <= 0.02


class TestCurveIo:
    def test_csv_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        s = rng.random(50)
        curve = roc_spu(s, rng.random(50))
        path = tmp_path / "curve.csv"
        curve_to_csv(curve, path)
        back = RocCurve(*np.loadtxt(path, delimiter=",", skiprows=1).T, kind="spu")
        np.testing.assert_array_equal(back.xs, curve.xs)
        np.testing.assert_array_equal(back.ys, curve.ys)
        assert abs(auc(back) - auc(curve)) <= 1e-12

    @pytest.mark.parametrize("rows", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_bytes_match_per_row_writer_across_chunks(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        t = np.sort(rng.random(rows))[::-1].copy()
        t[:3] = [np.inf, np.nan, -0.0]
        t[-1] = -np.inf
        xs = np.concatenate([[-0.0], np.sort(rng.random(rows - 2)), [1.0]])
        ys = np.concatenate([[0.0], np.sort(rng.choice([0.25, 0.5, 1 / 3], rows - 2)), [1.0]])
        curve = RocCurve(t, xs, ys, kind="spu")
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        curve_to_csv(curve, got)
        curve_to_csv_ref(curve, ref)
        assert got.read_bytes() == ref.read_bytes()
        back = RocCurve(*np.loadtxt(got, delimiter=",", skiprows=1).T, kind="spu")
        for a, b in ((back.thresholds, t), (back.xs, xs), (back.ys, ys)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("rows", [1, CHUNK_ROWS - 2, CHUNK_ROWS, 2 * CHUNK_ROWS + 5])
    def test_curves_written_together_match_separate_writes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        y = np.arange(rows + 1) % 2
        scores = rng.random(rows + 1)
        scores[: rows // 3] = -0.0  # ties, and a threshold whose sign must survive
        curves = [roc_spu(rng.random(rows + 1), scores), roc_real(y, scores)]
        curves.append(RocCurve(curves[0].thresholds, curves[1].xs, curves[0].ys, kind="spu"))
        together = [tmp_path / f"together{i}.csv" for i in range(3)]
        curve_to_csv(curves[0], together[0], more=list(zip(curves[1:], together[1:])))
        for i, curve in enumerate(curves):
            alone = tmp_path / f"alone{i}.csv"
            curve_to_csv(curve, alone)
            assert together[i].read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize("change", ["value", "sign of zero", "length"])
    def test_curves_with_other_thresholds_refused(self, tmp_path, change):
        first = RocCurve([np.inf, 0.0, -np.inf], [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], kind="spu")
        t, xs = [np.inf, 0.25, -np.inf], [0.0, 0.5, 1.0]
        if change == "sign of zero":
            t[1] = -0.0
        elif change == "length":
            t, xs = [np.inf, 0.0, 0.0, -np.inf], [0.0, 0.5, 0.5, 1.0]
        other = RocCurve(t, xs, xs, kind="real")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        with pytest.raises(ValueError) as err:
            curve_to_csv(first, a, more=((other, b),))
        assert str(err.value) == f"curve for {b}: thresholds differ from those for {a}"
        assert not a.exists() and not b.exists()

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_bytes(b"\xef\xbb\xbfthreshold,x,y\r\ninf,0.0,0.0\r\n\r\n-inf,1.0,1.0\r\n")
        curve = read_curve(path)
        assert curve.thresholds.tolist() == [np.inf, -np.inf]
        assert curve.xs.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("0.5,abc,0.5", "row 2, column 'x': could not parse 'abc' as a number"),
            ("0.5,0.5,", "row 2, column 'y': missing value"),
            ("0.5,0.5", "row 2: expected 3 fields, got 2"),
            ("0.5,0.5,0.5,0.5", "row 2: expected 3 fields, got 4"),
        ],
        ids=["bad cell", "missing cell", "short row", "long row"],
    )
    def test_bad_row_is_named(self, tmp_path, row, message):
        path = tmp_path / "curve.csv"
        path.write_text(f"threshold,x,y\ninf,0.0,0.0\n{row}\n-inf,1.0,1.0\n")
        with pytest.raises(ValueError) as err:
            read_curve(path)
        assert str(err.value) == message

    def test_number_over_the_csv_field_limit_reads_as_inf(self, tmp_path):
        # loadtxt has no field size limit, and a number past the float
        # range is inf; a curve has no value rule to refuse it
        path = tmp_path / "curve.csv"
        row = "9" * (csv.field_size_limit() + 1) + ",0.5,0.5"
        path.write_text(f"threshold,x,y\ninf,0.0,0.0\n{row}\n-inf,1.0,1.0\n")
        assert read_curve(path).thresholds.tolist() == [np.inf, np.inf, -np.inf]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "curve.csv"
        for text in ("", "threshold,x,y\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="empty curve file"):
                read_curve(path)

    def test_missing_columns_named(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("threshold,fpr,tpr\ninf,0.0,0.0\n-inf,1.0,1.0\n")
        with pytest.raises(ValueError, match=r"missing column\(s\): \['x', 'y'\]"):
            read_curve(path)

    def test_bound_report(self):
        rng = np.random.default_rng(14)
        s = rng.random(100)
        record = bound_report(s, rng.random(100))
        assert record["satisfied"]
        assert record["margin"] >= -1e-9
