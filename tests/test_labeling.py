"""Rule-ratio labels, empirical-Bayes labels, and the prior fit."""

import codecs
import csv
import gzip
import hashlib
import io
import itertools
import json
import os
import re
import threading
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpu import dataset as dataset_module
from softpu import kernels, labeling
from softpu.labeling import (
    CheckRecord,
    DiscretePrior,
    RuleStats,
    bayes_soft_label,
    bayes_soft_labels,
    check_counts_from_csv,
    check_label_separation,
    fit_prior,
    fitted_mean_log_likelihood,
    mean_log_likelihood,
    prior_from_json,
    prior_to_json,
    records_from_csv,
    rule_soft_label,
)

from reference import fit_objective, point_mass, posterior_pass_prob

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestRuleSoftLabel:
    def test_hand_computed(self):
        assert rule_soft_label(RuleStats(0.10, 0.02)) == pytest.approx(0.8, abs=1e-12)

    def test_rule_no_better_than_random(self):
        assert rule_soft_label(RuleStats(0.05, 0.05)) == 0.0

    def test_clamped_when_rule_underperforms(self):
        assert rule_soft_label(RuleStats(0.01, 0.02)) == 0.0

    def test_zero_rule_ratio_errors(self):
        with pytest.raises(ValueError, match=r"^fail_ratio_rule must be finite and positive, got 0\.0$"):
            rule_soft_label(RuleStats(0.0, 0.02))

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            stats = RuleStats(rng.uniform(1e-6, 1.0), rng.uniform(0.0, 1.0))
            assert 0.0 <= rule_soft_label(stats) <= 1.0

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            RuleStats(1.5, 0.2)


class TestBayesSoftLabel:
    def test_laplace_rule_on_fine_grid(self):
        # Beta-integral oracle: uniform prior gives theta_hat = (k+1)/(n+2)
        prior = DiscretePrior.uniform(1001)
        theta = posterior_pass_prob(CheckRecord(n=3, k=0), prior)
        assert theta == pytest.approx(0.2, abs=1e-3)
        assert bayes_soft_label(CheckRecord(n=3, k=0), prior) == pytest.approx(
            0.8, abs=1e-3
        )

    def test_laplace_rule_all_small_records(self):
        prior = DiscretePrior.uniform(1001)
        for n in range(21):
            for k in range(n + 1):
                got = posterior_pass_prob(CheckRecord(n=n, k=k), prior)
                assert got == pytest.approx((k + 1) / (n + 2), abs=1e-3), (n, k)

    def test_no_evidence_returns_prior_mean(self):
        prior = DiscretePrior.uniform(101)
        assert posterior_pass_prob(CheckRecord(n=0, k=0), prior) == pytest.approx(
            prior.mean, abs=1e-12
        )
        assert bayes_soft_label(CheckRecord(n=0, k=0), prior) == pytest.approx(
            0.5, abs=1e-6
        )

    def test_point_mass_prior(self):
        prior = point_mass(0.7)
        assert posterior_pass_prob(CheckRecord(n=12, k=5), prior) == pytest.approx(0.7)
        assert bayes_soft_label(CheckRecord(n=12, k=5), prior) == pytest.approx(0.3)

    def test_inconsistent_prior_errors(self):
        prior = point_mass(0.0)
        with pytest.raises(ValueError, match="prior inconsistent"):
            bayes_soft_label(CheckRecord(n=3, k=2), prior)

    def test_grid_endpoints(self):
        # theta = 0 and theta = 1 carry weight only when the record allows
        prior = DiscretePrior(np.array([0.0, 0.5, 1.0]), np.full(3, 1.0 / 3))
        assert posterior_pass_prob(CheckRecord(n=0, k=0), prior) == pytest.approx(0.5)
        assert posterior_pass_prob(CheckRecord(n=2, k=0), prior) == pytest.approx(0.1)
        assert posterior_pass_prob(CheckRecord(n=2, k=2), prior) == pytest.approx(0.9)
        assert posterior_pass_prob(CheckRecord(n=2, k=1), prior) == pytest.approx(0.5)

    @pytest.mark.parametrize("n,k", [(2000, 1000), (2000, 1500), (100_000, 70_000)])
    def test_laplace_rule_on_long_histories(self, n, k):
        prior = DiscretePrior.uniform(1001)
        got = posterior_pass_prob(CheckRecord(n=n, k=k), prior)
        assert got == pytest.approx((k + 1) / (n + 2), abs=1e-9)

    def test_monotone_in_passes(self):
        # more passed checks -> lower risk label, strictly
        prior = DiscretePrior.uniform(201)
        for n in (5, 12, 20):
            labels = [bayes_soft_label(CheckRecord(n=n, k=k), prior) for k in range(n + 1)]
            assert np.all(np.diff(labels) < 0)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            CheckRecord(n=3, k=4)
        with pytest.raises(ValueError):
            CheckRecord(n=-1, k=0)
        with pytest.raises(ValueError, match="n must be at most"):
            CheckRecord(n=2**63, k=0)


class TestPosteriorCache:
    def test_one_rows_call_per_history_length_below_the_grid_size(self, monkeypatch):
        # lengths 0..10 are below the grid size 11: one call labels (n, 0..n);
        # a longer history makes one call per pair
        prior = DiscretePrior.uniform(11)
        rng = np.random.default_rng(3)
        n = rng.integers(0, 25, 400)
        k = rng.integers(0, 25, 400) % (n + 1)
        records = [CheckRecord(a, b) for a, b in zip(n.tolist(), k.tolist())]
        calls = []
        rows = labeling._posterior_rows
        monkeypatch.setattr(
            labeling,
            "_posterior_rows",
            lambda p, ns, ks: calls.append((ns.tolist(), ks.tolist())) or rows(p, ns, ks),
        )
        labels = [bayes_soft_label(r, prior) for r in records]
        labels += [bayes_soft_label(r, prior) for r in records]
        short = {a for a in n.tolist() if a < 11}
        long_pairs = {(a, b) for a, b in zip(n.tolist(), k.tolist()) if a >= 11}
        assert len(calls) == len(short) + len(long_pairs)
        assert sorted((ns[0], len(ks)) for ns, ks in calls if ns[0] < 11) == [
            (a, a + 1) for a in sorted(short)
        ]
        assert sorted((ns[0], ks[0]) for ns, ks in calls if ns[0] >= 11) == sorted(long_pairs)
        assert labels[: len(records)] == labels[len(records) :]

    def test_labels_equal_a_fresh_prior_bit_for_bit(self):
        records = records_from_csv(FIXTURES / "check_records.csv")
        prior = fit_prior(*counts(records), grid_size=51, max_iters=20)
        cached = np.array([bayes_soft_label(r, prior) for r in records])
        fresh = np.array(
            [
                1.0 - posterior_pass_prob(r, DiscretePrior(prior.grid, prior.weights))
                for r in records
            ]
        )
        assert cached.tobytes() == fresh.tobytes()

    def test_record_without_support_raises_on_every_call(self):
        prior = point_mass(0.0)
        bayes_soft_label(CheckRecord(n=3, k=0), prior)
        for _ in range(3):
            with pytest.raises(ValueError, match="prior inconsistent"):
                bayes_soft_label(CheckRecord(n=3, k=2), prior)

    def test_a_long_history_labels_in_grid_sized_memory(self):
        prior = DiscretePrior.uniform(101)
        tracemalloc.start()
        try:
            label = bayes_soft_label(CheckRecord(n=10**12, k=7 * 10**11), prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert label == pytest.approx(0.3, abs=0.01)
        # a handful of grid-sized float64 rows, not one row per pass count
        assert peak <= 40 * 8 * prior.grid.size


@st.composite
def priors_and_pairs(draw):
    """A prior, some with zero weights or grid points at 0 and 1, and
    (n, k) pairs with histories below and above the grid size."""
    size = draw(st.integers(1, 8))
    inner = draw(
        st.lists(st.floats(0.01, 0.99), min_size=size, max_size=size, unique=True)
    )
    grid = sorted(set(inner) | set(draw(st.sampled_from([(), (0.0,), (1.0,), (0.0, 1.0)]))))
    weights = np.array([draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for _ in grid])
    if not weights.sum():
        weights[draw(st.integers(0, len(grid) - 1))] = 1.0
    prior = DiscretePrior(np.array(grid), weights / weights.sum())
    ns = draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 8, 13, 400, 10**9]), min_size=1,
                       max_size=6))
    pairs = [(n, draw(st.sampled_from([0, n, n // 2, min(1, n), n - min(1, n)]))) for n in ns]
    return prior, pairs


def labels_or_error(label):
    """``label()`` as float64 bits, or the text of its error."""
    try:
        return np.float64(label()).tobytes()
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=priors_and_pairs())
def test_the_three_labelings_agree_bit_for_bit(case):
    prior, pairs = case
    fresh = lambda: DiscretePrior(prior.grid, prior.weights)  # noqa: E731
    cached = fresh()
    for n, k in pairs:
        record = CheckRecord(n, k)
        one = labels_or_error(lambda: bayes_soft_label(record, cached))
        alone = labels_or_error(lambda: bayes_soft_label(record, fresh()))
        direct = labels_or_error(lambda: 1.0 - posterior_pass_prob(record, fresh()))
        array = labels_or_error(lambda: bayes_soft_labels([n], [k], fresh())[0])
        assert one == alone == direct == array
        if isinstance(one, str):
            assert one == (
                f"prior inconsistent with record (n={n}, k={k}): "
                "posterior normalizer vanished"
            )
    ns, ks = zip(*pairs)
    try:
        together = bayes_soft_labels(ns, ks, fresh())
    except ValueError as exc:
        assert str(exc).startswith("prior inconsistent with record")
    else:
        each = [bayes_soft_label(CheckRecord(n, k), cached) for n, k in pairs]
        assert together.tobytes() == np.array(each).tobytes()


class TestDiscretePriorValidation:
    @pytest.mark.parametrize(
        "field,d",
        [
            ("weights", {"grid": [0.1, 0.5, 0.9], "weights": [0.5, float("nan"), 0.5]}),
            ("grid", {"grid": [0.1, float("nan"), 0.9], "weights": [0.25, 0.5, 0.25]}),
        ],
    )
    def test_non_finite_values_rejected(self, field, d):
        with pytest.raises(ValueError, match=f"{field} must be finite: index 1 is nan"):
            DiscretePrior.from_dict(d)

    @pytest.mark.parametrize(
        "d, message",
        [
            ({"weights": [1.0]}, "prior field 'grid' is required"),
            ({"grid": [0.5]}, "prior field 'weights' is required"),
            ({"grid": {"a": 0.5}, "weights": [1.0]}, "prior field 'grid' must be list, got dict"),
        ],
    )
    def test_missing_or_non_numeric_field_named(self, tmp_path, d, message):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            prior_from_json(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fit, message",
        [
            ({"objective_trace": "ab"}, "prior field 'objective_trace' must be list, got str"),
            ({"objective_trace": [0.5, "a"]},
             "prior field 'objective_trace' must hold numbers, got 'a'"),
            ({"objective_trace": [True]}, "prior field 'objective_trace' must hold numbers, got True"),
            ({"converged": "no"}, "prior field 'converged' must be bool, got str"),
            ({"converged": 1}, "prior field 'converged' must be bool, got int"),
            ({"iterations": "many"}, "prior field 'iterations' must be int, got str"),
            ({"convergd": True, "iterations": "many"},
             "prior field 'convergd' is not a known key; did you mean 'converged'?"),
        ],
    )
    def test_fit_fields_checked(self, tmp_path, fit, message):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps({"grid": [0.5], "weights": [1.0], **fit}), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            prior_from_json(path)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "fit",
        [{}, {"objective_trace": None, "converged": None},
         {"objective_trace": [2, 1.5], "converged": False}],
    )
    def test_fit_fields_absent_null_or_well_typed_load(self, fit):
        prior = DiscretePrior.from_dict({"grid": [0.5], "weights": [1.0], **fit})
        trace = fit.get("objective_trace")
        assert prior.objective_trace == (None if trace is None else tuple(trace))
        assert prior.converged is fit.get("converged")


def synth_records(rng, n_records, theta, n_days=20):
    return [
        CheckRecord(n=n_days, k=int(rng.binomial(n_days, theta)))
        for _ in range(n_records)
    ]


def counts(records):
    """The (n, k) arrays of a list of records, as the prior fit takes them."""
    return np.array([r.n for r in records]), np.array([r.k for r in records])


class TestFitPrior:
    def test_zero_iterations_returns_uniform(self):
        rng = np.random.default_rng(1)
        prior = fit_prior(*counts(synth_records(rng, 50, 0.5)), grid_size=21, max_iters=0)
        np.testing.assert_allclose(prior.weights, 1.0 / 21, atol=1e-12)
        assert len(prior.objective_trace) == 1
        assert prior.converged is False

    @pytest.mark.parametrize(
        "field,value",
        [
            ("step_size", float("nan")),
            ("step_size", -1.0),
            ("step_size", 0.0),
            ("lam", float("nan")),
            ("lam", -5.0),
            ("tol", float("nan")),
            ("tol", -1e-9),
            ("tol", float("inf")),
            ("max_iters", -3),
        ],
    )
    def test_bad_hyperparameter_named(self, field, value):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match=f"^{field} must be"):
            fit_prior(*counts(synth_records(rng, 20, 0.5)), grid_size=11, **{field: value})

    def test_long_histories_stay_finite(self):
        records = [
            CheckRecord(n=20, k=12),
            CheckRecord(n=1200, k=600),
            CheckRecord(n=2000, k=1000),
            CheckRecord(n=100_000, k=50_000),
        ]
        prior = fit_prior(*counts(records), grid_size=101, max_iters=50)
        assert np.all(np.isfinite(prior.objective_trace))
        assert abs(prior.weights.sum() - 1.0) <= 1e-12
        assert np.isfinite(mean_log_likelihood(*counts(records), prior))
        assert fit_objective(*counts(records), prior, 1e-3) == pytest.approx(
            prior.objective_trace[-1], abs=1e-9
        )

    def test_repeating_records_leaves_fit_unchanged(self):
        rng = np.random.default_rng(10)
        records = synth_records(rng, 300, 0.35, n_days=12)
        once = fit_prior(*counts(records), grid_size=51)
        tenfold = fit_prior(*counts(records * 10), grid_size=51)
        np.testing.assert_allclose(tenfold.weights, once.weights, rtol=0, atol=1e-12)

    def test_kernel_sees_one_row_per_distinct_pair(self, monkeypatch):
        seen = {}
        real = kernels.eg_minimize

        def capture(B, *args):
            seen["B"] = B
            seen["w"] = args[-1]
            return real(B, *args)

        monkeypatch.setattr(kernels, "eg_minimize", capture)
        records = [CheckRecord(10, 7)] * 5 + [CheckRecord(10, 2)] * 3 + [CheckRecord(4, 4)]
        fit_prior(*counts(records), grid_size=21, max_iters=5)
        assert seen["B"].shape == (3, 21)
        # pairs sorted by (n, k): (4, 4), (10, 2), (10, 7)
        np.testing.assert_allclose(seen["w"], [1 / 9, 3 / 9, 5 / 9], rtol=0, atol=1e-15)
        np.testing.assert_allclose(seen["B"].max(axis=1), 1.0, rtol=0, atol=0)

    def test_concentrates_near_generating_theta(self):
        rng = np.random.default_rng(2)
        records = synth_records(rng, 2000, 0.5)
        prior = fit_prior(*counts(records), grid_size=101, lam=1e-3)
        assert prior.mass_in(0.4, 0.6) >= 0.8
        # independent oracle: best single-point-mass prior sits near 0.5
        grid = prior.grid
        objs = [
            fit_objective(*counts(records), DiscretePrior(np.array([t]), np.array([1.0])), 0.0)
            for t in grid
        ]
        assert abs(grid[int(np.argmin(objs))] - 0.5) < 0.05

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(3)
        prior = fit_prior(*counts(synth_records(rng, 300, 0.3)), grid_size=51)
        diffs = np.diff(prior.objective_trace)
        assert np.all(diffs <= 0)
        assert np.all(diffs[:-1] < 0)

    def test_simplex_preserved_at_every_iterate(self):
        # the run is deterministic, so the k-iteration prefix run exposes
        # iterate k exactly
        rng = np.random.default_rng(4)
        records = synth_records(rng, 100, 0.6, n_days=10)
        for iters in (0, 1, 2, 5, 10, 50):
            prior = fit_prior(*counts(records), grid_size=31, max_iters=iters)
            assert abs(prior.weights.sum() - 1.0) <= 1e-12
            assert np.all(prior.weights >= 0.0)

    def test_two_point_grid_matches_brute_force(self):
        # oracle: sweep the single free weight at 1e-3 resolution
        rng = np.random.default_rng(5)
        records = synth_records(rng, 200, 0.15, n_days=8) + synth_records(
            rng, 600, 0.97, n_days=8
        )
        fitted = fit_prior(*counts(records), grid_size=2, lam=0.0, max_iters=4000, tol=1e-15)
        grid = fitted.grid
        sweep = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        objs = [
            fit_objective(
                *counts(records), DiscretePrior(grid, np.array([w, 1.0 - w])), 0.0
            )
            for w in sweep
        ]
        best = sweep[int(np.argmin(objs))]
        assert abs(fitted.weights[0] - best) <= 1e-3

    def test_returned_iterate_is_best_seen(self):
        rng = np.random.default_rng(6)
        records = synth_records(rng, 200, 0.4)
        prior = fit_prior(*counts(records), grid_size=41, lam=1e-3)
        assert prior.objective_trace[-1] == min(prior.objective_trace)
        got = fit_objective(*counts(records), prior, 1e-3)
        assert got == pytest.approx(prior.objective_trace[-1], abs=1e-9)

    def test_empty_records_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            fit_prior([], [], grid_size=11)

    def test_reported_likelihood_includes_binomial_constant(self):
        rng = np.random.default_rng(7)
        records = synth_records(rng, 50, 0.5, n_days=6)
        prior = fit_prior(*counts(records), grid_size=21, max_iters=5)
        # reported value differs from the optimized one exactly by the
        # mean log binomial coefficient
        import math

        mean_log_binom = np.mean(
            [
                math.lgamma(r.n + 1) - math.lgamma(r.k + 1) - math.lgamma(r.n - r.k + 1)
                for r in records
            ]
        )
        opt = fit_objective(*counts(records), prior, 0.0)
        rep = mean_log_likelihood(*counts(records), prior)
        assert rep == pytest.approx(-opt + mean_log_binom, abs=1e-9)


class TestLabelSeparationCheck:
    def test_generated_separation(self):
        from softpu.dataset import GscarConfig, gen_gscar

        ds = gen_gscar(GscarConfig(n=20_000, pi=0.1, seed=8))
        report = check_label_separation(ds.soft_labels, ds.true_labels, pi=0.1)
        assert report.separated
        assert report.difference > 0.1

    def test_all_zero_soft_labels(self):
        report = check_label_separation(
            np.zeros(6), np.array([1, 0, 1, 0, 1, 0]), pi=0.5
        )
        assert report.difference == 0.0
        assert not report.separated
        assert not report.all_nonzero_above_pi

    def test_soft_equals_true(self):
        y = np.array([1, 0, 1, 0])
        report = check_label_separation(y.astype(float), y, pi=0.5)
        assert report.difference == 1.0
        assert report.all_nonzero_above_pi

    def test_absent_class_errors(self):
        with pytest.raises(ValueError, match="class"):
            check_label_separation(np.array([0.1, 0.2]), np.array([1, 1]), pi=0.5)
        with pytest.raises(ValueError) as err:
            check_label_separation(np.array([0.1, 0.2]), np.array([0, 0]), pi=0.5)
        assert str(err.value) == "positive class (Y=1) is empty: none of the 2 true labels is 1"

    @pytest.mark.parametrize(
        "soft, truth, message",
        [
            ([0.1, 0.2, 0.3], [1, 0, 2], "row 3: true label 2.0 must be exactly 0 or 1"),
            ([0.1, np.nan, 0.3], [1, 0, 0], "row 2: soft label nan outside [0, 1]"),
        ],
        ids=["true label 2", "nan soft label"],
    )
    def test_bad_labels_are_named(self, soft, truth, message):
        with pytest.raises(ValueError) as info:
            check_label_separation(np.array(soft), np.array(truth), pi=0.5)
        assert str(info.value) == message


class TestRecordsIo:
    def test_csv_ingestion(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("user_id,n,k\nu1,5,3\nu2,10,10\nu3,0,0\n")
        records = records_from_csv(path)
        assert [(r.n, r.k) for r in records] == [(5, 3), (10, 10), (0, 0)]

    def test_bad_rows(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("user_id,n,k\nu1,5,x\n")
        with pytest.raises(ValueError, match="row 1"):
            records_from_csv(path)
        path.write_text("user_id,n,k\nu1,5,3\nu2,4,9\n")
        with pytest.raises(ValueError, match=r"^row 2: need 0 <= k <= n, got n=4, k=9$"):
            records_from_csv(path)
        path.write_text("user_id,n\nu1,5\n")
        with pytest.raises(ValueError, match="columns"):
            records_from_csv(path)

    def test_records_are_plain_ints_shared_per_pair(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("user_id,n,k\nu1,5,3\nu2,4,2\nu3,5,3\n")
        records = records_from_csv(path)
        assert column_pass(path.read_bytes()) is not None
        assert records == [CheckRecord(5, 3), CheckRecord(4, 2), CheckRecord(5, 3)]
        assert records[0] is records[2]
        assert all(type(r.n) is int and type(r.k) is int for r in records)

    def test_prior_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        records = synth_records(rng, 40, 0.5, n_days=5)
        prior = fit_prior(*counts(records), grid_size=11, max_iters=3)
        path = tmp_path / "prior.json"
        prior_to_json(prior, path)
        assert json.loads(path.read_text(encoding="utf-8"))["iterations"] == 3
        back = prior_from_json(path)
        np.testing.assert_array_equal(back.grid, prior.grid)
        np.testing.assert_array_equal(back.weights, prior.weights)
        assert back.objective_trace == prior.objective_trace
        assert back.converged is prior.converged is False


def records_reference(path):
    """The row-at-a-time reader that the column pass must agree with. It
    parses every row before it checks any pair, so a row that does not
    parse is named before an earlier pair outside 0 <= k <= n; a count
    beyond int64 is refused while parsing."""

    def record(row_idx, n, k):
        try:
            return CheckRecord(n=n, k=k)
        except ValueError as exc:
            raise ValueError(f"row {row_idx}: {exc}") from None

    pairs = []
    row_idx = -1  # the row being read is row_idx + 1
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        # DictReader takes its first line for the header, even an empty one
        reader = csv.DictReader(itertools.dropwhile(lambda line: not line.strip("\r\n"), fh))
        try:
            if reader.fieldnames is None or not {"n", "k"} <= set(reader.fieldnames):
                raise ValueError("records CSV needs columns user_id, n, k")
            row_idx = 0
            for row_idx, row in enumerate(reader, start=1):
                try:
                    n = int(row["n"])
                    k = int(row["k"])
                except (TypeError, ValueError):
                    raise ValueError(f"row {row_idx}: n and k must be integers") from None
                if max(abs(n), abs(k)) >= 2**63:
                    record(row_idx, n, k)
                pairs.append((row_idx, n, k))
        except csv.Error as exc:
            raise ValueError(f"row {row_idx + 1}: {exc}") from None
    if not pairs:
        raise ValueError("empty records file")
    return [record(*pair) for pair in pairs]


def column_pass(raw):
    """The column pass of check_counts_from_csv on a file's bytes: the n and
    k columns, or None if the row loop must read the file."""
    table = dataset_module._column_pass(io.BytesIO(raw), labeling._RECORDS)
    return None if table is None else (table[:, 0], table[:, 1])


def outcome(read, path):
    """``read(path)`` as (n, k) pairs, or the type and text of its error."""
    try:
        return [(r.n, r.k) for r in read(path)]
    except Exception as exc:  # any error, as long as both readers give the same
        return type(exc), str(exc)


BAD_INTEGERS = (ValueError, "row 1: n and k must be integers")


# Record files with what both readers give, and whether the column pass
# parses them (its values are checked after it, whichever pass parsed them).
RECORD_FILES = [
    ("user_id,n,k\nu1,5,3\nu2,10,10\nu3,0,0\n", [(5, 3), (10, 10), (0, 0)], True),
    ("k,n\n3,5\n", [(5, 3)], True),
    ("user_id,n,k\nu1, 5 ,+3\nu2,-0,0", [(5, 3), (0, 0)], True),
    # a quote joins the rest of the file into one field
    ('user_id,n,k\n"x,5,3\nu2,4,2\n', BAD_INTEGERS, False),
    # a multi-line quoted field is one csv row, but two lines for loadtxt
    ('n,k,id\n5,3,"x\n6,2,y"\n', [(5, 3)], False),
    # ragged rows: both readers take n and k by position
    ("user_id,n,k\nu1,5,3,extra\n", [(5, 3)], True),
    ("user_id,n,k,x\nu1,5,3,x,y\nu2,4,2\n", [(5, 3), (4, 2)], True),
    ("user_id,n,k,x\nu1,5,3\nu2,4,2,x,y\n", [(5, 3), (4, 2)], True),
    ("user_id,n,k\nu1,5\n", BAD_INTEGERS, False),
    # a row that holds n but not k
    ("user_id,n,k\nu1,5,3\nu2,4\n", (ValueError, "row 2: n and k must be integers"), False),
    ("user_id,n,k\nu1,1_000,3\n", [(1000, 3)], False),
    ("user_id,n,k\nu1,\uff15,3\n", [(5, 3)], False),
    # loadtxt reads both of these as numbers, int() neither
    ("user_id,n,k\nu1,5\x1c,3\n", BAD_INTEGERS, False),
    ("user_id,n,k\nu1,\u01fe,3\n", BAD_INTEGERS, False),
    ("user_id,n,k\nu1,5,3#x\n", BAD_INTEGERS, False),
    (
        "user_id,n,k\nu1,9223372036854775808,0\n",
        (
            ValueError,
            "row 1: n must be at most 9223372036854775807, "
            "got n=9223372036854775808",
        ),
        False,
    ),
    ("user_id,n,k\nu1,9223372036854775807,0\n", [(2**63 - 1, 0)], True),
    # a repeated column is read at its last position, in both passes
    ("user_id,n,k,n\nu1,5,3,7\n", [(7, 3)], True),
    ("user_id,n,k\n\nu1,5,3\n\n\nu2,4,2\n\n", [(5, 3), (4, 2)], True),
    ("user_id,n,k\r\nu1,5,3\r\n\r\nu2,4,2\r\n", [(5, 3), (4, 2)], True),
    ("user_id,n,k\ru1,5,3\ru2,4,2\r", [(5, 3), (4, 2)], True),
    ("user_id,n,k\nu1,5,3\n \n", (ValueError, "row 2: n and k must be integers"), False),
    ("n,k\n5,3\n \n", (ValueError, "row 2: n and k must be integers"), False),
    ("\ufeffuser_id,n,k\nu1,5,3\n", [(5, 3)], True),
    ("\ufeffn,k\n5,3\n", [(5, 3)], True),
    ("user_id,n,k\n", (ValueError, "empty records file"), False),
    ("user_id,n,k\n\n\n", (ValueError, "empty records file"), False),
    ("user_id,n,k\r\n\r\n\r\n", (ValueError, "empty records file"), False),
    ("", (ValueError, "records CSV needs columns user_id, n, k"), False),
    # empty lines before the header are skipped, as after it
    ("\nuser_id,n,k\nu1,5,3\n", [(5, 3)], True),
    (
        "user_id,n,k\nu1,5,3\nu2,4,9\n",
        (ValueError, "row 2: need 0 <= k <= n, got n=4, k=9"),
        True,
    ),
    (
        "user_id,n,k\nu1,-1,0\n",
        (ValueError, "row 1: need 0 <= k <= n, got n=-1, k=0"),
        True,
    ),
    # non-ASCII text outside the n and k columns: the column pass reads it
    ("user_id,n,k\n\u00fc000007,5,3\nu2,4,2\n", [(5, 3), (4, 2)], True),
    ("\u00fcser,n,k,note\nu1,5,3,\u2028\x85\n", [(5, 3)], True),
    ("n,k\n5,3,\u00fc\n4\u00fc,2\n", BAD_INTEGERS[:1] + ("row 2: n and k must be integers",), False),
]


def counts_outcome(path):
    """check_counts_from_csv(path) as (n, k) pairs, or the type and text of
    its error."""
    try:
        n, k = check_counts_from_csv(path)
    except Exception as exc:  # any error, as long as both readers give the same
        return type(exc), str(exc)
    assert n.dtype == k.dtype == np.int64
    return list(zip(n.tolist(), k.tolist()))


class TestRecordsColumnPass:
    """records_from_csv against the row-at-a-time reader: the same records or
    the same error, whether or not the column pass vouches for the file."""

    @pytest.mark.parametrize("text, expected, by_columns", RECORD_FILES)
    def test_agrees_with_row_loop(self, tmp_path, text, expected, by_columns):
        path = tmp_path / "records.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(records_from_csv, path) == outcome(records_reference, path)
        assert outcome(records_from_csv, path) == expected
        assert (column_pass(path.read_bytes()) is not None) == by_columns

    @pytest.mark.parametrize("text, expected, by_columns", RECORD_FILES)
    def test_counts_agree_with_row_loop(self, tmp_path, text, expected, by_columns):
        path = tmp_path / "records.csv"
        path.write_bytes(text.encode("utf-8"))
        assert counts_outcome(path) == outcome(records_reference, path) == expected

    def test_undecodable_file_is_a_named_error(self, tmp_path):
        path = tmp_path / "records.csv"
        raw = b"user_id,n,k\n" + b"u1,5,3\n" * 3000 + b"u\xff,5,3\n"
        path.write_bytes(raw)
        assert outcome(records_reference, path)[0] is UnicodeDecodeError
        offset = len(raw) - len(b"\xff,5,3\n")
        want = (ValueError, f"{path}: not UTF-8 text: byte 0xff at offset {offset}")
        assert outcome(records_from_csv, path) == want
        assert counts_outcome(path) == want

    def test_field_over_the_csv_limit_fails_as_the_row_loop_does(self, tmp_path):
        path = tmp_path / "records.csv"
        limit = csv.field_size_limit()
        for text, row in [
            ("user_id,n,k\nu1,5,3\n\n" + "u" * (limit + 1) + ",5,3\n", 2),
            ("user_id,n,k," + "x" * (limit + 1) + "\nu1,5,3\n", 0),
        ]:
            path.write_text(text)
            got = outcome(records_from_csv, path)
            assert got == (ValueError, f"row {row}: field larger than field limit ({limit})")
            assert got == outcome(records_reference, path)

    def test_no_warnings(self, tmp_path):
        path = tmp_path / "records.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in ("user_id,n,k\nu1,5,3\n", "user_id,n,k\n", "user_id,n,k\n\n \n"):
                path.write_text(text)
                outcome(records_from_csv, path)
            assert records_from_csv(FIXTURES / "check_records.csv")


HEADERS = ["user_id,n,k", "n,k", "k,n,user_id", "user_id,n,k,n", "user_id,n", "user_id, n,k"]
CELLS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["+4", " 7", "3 ", "1_0", '"4"', '"', '"u', "", "x", "-0", "007", "3#",
                     "9223372036854775808", "5\x1c", "\u0663", "\t2"]),
    st.text(alphabet=' ,"_+-0123456789u\t', max_size=4),
)


@st.composite
def records_files(draw):
    """Record files whose rows are mostly valid; the others have one odd cell,
    a field too few or too many, or nothing but a space."""
    header = draw(st.sampled_from(HEADERS))
    names = header.split(",")
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        # every n column gets its own draw, so a duplicated header shows
        k = draw(st.integers(0, 6))
        row = [str(draw(st.integers(k, 12))) if name == "n" else str(k) if name == "k"
               else "u1" for name in names]
        kind = draw(st.sampled_from(["valid"] * 4 + ["odd"] * 3 + ["short", "long", "blank"]))
        if kind == "odd":
            row[draw(st.integers(0, len(row) - 1))] = draw(CELLS)
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append(draw(CELLS))
        lines.append(draw(st.sampled_from(["", " "])) if kind == "blank" else ",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=records_files())
def test_column_pass_agrees_with_row_loop(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "property-records.csv"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(records_from_csv, path) == outcome(records_reference, path)


def counts_from_columns_reference(raw):
    """The column pass as it read a whole file's bytes before it streamed:
    the reference for the rules the scan applies chunk by chunk."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
    if raw.translate(None, dataset_module._VOUCHED_BYTES):
        return None
    lines = raw.splitlines()
    header = lines[0].decode("utf-8").split(",") if lines else []
    if "n" not in header or "k" not in header:
        return None
    # a repeated name is read at its last position, as csv.DictReader reads it
    usecols = [len(header) - 1 - header[::-1].index(name) for name in ("n", "k")]
    rows = [line.split(b",") for line in lines[1:]]
    if any(not row[j].isascii() for row in rows for j in usecols if j < len(row)):
        return None
    if not any(lines[1:]) or max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt([line.decode("utf-8") for line in lines], delimiter=",",
                           comments=None, skiprows=1, usecols=usecols, dtype=np.int64,
                           ndmin=2)
    except ValueError:
        return None
    return table[:, 0].tolist(), table[:, 1].tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    text=records_files(),
    bom=st.booleans(),
    chunk=st.sampled_from([1, 2, 3, 5, 8, 64, 1 << 20]),
    limit=st.sampled_from([3, 6, 12, 131072]),
)
def test_streamed_column_pass_agrees_with_the_whole_file_pass(text, bom, chunk, limit):
    raw = codecs.BOM_UTF8 * bom + text.encode("utf-8")
    old_limit = csv.field_size_limit(limit)
    try:
        want = counts_from_columns_reference(raw)
        with mock.patch.object(dataset_module, "SCAN_CHUNK_BYTES", chunk):
            got = column_pass(raw)
    finally:
        csv.field_size_limit(old_limit)
    assert (None if got is None else (got[0].tolist(), got[1].tolist())) == want


def benchmark_records(seed, users):
    """A records CSV shaped like the benchmark's: n on 5..30, bimodal pass rates."""
    rng = np.random.default_rng(seed)
    n = rng.integers(5, 31, users)
    theta = np.where(rng.random(users) < 0.65, rng.beta(17, 3, users), rng.beta(3, 6, users))
    k = rng.binomial(n, theta)
    rows = [f"u{i:06d},{a},{b}" for i, (a, b) in enumerate(zip(n.tolist(), k.tolist()))]
    return ("user_id,n,k\n" + "\n".join(rows) + "\n").encode("ascii"), n, k


class TestByteOrderMark:
    """One leading UTF-8 byte-order mark, as spreadsheet exports write it."""

    def test_records_file_with_bom_takes_the_column_pass(self, tmp_path):
        raw, n, k = benchmark_records(31, 2000)
        path = tmp_path / "records.csv"
        path.write_bytes(codecs.BOM_UTF8 + raw)
        by_columns = column_pass(path.read_bytes())
        assert by_columns is not None
        got = check_counts_from_csv(path)
        for column, want in zip(got, (n, k)):
            assert np.array_equal(column, want)
        assert [(r.n, r.k) for r in records_from_csv(path)] == list(zip(n.tolist(), k.tolist()))

    def test_bom_before_an_n_first_header(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(codecs.BOM_UTF8 + b"n,k,user_id\n5,3,u1\n7,0,u2\n")
        assert counts_outcome(path) == [(5, 3), (7, 0)]

    def test_bom_file_the_row_loop_reads(self, tmp_path):
        # the quotes send it to the row loop, which skips the mark too
        path = tmp_path / "records.csv"
        path.write_bytes(codecs.BOM_UTF8 + b'n,k,user_id\n5,3,"u1"\n')
        assert column_pass(path.read_bytes()) is None
        assert counts_outcome(path) == [(5, 3)]

    def test_only_one_mark_is_skipped(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(codecs.BOM_UTF8 * 2 + b"n,k\n5,3\n")
        assert column_pass(path.read_bytes()) is None
        assert counts_outcome(path) == (ValueError, "records CSV needs columns user_id, n, k")


def loadtxt_spy(monkeypatch):
    """The first argument of every np.loadtxt call, in call order."""
    seen = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda fname, *a, **kw: seen.append(fname)
                        or loadtxt(fname, *a, **kw))
    return seen


class TestReaderRoutes:
    """A regular file's counts are read by numpy from its path; other files,
    and a file replaced after the scan, from the open file."""

    @pytest.mark.parametrize("bom", [False, True])
    def test_regular_file_is_read_by_path(self, tmp_path, monkeypatch, bom):
        raw, n, k = benchmark_records(17, 500)
        path = tmp_path / "records.csv"
        path.write_bytes(codecs.BOM_UTF8 * bom + raw)
        seen = loadtxt_spy(monkeypatch)
        got = check_counts_from_csv(path)
        assert [type(fname) for fname in seen] == [str]
        assert Path(seen[0]) == path.absolute()
        assert np.array_equal(got[0], n) and np.array_equal(got[1], k)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_named_like_a_compressed_file(self, tmp_path, monkeypatch, suffix):
        raw, n, k = benchmark_records(23, 500)
        plain = tmp_path / "records.csv"
        named = tmp_path / f"records{suffix}"
        plain.write_bytes(raw)
        named.write_bytes(raw)
        seen = loadtxt_spy(monkeypatch)
        got = check_counts_from_csv(named)
        assert not any(isinstance(fname, str) for fname in seen)
        for column, want in zip(got, check_counts_from_csv(plain)):
            assert np.array_equal(column, want)
        assert [(r.n, r.k) for r in records_from_csv(named)] == list(zip(n.tolist(), k.tolist()))

    def test_file_replaced_between_scan_and_parse(self, tmp_path, monkeypatch):
        raw, n, k = benchmark_records(29, 500)
        other, _, _ = benchmark_records(31, 700)
        path = tmp_path / "records.csv"
        path.write_bytes(raw)
        scan = dataset_module._lines

        def scan_then_replace(*args):
            usecols = scan(*args)
            (tmp_path / "new.csv").write_bytes(other)
            os.replace(tmp_path / "new.csv", path)
            return usecols

        monkeypatch.setattr(dataset_module, "_lines", scan_then_replace)
        seen = loadtxt_spy(monkeypatch)
        got = check_counts_from_csv(path)
        # the path names the new file: its parse is dropped for the open file's
        assert [type(fname) for fname in seen][0] is str
        assert len(seen) == 2 and not isinstance(seen[1], str)
        assert np.array_equal(got[0], n) and np.array_equal(got[1], k)

    def test_file_removed_between_scan_and_parse(self, tmp_path, monkeypatch):
        raw, n, k = benchmark_records(37, 300)
        other, _, _ = benchmark_records(41, 400)
        path = tmp_path / "records.csv"
        path.write_bytes(raw)
        # given the path, numpy opens records.csv.gz in its place
        (tmp_path / "records.csv.gz").write_bytes(gzip.compress(other))
        scan = dataset_module._lines

        def scan_then_remove(*args):
            usecols = scan(*args)
            path.unlink()
            return usecols

        monkeypatch.setattr(dataset_module, "_lines", scan_then_remove)
        got = check_counts_from_csv(path)
        assert np.array_equal(got[0], n) and np.array_equal(got[1], k)

    def test_non_ascii_outside_n_and_k_is_read_by_path(self, tmp_path, monkeypatch):
        raw, n, k = benchmark_records(901, 20000)
        path = tmp_path / "records.csv"
        path.write_bytes(raw.replace(b"\nu000007,", "\n\u00fc000007,".encode()))
        seen = loadtxt_spy(monkeypatch)
        got = check_counts_from_csv(path)
        assert [type(fname) for fname in seen] == [str]
        assert np.array_equal(got[0], n) and np.array_equal(got[1], k)

    def test_non_ascii_in_n_takes_the_row_loop(self, tmp_path, monkeypatch):
        raw, n, k = benchmark_records(901, 2000)
        # n of user 7 in fullwidth digits, which int() reads
        wide = "".join(chr(0xFF10 + int(d)) for d in str(n[7]))
        row = f"u000007,{n[7]},{k[7]}\n".encode()
        path = tmp_path / "records.csv"
        path.write_bytes(raw.replace(row, f"u000007,{wide},{k[7]}\n".encode()))
        seen = loadtxt_spy(monkeypatch)
        assert counts_outcome(path) == outcome(records_reference, path)
        assert seen == []
        assert np.array_equal(check_counts_from_csv(path)[0], n)

    def test_pipe_the_row_loop_reads(self, tmp_path):
        # the row loop reads the pipe's bytes: opening the pipe again would
        # wait for a writer forever, so the read runs in a daemon thread
        path = tmp_path / "records.pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(b'n,k,id\n5,3,"u1"\n',))
        got = []
        reader = threading.Thread(target=lambda: got.append(counts_outcome(path)), daemon=True)
        writer.start()
        reader.start()
        writer.join(timeout=10)
        reader.join(timeout=10)
        assert not writer.is_alive() and not reader.is_alive()
        assert got == [[(5, 3)]]


class TestCheckCounts:
    def test_fixture_labels_keep_their_bits(self):
        # the labels' float64 bits as the per-record fit gave them before the
        # fit took count arrays (numpy 2.4 with scipy-openblas 0.3.31)
        path = FIXTURES / "check_records.csv"
        prior = fit_prior(*check_counts_from_csv(path))
        labels = np.array([bayes_soft_label(r, prior) for r in records_from_csv(path)])
        assert hashlib.sha256(labels.tobytes()).hexdigest() == (
            "79ac79b42958c330ccb38ff996f30e4acd414fa82716541c78d1552da1fe8ec8"
        )

    def test_bayes_soft_labels_match_the_per_record_loop(self):
        path = FIXTURES / "check_records.csv"
        n, k = check_counts_from_csv(path)
        prior = fit_prior(n, k, grid_size=51, max_iters=20)
        per_record = np.array([bayes_soft_label(r, prior) for r in records_from_csv(path)])
        fresh = DiscretePrior(prior.grid, prior.weights)
        assert bayes_soft_labels(n, k, fresh).tobytes() == per_record.tobytes()

    @pytest.mark.parametrize(
        "n, k, message",
        [
            # the ids name the index of the bad pair, which the text names as its row
            pytest.param([5, 4], [3, 9], "row 2: need 0 <= k <= n, got n=4, k=9",
                         id="n0-k0-need 0 <= k <= n, got n=4, k=9 at index 1"),
            pytest.param([5, -1], [3, 0], "row 2: need 0 <= k <= n, got n=-1, k=0",
                         id="n1-k1-need 0 <= k <= n, got n=-1, k=0 at index 1"),
            ([5, 4], [3], "k must be a 1-D array of 2 entries, got shape (1,)"),
            ([[5]], [[3]], "n must be a 1-D array, got shape (1, 1)"),
            ([5.0], [3.0], "n and k must be integer arrays, got float64 and float64"),
            (np.array([5], np.uint64), [3], "n and k must be integer arrays, got uint64"),
            ([], [], "check counts must be non-empty"),
        ],
    )
    def test_bad_counts_are_named(self, n, k, message):
        for call in (
            lambda: fit_prior(n, k, grid_size=11),
            lambda: mean_log_likelihood(n, k, DiscretePrior.uniform(11)),
            lambda: bayes_soft_labels(n, k, DiscretePrior.uniform(11)),
        ):
            with pytest.raises(ValueError, match="^" + re.escape(message)):
                call()

    @pytest.mark.parametrize("big", [False, True], ids=["one-key sort", "two-key sort"])
    def test_group_pairs_matches_unique(self, big):
        rng = np.random.default_rng(13)
        n = rng.integers(0, 40, 500)
        if big:
            n[::7] += 2**62  # n * (max k + 1) overflows int64
        k = rng.integers(0, 6, 500) % (n + 1)
        pairs, index = labeling._group_pairs(n, k)
        want, inverse = np.unique(np.stack([n, k], axis=1), axis=0, return_inverse=True)
        assert np.array_equal(pairs, want)
        assert np.array_equal(index, inverse.ravel())

    def test_records_from_a_pipe(self, tmp_path, monkeypatch):
        raw, n, k = benchmark_records(43, 3000)
        path = tmp_path / "records.pipe"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(raw,))
        seen = loadtxt_spy(monkeypatch)
        writer.start()
        try:
            got = check_counts_from_csv(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        # read from memory, never by path
        assert seen and not any(isinstance(fname, str) for fname in seen)
        for column, want in zip(got, (n, k)):
            assert np.array_equal(column, want)

    def test_parse_peak_stays_within_three_times_the_file(self, tmp_path):
        raw, n, k = benchmark_records(41, 200_000)
        path = tmp_path / "records.csv"
        path.write_bytes(raw)
        tracemalloc.start()
        try:
            got = check_counts_from_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for column, want in zip(got, (n, k)):
            assert np.array_equal(column, want)
        assert peak <= 3 * len(raw)

    def test_fitted_log_likelihood_has_the_bits_of_a_fresh_grouping(self):
        _, n, k = benchmark_records(7, 5000)
        for n, k in (check_counts_from_csv(FIXTURES / "check_records.csv"), (n, k)):
            prior = fit_prior(n, k, max_iters=30)
            fitted = fitted_mean_log_likelihood(prior)
            assert np.float64(fitted).tobytes() == np.float64(
                mean_log_likelihood(n, k, prior)
            ).tobytes()
        with pytest.raises(ValueError, match="^prior was not returned by fit_prior"):
            fitted_mean_log_likelihood(DiscretePrior(prior.grid, prior.weights))


def sorted_groups(n, k):
    """``_group_pairs`` with key counting turned off: the argsort path, or
    the lexsort path where one int64 key would overflow."""
    with mock.patch.object(labeling, "COUNTED_KEYS_PER_ROW", 0):
        return labeling._group_pairs(n, k)


def counts_keys(n, k):
    """Whether ``_group_pairs`` groups these counts by counting keys."""
    size = (int(n.max()) - int(n.min()) + 1) * (int(k.max()) + 1)
    return size <= labeling.COUNTED_KEYS_PER_ROW * n.size


class TestGroupPairs:
    @pytest.mark.parametrize(
        "rows, lo, width, k_cap, counted",
        [
            (20000, 5, 26, 31, True),  # the benchmark's shape
            (500, 10**6, 10, 6, True),  # long histories on a narrow range
            (50, 0, 40, 5, True),  # 40 * 5 keys: exactly four per row
            (49, 0, 40, 5, False),  # one row fewer: sorted
            (500, 0, 10**6, 30, False),
            (500, 2**62, 10, 6, True),  # n * (max k + 1) overflows: the sort path is lexsort
            (500, 0, 2**62, 6, False),  # lexsort
        ],
    )
    def test_counting_equals_sorting(self, rows, lo, width, k_cap, counted):
        rng = np.random.default_rng(rows + width)
        n = lo + rng.integers(0, width, rows)
        n[:2] = lo, lo + width - 1
        k = rng.integers(0, k_cap, rows) % (n - lo + 1)
        k[1] = k_cap - 1
        assert counts_keys(n, k) is counted
        pairs, index = labeling._group_pairs(n, k)
        want_pairs, want_index = sorted_groups(n, k)
        assert pairs.dtype == want_pairs.dtype == np.int64
        assert np.array_equal(pairs, want_pairs)
        assert np.array_equal(index, want_index)
        unique, inverse = np.unique(np.stack([n, k], axis=1), axis=0, return_inverse=True)
        assert np.array_equal(pairs, unique)
        assert np.array_equal(index, inverse.ravel())

    def test_counting_equals_sorting_on_random_counts(self):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(200):
            rows = int(rng.integers(1, 60))
            n = int(rng.integers(0, 5)) + rng.integers(0, int(rng.integers(1, 60)), rows)
            k = rng.integers(0, 12, rows) % (n + 1)
            seen.add(counts_keys(n, k))
            got, want = labeling._group_pairs(n, k), sorted_groups(n, k)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert seen == {True, False}
