"""Rule-ratio labels, empirical-Bayes labels, and the prior fit."""

import codecs
import csv
import hashlib
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softpu import kernels, labeling
from softpu.labeling import (
    CheckRecord,
    DiscretePrior,
    RuleStats,
    bayes_soft_label,
    bayes_soft_labels,
    check_counts_from_csv,
    check_label_separation,
    fit_objective,
    fit_prior,
    mean_log_likelihood,
    posterior_pass_prob,
    prior_from_json,
    prior_to_json,
    records_from_csv,
    rule_soft_label,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestRuleSoftLabel:
    def test_hand_computed(self):
        assert rule_soft_label(RuleStats(0.10, 0.02)) == pytest.approx(0.8, abs=1e-12)

    def test_rule_no_better_than_random(self):
        assert rule_soft_label(RuleStats(0.05, 0.05)) == 0.0

    def test_clamped_when_rule_underperforms(self):
        assert rule_soft_label(RuleStats(0.01, 0.02)) == 0.0

    def test_zero_rule_ratio_errors(self):
        with pytest.raises(ValueError, match="undefined"):
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
        prior = DiscretePrior.point_mass(0.7)
        assert posterior_pass_prob(CheckRecord(n=12, k=5), prior) == pytest.approx(0.7)
        assert bayes_soft_label(CheckRecord(n=12, k=5), prior) == pytest.approx(0.3)

    def test_inconsistent_prior_errors(self):
        prior = DiscretePrior.point_mass(0.0)
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
    def test_one_posterior_per_distinct_pair(self, monkeypatch):
        records = records_from_csv(FIXTURES / "check_records.csv")
        prior = fit_prior(*counts(records), grid_size=51, max_iters=20)
        computed = []
        compute = labeling._posterior_pass_prob
        monkeypatch.setattr(
            labeling,
            "_posterior_pass_prob",
            lambda record, p: computed.append(record) or compute(record, p),
        )
        labels = [bayes_soft_label(r, prior) for r in records]
        labels += [bayes_soft_label(r, prior) for r in records]
        assert len(computed) == len({(r.n, r.k) for r in records})
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
        prior = DiscretePrior.point_mass(0.0)
        bayes_soft_label(CheckRecord(n=3, k=0), prior)
        for _ in range(3):
            with pytest.raises(ValueError, match="prior inconsistent"):
                bayes_soft_label(CheckRecord(n=3, k=2), prior)


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
        assert labeling._counts_from_columns(path.read_bytes()) is not None
        assert records == [CheckRecord(5, 3), CheckRecord(4, 2), CheckRecord(5, 3)]
        assert records[0] is records[2]
        assert all(type(r.n) is int and type(r.k) is int for r in records)

    def test_prior_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        records = synth_records(rng, 40, 0.5, n_days=5)
        prior = fit_prior(*counts(records), grid_size=11, max_iters=3)
        path = tmp_path / "prior.json"
        prior_to_json(prior, path)
        back = prior_from_json(path)
        np.testing.assert_array_equal(back.grid, prior.grid)
        np.testing.assert_array_equal(back.weights, prior.weights)
        assert back.objective_trace == prior.objective_trace
        assert back.converged is prior.converged is False


def records_reference(path):
    """The row-at-a-time reader that the column pass must agree with."""
    records = []
    row_idx = -1  # the row being read is row_idx + 1
    with Path(path).open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
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
                try:
                    records.append(CheckRecord(n=n, k=k))
                except ValueError as exc:
                    raise ValueError(f"row {row_idx}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"row {row_idx + 1}: {exc}") from None
    if not records:
        raise ValueError("empty records file")
    return records


def outcome(read, path):
    """``read(path)`` as (n, k) pairs, or the type and text of its error."""
    try:
        return [(r.n, r.k) for r in read(path)]
    except Exception as exc:  # any error, as long as both readers give the same
        return type(exc), str(exc)


BAD_INTEGERS = (ValueError, "row 1: n and k must be integers")


# Record files with what both readers give, and whether the column pass
# vouches for them.
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
    ("user_id,n,k,n\nu1,5,3,7\n", [(7, 3)], False),
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
    ("\nuser_id,n,k\nu1,5,3\n", (ValueError, "records CSV needs columns user_id, n, k"), False),
    (
        "user_id,n,k\nu1,5,3\nu2,4,9\n",
        (ValueError, "row 2: need 0 <= k <= n, got n=4, k=9"),
        False,
    ),
    (
        "user_id,n,k\nu1,-1,0\n",
        (ValueError, "row 1: need 0 <= k <= n, got n=-1, k=0"),
        False,
    ),
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
        assert (labeling._counts_from_columns(path.read_bytes()) is not None) == by_columns

    @pytest.mark.parametrize("text, expected, by_columns", RECORD_FILES)
    def test_counts_agree_with_row_loop(self, tmp_path, text, expected, by_columns):
        path = tmp_path / "records.csv"
        path.write_bytes(text.encode("utf-8"))
        assert counts_outcome(path) == outcome(records_reference, path) == expected

    def test_undecodable_file_fails_as_the_row_loop_does(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(b"user_id,n,k\n" + b"u1,5,3\n" * 3000 + b"u\xff,5,3\n")
        got = outcome(records_from_csv, path)
        assert got[0] is UnicodeDecodeError
        assert got == outcome(records_reference, path)

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
        by_columns = labeling._counts_from_columns(path.read_bytes())
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
        assert labeling._counts_from_columns(path.read_bytes()) is None
        assert counts_outcome(path) == [(5, 3)]

    def test_only_one_mark_is_skipped(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_bytes(codecs.BOM_UTF8 * 2 + b"n,k\n5,3\n")
        assert labeling._counts_from_columns(path.read_bytes()) is None
        assert counts_outcome(path) == (ValueError, "records CSV needs columns user_id, n, k")


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
            ([5, 4], [3, 9], "need 0 <= k <= n, got n=4, k=9 at index 1"),
            ([5, -1], [3, 0], "need 0 <= k <= n, got n=-1, k=0 at index 1"),
            ([5, 4], [3], "n and k must be matching 1-D arrays"),
            ([[5]], [[3]], "n and k must be matching 1-D arrays"),
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
