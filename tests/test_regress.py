import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.stats
from hypothesis import assume, given, settings, strategies as st

import disruptkit

from disruptkit.corpus import YearGroup
from disruptkit.regress import (
    DUMMY_GROUPS,
    ModelSpec,
    Observations,
    RegressionResult,
    build_design_matrix,
    emit_table,
    fit_model,
    format_p,
    ols_fit,
    standard_model_specs,
    two_sided_p,
    write_results_csv,
)

from exact_ols import exact_ols

GROUP_CYCLE = list(YearGroup)


def row(paper_id, citations=10, d=None, group=YearGroup.G1991_1995,
        n_authors=2, conceptual=0):
    """One paper's variables; table() turns a list of them into columns."""
    if d is None:
        d = {2: 0.1, 3: 0.1, 5: 0.1}
    return dict(
        paper_id=paper_id, y_citations=citations, y_d=d,
        year=group.start, n_authors=n_authors, conceptual=conceptual,
    )


def table(rows):
    """Observations with one entry per row dict, in order; a score that
    is None or absent at a threshold is Undefined there."""
    ls = sorted({l for r in rows for l in r["y_d"]})
    return Observations(
        ids=[r["paper_id"] for r in rows],
        y_citations=[r["y_citations"] for r in rows],
        y_d={l: [r["y_d"].get(l) for r in rows] for l in ls},
        year=[r["year"] for r in rows],
        n_authors=[r["n_authors"] for r in rows],
        conceptual=[r["conceptual"] for r in rows],
    )


def synthetic_rows(n, seed=0):
    """Rows with all cohorts populated and varying predictors."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        group = GROUP_CYCLE[i % len(GROUP_CYCLE)]
        conceptual = int(rng.random() < 0.4)
        n_authors = int(rng.integers(1, 6))
        citations = int(rng.integers(0, 120))
        d_val = float(rng.uniform(-1, 1))
        rows.append(row(
            f"p{i:03d}", citations=citations,
            d={2: d_val, 3: d_val / 2, 5: None if i % 7 == 0 else d_val / 3},
            group=group, n_authors=n_authors, conceptual=conceptual,
        ))
    return rows


class TestObservationRow:
    def test_rejects_bad_conceptual(self):
        with pytest.raises(ValueError, match="conceptual"):
            table([row("p", conceptual=2)])

    def test_rejects_bad_author_count(self):
        with pytest.raises(ValueError, match="n_authors"):
            table([row("p", n_authors=0)])

    def test_conceptual_may_be_none(self):
        assert np.isnan(table([row("p", conceptual=None)]).conceptual[0])

    def test_rejects_year_outside_the_cohorts(self):
        for year in (1990, 2021):
            bad = row("q")
            bad["year"] = year
            with pytest.raises(ValueError, match=rf"year {year} outside \[1991, 2020\]"):
                table([row("p"), bad])

    def test_names_the_first_offending_row(self):
        with pytest.raises(ValueError, match="row 'b': n_authors"):
            table([row("a"), row("b", n_authors=0), row("c", n_authors=-1)])
        with pytest.raises(ValueError, match="row 'c': conceptual"):
            table([row("a"), row("b", conceptual=None), row("c", conceptual=0.5)])

    def test_columns_must_have_one_entry_per_paper(self):
        obs = table([row("a"), row("b")])
        assert len(obs) == 2
        with pytest.raises(ValueError, match="one entry for each of the 2 papers"):
            Observations(ids=obs.ids, y_citations=obs.y_citations, y_d={2: [0.1]},
                         year=obs.year, n_authors=obs.n_authors, conceptual=obs.conceptual)


class TestModelSpec:
    def test_d_outcome_requires_threshold(self):
        with pytest.raises(ValueError, match="requires a threshold"):
            ModelSpec(name="m", outcome="d")

    def test_citations_outcome_rejects_threshold(self):
        with pytest.raises(ValueError, match="only meaningful"):
            ModelSpec(name="m", outcome="citations", l=2)

    def test_unknown_outcome(self):
        with pytest.raises(ValueError, match="outcome"):
            ModelSpec(name="m", outcome="logit")

    def test_column_order_is_fixed(self):
        spec = ModelSpec(name="m", outcome="citations",
                         include_n_authors=True, include_conceptual=True)
        assert spec.column_names() == (
            "intercept", "1996-2000", "2001-2005", "2006-2010",
            "2011-2015", "2016-2020", "n_authors", "conceptual",
        )

    def test_standard_specs(self):
        specs = standard_model_specs((2, 3, 5))
        assert [s.name for s in specs] == [
            "citations-1", "citations-2", "citations-3",
            "disruption-l2", "disruption-l3", "disruption-l5",
        ]
        # the three citation models are nested
        assert not specs[0].include_n_authors
        assert specs[1].include_n_authors and not specs[1].include_conceptual
        assert specs[2].include_n_authors and specs[2].include_conceptual
        assert all(s.include_conceptual for s in specs[3:])
        assert [s.l for s in specs[3:]] == [2, 3, 5]


class TestDesignMatrix:
    def test_baseline_cohort_has_no_dummy(self):
        rows = [row("a", group=YearGroup.G1991_1995),
                row("b", group=YearGroup.G2016_2020)]
        X, _, names = build_design_matrix(table(rows), ModelSpec(name="m", outcome="citations"))
        assert names == ("intercept",) + tuple(g.label for g in DUMMY_GROUPS)
        assert X[0].tolist() == [1, 0, 0, 0, 0, 0]
        assert X[1].tolist() == [1, 0, 0, 0, 0, 1]

    def test_optional_columns(self):
        spec = ModelSpec(name="m", outcome="citations",
                         include_n_authors=True, include_conceptual=True)
        X, _, names = build_design_matrix(
            table([row("a", n_authors=4, conceptual=1)]), spec)
        assert names[-2:] == ("n_authors", "conceptual")
        assert X[0].tolist()[-2:] == [4.0, 1.0]

    def test_undefined_scores_are_dropped_for_d_outcome(self):
        rows = [
            row("a", d={2: 0.5}),
            row("b", d={2: None}),
            row("c", d={2: -0.25}),
        ]
        spec = ModelSpec(name="m", outcome="d", l=2)
        X, y, _ = build_design_matrix(table(rows), spec)
        assert X.shape[0] == 2
        assert y.tolist() == [0.5, -0.25]

    def test_citation_outcome_keeps_all_rows(self):
        rows = [row("a", citations=3, d={2: None}), row("b", citations=7)]
        _, y, _ = build_design_matrix(table(rows), ModelSpec(name="m", outcome="citations"))
        assert y.tolist() == [3.0, 7.0]

    def test_all_undefined_is_an_error(self):
        rows = [row("a", d={2: None})]
        with pytest.raises(ValueError, match="no rows with a defined outcome"):
            build_design_matrix(table(rows), ModelSpec(name="m", outcome="d", l=2))

    def test_empty_rows_is_an_error(self):
        with pytest.raises(ValueError, match="non-empty"):
            build_design_matrix(table([]), ModelSpec(name="m", outcome="citations"))

    def test_missing_label_names_first_offender(self):
        rows = [row("a"), row("b", conceptual=None), row("c", conceptual=None)]
        spec = ModelSpec(name="m", outcome="citations",
                         include_n_authors=True, include_conceptual=True)
        with pytest.raises(ValueError, match=r"2 row\(s\) lack a label \(first: 'b'\)"):
            build_design_matrix(table(rows), spec)


def two_qr_ols(X, y):
    """(coefficients, standard errors) as ols_fit computed them before it
    solved from its pivoted QR: a second, unpivoted QR of X, then
    diag((X^T X)^-1) as the diagonal of R^-1 R^-T."""
    n, k = X.shape
    q, r = np.linalg.qr(X, mode="reduced")
    beta = scipy.linalg.solve_triangular(r, q.T @ y)
    residuals = y - X @ beta
    r_inv = scipy.linalg.solve_triangular(r, np.eye(k))
    sigma2 = float(residuals @ residuals) / (n - k)
    return beta, np.sqrt(sigma2 * np.diag(r_inv @ r_inv.T))


class TestOlsFit:
    def test_noise_free_recovery_is_exact(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([
            np.ones(40),
            rng.integers(-4, 5, 40).astype(float),
            rng.integers(-4, 5, 40).astype(float),
        ])
        true_beta = np.array([3.0, -2.0, 5.0])
        y = X @ true_beta
        result = ols_fit(X, y)
        np.testing.assert_allclose(result.coef, true_beta, atol=1e-10)
        assert abs(result.r_squared - 1.0) < 1e-12
        assert abs(result.adj_r_squared - 1.0) < 1e-12
        assert np.all(result.p <= 1.0)

    def test_matches_exact_arithmetic_oracle(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 100:
            n = int(rng.integers(10, 60))
            k = int(rng.integers(2, 7))
            X_int = np.column_stack(
                [np.ones(n, dtype=np.int64)]
                + [rng.integers(-5, 6, n) for _ in range(k - 1)]
            )
            y_int = rng.integers(-50, 51, n)
            try:
                expected = exact_ols(X_int.tolist(), y_int.tolist())
            except ValueError:
                continue  # singular draw; try another
            result = ols_fit(X_int.astype(float), y_int.astype(float))
            checked += 1
            np.testing.assert_allclose(
                result.coef, [float(c) for c in expected["coef"]],
                rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(result.se, expected["se"],
                                       rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(result.t, expected["t"],
                                       rtol=1e-8, atol=1e-8)
            np.testing.assert_allclose(result.p, expected["p"],
                                       rtol=1e-8, atol=1e-8)
            assert abs(result.r_squared - float(expected["r_squared"])) < 1e-8
            assert abs(result.adj_r_squared - float(expected["adj_r_squared"])) < 1e-8
            assert result.n_obs == n

    def test_duplicate_column_is_reported_as_rank_deficient(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=30)
        X = np.column_stack([np.ones(30), x, 2 * x])
        with pytest.raises(ValueError, match="column 'x' is linearly dependent"):
            ols_fit(X, rng.normal(size=30), names=("intercept", "x", "x2"))

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8), extra=st.integers(1, 60))
    def test_matches_two_factorisation_fit(self, seed, k, extra):
        rng = np.random.default_rng(seed)
        n = k + extra
        scales = rng.uniform(0.1, 10, k - 1)
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1)) * scales])
        assume(np.linalg.cond(X) < 1e4)
        y = X @ rng.normal(size=k) + rng.normal(size=n)
        coef, se = two_qr_ols(X, y)
        result = ols_fit(X, y)
        np.testing.assert_allclose(result.coef, coef, rtol=1e-8, atol=1e-8)
        np.testing.assert_allclose(result.se, se, rtol=1e-8, atol=1e-8)

    def test_all_zero_cohort_names_its_column(self):
        # no row falls in 2016-2020, so that dummy column is all zeros
        rows = [row(f"p{i}", group=GROUP_CYCLE[i % 5], citations=i) for i in range(30)]
        spec = ModelSpec(name="m", outcome="citations")
        with pytest.raises(ValueError, match="'2016-2020'"):
            fit_model(table(rows), spec)

    def test_needs_more_rows_than_columns(self):
        X = np.ones((3, 3))
        with pytest.raises(ValueError, match="more observations"):
            ols_fit(X, np.zeros(3))

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            ols_fit(np.ones(5), np.zeros(5))
        with pytest.raises(ValueError, match="length"):
            ols_fit(np.ones((5, 1)), np.zeros(4))
        with pytest.raises(ValueError, match="names"):
            ols_fit(np.ones((5, 1)), np.zeros(5), names=("a", "b"))

    def test_adjusted_r_squared_by_hand(self):
        # y on a constant and x = 0..4: slope = Sxy/Sxx = 8/10, intercept
        # = 3 - 0.8*2 = 1.4, residuals (-.4, .8, -1, 1.2, -.6) give
        # ssr = 3.6 against sst = 10
        X = [[1, 0], [1, 1], [1, 2], [1, 3], [1, 4]]
        y = [1, 3, 2, 5, 4]
        expected = exact_ols(X, y)
        result = ols_fit(np.array(X, float), np.array(y, float))
        assert float(expected["ssr"]) == pytest.approx(3.6)
        assert float(expected["sst"]) == pytest.approx(10.0)
        assert result.coef[1] == pytest.approx(0.8)
        assert result.coef[0] == pytest.approx(1.4)
        assert result.r_squared == pytest.approx(0.64)
        assert result.adj_r_squared == pytest.approx(1 - (1 - 0.64) * 4 / 3)

    def test_r_squared_never_falls_when_nesting_grows(self):
        rows = synthetic_rows(120, seed=5)
        fits = [fit_model(table(rows), spec) for spec in standard_model_specs((2, 3, 5))[:3]]
        assert fits[0].r_squared <= fits[1].r_squared + 1e-12
        assert fits[1].r_squared <= fits[2].r_squared + 1e-12

    def test_row_order_does_not_matter(self):
        rows = synthetic_rows(90, seed=6)
        spec = standard_model_specs((2, 3, 5))[2]
        forward = fit_model(table(rows), spec)
        backward = fit_model(table(list(reversed(rows))), spec)
        np.testing.assert_allclose(forward.coef, backward.coef, atol=1e-10)
        np.testing.assert_allclose(forward.se, backward.se, atol=1e-10)
        np.testing.assert_allclose(forward.p, backward.p, atol=1e-10)

    def test_term_lookup(self):
        rows = synthetic_rows(60, seed=7)
        result = fit_model(table(rows), standard_model_specs((2, 3, 5))[2])
        coef, se, t, p = result.term("conceptual")
        j = result.names.index("conceptual")
        assert (coef, se, t, p) == (
            result.coef[j], result.se[j], result.t[j], result.p[j])
        with pytest.raises(ValueError):
            result.term("nonexistent")


class TestPValues:
    def test_matches_scipy_stats_t_sf(self):
        t = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-8, -0.5, 1.0, 1.96,
                      -2.5, 8.0, -40.0, 1e3, -1e8, 1e300])
        for dof in (1, 2, 3, 5, 10, 30, 100, 1_000, 10_000, 100_000, 1_000_000):
            np.testing.assert_array_equal(
                two_sided_p(t, dof), 2.0 * scipy.stats.t.sf(np.abs(t), dof))

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # Every stage process pays for what the CLI imports. scipy.stats
        # is never imported; the others load only in the functions that
        # use them.
        src = str(Path(disruptkit.__file__).resolve().parents[1])
        heavy = ("scipy.sparse", "scipy.linalg", "scipy.special", "scipy.stats", "requests",
                 "urllib.request", "http.client")
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, disruptkit, disruptkit.cli; "
             f"print([m for m in {heavy!r} if m in sys.modules])"],
            capture_output=True, text=True, check=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert out.stdout.strip() == "[]"


class TestResultValidation:
    def test_rejects_out_of_range_p(self):
        with pytest.raises(ValueError, match="p values"):
            RegressionResult(
                model="m", names=("a",), coef=np.zeros(1), se=np.zeros(1),
                t=np.zeros(1), p=np.array([1.5]), n_obs=5,
                r_squared=0.0, adj_r_squared=0.0,
            )

    def test_rejects_mismatched_vectors(self):
        with pytest.raises(ValueError, match="column count"):
            RegressionResult(
                model="m", names=("a", "b"), coef=np.zeros(1), se=np.zeros(1),
                t=np.zeros(1), p=np.zeros(1), n_obs=5,
                r_squared=0.0, adj_r_squared=0.0,
            )


class TestRendering:
    def test_format_p(self):
        assert format_p(0.0004) == "< .001"
        assert format_p(0.001) == ".001"
        assert format_p(0.0789) == ".079"
        assert format_p(0.5) == ".500"

    def test_table_contents(self):
        rows = synthetic_rows(120, seed=8)
        specs = standard_model_specs((2, 3, 5))[:3]
        results = [fit_model(table(rows), spec) for spec in specs]
        text = emit_table(results, "Citations", decimals=3)
        lines = text.splitlines()
        assert lines[0] == "Citations"
        assert lines[2].startswith("Term")
        # the union of the models' terms, in first-seen order
        terms = [l.split()[0] for l in lines[4:-2]]
        assert terms == ["intercept", *(g.label for g in DUMMY_GROUPS),
                         "n_authors", "conceptual"]
        for name in ("citations-1", "citations-2", "citations-3"):
            assert name in lines[2]
        assert any(l.startswith("Observations") for l in lines)
        assert any(l.startswith("Adjusted R-squared") for l in lines)
        # a term absent from a model leaves its cells blank: the
        # conceptual row has exactly one coefficient (model 3)
        conceptual_line = next(l for l in lines if l.startswith("conceptual"))
        assert conceptual_line.count("(") == 1

    def test_results_csv(self, tmp_path):
        rows = synthetic_rows(60, seed=10)
        specs = standard_model_specs((2, 3, 5))
        results = [fit_model(table(rows), spec) for spec in specs]
        path = tmp_path / "results.csv"
        write_results_csv(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "model,term,coefficient,se,t,p"
        assert len(lines) == 1 + sum(len(r.names) for r in results)
        first = lines[1].split(",")
        assert first[0] == "citations-1" and first[1] == "intercept"
