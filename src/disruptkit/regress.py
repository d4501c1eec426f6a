"""Design matrices and OLS fits for the citation and disruption models.

Outcomes are either the in-corpus citation count or the disruption
score at a chosen threshold. Predictors enter in a fixed order:
intercept, five-year-cohort dummies with 1991-1995 as the omitted
baseline, then optionally the author count and the conceptual
indicator. Fitting goes through an orthogonal decomposition rather
than explicit normal equations so the near-collinear dummy structure
stays well-conditioned; standard errors are classical homoskedastic
with an n - k denominator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import YearGroup, atomic_write

DUMMY_GROUPS = tuple(g for g in YearGroup if g is not YearGroup.G1991_1995)

OUTCOMES = ("citations", "d")


@dataclass(frozen=True, eq=False)
class Observations:
    """The per-paper variables for model fitting, as columns with one
    entry per paper.

    ``y_d`` maps each threshold to the disruption scores at that
    threshold (NaN where Undefined). ``conceptual`` holds 1.0, 0.0, or
    NaN (given as None) when the paper carries no usable type label;
    such papers can feed the citation-only models but not specs that
    include the indicator. ``year`` must lie in a YearGroup cohort.
    """

    ids: tuple[str, ...]
    y_citations: np.ndarray
    y_d: Mapping[int, np.ndarray]
    year: np.ndarray
    n_authors: np.ndarray
    conceptual: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(self.ids))
        for name, dtype in (("y_citations", np.int64), ("year", np.int64),
                            ("n_authors", np.int64), ("conceptual", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "y_d", {int(l): np.asarray(d, dtype=np.float64)
                                         for l, d in self.y_d.items()})
        n = len(self.ids)
        if any(col.shape != (n,) for col in (self.y_citations, self.year, self.n_authors,
                                             self.conceptual, *self.y_d.values())):
            raise ValueError(f"every column must hold one entry for each of the {n} papers")
        conceptual = self.conceptual
        bad = ~(np.isnan(conceptual) | (conceptual == 0.0) | (conceptual == 1.0))
        if bad.any():
            raise ValueError(
                f"row {self.ids[int(np.argmax(bad))]!r}: conceptual must be 0, 1, or None"
            )
        bad = self.n_authors < 1
        if bad.any():
            raise ValueError(f"row {self.ids[int(np.argmax(bad))]!r}: n_authors must be >= 1")
        lo, hi = YearGroup.G1991_1995.start, YearGroup.G2016_2020.end
        bad = (self.year < lo) | (self.year > hi)
        if bad.any():
            raise ValueError(f"year {int(self.year[np.argmax(bad)])} outside [{lo}, {hi}]")

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class ModelSpec:
    """Selects the outcome and optional predictors for one model."""

    name: str
    outcome: str
    l: int | None = None
    include_n_authors: bool = False
    include_conceptual: bool = False

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}, got {self.outcome!r}")
        if self.outcome == "d" and self.l is None:
            raise ValueError(f"model {self.name!r}: outcome 'd' requires a threshold l")
        if self.outcome == "citations" and self.l is not None:
            raise ValueError(f"model {self.name!r}: l is only meaningful for outcome 'd'")

    def column_names(self) -> tuple[str, ...]:
        names = ["intercept"] + [g.label for g in DUMMY_GROUPS]
        if self.include_n_authors:
            names.append("n_authors")
        if self.include_conceptual:
            names.append("conceptual")
        return tuple(names)


def standard_model_specs(thresholds: Sequence[int] = (2, 3, 5)) -> list[ModelSpec]:
    """The default six models: three nested citation models and one
    disruption model per threshold with the full predictor set."""
    specs = [
        ModelSpec(name="citations-1", outcome="citations"),
        ModelSpec(name="citations-2", outcome="citations", include_n_authors=True),
        ModelSpec(name="citations-3", outcome="citations",
                  include_n_authors=True, include_conceptual=True),
    ]
    for l in thresholds:
        specs.append(ModelSpec(name=f"disruption-l{l}", outcome="d", l=l,
                               include_n_authors=True, include_conceptual=True))
    return specs


def build_design_matrix(
    obs: Observations, spec: ModelSpec,
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Assemble (X, y, column names) for one model from the observation
    columns, keeping rows in table order.

    Papers whose disruption score is Undefined at the spec's threshold
    are dropped for the 'd' outcome. A spec with the conceptual
    indicator needs every paper labelled. Each cohort dummy is the mask
    of papers whose year falls in that cohort.
    """
    if not len(obs):
        raise ValueError("rows must be non-empty")
    if spec.include_conceptual:
        unlabeled = np.flatnonzero(np.isnan(obs.conceptual))
        if unlabeled.size:
            raise ValueError(
                f"model {spec.name!r} includes the conceptual indicator but "
                f"{unlabeled.size} row(s) lack a label (first: {obs.ids[unlabeled[0]]!r})"
            )
    if spec.outcome == "d":
        d = obs.y_d.get(spec.l, np.full(len(obs), np.nan))
        keep = ~np.isnan(d)
        y = d[keep]
    else:
        keep = np.ones(len(obs), dtype=bool)
        y = obs.y_citations.astype(np.float64)
    if not keep.any():
        raise ValueError(f"model {spec.name!r}: no rows with a defined outcome")

    names = spec.column_names()
    X = np.zeros((int(keep.sum()), len(names)), dtype=np.float64)
    X[:, 0] = 1.0
    year = obs.year[keep, None]
    X[:, 1:1 + len(DUMMY_GROUPS)] = ((year >= [g.start for g in DUMMY_GROUPS])
                                     & (year <= [g.end for g in DUMMY_GROUPS]))
    col = 1 + len(DUMMY_GROUPS)
    if spec.include_n_authors:
        X[:, col] = obs.n_authors[keep]
        col += 1
    if spec.include_conceptual:
        X[:, col] = obs.conceptual[keep]
    return X, y, names


@dataclass(frozen=True)
class RegressionResult:
    model: str
    names: tuple[str, ...]
    coef: np.ndarray
    se: np.ndarray
    t: np.ndarray
    p: np.ndarray
    n_obs: int
    r_squared: float
    adj_r_squared: float

    def __post_init__(self):
        k = len(self.names)
        for vec in (self.coef, self.se, self.t, self.p):
            if vec.shape != (k,):
                raise ValueError("result vectors must match the column count")
        if self.n_obs <= k:
            raise ValueError("n_obs must exceed the column count")
        if not np.all((self.p >= 0) & (self.p <= 1)):
            raise ValueError("p values must lie in [0, 1]")

    def term(self, name: str) -> tuple[float, float, float, float]:
        """(coefficient, se, t, p) for one column name."""
        j = self.names.index(name)
        return (float(self.coef[j]), float(self.se[j]),
                float(self.t[j]), float(self.p[j]))


def two_sided_p(t: np.ndarray, dof: int) -> np.ndarray:
    """Two-sided p values of t statistics with ``dof`` degrees of freedom:
    2 * scipy.stats.t.sf(|t|, dof), from the scipy.special function that
    t.sf evaluates, so that no stage imports scipy.stats (about 0.8 s)."""
    import scipy.special

    return 2.0 * scipy.special.stdtr(dof, -np.abs(t))


def ols_fit(X: np.ndarray, y: np.ndarray,
            names: Sequence[str] | None = None,
            model: str = "") -> RegressionResult:
    """Least squares with classical standard errors.

    Raises on non-finite input, on n <= k, and on rank deficiency,
    naming a column of the linear dependence; each message starts with
    the model's name if it has one.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    n, k = X.shape
    if y.shape != (n,):
        raise ValueError("y length must match the rows of X")
    if names is None:
        names = tuple(f"x{j}" for j in range(k))
    else:
        names = tuple(names)
        if len(names) != k:
            raise ValueError("names length must match the columns of X")
    where = f"model {model!r}: " if model else ""
    if n <= k:
        raise ValueError(f"{where}need more observations than columns (n={n}, k={k})")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError(f"{where}X and y must be finite")
    if not X.any():
        raise ValueError(f"{where}X has no nonzero column")

    # One QR of [X | y], without Q: its triangle holds X's R, Q^T y and,
    # in the corner, the residual norm, so no pass over the rows follows.
    t = np.linalg.qr(np.column_stack([X, y]), mode="r")
    r = t[:k, :k]
    # numpy's matrix_rank rule on R's singular values, which are X's. The
    # largest weight in a null vector names a column of the dependence.
    tol = max(n, k) * np.finfo(np.float64).eps
    _, s, vt = np.linalg.svd(r)
    if s[-1] <= s[0] * tol:
        bad = names[int(np.argmax(np.abs(vt[-1])))]
        raise ValueError(f"{where}design matrix is rank-deficient: column {bad!r} "
                         "is linearly dependent on the others")

    # (X^T X)^-1 = R^-1 R^-T, whose diagonal holds the row sums of R^-1 squared.
    r_inv = np.linalg.inv(r)
    beta = r_inv @ t[:k, k]
    xtx_inv_diag = np.sum(r_inv * r_inv, axis=1)
    ssr = float(t[k, k] ** 2)
    # A residual within rounding of zero is a perfect fit: every standard
    # error is zero, and so is a coefficient within rounding of zero.
    rounding = float(np.linalg.norm(t[:, k])) * tol
    if ssr <= rounding ** 2:
        ssr = 0.0
        beta[np.abs(beta) <= rounding * np.sqrt(xtx_inv_diag)] = 0.0
    dof = n - k
    se = np.sqrt(ssr / dof * xtx_inv_diag)
    with np.errstate(divide="ignore"):  # a zero coefficient has t = 0, even where se = 0
        tstat = np.divide(beta, se, out=np.zeros(k), where=beta != 0)
    sst = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ssr / sst if sst > 0 else float(ssr == 0.0)
    adj_r_squared = 1.0 - (1.0 - r_squared) * (n - 1) / dof
    return RegressionResult(model=model, names=names, coef=beta, se=se, t=tstat,
                            p=np.clip(two_sided_p(tstat, dof), 0.0, 1.0), n_obs=n,
                            r_squared=r_squared, adj_r_squared=adj_r_squared)


def fit_model(obs: Observations, spec: ModelSpec) -> RegressionResult:
    X, y, names = build_design_matrix(obs, spec)
    return ols_fit(X, y, names=names, model=spec.name)


def format_p(p: float) -> str:
    """Journal-style p rendering: '< .001' below a thousandth, '> .999'
    where three decimals would round to 1.000, else a three-decimal value
    with no leading zero."""
    if p < 0.001:
        return "< .001"
    text = f"{p:.3f}"
    return "> .999" if text == "1.000" else text[1:]


def emit_table(results: Sequence[RegressionResult], title: str, decimals: int = 3) -> str:
    """Plain-text table: one row per term, taking the union of the
    models' terms in first-seen order; per model a coefficient cell
    with the SE in parentheses plus a p column, then observation count
    and adjusted R-squared footers."""
    if not results:
        raise ValueError("no results to render")
    terms = list(dict.fromkeys(name for res in results for name in res.names))
    header = ["Term"]
    for res in results:
        header.extend([res.model or "model", "p"])
    table_rows: list[list[str]] = []
    for term in terms:
        row = [term]
        for res in results:
            if term in res.names:
                coef, se, _, p = res.term(term)
                row.extend([f"{coef:.{decimals}f} ({se:.{decimals}f})", format_p(p)])
            else:
                row.extend(["", ""])
        table_rows.append(row)
    obs_row = ["Observations"]
    adj_row = ["Adjusted R-squared"]
    for res in results:
        obs_row.extend([str(res.n_obs), ""])
        adj_row.extend([f"{res.adj_r_squared:.{decimals}f}", ""])
    table_rows.extend([obs_row, adj_row])

    widths = [len(h) for h in header]
    for row in table_rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def fmt(row: list[str]) -> str:
        return "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip()

    lines = [title, ""]
    lines.append(fmt(header))
    lines.append("-" * len(lines[-1]))
    lines.extend(fmt(row) for row in table_rows)
    return "\n".join(lines) + "\n"


def write_results_csv(results: Sequence[RegressionResult], path: str | Path) -> None:
    """Machine-readable per-term rows: model, term, coefficient, se, t, p,
    written with ``atomic_write``."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["model", "term", "coefficient", "se", "t", "p"])
        for res in results:
            for j, term in enumerate(res.names):
                writer.writerow([
                    res.model, term,
                    f"{res.coef[j]:.10g}", f"{res.se[j]:.10g}",
                    f"{res.t[j]:.10g}", f"{res.p[j]:.10g}",
                ])
