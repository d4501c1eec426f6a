"""Acceptance checks, one test per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL
line per criterion; each test prints its verdict line before asserting,
so the line is visible either way.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from disruptkit.classify import agreement_report
from disruptkit.corpus import EligibilityCriteria
from disruptkit.disruption import MODES, disruption_batch
from disruptkit.oracle import brute_force_partition
from disruptkit.pipeline import (
    build_observation_rows,
    load_config,
    run_pipeline,
)
from disruptkit.regress import ModelSpec, fit_model, ols_fit
from disruptkit.synth import synth_corpus, synth_graph

from corpus_columns import eligible_of, graph_of
from exact_ols import exact_ols
from netgen import graph_from_pairs, random_digraph

FIXTURES = Path(__file__).parent / "fixtures"

LS = (1, 2, 3, 5)


def report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------- graphs

def enumerate_digraphs(n):
    """Every simple directed graph on n labeled nodes, no self-loops."""
    ids = tuple(f"v{i}" for i in range(n))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(slots)):
        pairs = [(ids[i], ids[j]) for k, (i, j) in enumerate(slots)
                 if bits >> k & 1]
        yield ids, pairs


def sample_digraphs(n, count, seed):
    """Seeded uniform sample over the same space, for sizes where the
    full enumeration (2^(n(n-1)) graphs) is out of reach."""
    ids = tuple(f"v{i}" for i in range(n))
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng = np.random.default_rng(seed)
    for bits in rng.integers(0, 1 << len(slots), size=count, dtype=np.int64):
        bits = int(bits)
        pairs = [(ids[i], ids[j]) for k, (i, j) in enumerate(slots)
                 if bits >> k & 1]
        yield ids, pairs


def random_graphs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(5, 51))
        p = float(rng.uniform(0.02, 0.3))
        yield random_digraph(rng, n, p)


def parity_check_graphs():
    """The graph population shared by criteria 2 and 4."""
    for n in range(1, 5):
        yield from enumerate_digraphs(n)
    yield from sample_digraphs(5, 2000, seed=52)
    yield from sample_digraphs(6, 2000, seed=62)
    yield from random_graphs(500, seed=250)


def worked_example_graphs():
    """Two small hand-checkable networks around a focal paper i citing
    reference r1. In the first, three citers reach only i and one paper
    cites only r1: d = (3 - 0) / (3 + 0 + 1) = 0.75. In the second, all
    four citers of i also cite r1: d = (0 - 4) / (0 + 4 + 0) = -1."""
    high = [("r1", "i"), ("i", "p1"), ("i", "p2"), ("i", "p3"), ("r1", "p4")]
    low = [("r1", "i")]
    for p in ("p1", "p2", "p3", "p4"):
        low += [("i", p), ("r1", p)]
    ids = ("r1", "i", "p1", "p2", "p3", "p4")
    return graph_from_pairs(ids, high), graph_from_pairs(ids, low)


def test_criterion_1_worked_examples():
    high, low = worked_example_graphs()
    disruption_batch(high, ["i"], ls=(1,))  # warm the kernel outside the timing
    t0 = time.perf_counter()
    [[d_high]] = disruption_batch(high, ["i"], ls=(1,)).d.tolist()
    t_high = time.perf_counter() - t0
    t0 = time.perf_counter()
    [[d_low]] = disruption_batch(low, ["i"], ls=(1,)).d.tolist()
    t_low = time.perf_counter() - t0
    ok = d_high == 0.75 and d_low == -1.0 and t_high < 1e-3 and t_low < 1e-3
    report(1, ok,
           f"hand-checkable networks give d={d_high} and d={d_low} "
           f"(want 0.75 and -1.0) in {t_high * 1e6:.0f}us and {t_low * 1e6:.0f}us")


def test_criterion_2_brute_force_parity():
    t0 = time.perf_counter()
    n_graphs = 0
    n_checks = 0
    for ids, pairs in parity_check_graphs():
        graph = graph_from_pairs(ids, pairs)
        for mode in MODES:
            scores = disruption_batch(graph, ids, ls=LS, mode=mode)
            # paper by paper, each paper's thresholds ascending
            got = zip(scores.n_f.ravel().tolist(), scores.n_b.ravel().tolist(),
                      scores.n_r.ravel().tolist())
            for focal in ids:
                for l in LS:
                    counts = next(got)
                    want = brute_force_partition(pairs, focal, l=l,
                                                 mode=mode, nodes=ids)
                    assert counts == want.counts, (
                        f"criterion 2: partition mismatch on n={len(ids)} "
                        f"focal={focal} l={l} mode={mode}: "
                        f"{counts} != {want.counts}")
                    n_checks += 1
        n_graphs += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(2, ok,
           f"partition counts match the brute-force reference on "
           f"{n_graphs} graphs / {n_checks} (focal, l, mode) checks in "
           f"{elapsed:.1f}s (exhaustive n<=4 plus seeded n=5,6 samples: "
           f"full enumeration at n=6 alone is 2^30 graphs and cannot fit "
           f"any time budget; plus 500 random graphs up to 50 nodes)")


def base_disruption(pairs, nodes, focal):
    """The unthresholded score, straight from its definition: F cites
    the focal only, B cites the focal and any of its references, the
    R-class cites a reference but not the focal."""
    refs = {r for r, c in pairs if c == focal}
    citers = {c for r, c in pairs if r == focal}
    ref_citers = {c for r, c in pairs if r in refs}
    n_f = len(citers - ref_citers)
    n_b = len(citers & ref_citers)
    n_r = len(ref_citers - citers - {focal})
    total = n_f + n_b + n_r
    return None if total == 0 else (n_f - n_b) / total


def test_criterion_3_threshold_one_collapse():
    rng = np.random.default_rng(31)
    n_checks = 0
    for _ in range(100):
        n = int(rng.integers(5, 61))
        p = float(rng.uniform(0.02, 0.3))
        ids, pairs = random_digraph(rng, n, p)
        graph = graph_from_pairs(ids, pairs)
        scores = disruption_batch(graph, ids, ls=(1,))
        for focal, d in zip(scores.ids, scores.d[:, 0].tolist()):
            want = base_disruption(pairs, ids, focal)
            # Undefined is None in the definition and NaN in the table
            assert (d != d) if want is None else d == want, (
                f"criterion 3: l=1 score {d} differs from the "
                f"base definition {want} for {focal}")
            n_checks += 1
    report(3, True,
           f"the l=1 threshold score equals the unthresholded definition "
           f"exactly for all {n_checks} nodes of 100 random graphs")


def test_criterion_4_bounds_and_partition():
    n_checks = 0
    for ids, pairs in parity_check_graphs():
        graph = graph_from_pairs(ids, pairs)
        for mode in MODES:
            scores = disruption_batch(graph, ids, ls=LS, mode=mode)
            rows = ((focal, l, int(scores.n_f[k, j]), int(scores.n_b[k, j]), scores.d[k, j])
                    for k, focal in enumerate(scores.ids)
                    for j, l in enumerate(scores.ls.tolist()))
            for focal, l, n_f, n_b, d in rows:
                if d == d:
                    assert -1.0 <= d <= 1.0, (
                        f"criterion 4: score {d} out of bounds")
                in_deg = int(graph.in_deg[graph.index[focal]])
                assert n_f + n_b == in_deg, (
                    f"criterion 4: n_f + n_b = {n_f + n_b} but "
                    f"{focal} has {in_deg} citers "
                    f"(l={l}, mode={mode})")
                n_checks += 1
    report(4, True,
           f"every defined score lies in [-1, 1] and n_f + n_b equals the "
           f"citer count in all {n_checks} scores over the criterion-2 "
           f"graph population")


def test_criterion_5_ols_against_exact_oracle():
    rng = np.random.default_rng(5150)
    checked = 0
    worst = 0.0
    while checked < 100:
        n = int(rng.integers(12, 201))
        k = int(rng.integers(2, 11))
        if n <= k + 2:
            continue
        X_int = np.column_stack(
            [np.ones(n, dtype=np.int64)]
            + [rng.integers(-4, 5, size=n) for _ in range(k - 1)])
        y_int = rng.integers(-9, 10, size=n)
        try:
            want = exact_ols(X_int.tolist(), y_int.tolist())
        except ValueError:
            continue  # singular draw, redo
        got = ols_fit(X_int.astype(float), y_int.astype(float))
        for field, exact in (("coef", want["coef"]), ("se", want["se"])):
            approx = getattr(got, field)
            for j in range(k):
                err = abs(approx[j] - float(exact[j]))
                err /= max(1.0, abs(float(exact[j])))
                worst = max(worst, err)
        assert got.r_squared == pytest.approx(float(want["r_squared"]),
                                              rel=1e-8, abs=1e-8)
        assert got.adj_r_squared == pytest.approx(
            float(want["adj_r_squared"]), rel=1e-8, abs=1e-8)
        checked += 1
    assert worst < 1e-8, f"criterion 5: worst relative error {worst:.2e}"

    # noise-free planted coefficients come back exactly
    n, beta = 30, np.array([3.0, -2.0, 0.5, 7.0])
    X = np.column_stack([np.ones(n)]
                        + [rng.integers(-5, 6, size=n).astype(float)
                           for _ in range(3)])
    planted = ols_fit(X, X @ beta)
    exact_err = float(np.max(np.abs(planted.coef - beta)))
    assert exact_err < 1e-10
    assert planted.r_squared == pytest.approx(1.0, abs=1e-12)

    # and the adjusted R^2 arithmetic agrees with a 5-row hand check:
    # slope 0.8, intercept 1.4, ssr 3.6, sst 10 so R^2 = .64 and
    # adjusted = 1 - .36 * 4 / 3 = .52
    hand = ols_fit(np.array([[1.0, x] for x in range(5)]),
                   np.array([1.0, 3.0, 2.0, 5.0, 4.0]))
    assert hand.coef[1] == pytest.approx(0.8, abs=1e-12)
    assert hand.coef[0] == pytest.approx(1.4, abs=1e-12)
    assert hand.r_squared == pytest.approx(0.64, abs=1e-12)
    assert hand.adj_r_squared == pytest.approx(0.52, abs=1e-12)
    report(5, True,
           f"least squares matches the exact-arithmetic oracle on 100 "
           f"instances (worst relative error {worst:.1e}), recovers "
           f"noise-free coefficients to {exact_err:.1e}, and reproduces "
           f"the 5-row hand check")


def _agreement_fixture(spec):
    """Build (predicted labels, gold labels), each keyed by paper id,
    hitting exact per-label tallies. ``spec`` maps label -> (correct,
    total)."""
    predictions = {}
    gold = {}
    i = 0
    for label, (correct, total) in spec.items():
        for j in range(total):
            pid = f"a{i}"
            i += 1
            gold[pid] = label
            predictions[pid] = label.capitalize() if j < correct else "Other"
    return predictions, gold


def test_criterion_6_agreement_arithmetic():
    first = agreement_report(*_agreement_fixture(
        {"conceptual": (26, 28), "empirical": (22, 23)}))
    second = agreement_report(*_agreement_fixture(
        {"conceptual": (194, 214), "empirical": (111, 115)}))
    got = (first.percent("conceptual"), second.percent("conceptual"),
           second.percent("empirical"), first.percent("empirical"))
    want = ("92.9%", "90.7%", "96.5%", "95.7%")
    report(6, got == want,
           f"agreement ratios 26/28, 194/214, 111/115, 22/23 render as "
           f"{', '.join(got)} (want {', '.join(want)})")


CITATIONS_SPEC = ModelSpec(name="citations-3", outcome="citations",
                           include_n_authors=True, include_conceptual=True)
D5_SPEC = ModelSpec(name="disruption-l5", outcome="d", l=5,
                    include_n_authors=True, include_conceptual=True)


def _conceptual_terms(seed, effect):
    """Fit both full models on one synthetic corpus using gold labels;
    returns the conceptual (coefficient, p) pair per model."""
    corpus = synth_corpus(5000, seed=seed, effect=effect)
    graph = graph_of(corpus)
    eligible = eligible_of(corpus, graph, EligibilityCriteria(min_in_links=6))
    scores = disruption_batch(graph, eligible, ls=(5,))
    labels = {pid: gold.capitalize()
              for pid, gold in zip(corpus.ids, corpus.gold_label) if gold is not None}
    rows = build_observation_rows(graph, corpus.year, corpus.n_authors, eligible, labels,
                                  (5,), scores)
    cit = fit_model(rows, CITATIONS_SPEC).term("conceptual")
    d5 = fit_model(rows, D5_SPEC).term("conceptual")
    return (cit[0], cit[3]), (d5[0], d5[3])


def test_criterion_7_planted_effect_recovery():
    t0 = time.perf_counter()
    seeds = range(1, 21)
    hits = {"citations": 0, "d5": 0}
    nulls = {"citations": 0, "d5": 0}
    for seed in seeds:
        (c_coef, c_p), (d_coef, d_p) = _conceptual_terms(seed, effect=1.0)
        hits["citations"] += c_coef > 0 and c_p < 0.01
        hits["d5"] += d_coef > 0 and d_p < 0.01
        (_, c_p), (_, d_p) = _conceptual_terms(seed, effect=0.0)
        nulls["citations"] += c_p >= 0.01
        nulls["d5"] += d_p >= 0.01
    elapsed = time.perf_counter() - t0
    ok = (hits["citations"] >= 18 and hits["d5"] >= 18
          and nulls["citations"] >= 18 and nulls["d5"] >= 18
          and elapsed < 600.0)
    report(7, ok,
           f"planted conceptual boost recovered at p < .01 in "
           f"{hits['citations']}/20 (citations) and {hits['d5']}/20 "
           f"(disruption l=5) seeds; with no effect the term is "
           f"insignificant in {nulls['citations']}/20 and {nulls['d5']}/20 "
           f"(>= 18 required everywhere; {elapsed:.0f}s of 600s budget)")


def test_criterion_8_scale_target():
    graph = synth_graph(107952, seed=8)
    assert graph.n_nodes == 107952
    assert 1_300_000 <= graph.n_edges <= 1_800_000, (
        f"criterion 8: {graph.n_edges} edges is far from the ~1.54M target")
    keep = (graph.in_deg >= 11) & (graph.out_deg >= 11)
    ids = [graph.ids[i] for i in np.nonzero(keep)[0]]
    disruption_batch(graph, ids[:4], ls=LS)  # warm the kernel
    t0 = time.perf_counter()
    scores = disruption_batch(graph, ids, ls=LS, n_jobs=1)
    single = time.perf_counter() - t0
    assert scores.d.shape == (len(ids), len(LS))

    cpus = os.cpu_count() or 1
    if cpus >= 8:
        t0 = time.perf_counter()
        disruption_batch(graph, ids, ls=LS, n_jobs=8)
        threaded = time.perf_counter() - t0
        speedup = single / threaded
        ok = single < 60.0 and speedup >= 3.0
        note = f"8-thread speedup {speedup:.1f}x (>= 3.0 required)"
    else:
        ok = single < 60.0
        note = (f"8-thread speedup check skipped: this host exposes "
                f"{cpus} CPU(s), so no parallel gain is measurable")
    report(8, ok,
           f"scored {len(ids)} eligible nodes of a {graph.n_nodes}-node / "
           f"{graph.n_edges}-edge graph at l in {{1,2,3,5}} in {single:.1f}s "
           f"single-threaded (< 60s required); {note}")


def test_criterion_9_pipeline_determinism(tmp_path):
    config = load_config(FIXTURES / "pipeline.conf", overrides={
        "corpus": FIXTURES / "corpus.jsonl",
        "allowlist": FIXTURES / "journals.txt",
        "out_dir": tmp_path / "out",
    })
    artifacts = run_pipeline(config)  # cold run pays the one-off imports
    paths = sorted(artifacts) + [config.out_dir / "manifest.json"]
    first = {p.name: p.read_bytes() for p in paths}
    t0 = time.perf_counter()
    run_pipeline(config)
    elapsed = time.perf_counter() - t0
    second = {p.name: p.read_bytes() for p in paths}
    identical = first == second
    ok = identical and elapsed < 5.0
    report(9, ok,
           f"full pipeline over the bundled 200-paper corpus with the "
           f"offline classifier: {elapsed:.2f}s (< 5s required), all "
           f"{len(first)} artifacts byte-identical across runs: {identical}")
