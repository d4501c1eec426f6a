"""Citation-network analytics: corpus ingestion, disruption scoring,
article-type classification, and OLS models."""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    EligibilityCriteria,
    YearGroup,
    eligible_ids,
    filter_journals,
    parse_corpus,
    write_corpus,
)
from .graph import CitationGraph, build_graph, degree_stats
from .disruption import disruption_batch
from .oracle import CiterPartition, brute_force_partition
from .classify import (
    AgreementReport,
    BackendConfig,
    LabelTable,
    agreement_report,
    classify_batch,
    parse_response,
    render_prompt,
    stub_backend,
)
from .regress import (
    ModelSpec,
    Observations,
    RegressionResult,
    build_design_matrix,
    emit_table,
    ols_fit,
)
from .synth import synth_corpus

__all__ = [
    "AgreementReport",
    "BackendConfig",
    "CitationGraph",
    "CiterPartition",
    "Corpus",
    "EligibilityCriteria",
    "LabelTable",
    "ModelSpec",
    "Observations",
    "RegressionResult",
    "YearGroup",
    "agreement_report",
    "brute_force_partition",
    "build_design_matrix",
    "build_graph",
    "classify_batch",
    "degree_stats",
    "disruption_batch",
    "eligible_ids",
    "emit_table",
    "filter_journals",
    "ols_fit",
    "parse_corpus",
    "parse_response",
    "render_prompt",
    "stub_backend",
    "synth_corpus",
    "write_corpus",
]
