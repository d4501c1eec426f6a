"""Citation-network analytics: corpus ingestion, disruption scoring,
article-type classification, and OLS models."""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    EligibilityCriteria,
    PaperRecord,
    YearGroup,
    eligible_ids,
    filter_journals,
    parse_corpus,
    write_corpus,
    year_group,
)
from .graph import CitationGraph, build_graph, citers, degree_stats, references_of
from .disruption import (
    CiterPartition,
    DisruptionScore,
    disruption_batch,
    disruption_score,
    partition_citers,
)
from .oracle import brute_force_partition
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
    "DisruptionScore",
    "EligibilityCriteria",
    "LabelTable",
    "ModelSpec",
    "Observations",
    "PaperRecord",
    "RegressionResult",
    "YearGroup",
    "agreement_report",
    "brute_force_partition",
    "build_design_matrix",
    "build_graph",
    "citers",
    "classify_batch",
    "degree_stats",
    "disruption_batch",
    "disruption_score",
    "eligible_ids",
    "emit_table",
    "filter_journals",
    "ols_fit",
    "parse_corpus",
    "parse_response",
    "partition_citers",
    "references_of",
    "render_prompt",
    "stub_backend",
    "synth_corpus",
    "write_corpus",
    "year_group",
]
