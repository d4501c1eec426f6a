"""Command-line entry point.

    disruptkit run      --config pipeline.conf [--stub] [--out-dir D]
    disruptkit <stage>  --config pipeline.conf ...     one of the six stages
    disruptkit synth    --out corpus.jsonl --n-papers 5000 --seed 7 [--effect 1.0]

``synth`` writes a gold-labeled corpus from the generator's fixed
mixture (see disruptkit.synth); ``--effect`` is the planted conceptual
boost and the only setting of the process itself.

Exit codes: 0 on success, 1 on a failure (for a stage, the diagnostic
names it), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .pipeline import (STAGE_FUNCTIONS, STAGES, PipelineConfig, StageError,
                       load_config, run_pipeline)
from .synth import synth_corpus


def _add_config_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, required=True,
                        help="key = value configuration file")
    parser.add_argument("--stub", action="store_true", default=None,
                        help="force the offline classifier stub")
    parser.add_argument("--out-dir", type=Path, default=None,
                        help="override the configured output directory")


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    overrides: dict = {}
    if args.stub:
        overrides["stub"] = True
    if args.out_dir is not None:
        overrides["out_dir"] = args.out_dir
    return load_config(args.config, overrides=overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disruptkit",
        description="Citation networks, disruption scores, article-type "
                    "classification, and OLS models for bibliographic corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the full pipeline")
    _add_config_options(run)

    for stage in STAGES:
        stage_parser = sub.add_parser(stage, help=f"run only the {stage} stage")
        _add_config_options(stage_parser)

    synth = sub.add_parser("synth", help="generate a synthetic gold-labeled corpus")
    synth.add_argument("--out", type=Path, required=True,
                       help="path for the generated corpus file")
    synth.add_argument("--n-papers", type=int, required=True)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--effect", type=float, default=0.0,
                       help="planted conceptual citation/disruption boost (>= 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "synth":
        try:
            corpus = synth_corpus(args.n_papers, seed=args.seed, effect=args.effect,
                                  path=args.out)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(corpus)} papers to {args.out}")
        return 0

    try:
        config = _config_from_args(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "run":
            artifacts = run_pipeline(config)
        else:
            artifacts = STAGE_FUNCTIONS[args.command](config)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for path in artifacts:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
