"""Command-line interface: staged stages and single-shot pipeline runs.

Every subcommand reads the same YAML config. The stage subcommands are
the rows of `pipeline.stages()` (`kelm` and `fuse`, which also prints
the report) and share a run directory derived from the config hash,
which a failed command leaves as it found it. Running a config's planned
stages in order reproduces exactly what `run` does in one shot. Exit
codes follow the error families: 0 success, 2 config, 3 missing input,
4 alignment, 5 task mismatch, 6 data format, 7 solver, 1 anything else.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import AffectPipeError, ConfigError, MissingInputError
from .metrics import report_to_text
from .pipeline import (PipelineConfig, _make_dir, _read_truth, _read_vad, load_config,
                       planned_stages, run_pipeline, staged_writes, stages)
from .synth import synth_generate


def _load(args) -> PipelineConfig:
    return load_config(args.config, seed=args.seed, workers=args.workers,
                       out_dir=args.out_dir)


def _cmd_synth(args) -> int:
    config = _load(args)
    if config.synth is None:
        raise ConfigError("synth needs a 'synth' section in the config")
    if not config.paths.embeddings or not config.paths.labels:
        raise ConfigError("synth needs paths.embeddings and paths.labels to write to")
    emb, lab, vad = config.paths.embeddings, config.paths.labels, config.paths.vad
    if args.out_dir:
        base = Path(args.out_dir)
        emb = base / Path(emb).name
        lab = base / Path(lab).name
        vad = base / Path(vad).name if vad else None
    for path in filter(None, (emb, lab, vad)):
        _make_dir(Path(path).parent, "synth output directory")
    paths = synth_generate(config.synth, emb, lab, vad)
    for name in sorted(paths):
        print(f"wrote {name}: {paths[name]}")
    return 0


def _run_stage(args) -> int:
    stage = {s.name: s for s in stages()}[args.command]
    config = _load(args)
    if stage not in planned_stages(config):
        raise ConfigError(f"{stage.name}: this config has kelm.enabled: false, so its "
                          f"run has no {stage.name} stage")
    with staged_writes(config) as out_dir:
        result = stage.command(config, out_dir, _read_truth(config), _read_vad(config))
    if result is not None:
        print(report_to_text(result))
    print(f"run directory: {config.run_dir()}")
    return 0


def _cmd_run(args) -> int:
    result = run_pipeline(_load(args))
    print(report_to_text(result.report))
    print(f"run directory: {result.run_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="affectpipe",
        description="Windowed emotion-recognition pipeline over embedding tracks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = [
        ("synth", "generate a seeded synthetic dataset", _cmd_synth),
        *((s.name, s.help, _run_stage) for s in stages()),
        ("run", "execute the full pipeline in one shot", _cmd_run),
    ]
    for name, help_text, handler in commands:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML pipeline config")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--workers", type=int, default=None, help="bounded per-video parallelism"
        )
        cmd.add_argument(
            "--out-dir",
            default=None,
            help="override output.dir (synth: where the dataset files go)",
        )
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except AffectPipeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: missing input: {exc}", file=sys.stderr)
        return MissingInputError.exit_code


if __name__ == "__main__":
    sys.exit(main())
