"""Command-line interface: pretrain, run, compare.

Every subcommand is a pure function of the config file and flags; output is
deterministic for a fixed (config, seed). The only environment dependence is
FLIPRESET_OUTDIR, which re-roots relative output paths. Exit codes: 0 success,
1 config or usage error, 2 numerical divergence (non-finite stream features,
weights or predictions, or a non-finite pretraining loss or weights). Any
other exception is a bug in the program and ends in a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .harness import LOG_FORMATS, build_model, compare_policies, export_log, run_experiment
from .learner import DivergenceError

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route those through
    # ConfigError so bad flags and bad configs share exit code 1.
    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="flipreset",
        description="Reset-policy experiments for online-adapting classifiers on drifting streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config's seed list")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--quiet", action="store_true", help="suppress normal output")
        return p

    add("pretrain", "train the source classifier and report holdout accuracy")
    add("run", "run one experiment; write the per-step log (CSV or JSON-lines, by --out's suffix)")
    add("compare", "run every configured policy across seeds; print a summary table")
    return parser


def _resolve_out(path: str | None) -> str | None:
    """Re-root relative output paths under FLIPRESET_OUTDIR when it is set."""
    if not path:
        return None
    outdir = os.environ.get("FLIPRESET_OUTDIR")
    if outdir and not Path(path).is_absolute():
        return str(Path(outdir) / path)
    return path


def _prepare_out(out: str | None) -> None:
    """Create ``--out``'s parent directory before any work, so a path that
    cannot be written exits 1 naming ``--out`` at once."""
    if not out:
        return
    if Path(out).is_dir():
        raise ConfigError(f"--out {out!r} is a directory")
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out!r}: cannot create its directory: {exc}") from exc


def _cmd_pretrain(config: ExperimentConfig, args) -> int:
    _prepare_out(args.out)
    seed = config.seeds[0]
    model, holdout = build_model(config, seed)
    if args.out:
        # savez appends ".npz" to a path but writes a file handle as given
        with open(args.out, "wb") as fh:
            np.savez(fh, theta=model.theta, n_classes=model.n_classes, n_features=model.n_features)
    if not args.quiet:
        print(f"seed={seed} holdout_accuracy={holdout:.4f}")
        if args.out:
            print(f"weights written to {args.out}")
    return 0


def _cmd_run(config: ExperimentConfig, args) -> int:
    out = args.out
    if out and Path(out).suffix.lower() not in LOG_FORMATS:
        raise ConfigError(f"--out must end in {' or '.join(LOG_FORMATS)}, got {out!r}")
    _prepare_out(out)
    seed = config.seeds[0]
    try:
        log = run_experiment(config, seed)
    except DivergenceError as exc:
        if out and exc.log is not None:
            export_log(exc.log, out)
        raise
    if out:
        export_log(log, out)
    if not args.quiet:
        print(
            f"policy={log.policy_name} seed={seed} steps={len(log.rows)} "
            "mean_acc={mean_accuracy:.4f} final_acc={final_accuracy:.4f} "
            "resets={reset_count}".format(**log.summary())
        )
        if out:
            print(f"log written to {out}")
    return 0


def _cmd_compare(config: ExperimentConfig, args) -> int:
    if config.policies is None:
        raise ConfigError("compare requires a 'policies' map in the config")
    if len(config.policies) < 2:
        raise ConfigError("compare needs at least two policies")
    _prepare_out(args.out)
    summary = compare_policies(config)
    table = summary.table()
    if args.out:
        Path(args.out).write_text(table + "\n", encoding="utf-8")
    if not args.quiet:
        print(table)
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "run": _cmd_run,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.out = _resolve_out(args.out)
        config = load_config(args.config)
        if args.seed is not None:
            # through the config's own checks, like a seed from the file
            config = replace(config, seeds=(args.seed,))
        return _COMMANDS[args.command](config, args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        # a pretraining divergence has no log, and its step is an epoch
        where = "" if exc.log is None else f" (row index {exc.step})"
        print(f"aborted: {exc}{where}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
