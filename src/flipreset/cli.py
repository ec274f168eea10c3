"""Command-line interface: run, compare.

``run`` adapts the config's first seed and reports its source model's
holdout accuracy with the run's summary; ``compare`` runs every policy on
every seed.

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

    add("run", "run one experiment; write the per-step log (CSV or JSON-lines, by --out's suffix)")
    add("compare", "run every configured policy across seeds; print a summary table")
    return parser


def _prepare_out(out: str | None) -> str | None:
    """Return ``--out`` re-rooted under FLIPRESET_OUTDIR when it is relative
    and that is set, with its parent directory created before any work, so a
    path that cannot be written exits 1 naming ``--out`` at once."""
    if out is None:
        return None
    outdir = os.environ.get("FLIPRESET_OUTDIR")
    if outdir and not Path(out).is_absolute():
        out = str(Path(outdir) / out)
    if Path(out).is_dir():
        raise ConfigError(f"--out {out!r} is a directory")
    try:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out!r}: cannot create its directory: {exc}") from exc
    return out


def _cmd_run(config: ExperimentConfig, args) -> int:
    if args.out is not None and Path(args.out).suffix.lower() not in LOG_FORMATS:
        raise ConfigError(f"--out must end in {' or '.join(LOG_FORMATS)}, got {args.out!r}")
    out = _prepare_out(args.out)
    seed = config.seeds[0]
    model, holdout = build_model(config, seed)
    try:
        log = run_experiment(config, seed, model=model)
    except DivergenceError as exc:
        if out is not None:
            export_log(exc.log, out)
        raise
    if out is not None:
        export_log(log, out)
    if not args.quiet:
        print(
            f"policy={log.policy_name} seed={seed} steps={len(log.rows)} holdout_acc={holdout:.4f} "
            "mean_acc={mean_accuracy:.4f} final_acc={final_accuracy:.4f} "
            "resets={reset_count}".format(**log.summary())
        )
        if out is not None:
            print(f"log written to {out}")
    return 0


def _cmd_compare(config: ExperimentConfig, args) -> int:
    if config.policies is None:
        raise ConfigError("compare requires a 'policies' map in the config")
    if len(config.policies) < 2:
        raise ConfigError("compare needs at least two policies")
    out = _prepare_out(args.out)
    summary = compare_policies(config)
    table = summary.table()
    if out is not None:
        Path(out).write_text(table + "\n", encoding="utf-8")
    if not args.quiet:
        print(table)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config)
        if args.seed is not None:
            # through the config's own checks, like a seed from the file
            config = replace(config, seeds=(args.seed,))
        return _COMMANDS[args.command](config, args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        where = "" if exc.step is None else f" (t={exc.step})"
        print(f"aborted: {exc}{where}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
