"""Command-line interface: pretrain, run, compare, export.

Every subcommand is a pure function of the config file and flags; output is
deterministic for a fixed (config, seed). The only environment dependence is
FLIPRESET_OUTDIR, which re-roots relative output paths. Exit codes: 0 success,
1 config or usage error, 2 runtime abort (non-finite divergence).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig, load_config
from .harness import build_model, compare_policies, export_log, run_experiment
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
    add("run", "run one experiment; write the per-step log")
    p_compare = add("compare", "run every configured policy across seeds; print a summary table")
    p_compare.add_argument(
        "--policy",
        action="append",
        default=None,
        help="restrict to named policies (repeat or comma-separate)",
    )
    add("export", "run one experiment and export its trajectory (CSV or JSON-lines)")
    return parser


def _resolve_out(path: str | None) -> str | None:
    """Re-root relative output paths under FLIPRESET_OUTDIR when it is set."""
    if path is None:
        return None
    outdir = os.environ.get("FLIPRESET_OUTDIR")
    if outdir and not Path(path).is_absolute():
        return str(Path(outdir) / path)
    return path


def _cmd_pretrain(config: ExperimentConfig, args) -> int:
    seed = config.seeds[0]
    model, holdout = build_model(config, seed)
    args.out = _resolve_out(args.out)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        # savez appends ".npz" to a path but writes a file handle as given
        with open(out, "wb") as fh:
            np.savez(fh, theta=model.theta, n_classes=model.n_classes, n_features=model.n_features)
    if not args.quiet:
        print(f"seed={seed} holdout_accuracy={holdout:.4f}")
        if args.out:
            print(f"weights written to {args.out}")
    return 0


def _run_and_write(config: ExperimentConfig, seed: int, out: str | None, fmt_hint: str | None):
    try:
        log = run_experiment(config, seed)
    except DivergenceError as exc:
        if out and exc.log is not None:
            export_log(exc.log, out, fmt=fmt_hint)
        raise
    if out:
        export_log(log, out, fmt=fmt_hint)
    return log


def _cmd_run(config: ExperimentConfig, args) -> int:
    seed = config.seeds[0]
    out = _resolve_out(args.out or config.output)
    fmt = None if out is None or Path(out).suffix.lower() in (".csv", ".jsonl") else "csv"
    log = _run_and_write(config, seed, out, fmt)
    if not args.quiet:
        print(
            f"policy={log.policy_name} seed={seed} steps={len(log.rows)} "
            f"mean_acc={log.mean_accuracy():.4f} final_acc={log.final_window_accuracy():.4f} "
            f"resets={log.reset_count()}"
        )
        if out:
            print(f"log written to {out}")
    return 0


def _cmd_compare(config: ExperimentConfig, args) -> int:
    policies = config.policies
    if policies is None:
        raise ConfigError("compare requires a 'policies' map in the config")
    if args.policy:
        wanted = [name for chunk in args.policy for name in chunk.split(",") if name]
        missing = [name for name in wanted if name not in policies]
        if missing:
            raise ConfigError(f"unknown policy names: {missing}; configured: {sorted(policies)}")
        policies = {name: policies[name] for name in wanted}
    if len(policies) < 2:
        raise ConfigError("compare needs at least two policies after filtering")
    summary = compare_policies(config, policies=policies)
    table = summary.table()
    args.out = _resolve_out(args.out)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table + "\n", encoding="utf-8")
    if not args.quiet:
        print(table)
    return 0


def _cmd_export(config: ExperimentConfig, args) -> int:
    if not args.out:
        raise ConfigError("export requires --out with a .csv or .jsonl suffix")
    if Path(args.out).suffix.lower() not in (".csv", ".jsonl"):
        raise ConfigError(f"export target must end in .csv or .jsonl, got {args.out!r}")
    seed = config.seeds[0]
    args.out = _resolve_out(args.out)
    _run_and_write(config, seed, args.out, None)
    if not args.quiet:
        print(f"trajectory written to {args.out}")
    return 0


_COMMANDS = {
    "pretrain": _cmd_pretrain,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "export": _cmd_export,
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
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
