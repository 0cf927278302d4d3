"""Command-line surface: gen, train, eval, sweep, analyze, plot.

Exit codes: 0 success, 2 usage error, 1 runtime failure.  Failures are
reported as one JSON object per line on stderr so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bpe, corpora
from .checkpoint import load_checkpoint, save_checkpoint
from .model import ModelConfig, TrainConfig, init_model
from .scoring import MODES, PLL, evaluate_pairs, write_eval_report
from .sweep import (
    cell_data,
    cell_tokenizer,
    column_slice,
    load_results,
    load_sweep_config,
    run_sweep,
)
from .svgplot import column_svg, heatmap_svg, write_svg
from .tp import analyze_column, write_report
from .training import train
from .util import sha256_bytes, stable_seed

WORKERS_ENV = "QUANTAL_WORKERS"
GEN_MANIFEST_FORMAT = "quantal-gen v2"

EXPERIMENT_BY_FLAG = {1: corpora.WORD_ORDER, 2: corpora.BINARY}


class UsageError(ValueError):
    """Bad argument values discovered after argparse."""


def _emit_error(kind: str, exc: BaseException) -> None:
    print(json.dumps({"kind": kind, "error": str(exc)}), file=sys.stderr)


@dataclass(frozen=True)
class PlotSpec:
    kind: str
    table: str
    out: str
    epochs: int
    n_train: int | None = None
    x_range: tuple[float, float] | None = None
    y_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("heatmap", "column_regression"):
            raise UsageError(f"unknown plot kind {self.kind!r}")
        if self.kind == "column_regression" and self.n_train is None:
            raise UsageError("column_regression plots need --n-train")


def _parse_range(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"range must be 'low,high', got {text!r}")
    lo, hi = (float(p) for p in parts)
    if not lo < hi:
        raise UsageError(f"range must increase, got {text!r}")
    return lo, hi


def cmd_gen(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if not 0.0 <= args.prop <= 1.0:
        raise UsageError(f"--prop must be in [0, 1], got {args.prop}")
    experiment = EXPERIMENT_BY_FLAG[args.exp]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    vocab, corpus, pairs = cell_data(experiment, args.seed, args.n, args.prop, args.pairs)
    written = {}
    if vocab is not None:
        corpora.write_vocabulary(vocab, out_dir / "vocabulary.txt")
        written["vocabulary"] = "vocabulary.txt"
    corpora.write_corpus(corpus, out_dir / "corpus.txt")
    corpora.write_pairs(pairs, out_dir / "pairs.tsv")
    written["corpus"] = "corpus.txt"
    written["pairs"] = "pairs.tsv"
    manifest = {
        "format": GEN_MANIFEST_FORMAT,
        "experiment": experiment,
        "n": args.n,
        "prop": args.prop,
        "base_seed": args.seed,
        "n_pairs": args.pairs,
        "exception_count": corpus.exception_count,
        "files": written,
        "corpus_sha256": sha256_bytes(corpus.to_text().encode("utf-8")),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    for name in [*written.values(), "manifest.json"]:
        print(f"wrote {out_dir / name}")
    return 0


def _default_tokenizer_path(checkpoint_path: str) -> str:
    return str(checkpoint_path) + ".tok"


def cmd_train(args) -> int:
    if not args.init_only and args.epochs is None:
        raise UsageError("--epochs is required unless --init-only is set")
    experiment = EXPERIMENT_BY_FLAG[args.exp]
    corpus = corpora.read_corpus(args.corpus, experiment)
    vocab = corpora.read_vocabulary(args.vocab) if args.vocab else None
    tok = cell_tokenizer(experiment, corpus, vocab)
    tok_path = args.tokenizer_out or _default_tokenizer_path(args.out)
    bpe.save_tokenizer(tok, tok_path)
    tok_hash = sha256_bytes(bpe.save_tokenizer_text(tok).encode("utf-8"))

    state = init_model(
        ModelConfig(vocab_size=tok.vocab_size), seed=stable_seed(args.seed, "init")
    )
    train_config = None
    if not args.init_only:
        train_config = TrainConfig(epochs=args.epochs, seed=stable_seed(args.seed, "train"))
        train(state, corpus, tok, train_config)
    save_checkpoint(state, args.out, train_config=train_config, tokenizer_sha256=tok_hash)
    print(f"wrote {tok_path}")
    print(f"wrote {args.out}")
    if state.loss_history:
        print(f"final loss {state.loss_history[-1]:.4f} over {state.step} steps")
    else:
        print("untrained checkpoint (no optimizer steps)")
    return 0


def cmd_eval(args) -> int:
    state, meta = load_checkpoint(args.checkpoint)
    tok = bpe.load_tokenizer(args.tokenizer)
    if tok.vocab_size != state.config.vocab_size:
        raise ValueError(
            f"tokenizer vocab {tok.vocab_size} does not match model vocab "
            f"{state.config.vocab_size}"
        )
    pairs = corpora.read_pairs(args.pairs, EXPERIMENT_BY_FLAG[args.exp])
    report = evaluate_pairs(state, tok, pairs, mode=args.mode)
    write_eval_report(report, args.out)
    print(f"wrote {args.out}")
    print(f"accuracy {report.accuracy:.4f} ({report.mode}, {report.n_pairs} pairs)")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_sweep_config(args.config)
    workers = args.workers or int(os.environ.get(WORKERS_ENV, "1"))
    results, skipped, failures = run_sweep(
        cfg,
        args.store,
        artifacts_dir=args.artifacts,
        workers=workers,
        reuse=args.reuse,
        log=lambda line: print(line, flush=True),
    )
    print(
        f"sweep finished: {len(results)} cells run, {len(skipped)} reused, "
        f"{len(failures)} failed"
    )
    if failures:
        for label, error in failures:
            _emit_error("cell-failure", RuntimeError(f"{label}: {error}"))
        return 1
    return 0


def _column_inputs(table, n_train: int, epochs: int):
    points = column_slice(table, n_train, epochs)
    rows = [r for r in table if r["n_train"] == n_train and r["epochs"] == epochs]
    return points, rows[0]["n_types"]


def cmd_analyze(args) -> int:
    table = load_results(args.table)
    points, n_types = _column_inputs(table, args.n_train, args.epochs)
    report = analyze_column(points, n_types, alpha=args.alpha)
    write_report(report, args.out)
    print(f"wrote {args.out}")
    print(f"classification: {report.classification}")
    return 0


def cmd_plot(args) -> int:
    spec = PlotSpec(
        kind=args.kind,
        table=args.table,
        out=args.out,
        epochs=args.epochs,
        n_train=args.n_train,
        x_range=_parse_range(args.x_range),
        y_range=_parse_range(args.y_range),
    )
    table = load_results(spec.table)
    if not table:
        raise ValueError(f"results table is empty: {spec.table}")
    if spec.kind == "heatmap":
        svg = heatmap_svg(
            table,
            epochs=spec.epochs,
            x_range=spec.x_range,
            y_range=spec.y_range,
            title=f"mean accuracy, {spec.epochs} epochs",
        )
    else:
        points, n_types = _column_inputs(table, spec.n_train, spec.epochs)
        svg = column_svg(
            points,
            n_types,
            title=f"n={spec.n_train}, {spec.epochs} epochs",
        )
    write_svg(svg, spec.out)
    print(f"wrote {spec.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantal",
        description="Rule-learning experiments with a small masked language model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate corpus, test pairs, and vocabulary files")
    gen.add_argument("--exp", type=int, choices=(1, 2), required=True)
    gen.add_argument("--n", type=int, required=True, help="training sentences")
    gen.add_argument("--prop", type=float, required=True, help="exception proportion")
    gen.add_argument("--seed", type=int, required=True, help="a sweep config's base_seed")
    gen.add_argument("--out-dir", required=True)
    gen.add_argument("--pairs", type=int, default=1000, help="test pairs (a config's n_test_pairs)")
    gen.set_defaults(func=cmd_gen)

    tr = sub.add_parser("train", help="train a model and tokenizer on a corpus file")
    tr.add_argument("--corpus", required=True)
    tr.add_argument("--exp", type=int, choices=(1, 2), required=True)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--out", required=True, help="checkpoint path")
    tr.add_argument("--vocab", help="vocabulary.txt from gen; the tokenizer trains on it too")
    tr.add_argument("--tokenizer-out", help="default: <out>.tok")
    tr.add_argument(
        "--init-only",
        action="store_true",
        help="write the freshly initialized model without training",
    )
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score minimal pairs with a trained checkpoint")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--tokenizer", required=True)
    ev.add_argument("--pairs", required=True)
    ev.add_argument("--exp", type=int, choices=(1, 2), required=True)
    ev.add_argument("--mode", choices=MODES, default=PLL)
    ev.add_argument("--out", required=True, help="evaluation report path")
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="run a grid of cells from a sweep config")
    sw.add_argument("--config", required=True, help="sweep configuration JSON")
    sw.add_argument("--store", required=True, help="results CSV path")
    sw.add_argument("--artifacts", help="directory for per-cell artifact files")
    sw.add_argument("--reuse", action="store_true", help="skip cells already in store")
    sw.add_argument(
        "--workers", type=int, help=f"parallel cells (default ${WORKERS_ENV} or 1)"
    )
    sw.set_defaults(func=cmd_sweep)

    an = sub.add_parser("analyze", help="changepoint analysis of one results column")
    an.add_argument("--table", required=True, help="results CSV path")
    an.add_argument("--n-train", type=int, required=True)
    an.add_argument("--epochs", type=int, required=True)
    an.add_argument("--alpha", type=float, default=0.05)
    an.add_argument("--out", required=True, help="analysis report path")
    an.set_defaults(func=cmd_analyze)

    pl = sub.add_parser("plot", help="render results as an SVG figure")
    pl.add_argument("--kind", choices=("heatmap", "column_regression"), required=True)
    pl.add_argument("--table", required=True, help="results CSV path")
    pl.add_argument("--epochs", type=int, required=True)
    pl.add_argument("--n-train", type=int, help="column_regression: which column")
    pl.add_argument("--x-range", help="low,high data range for the x axis")
    pl.add_argument("--y-range", help="low,high data range for the y axis")
    pl.add_argument("--out", required=True, help="SVG output path")
    pl.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        _emit_error("usage", exc)
        return 2
    except (OSError, ValueError, RuntimeError) as exc:
        _emit_error("runtime", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
