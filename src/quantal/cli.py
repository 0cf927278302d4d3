"""Command-line surface: gen, train, eval, sweep, analyze, plot.

`train` reads a cell directory that `gen` or `sweep --artifacts` wrote (word
order if and only if it holds vocabulary.txt) and writes one file: a checkpoint
that embeds its tokenizer and experiment, so `eval` needs only the checkpoint
and pairs, and refuses pairs that are not sentences of the model's experiment.

Exit codes: 0 success, 2 usage error, 1 runtime failure.  Failures are
reported as one JSON object per line on stderr so callers can parse them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import corpora
from .checkpoint import load_checkpoint, save_checkpoint
from .scoring import evaluate_pairs, write_eval_report
from .sweep import (
    cell_data,
    cell_tokenizer,
    column_slice,
    load_results,
    load_sweep_config,
    run_sweep,
    train_replicate,
    write_cell_inputs,
)
from .svgplot import column_svg, heatmap_svg
from .tp import analyze_column, write_report
from .util import stable_seed

GEN_MANIFEST_FORMAT = "quantal-gen v2"


class UsageError(ValueError):
    """Bad argument values discovered after argparse."""


def _emit_error(kind: str, exc: BaseException) -> None:
    print(json.dumps({"kind": kind, "error": str(exc)}), file=sys.stderr)


def cmd_gen(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if not 0.0 <= args.prop <= 1.0:
        raise UsageError(f"--prop must be in [0, 1], got {args.prop}")
    if args.pairs < 1:
        raise UsageError(f"--pairs must be >= 1, got {args.pairs}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    experiment = {1: corpora.WORD_ORDER, 2: corpora.BINARY}[args.exp]
    out_dir = Path(args.out_dir)
    prop = args.prop + 0.0  # -0.0 is the 0.0 cell, as in SweepConfig: seeds hash repr(prop)
    vocab, corpus, pairs = cell_data(experiment, args.seed, args.n, prop, args.pairs)
    written = write_cell_inputs(out_dir, vocab, corpus, pairs)
    manifest = {
        "format": GEN_MANIFEST_FORMAT,
        "experiment": experiment,
        "n": args.n,
        "prop": prop,
        "base_seed": args.seed,
        "n_pairs": args.pairs,
        "exception_count": corpus.exception_count,
        "files": written,
        "corpus_sha256": corpora.corpus_sha256(corpus),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    for name in [*written.values(), "manifest.json"]:
        print(f"wrote {out_dir / name}")
    return 0


def cmd_train(args) -> int:
    if args.epochs < 0:
        raise UsageError(f"--epochs must be >= 0 (0 = untrained), got {args.epochs}")
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    cell = Path(args.cell)  # only word order has a vocabulary, as in cell_data
    vocab = corpora.read_vocabulary(cell / "vocabulary.txt") if (cell / "vocabulary.txt").exists() else None
    experiment = corpora.BINARY if vocab is None else corpora.WORD_ORDER
    corpus = corpora.read_corpus(cell / "corpus.txt", experiment)
    tok = cell_tokenizer(experiment, corpus, vocab)
    print(f"{experiment} cell ({'no ' if vocab is None else ''}vocabulary.txt): tokenizer {tok.vocab_size} tokens")
    state, train_config = train_replicate(
        tok, corpus, stable_seed(args.seed, "init"), args.epochs, stable_seed(args.seed, "train")
    )
    save_checkpoint(state, args.out, tok, experiment, train_config=train_config)
    print(f"wrote {args.out}")
    if state.loss_history:
        print(f"last batch loss {state.loss_history[-1]:.4f} over {state.step} steps")
    else:
        print("untrained checkpoint (no optimizer steps)")
    return 0


def cmd_eval(args) -> int:
    state, meta = load_checkpoint(args.checkpoint)
    pairs = corpora.read_pairs(args.pairs, meta["experiment"])
    report = evaluate_pairs(state, meta["tokenizer"], pairs)
    write_eval_report(report, args.out)
    print(f"wrote {args.out}")
    print(f"accuracy {report.accuracy:.4f} ({report.n_pairs} pairs)")
    return 0


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    cfg = load_sweep_config(args.config)
    results, skipped, failures = run_sweep(
        cfg,
        args.store,
        artifacts_dir=args.artifacts,
        workers=args.workers,
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


def cmd_analyze(args) -> int:
    # A cell's N, the distinct training sentences, is its size
    points = column_slice(load_results(args.table), args.n_train, args.epochs)
    report = analyze_column(points, args.n_train)
    write_report(report, args.out)
    print(f"wrote {args.out}")
    print(f"classification: {report.classification}")
    return 0


def cmd_plot(args) -> int:
    if args.kind == "column_regression" and args.n_train is None:
        raise UsageError("column_regression plots need --n-train")
    table = load_results(args.table)
    if not table:
        raise ValueError(f"results table is empty: {args.table}")
    if args.kind == "heatmap":
        svg = heatmap_svg(table, epochs=args.epochs, title=f"mean accuracy, {args.epochs} epochs")
    else:
        points = column_slice(table, args.n_train, args.epochs)
        svg = column_svg(
            points,
            analyze_column(points, args.n_train),
            title=f"n={args.n_train}, {args.epochs} epochs",
        )
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
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

    tr = sub.add_parser("train", help="train a model and tokenizer on a cell's inputs")
    tr.add_argument("--cell", required=True, help="directory from gen --out-dir or one sweep --artifacts cell")
    tr.add_argument("--epochs", type=int, required=True, help="0 writes the untrained model")
    tr.add_argument("--seed", type=int, required=True)
    tr.add_argument("--out", required=True, help="checkpoint path; it embeds the tokenizer")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="score minimal pairs with a trained checkpoint")
    ev.add_argument("--checkpoint", required=True, help="checkpoint from train or a sweep --artifacts cell")
    ev.add_argument("--pairs", required=True, help="pairs.tsv of the model's experiment")
    ev.add_argument("--out", required=True, help="evaluation report path")
    ev.set_defaults(func=cmd_eval)

    sw = sub.add_parser("sweep", help="run a grid of cells from a sweep config")
    sw.add_argument("--config", required=True, help="sweep configuration JSON")
    sw.add_argument("--store", required=True, help="results CSV path; cells it holds are skipped")
    sw.add_argument("--artifacts", help="directory for per-cell artifact files")
    sw.add_argument(
        "--workers", type=int, default=1, help="parallel replicates, each worker on one BLAS thread"
    )
    sw.set_defaults(func=cmd_sweep)

    an = sub.add_parser("analyze", help="changepoint analysis of one results column")
    an.add_argument("--table", required=True, help="results CSV path")
    an.add_argument("--n-train", type=int, required=True)
    an.add_argument("--epochs", type=int, required=True)
    an.add_argument("--out", required=True, help="analysis report path")
    an.set_defaults(func=cmd_analyze)

    pl = sub.add_parser("plot", help="render results as an SVG figure")
    pl.add_argument("--kind", choices=("heatmap", "column_regression"), required=True)
    pl.add_argument("--table", required=True, help="results CSV path")
    pl.add_argument("--epochs", type=int, required=True)
    pl.add_argument("--n-train", type=int, help="column_regression: which column")
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
