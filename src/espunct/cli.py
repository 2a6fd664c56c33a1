"""Command line interface.

Corpus-shaping subcommands move JSONL files around; `experiment` runs
the full grid from one config file, `serve` answers newline-delimited
JSON requests over stdio or TCP, and `predict` punctuates a single
line.  Files ending in .jsonl are corpus records; any other input file
is read as plain text, one utterance per line.  Records are shaped by
corpus.as_labeled and corpus.as_text, as in the pipeline.

Exit codes: 0 success, 2 bad arguments (out-of-range numbers included)
or configuration, 3 data errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from .augment import augment_to_distribution, histogram, write_histogram_report
from .corpus import (
    RawUtterance,
    Utterance,
    as_labeled,
    as_text,
    extract_labels,  # noqa: F401  unused here, but bench/ wraps it by this name
    normalize_punctuation,
    read_jsonl,
    write_jsonl,
)
from .crosslingual import anglicize_to_spanish_conventions
from .errors import (
    ConfigError,
    IoFailure,
    MalformedRecord,
    ModelLoadError,
    PipelineError,
    PunctError,
)
from .evaluate import evaluate, write_report_json
from .pipeline import (
    load_config,
    parse_strategy,
    restore,
    run_experiment,
    serve_stdio,
    serve_tcp,
)
from .selection import (
    score_pool,
    select_lowest_perplexity,
    train_ngram,
    write_selection_report,
)
from .tagger import TaggerModel, TrainConfig, run_strategy


def _seed_override(default: int | None = None) -> int | None:
    """PUNCT_SEED as an integer, or default when it is unset."""
    raw = os.environ.get("PUNCT_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"PUNCT_SEED must be an integer, got {raw!r}") from None


def _read_corpus(path: str) -> list[Utterance]:
    p = Path(path)
    if p.suffix == ".jsonl":
        return read_jsonl(p)
    try:
        lines = p.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise IoFailure(f"cannot read {p}: {exc}") from exc
    return [RawUtterance(line) for line in lines if line.strip()]


def _at_least(low: int):
    """argparse type for an integer no smaller than low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _cmd_normalize(args) -> int:
    records = _read_corpus(args.infile)
    out = []
    for rec in records:
        if not isinstance(rec, RawUtterance):
            raise MalformedRecord(0, "normalize expects raw text records")
        out.append(
            RawUtterance(
                normalize_punctuation(rec.text), source=rec.source, lang=rec.lang
            )
        )
    write_jsonl(out, args.out)
    return 0


def _cmd_extract(args) -> int:
    write_jsonl(as_labeled(_read_corpus(args.infile)), args.out)
    return 0


def _cmd_select(args) -> int:
    model_corpus = as_text(_read_corpus(args.model_corpus))
    pool = _read_corpus(args.pool)
    model = train_ngram(model_corpus, order=args.order)
    scores = score_pool(model, as_text(pool))
    if args.report:
        write_selection_report(scores, args.report)
    # Scores are parallel to pool, so the kept records keep the input's
    # shape: raw stays raw, labeled stays labeled.
    write_jsonl(select_lowest_perplexity(model, pool, args.k, scores=scores), args.out)
    return 0


def _cmd_augment(args) -> int:
    source = as_labeled(_read_corpus(args.source))
    target = histogram(as_labeled(_read_corpus(args.target_corpus)))
    grown = augment_to_distribution(
        source, target, _seed_override(args.seed), args.max_tokens
    )
    write_jsonl(grown, args.out)
    if args.report:
        write_histogram_report(target, histogram(source), histogram(grown), args.report)
    return 0


def _cmd_convert(args) -> int:
    converted = [
        anglicize_to_spanish_conventions(u)
        for u in as_labeled(_read_corpus(args.infile))
    ]
    write_jsonl(converted, args.out)
    return 0


def _cmd_train(args) -> int:
    es = as_labeled(_read_corpus(args.es))
    en = as_labeled(_read_corpus(args.en)) if args.en else None
    config = TrainConfig(
        epochs=args.epochs,
        seed=_seed_override(args.seed),
        shuffle=not args.no_shuffle,
    )
    model = run_strategy(parse_strategy(args.strategy), es, en, config)
    model.save(args.out)
    print(f"trained {args.strategy} on {len(es)} es utterances -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = TaggerModel.load(args.model)
    test = as_labeled(_read_corpus(args.test))
    report = evaluate(
        model, test, apply_repair=args.repair, dataset_tag=Path(args.test).stem
    )
    if args.out:
        write_report_json(report, args.out)
    print(report.format_table())
    return 0


def _cmd_experiment(args) -> int:
    config = load_config(args.config, _seed_override())
    reports = run_experiment(config)
    for report in reports:
        print(f"{report.dataset_tag}: micro-F1 {report.micro_f1_non_none:.4f}")
    print(f"comparison table: {config.output_dir / 'comparison.md'}")
    return 0


def _cmd_serve(args) -> int:
    model = TaggerModel.load(args.model)
    if args.listen:
        host, _, port_text = args.listen.rpartition(":")
        if not host or not port_text.isdigit():
            raise ConfigError(f"--listen wants HOST:PORT, got {args.listen!r}")
        server = serve_tcp(model, host, int(port_text))
        host, port = server.server_address[:2]
        print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0
    serve_stdio(model, sys.stdin, sys.stdout)
    return 0


def _cmd_predict(args) -> int:
    model = TaggerModel.load(args.model)
    rendered, _ = restore(model, args.text)
    print(rendered)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="espunct", description="Punctuation restoration toolkit."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="reduce punctuation to the supported inventory")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("extract", help="normalize and convert text to token labels")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("select", help="keep the k lowest-perplexity pool utterances")
    p.add_argument("--model-corpus", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--k", type=_at_least(0), required=True)
    p.add_argument("--order", type=_at_least(1), default=4)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write per-utterance perplexities as TSV")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("augment", help="concatenate toward a terminal-count histogram")
    p.add_argument("--source", required=True)
    p.add_argument("--target-corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tokens", type=_at_least(1), default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write before/after histogram masses as TSV")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("convert", help="rewrite close-only labels to Spanish pairs")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("train", help="train a tagger with a data-ordering strategy")
    p.add_argument("--strategy", required=True)
    p.add_argument("--es", required=True)
    p.add_argument("--en", help="converted English data, for the bilingual strategies")
    p.add_argument("--epochs", type=_at_least(1), default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model on labeled test data")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument(
        "--repair", default=True, action=argparse.BooleanOptionalAction,
        help="run pairing repair on predictions first",
    )
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("experiment", help="run every row of an experiment config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("serve", help="answer JSON requests over stdio or TCP")
    p.add_argument("--model", required=True)
    p.add_argument("--listen", help="HOST:PORT; without it, serve on stdio")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("predict", help="punctuate one line of text")
    p.add_argument("--model", required=True)
    p.add_argument("--text", required=True)
    p.set_defaults(func=_cmd_predict)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModelLoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc.cause, (ConfigError, ModelLoadError)) else 3
    except PunctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
