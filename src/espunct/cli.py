"""Command line interface.

Corpus-shaping subcommands move JSONL files around; `experiment` runs
the full grid from one config file, `serve` answers newline-delimited
JSON requests over stdio or TCP, and `predict` punctuates a single
line.  Files ending in .jsonl are corpus records; any other input file
is read as plain text, one utterance per line.  Records are shaped by
corpus.as_labeled and corpus.as_text, as in the pipeline.

Exit codes: 0 success, 2 bad arguments (out-of-range numbers included)
or configuration, 3 data errors; each error type carries its code.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from .augment import DEFAULT_MAX_TOKENS, augment_to_distribution, histogram, write_histogram_report
from .corpus import (
    LabeledUtterance,
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
from .errors import ConfigError, EmptyCorpus, IoFailure, MalformedRecord, PunctError
from .evaluate import DEFAULT_REPAIR, evaluate, write_report_json
from .pipeline import (
    PunctServer,
    load_config,
    parse_strategy,
    restore,
    run_experiment,
    serve_lines,
)
from .selection import (
    DEFAULT_ORDER,
    MAX_ORDER,
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


def _text_lines(p: Path) -> list[tuple[int, str]]:
    """The non-blank lines of a plain-text file with their 1-based numbers.

    Lines end at "\n" only, and one "\r" before it is dropped.  Other
    Unicode line breaks (U+2028, U+0085, U+001C-U+001E) stay inside the
    line as whitespace between tokens, so line numbers agree with the
    count of "\n" that names a non-UTF-8 line.  A leading byte order mark
    is dropped, after decoding, so that count still runs over the file's
    own bytes.
    """
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {p}: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    text = text.removeprefix("\ufeff")
    return [
        (n, line.removesuffix("\r"))
        for n, line in enumerate(text.split("\n"), start=1)
        if line.strip()
    ]


def _read_corpus(path: str, shape: Callable[[list], list] = list) -> list:
    """The records of the corpus at path through shape.  A file with no
    records is EmptyCorpus; a MalformedRecord from shape names the file's line."""
    p = Path(path)
    numbered = None if p.suffix == ".jsonl" else _text_lines(p)
    records = read_jsonl(p) if numbered is None else [RawUtterance(t) for _, t in numbered]
    if not records:
        raise EmptyCorpus(f"{p} holds no utterances")
    try:
        return shape(records)
    except MalformedRecord as exc:
        if numbered is None:
            raise
        # Blank lines are not records, so map the record's position back.
        raise MalformedRecord(numbered[exc.line_number - 1][0], exc.reason) from None


def _read_labeled(path: str) -> list[LabeledUtterance]:
    """The corpus at path through as_labeled; an error names the file's line."""
    return _read_corpus(path, as_labeled)


def _normalized(records: list[Utterance]) -> list[RawUtterance]:
    """Raw records normalized; any other record, or text normalized to nothing, is malformed."""
    out = []
    for position, rec in enumerate(records, start=1):
        if not isinstance(rec, RawUtterance):
            raise MalformedRecord(position, "normalize expects raw text records")
        text = normalize_punctuation(rec.text)
        try:
            out.append(RawUtterance(text, source=rec.source, lang=rec.lang))
        except ValueError:
            raise MalformedRecord(position, "text has no tokens after normalization") from None
    return out


def _at_least(low: int, high: int | None = None):
    """argparse type for an integer no smaller than low and, if high is
    given, no larger than high."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


def _cmd_normalize(args) -> int:
    write_jsonl(_read_corpus(args.infile, _normalized), args.out)
    return 0


def _cmd_extract(args) -> int:
    write_jsonl(_read_labeled(args.infile), args.out)
    return 0


def _cmd_select(args) -> int:
    model_corpus = as_text(_read_corpus(args.model_corpus))
    pool = _read_corpus(args.pool)
    model = train_ngram(model_corpus, order=args.order)
    scores = score_pool(model, as_text(pool))
    # Scores are parallel to pool, so the kept records keep the input's
    # shape: raw stays raw, labeled stays labeled.  Selecting before any
    # write means a failed select leaves no artifact behind.
    kept = select_lowest_perplexity(model, pool, args.k, scores=scores)
    if args.report:
        write_selection_report(scores, args.report)
    write_jsonl(kept, args.out)
    return 0


def _cmd_augment(args) -> int:
    source = _read_labeled(args.source)
    target = histogram(_read_labeled(args.target_corpus))
    grown = augment_to_distribution(
        source, target, _seed_override(args.seed), args.max_tokens
    )
    # Every histogram is built before the first write, so a failed
    # augment leaves no artifact behind.
    before_after = (histogram(source), histogram(grown)) if args.report else None
    write_jsonl(grown, args.out)
    if before_after:
        write_histogram_report(target, *before_after, args.report)
    return 0


def _cmd_convert(args) -> int:
    converted = [anglicize_to_spanish_conventions(u) for u in _read_labeled(args.infile)]
    write_jsonl(converted, args.out)
    return 0


def _cmd_train(args) -> int:
    es = _read_labeled(args.es)
    en = _read_labeled(args.en) if args.en else None
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
    test = _read_labeled(args.test)
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
        try:
            if not host:
                raise ValueError("no host")
            # bind refuses a port outside 0-65535 and a host it cannot encode.
            server = PunctServer((host, int(port_text)), model)
        except (ValueError, TypeError, OverflowError, OSError) as exc:
            raise ConfigError(
                f"cannot listen on {args.listen!r} (want HOST:PORT, PORT 0-65535): {exc}"
            ) from None
        host, port = server.server_address[:2]
        print(f"listening on {host}:{port}", file=sys.stderr, flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0
    if not serve_lines(model, sys.stdin.buffer, sys.stdout.buffer):
        # The reader went away with an answer still buffered; point stdout
        # at the null device so the interpreter's final flush cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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
    p.add_argument("--order", type=_at_least(1, MAX_ORDER), default=DEFAULT_ORDER)
    p.add_argument("--out", required=True)
    p.add_argument("--report", help="write per-utterance perplexities as TSV")
    p.set_defaults(func=_cmd_select)

    p = sub.add_parser("augment", help="concatenate toward a terminal-count histogram")
    p.add_argument("--source", required=True)
    p.add_argument("--target-corpus", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-tokens", type=_at_least(1), default=DEFAULT_MAX_TOKENS)
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
    p.add_argument("--epochs", type=_at_least(1), default=TrainConfig.epochs)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model on labeled test data")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True)
    p.add_argument(
        "--repair", default=DEFAULT_REPAIR, action=argparse.BooleanOptionalAction,
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
    except PunctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
