"""Command line interface.

Corpus-shaping subcommands move JSONL files around; `experiment` runs
the full grid from one config file, `serve` answers newline-delimited
JSON requests over stdio or TCP, and `predict` punctuates a single
line.  Every input corpus is read by corpus.read_corpus and its records
shaped by corpus.as_labeled and corpus.as_text, as in the pipeline.

normalize, extract and convert (one command over a table), and select's
pass over its pool, map one function over the chunks of a large input,
cut after a newline, one per CPU at most; this process works the first
chunk while forked ones work the rest (see forked).  The output, in file
order, is the bytes of one process reading the whole file, since they
work record by record; when one of several chunks fails, this process
works the whole file once more and fails as that one process does.

Exit codes: 0 success, 2 bad arguments (out-of-range numbers included)
or configuration, 3 data errors; each error type carries its code.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

from .augment import DEFAULT_MAX_TOKENS, augment_to_distribution, histogram, write_histogram_report
from .corpus import (
    RawUtterance,
    Utterance,
    as_labeled,
    as_text,
    extract_labels,  # noqa: F401  unused here, but bench/ wraps it by this name
    jsonl_line,
    normalize_punctuation,
    read_bytes,
    read_corpus,
    read_jsonl,  # noqa: F401  unused here, but bench/ wraps it by this name
    write_jsonl,
    write_lines_atomic,
    writes_together,
)
from .crosslingual import anglicize_to_spanish_conventions
from .errors import ConfigError, MalformedRecord, PunctError, WorkerLost
from .evaluate import DEFAULT_REPAIR, evaluate, write_report_json
from .forked import cpus, run_forked
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


# Smallest share of a corpus file, in bytes, worth a process of its own:
# forking a worker and piping back its lines costs a few milliseconds,
# about what extract does with 128 KiB.
_MIN_CHUNK_BYTES = 1 << 17


def _chunks(data: bytes) -> list[tuple[int, int]]:
    """The (start, stop) offsets of data cut into at most one chunk per
    CPU, and fewer when the chunks would hold under _MIN_CHUNK_BYTES.  The
    i-th of n chunks starts at the first line start at or after i/n of data."""
    n = max(1, min(cpus(), len(data) // _MIN_CHUNK_BYTES))
    starts = [0]
    for i in range(1, n):
        cut = data.find(b"\n", max(len(data) * i // n - 1, starts[-1])) + 1
        if 0 < cut < len(data):
            starts.append(cut)
    return list(zip(starts, starts[1:] + [len(data)]))


def _work_chunk(p: Path, data: bytes, transform: Callable, bounds: tuple[int, int]) -> tuple:
    """(the record type, transform(records)) for the records of the corpus
    file p whose bytes are data, within bounds (see read_corpus)."""
    return read_corpus(p, lambda records: (type(records[0]), transform(records)), data, bounds)


def _map_corpus(path: str, transform: Callable[[list], object]) -> list:
    """transform(records) for each chunk of the corpus at path, in file
    order.  Chunks but the first are worked in forked processes.

    When one of several chunks fails, or the chunks hold records of
    different types, this process works the whole file once more and that
    run's failure is raised, so every failure is one process's; a lost
    worker fails the command as it is.
    """
    p = Path(path)
    data = read_bytes(p)
    job = partial(_work_chunk, p, data, transform)
    bounds = _chunks(data)
    try:
        outcomes = run_forked(job, bounds, here=True)
    except PunctError as exc:
        if isinstance(exc, WorkerLost) or len(bounds) == 1:
            raise
        outcomes = []
    if len({kind for kind, _ in outcomes}) != 1:
        outcomes = [job((0, len(data)))]
    return [result for _, result in outcomes]


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


# The record-wise commands: name -> (help, what a list of records becomes).
# as_labeled is looked up when a command runs, so that replacing it in
# this module, as tests do, reaches the commands.
_RECORDWISE: dict[str, tuple[str, Callable[[list[Utterance]], list[Utterance]]]] = {
    "normalize": ("reduce punctuation to the supported inventory", _normalized),
    "extract": ("normalize and convert text to token labels", lambda records: as_labeled(records)),
    "convert": ("rewrite close-only labels to Spanish pairs", lambda records: [
        anglicize_to_spanish_conventions(u) for u in as_labeled(records)
    ]),
}


def _cmd_recordwise(args) -> int:
    shape = _RECORDWISE[args.command][1]
    chunks = _map_corpus(args.infile, lambda records: list(map(jsonl_line, shape(records))))
    write_lines_atomic(args.out, chain.from_iterable(chunks))
    return 0


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


def _cmd_select(args) -> int:
    model = train_ngram(as_text(read_corpus(args.model_corpus)), order=args.order)

    def lines_and_scores(pool: list[Utterance]) -> tuple[list[str], list[float]]:
        return list(map(jsonl_line, pool)), score_pool(model, as_text(pool))

    chunks = _map_corpus(args.pool, lines_and_scores)
    lines = [line for chunk, _ in chunks for line in chunk]
    scores = [score for _, chunk in chunks for score in chunk]
    # Lines are parallel to scores, so the kept records keep the input's
    # shape: raw stays raw, labeled stays labeled.
    kept = select_lowest_perplexity(model, lines, args.k, scores=scores)
    # Neither file is put in place before both are written, so a failed
    # select leaves no artifact behind.
    with writes_together():
        write_lines_atomic(args.out, kept)
        if args.report:
            write_selection_report(scores, args.report)
    return 0


def _cmd_augment(args) -> int:
    source = read_corpus(args.source, as_labeled)
    target = histogram(read_corpus(args.target_corpus, as_labeled))
    grown = augment_to_distribution(
        source, target, _seed_override(args.seed), args.max_tokens
    )
    # Neither file is put in place before both are written, so a failed
    # augment leaves no artifact behind.
    with writes_together():
        write_jsonl(grown, args.out)
        if args.report:
            write_histogram_report(target, histogram(source), histogram(grown), args.report)
    return 0


def _cmd_train(args) -> int:
    es = read_corpus(args.es, as_labeled)
    en = read_corpus(args.en, as_labeled) if args.en else None
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
    test = read_corpus(args.test, as_labeled)
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

    for name, (summary, _) in _RECORDWISE.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_recordwise)

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
