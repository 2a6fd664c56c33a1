"""Experiment orchestration and the line-delimited JSON serving mode.

One JSON config drives the whole experiment grid: a shared seeded split,
perplexity selection over the subtitle pool, histogram augmentation,
English conversion, then one trained model and one evaluation report per
configured row, plus a comparison table.  Rows that share no training
phase train and evaluate in parallel, in forked worker processes.  Every
intermediate corpus is written to disk; rerunning the same config
reproduces every byte.
The CLI shares its record shaping (corpus.as_labeled, as_text) and parse_strategy.

The serving half answers newline-delimited JSON with a saved model: one
byte-level loop, serve_lines, over stdin/stdout or each TCP connection.
"""

from __future__ import annotations

import json
import os
import socketserver
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

from .augment import (
    DEFAULT_MAX_TOKENS,
    augment_to_distribution,
    histogram,
    write_histogram_report,
)
from .corpus import (
    BOUNDARY_CHARS,
    LabeledUtterance,
    PunctClass,
    as_labeled,
    as_text,
    extract_labels,  # noqa: F401  unused here, but bench/ wraps it by this name
    normalize_punctuation,
    read_json,
    read_jsonl,
    render,
    write_jsonl,
    write_lines_atomic,
)
from .crosslingual import anglicize_to_spanish_conventions
from .errors import (
    ConfigError,
    DataLeakageError,
    EmptyCorpus,
    MalformedRequest,
    PipelineError,
    PunctError,
)
from .evaluate import DEFAULT_REPAIR, EvalReport, evaluate, split_corpus, write_report_json
from .postprocess import repair_pairing
from .selection import (
    DEFAULT_ORDER,
    MAX_ORDER,
    score_pool,
    select_lowest_perplexity,
    train_ngram,
    write_selection_report,
)
from . import tagger
from .tagger import (
    Strategy,
    TrainConfig,
    oversample,
    run_strategy,
)

SCHEMA_VERSION = 1

_CONFIG_KEYS = {
    "schema_version",
    "datasets",
    "selection",
    "augmentation",
    "strategies",
    "train",
    "eval",
    "output_dir",
}
# Each datasets key and the source name its records carry, in load order.
# Every row trains on the in-domain Spanish, so only that one is required.
_DATASETS = {
    "es_indomain": "indomain",
    "ldc": "ldc",
    "en_indomain": "en",
    "opensubtitle_pool": "opensubtitle",
}
SPANISH_SOURCES = tuple(s for s in _DATASETS.values() if s != "en")
_ROW_KEYS = {"name", "strategy", "spanish_sources", "augment"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _section(value: object, where: str, keys: set[str]) -> dict:
    """value as a JSON object holding no keys outside keys."""
    _require(isinstance(value, dict), f"{where} must be an object")
    unknown = set(value) - keys
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")
    return value


def _int(
    section: dict,
    where: str,
    key: str,
    default: int | None,
    low: int | None = None,
    high: int | None = None,
) -> int:
    """section[key] (default when absent) as an integer, at least low and at
    most high if given; booleans and null are refused, so a default of None
    makes the key required."""
    value = section.get(key, default)
    _require(
        isinstance(value, int) and not isinstance(value, bool)
        and (low is None or value >= low) and (high is None or value <= high),
        f"{where}.{key} must be an integer"
        + ("" if low is None else f" >= {low}")
        + ("" if high is None else f" and <= {high}"),
    )
    return value


def _bool(section: dict, where: str, key: str, default: bool) -> bool:
    """section[key] (default when absent) as a boolean."""
    value = section.get(key, default)
    _require(isinstance(value, bool), f"{where}.{key} must be a boolean")
    return value


@dataclass(frozen=True)
class ExperimentRow:
    """One line of the comparison table: a strategy over a data recipe."""

    name: str
    strategy: Strategy
    spanish_sources: tuple[str, ...]
    augment: bool


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description.

    datasets holds the path of each configured dataset by source name.
    Relative dataset paths in the JSON are resolved against the config
    file's directory.
    """

    datasets: dict[str, Path]
    selection_k: int
    lm_order: int
    augmentation_seed: int
    augmentation_max_tokens: int
    rows: tuple[ExperimentRow, ...]
    train: TrainConfig
    eval_repair: bool
    split_seed: int
    output_dir: Path


def _dataset_path(section: dict, key: str, base_dir: Path) -> Path | None:
    value = section.get(key)
    if value is None:
        _require(_DATASETS[key] != "indomain", f"datasets.{key} is required")
        return None
    _require(isinstance(value, str), f"datasets.{key} must be a path string")
    path = Path(base_dir, value)  # an absolute value replaces base_dir
    _require(path.is_file(), f"datasets.{key}: no such file: {path}")
    return path


def parse_strategy(name: str) -> Strategy:
    """The Strategy a case-insensitive name denotes; ConfigError otherwise."""
    try:
        return Strategy(name.upper())
    except ValueError:
        raise ConfigError(
            f"unknown strategy {name!r}; choose from {[s.value for s in Strategy]}"
        ) from None


def _parse_row(index: int, entry: object, datasets: dict[str, Path]) -> ExperimentRow:
    where = f"strategies[{index}]"
    if isinstance(entry, str):
        entry = {"strategy": entry}
    entry = _section(entry, where, _ROW_KEYS)
    raw_strategy = entry.get("strategy")
    _require(isinstance(raw_strategy, str), f"{where}.strategy must be a strategy name")
    strategy = parse_strategy(raw_strategy)
    name = entry.get("name", strategy.value.lower())
    _require(isinstance(name, str) and name != "", "row name must be a non-empty string")
    _require(
        all(ch.isalnum() or ch in "._-" for ch in name),
        f"row name {name!r} has characters unsafe for file names",
    )
    sources = entry.get("spanish_sources", [s for s in SPANISH_SOURCES if s in datasets])
    _require(
        isinstance(sources, list) and all(isinstance(s, str) for s in sources),
        "spanish_sources must be a list of source names",
    )
    for s in sources:
        _require(s in SPANISH_SOURCES, f"unknown Spanish source {s!r}")
        _require(s in datasets, f"source {s!r} has no dataset configured")
    _require("indomain" in sources, f"row {name!r} must train on the in-domain split")
    _require(len(set(sources)) == len(sources), f"row {name!r} repeats a source")
    _require(
        strategy is Strategy.ES_ONLY or "en" in datasets,
        f"row {name!r} needs datasets.en_indomain",
    )
    ordered = tuple(s for s in SPANISH_SOURCES if s in sources)
    # Augmenting in-domain data alone is a no-op, so such a row is not augmented.
    augment = _bool(entry, where, "augment", False) and len(ordered) > 1
    return ExperimentRow(name=name, strategy=strategy, spanish_sources=ordered, augment=augment)


def config_from_dict(
    obj: object, base_dir: Path, seed_override: int | None = None
) -> ExperimentConfig:
    """Validate a parsed config document into an ExperimentConfig;
    seed_override, when given, replaces all three seeds once they are checked."""
    obj = _section(obj, "config", _CONFIG_KEYS)
    version = _int(obj, "config", "schema_version", None)
    _require(version == SCHEMA_VERSION, f"unsupported schema_version {version!r}")

    section = _section(obj.get("datasets", {}), "datasets", set(_DATASETS))
    paths = {s: _dataset_path(section, key, base_dir) for key, s in _DATASETS.items()}
    datasets = {s: path for s, path in paths.items() if path is not None}

    if "opensubtitle" not in datasets:
        _require(obj.get("selection") is None, "selection configured without an opensubtitle_pool")
        selection_k, lm_order = 0, DEFAULT_ORDER
    else:
        selection = _section(obj.get("selection", {}), "selection", {"k", "order"})
        selection_k = _int(selection, "selection", "k", None, low=0)
        lm_order = _int(selection, "selection", "order", DEFAULT_ORDER, low=1, high=MAX_ORDER)

    augmentation = _section(obj.get("augmentation", {}), "augmentation", {"seed", "max_tokens"})
    augmentation_seed = _int(augmentation, "augmentation", "seed", 0)
    augmentation_max_tokens = _int(
        augmentation, "augmentation", "max_tokens", DEFAULT_MAX_TOKENS, low=1
    )

    strategies = obj.get("strategies")
    _require(
        isinstance(strategies, list) and strategies,
        "strategies must be a non-empty list",
    )
    rows = tuple(_parse_row(i, entry, datasets) for i, entry in enumerate(strategies))
    names = [row.name for row in rows]
    _require(
        len(set(names)) == len(names),
        f"row names repeat: {sorted({n for n in names if names.count(n) > 1})}",
    )

    train = _section(obj.get("train", {}), "train", {"epochs", "seed", "shuffle"})
    train_seed = _int(train, "train", "seed", 0)
    eval_obj = _section(obj.get("eval", {}), "eval", {"repair", "seed"})
    split_seed = _int(eval_obj, "eval", "seed", 0)
    if seed_override is not None:
        train_seed = augmentation_seed = split_seed = seed_override

    output_dir = obj.get("output_dir")
    _require(output_dir is not None, "output_dir is required")
    _require(
        isinstance(output_dir, str) and output_dir != "",
        "output_dir must be a non-empty path string",
    )

    return ExperimentConfig(
        datasets=datasets,
        selection_k=selection_k,
        lm_order=lm_order,
        augmentation_seed=augmentation_seed,
        augmentation_max_tokens=augmentation_max_tokens,
        rows=rows,
        train=TrainConfig(
            epochs=_int(train, "train", "epochs", TrainConfig.epochs, low=1),
            seed=train_seed,
            shuffle=_bool(train, "train", "shuffle", TrainConfig.shuffle),
        ),
        eval_repair=_bool(eval_obj, "eval", "repair", DEFAULT_REPAIR),
        split_seed=split_seed,
        output_dir=Path(base_dir, output_dir),
    )


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    path = Path(path)
    return config_from_dict(read_json(path, ConfigError, "config"), path.parent, seed_override)


# --- experiment runner -----------------------------------------------------


def _load(config: ExperimentConfig) -> dict[str, list[LabeledUtterance]]:
    """Every configured dataset as labeled records by source name, each
    loaded in stage load:<datasets key> in _DATASETS order.  An empty file
    is EmptyCorpus."""
    loaded = {}
    for key, source in _DATASETS.items():
        path = config.datasets.get(source)
        if path is not None:
            with _stage(f"load:{key}"):
                records = read_jsonl(path)
                if not records:
                    raise EmptyCorpus(f"{path} holds no utterances")
                loaded[source] = as_labeled(records, source)
    return loaded


def _dedup(corpus: Sequence[LabeledUtterance]) -> list[LabeledUtterance]:
    # Content-duplicate utterances would land on both sides of the split
    # and trip the leakage check; keep the first occurrence only.
    seen: set[tuple] = set()
    out = []
    for u in corpus:
        key = (u.tokens, u.labels)
        if key not in seen:
            seen.add(key)
            out.append(u)
    return out


def _check_leakage(
    training: Sequence[LabeledUtterance],
    test_keys: set[tuple],
    row_name: str,
) -> None:
    for u in training:
        if (u.tokens, u.labels) in test_keys:
            raise DataLeakageError(
                f"row {row_name!r}: test utterance {' '.join(u.tokens[:5])!r}... "
                "appears in the training data"
            )


def _plan(rows: Sequence[ExperimentRow]) -> list[list[int]]:
    """The indices of the rows that share each first training phase, one
    group per phase in config order.  Beyond the run's shared TrainConfig
    and English data, a first phase depends only on its key below."""
    groups: dict[tuple, list[int]] = {}
    for i, row in enumerate(rows):
        if row.strategy is Strategy.EN_THEN_ES:
            key: tuple = ("en",)
        else:
            key = (row.strategy is Strategy.JOINT, row.spanish_sources, row.augment)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as PipelineError naming this
    stage; a PipelineError from an inner stage passes through unchanged."""
    try:
        yield
    except PipelineError:
        raise
    except (PunctError, OSError, ValueError, KeyError, TypeError) as exc:
        raise PipelineError(name, exc) from exc


class _SharedPhase:
    """run_strategy's backend for one phase group: the first phase its rows
    share is trained once, on the first call, and lives as long as the backend."""

    def __init__(self):
        self.model = None

    def train(self, corpus, config, data_tag):
        if self.model is None:
            self.model = tagger.train(corpus, config, data_tag)
        return self.model

    continue_train = staticmethod(tagger.continue_train)


def run_experiment(config: ExperimentConfig) -> list[EvalReport]:
    """Execute every configured row and write all artifacts to disk.

    Returns the evaluation reports in row order.  Any failure is
    re-raised as PipelineError naming the stage that broke.
    """
    out_dir = config.output_dir
    with _stage("setup"):
        out_dir.mkdir(parents=True, exist_ok=True)

    # source_data keeps the out-of-domain Spanish: LDC now, the pool once selected.
    source_data = _load(config)
    es_all = _dedup(source_data.pop("indomain"))
    en_raw = source_data.pop("en", None)
    pool = source_data.pop("opensubtitle", None)

    with _stage("split"):
        es_train, es_dev, es_test = split_corpus(es_all, seed=config.split_seed)
        write_jsonl(es_train, out_dir / "es_train.jsonl")
        write_jsonl(es_dev, out_dir / "es_dev.jsonl")
        write_jsonl(es_test, out_dir / "es_test.jsonl")
        test_keys = {(u.tokens, u.labels) for u in es_test}

    if pool is not None:
        with _stage("select"):
            source_data["opensubtitle"] = _select(config, es_train, pool, out_dir)

    augmented: dict[str, list[LabeledUtterance]] = {}
    with _stage("augment"):
        target = histogram(es_train)
        needs_augment = {
            s
            for row in config.rows
            if row.augment
            for s in row.spanish_sources
            if s != "indomain"
        }
        for name in sorted(needs_augment):
            corpus = source_data[name]
            grown = augment_to_distribution(
                corpus,
                target,
                config.augmentation_seed,
                config.augmentation_max_tokens,
            )
            augmented[name] = grown
            write_jsonl(grown, out_dir / f"augmented_{name}.jsonl")
            write_histogram_report(
                target,
                histogram(corpus),
                histogram(grown),
                out_dir / f"hist_{name}_before_after.tsv",
            )

    en_converted = None
    if en_raw is not None:
        with _stage("convert"):
            en_converted = [anglicize_to_spanish_conventions(u) for u in en_raw]
            write_jsonl(en_converted, out_dir / "en_converted.jsonl")

    # Each row's (Spanish data, English data), in row order.
    data: list[tuple] = []
    for row in config.rows:
        with _stage(f"train:{row.name}"):
            # In-domain oversampled to the largest other source, then the others.
            # oversample is seeded, so rows on one recipe get equal lists.
            sources = augmented if row.augment else source_data
            others = [sources[s] for s in row.spanish_sources if s != "indomain"]
            target = max([len(es_train)] + [len(c) for c in others])
            es_data = oversample(es_train, target, seed=config.train.seed)
            for corpus in others:
                es_data.extend(corpus)
            _check_leakage(es_data, test_keys, row.name)
            en_data = en_converted if row.strategy is not Strategy.ES_ONLY else None
            if en_data is not None:
                _check_leakage(en_data, test_keys, row.name)
            write_jsonl(es_data, out_dir / f"train_es_{row.name}.jsonl")
        data.append((es_data, en_data))

    with _stage("train"):
        reports = _run_groups(_plan(config.rows), config, data, es_test, out_dir)

    with _stage("compare"):
        _write_comparison(config.rows, data, reports, out_dir)
    return reports


def _run_groups(
    groups: list[list[int]],
    config: ExperimentConfig,
    data: Sequence[tuple],
    es_test: Sequence[LabeledUtterance],
    out_dir: Path,
) -> list[EvalReport]:
    """Every row's report, in row order.  Each group of row indices trains in
    a forked worker process, at most one per CPU, which inherits the rows'
    corpora rather than unpickling them.  A group is submitted only when a
    worker is free, so once one group fails no waiting group starts."""
    # Imported here: at module top they would slow every `import espunct.cli`.
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    workers = min(os.cpu_count() or 1, len(groups))
    reports: list = [None] * len(config.rows)
    waiting = iter(groups[workers:])
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(os.getpid(), config, data, es_test, out_dir),
    ) as pool:
        running = {pool.submit(_run_group, group): group for group in groups[:workers]}
        while running:
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                for i, report in zip(running.pop(future), future.result()):
                    reports[i] = report
                group = next(waiting, None)
                if group is not None:
                    running[pool.submit(_run_group, group)] = group
    return reports


# A pool worker's (config, data, es_test, out_dir), set once at its start.
_worker_args: tuple = ()
# How often a pool worker checks that the process that forked it lives.
_PARENT_POLL_S = 0.25


def _init_worker(parent: int, *args) -> None:
    """Keep the job's arguments, and start a watcher thread that ends this
    worker once parent is gone: a killed parent cannot shut the pool down,
    and a worker left behind would go on writing into out_dir."""
    global _worker_args
    _worker_args = args
    threading.Thread(target=_exit_when_orphaned, args=(parent,), daemon=True).start()


def _exit_when_orphaned(parent: int) -> None:
    # An orphan is adopted by another process, so its parent pid changes.
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _run_group(group: list[int]) -> list[EvalReport]:
    """Pool job: train, save and evaluate the rows at the group's indices,
    in row order; returns their reports."""
    config, data, es_test, out_dir = _worker_args
    phase = _SharedPhase()
    reports = []
    for i in group:
        row = config.rows[i]
        es_data, en_data = data[i]
        with _stage(f"train:{row.name}"):
            model = run_strategy(
                row.strategy, es_data, en_data, config.train, backend=phase
            )
            model.save(out_dir / f"model_{row.name}.json")
        with _stage(f"eval:{row.name}"):
            report = evaluate(
                model,
                es_test,
                apply_repair=config.eval_repair,
                dataset_tag=row.name,
            )
            write_report_json(report, out_dir / f"report_{row.name}.json")
            write_lines_atomic(
                out_dir / f"report_{row.name}.txt", [report.format_table(), "\n"]
            )
        reports.append(report)
        # Free this row's model before the next row trains.
        del model
    return reports


def _select(
    config: ExperimentConfig,
    es_train: Sequence[LabeledUtterance],
    pool: Sequence[LabeledUtterance],
    out_dir: Path,
) -> list[LabeledUtterance]:
    """Select from pool; the n-gram model and scores die before training."""
    lm = train_ngram(as_text(es_train), order=config.lm_order)
    scores = score_pool(lm, as_text(pool))
    write_selection_report(scores, out_dir / "selection_scores.tsv")
    selected = select_lowest_perplexity(
        lm, pool, min(config.selection_k, len(pool)), scores=scores
    )
    write_jsonl(selected, out_dir / "selected_opensubtitle.jsonl")
    return selected


def _write_comparison(
    rows: Sequence[ExperimentRow],
    data: Sequence[tuple],
    reports: Sequence[EvalReport],
    out_dir: Path,
) -> None:
    header = ("row", "strategy", "es_train", "en_train", "micro_f1", "macro_f1")
    tsv = ["\t".join(header) + "\n"]
    lines = [
        "| row | strategy | es train | en train | micro-F1 | macro-F1 |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for row, (es_data, en_data), report in zip(rows, data, reports):
        name, strategy, es_n = row.name, row.strategy.value, len(es_data)
        en_n = len(en_data) if en_data is not None else 0
        micro, macro = report.micro_f1_non_none, report.macro_f1_non_none
        tsv.append(f"{name}\t{strategy}\t{es_n}\t{en_n}\t{micro:.6f}\t{macro:.6f}\n")
        lines.append(
            f"| {name} | {strategy} | {es_n} | {en_n} | {micro:.4f} | {macro:.4f} |"
        )
    write_lines_atomic(out_dir / "comparison.tsv", tsv)
    write_lines_atomic(out_dir / "comparison.md", ["\n".join(lines), "\n"])


# --- serving ---------------------------------------------------------------


def tokenize_for_restore(text: str) -> list[str]:
    """Whitespace tokens with all boundary punctuation peeled off.

    Tokens that were nothing but punctuation vanish; the result is
    always valid LabeledUtterance token material.
    """
    tokens = []
    for word in normalize_punctuation(text).split():
        word = word.strip(BOUNDARY_CHARS)
        if word:
            tokens.append(word)
    return tokens


def restore(model, text: str) -> tuple[str, list[PunctClass]]:
    """Punctuate one line of text: tokenize, predict, repair, render capitalized."""
    tokens = tokenize_for_restore(text)
    if not tokens:
        raise MalformedRequest("text has no word tokens")
    labels = repair_pairing(model.predict(tokens))
    rendered = render(LabeledUtterance(tuple(tokens), tuple(labels)), capitalize=True)
    return rendered, labels


# One encoder for every response: json.dumps builds a new one per call
# whenever it gets non-default arguments.
_encode_response = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def handle_request_line(model, line: str) -> str:
    """One request in, one response out; never raises.

    Request: {"id": str, "text": str}.  Success response carries the
    punctuated text, per-token labels, and wall-clock latency; failures
    come back as {"id", "error", "message"}, with a null id unless the
    request's id is a string that encodes as UTF-8.
    """
    request_id = None
    try:
        try:
            line.encode("utf-8")
            obj = json.loads(line)
        except UnicodeEncodeError:
            raise MalformedRequest("request is not valid UTF-8") from None
        except (ValueError, RecursionError) as exc:
            raise MalformedRequest(f"bad JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MalformedRequest("request is not a JSON object")
        if not isinstance(obj.get("id"), str):
            raise MalformedRequest("id must be a string")
        text = obj.get("text")
        try:  # a JSON escape such as \ud800 decodes to a lone surrogate
            obj["id"].encode("utf-8")
            if isinstance(text, str):
                text.encode("utf-8")
        except UnicodeEncodeError:
            raise MalformedRequest("id or text holds a lone surrogate") from None
        request_id = obj["id"]
        if not isinstance(text, str) or not text.strip():
            raise MalformedRequest("text must be a non-empty string")
        started = time.perf_counter()
        rendered, labels = restore(model, text)
        latency_ms = (time.perf_counter() - started) * 1000.0
        payload = {
            "id": request_id,
            "text": rendered,
            # A label is a str whose value is its name, so it encodes as one.
            "labels": labels,
            "latency_ms": round(latency_ms, 3),
        }
    except Exception as exc:
        kind = type(exc).__name__ if isinstance(exc, PunctError) else "InternalError"
        payload = {"id": request_id, "error": kind, "message": str(exc)}
    return _encode_response(payload)


def serve_lines(model, rfile: BinaryIO, wfile: BinaryIO) -> bool:
    """Answer newline-delimited requests from rfile on wfile until rfile ends;
    a line that is not UTF-8 gets a MalformedRequest answer.

    Returns True when rfile ended, False when the peer went away first
    (a broken pipe or a reset connection), which ends serving quietly.
    """
    try:
        for raw in rfile:
            line = raw.decode("utf-8", errors="surrogateescape").strip()
            if not line:
                continue
            wfile.write(handle_request_line(model, line).encode("utf-8") + b"\n")
            wfile.flush()
    except (BrokenPipeError, ConnectionResetError):
        return False
    return True


class _RequestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        serve_lines(self.server.model, self.rfile, self.wfile)


class PunctServer(socketserver.ThreadingTCPServer):
    """TCP server sharing one immutable model across request threads;
    the caller runs serve_forever()."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], model):
        super().__init__(address, _RequestHandler)
        self.model = model
