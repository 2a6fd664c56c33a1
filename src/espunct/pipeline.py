"""Experiment orchestration and the line-delimited JSON serving mode.

One JSON config drives the whole experiment grid: a shared seeded split,
perplexity selection over the subtitle pool, histogram augmentation,
English conversion, then one trained model and one evaluation report per
configured row, plus a comparison table.  Every intermediate corpus is
written to disk; rerunning the same config reproduces every byte.
The CLI shares its record shaping (corpus.as_labeled, as_text) and parse_strategy.

The serving half wraps a saved model behind newline-delimited JSON over
stdin/stdout or a TCP socket.
"""

from __future__ import annotations

import json
import socketserver
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, TextIO

from .augment import (
    augment_to_distribution,
    histogram,
    write_histogram_report,
)
from .corpus import (
    REJECTED_BOUNDARY,
    SUPPORTED_MARKS,
    LabeledUtterance,
    PunctClass,
    as_labeled,
    as_text,
    extract_labels,  # noqa: F401  unused here, but bench/ wraps it by this name
    normalize_punctuation,
    read_jsonl,
    render,
    write_jsonl,
)
from .crosslingual import anglicize_to_spanish_conventions
from .errors import (
    ConfigError,
    DataLeakageError,
    MalformedRequest,
    PipelineError,
    PunctError,
)
from .evaluate import EvalReport, evaluate, split_corpus, write_report_json
from .postprocess import RepairPolicy, repair_pairing
from .selection import (
    score_pool,
    select_lowest_perplexity,
    train_ngram,
    write_selection_report,
)
from .tagger import (
    PerceptronBackend,
    Strategy,
    TrainConfig,
    oversample,
    run_strategy,
)

SCHEMA_VERSION = 1
SPANISH_SOURCES = ("indomain", "ldc", "opensubtitle")

_SPLIT_FRACTIONS = (0.6, 0.1, 0.3)
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
_DATASET_KEYS = {"es_indomain", "ldc", "opensubtitle_pool", "en_indomain"}
_ROW_KEYS = {"name", "strategy", "spanish_sources", "augment"}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


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

    Relative dataset paths in the JSON are resolved against the config
    file's directory.
    """

    es_indomain: Path
    ldc: Path | None
    opensubtitle_pool: Path | None
    en_indomain: Path | None
    selection_k: int
    lm_order: int
    augmentation_seed: int
    augmentation_max_tokens: int
    rows: tuple[ExperimentRow, ...]
    train: TrainConfig
    eval_repair: bool
    split_seed: int
    output_dir: Path


def _dataset_path(datasets: dict, key: str, base_dir: Path, required: bool) -> Path | None:
    value = datasets.get(key)
    if value is None:
        _require(not required, f"datasets.{key} is required")
        return None
    _require(isinstance(value, str), f"datasets.{key} must be a path string")
    path = Path(value)
    if not path.is_absolute():
        path = base_dir / path
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


def _parse_row(
    entry: object, available: tuple[str, ...]
) -> ExperimentRow:
    if isinstance(entry, str):
        entry = {"strategy": entry}
    _require(isinstance(entry, dict), f"strategy entry {entry!r} must be a string or object")
    unknown = set(entry) - _ROW_KEYS
    _require(not unknown, f"unknown strategy entry keys: {sorted(unknown)}")
    raw_strategy = entry.get("strategy")
    _require(isinstance(raw_strategy, str), "strategy entry needs a strategy name")
    strategy = parse_strategy(raw_strategy)
    name = entry.get("name", strategy.value.lower())
    _require(isinstance(name, str) and name != "", "row name must be a non-empty string")
    _require(
        all(ch.isalnum() or ch in "._-" for ch in name),
        f"row name {name!r} has characters unsafe for file names",
    )
    sources = entry.get("spanish_sources", list(available))
    _require(
        isinstance(sources, list) and all(isinstance(s, str) for s in sources),
        "spanish_sources must be a list of source names",
    )
    for s in sources:
        _require(s in SPANISH_SOURCES, f"unknown Spanish source {s!r}")
        _require(s in available, f"source {s!r} has no dataset configured")
    _require("indomain" in sources, f"row {name!r} must train on the in-domain split")
    _require(len(set(sources)) == len(sources), f"row {name!r} repeats a source")
    ordered = tuple(s for s in SPANISH_SOURCES if s in sources)
    augment = entry.get("augment", False)
    _require(isinstance(augment, bool), "augment must be a boolean")
    return ExperimentRow(name=name, strategy=strategy, spanish_sources=ordered, augment=augment)


def config_from_dict(
    obj: object, base_dir: Path, seed_override: int | None = None
) -> ExperimentConfig:
    """Validate a parsed config document into an ExperimentConfig."""
    _require(isinstance(obj, dict), "config is not a JSON object")
    _require(
        obj.get("schema_version") == SCHEMA_VERSION,
        f"unsupported schema_version {obj.get('schema_version')!r}",
    )
    unknown = set(obj) - _CONFIG_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")

    datasets = obj.get("datasets")
    _require(isinstance(datasets, dict), "datasets must be an object")
    unknown = set(datasets) - _DATASET_KEYS
    _require(not unknown, f"unknown dataset keys: {sorted(unknown)}")
    es_indomain = _dataset_path(datasets, "es_indomain", base_dir, required=True)
    ldc = _dataset_path(datasets, "ldc", base_dir, required=False)
    pool = _dataset_path(datasets, "opensubtitle_pool", base_dir, required=False)
    en = _dataset_path(datasets, "en_indomain", base_dir, required=False)

    selection = obj.get("selection")
    if pool is None:
        _require(selection is None, "selection configured without an opensubtitle_pool")
        selection_k, lm_order = 0, 4
    else:
        _require(isinstance(selection, dict), "selection must be an object with k")
        unknown = set(selection) - {"k", "order"}
        _require(not unknown, f"unknown selection keys: {sorted(unknown)}")
        selection_k = selection.get("k")
        _require(
            isinstance(selection_k, int) and not isinstance(selection_k, bool)
            and selection_k >= 0,
            "selection.k must be a non-negative integer",
        )
        lm_order = selection.get("order", 4)
        _require(
            isinstance(lm_order, int) and not isinstance(lm_order, bool)
            and lm_order >= 1,
            "selection.order must be a positive integer",
        )

    augmentation = obj.get("augmentation", {})
    _require(isinstance(augmentation, dict), "augmentation must be an object")
    unknown = set(augmentation) - {"seed", "max_tokens"}
    _require(not unknown, f"unknown augmentation keys: {sorted(unknown)}")
    augmentation_seed = augmentation.get("seed", 0)
    augmentation_max_tokens = augmentation.get("max_tokens", 200)
    _require(
        isinstance(augmentation_seed, int) and not isinstance(augmentation_seed, bool),
        "augmentation.seed must be an integer",
    )
    _require(
        isinstance(augmentation_max_tokens, int)
        and not isinstance(augmentation_max_tokens, bool)
        and augmentation_max_tokens >= 1,
        "augmentation.max_tokens must be a positive integer",
    )

    available = tuple(
        s
        for s, present in (
            ("indomain", True),
            ("ldc", ldc is not None),
            ("opensubtitle", pool is not None),
        )
        if present
    )
    strategies = obj.get("strategies")
    _require(
        isinstance(strategies, list) and strategies,
        "strategies must be a non-empty list",
    )
    rows = tuple(_parse_row(entry, available) for entry in strategies)
    names = [row.name for row in rows]
    _require(
        len(set(names)) == len(names),
        f"row names repeat: {sorted(n for n in names if names.count(n) > 1)}",
    )
    for row in rows:
        if row.strategy is not Strategy.ES_ONLY:
            _require(
                en is not None,
                f"row {row.name!r} needs datasets.en_indomain",
            )

    train_obj = obj.get("train", {})
    _require(isinstance(train_obj, dict), "train must be an object")
    unknown = set(train_obj) - {"epochs", "seed", "shuffle"}
    _require(not unknown, f"unknown train keys: {sorted(unknown)}")
    try:
        train_config = TrainConfig(
            epochs=train_obj.get("epochs", 5),
            seed=train_obj.get("seed", 0),
            shuffle=train_obj.get("shuffle", True),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad train settings: {exc}") from exc

    eval_obj = obj.get("eval", {})
    _require(isinstance(eval_obj, dict), "eval must be an object")
    unknown = set(eval_obj) - {"repair", "seed"}
    _require(not unknown, f"unknown eval keys: {sorted(unknown)}")
    eval_repair = eval_obj.get("repair", True)
    _require(isinstance(eval_repair, bool), "eval.repair must be a boolean")
    split_seed = eval_obj.get("seed", 0)
    _require(
        isinstance(split_seed, int) and not isinstance(split_seed, bool),
        "eval.seed must be an integer",
    )

    output_dir = obj.get("output_dir")
    _require(isinstance(output_dir, str) and output_dir != "", "output_dir is required")
    out_path = Path(output_dir)
    if not out_path.is_absolute():
        out_path = base_dir / out_path

    if seed_override is not None:
        train_config = TrainConfig(
            epochs=train_config.epochs, seed=seed_override, shuffle=train_config.shuffle
        )
        augmentation_seed = seed_override
        split_seed = seed_override

    return ExperimentConfig(
        es_indomain=es_indomain,
        ldc=ldc,
        opensubtitle_pool=pool,
        en_indomain=en,
        selection_k=selection_k,
        lm_order=lm_order,
        augmentation_seed=augmentation_seed,
        augmentation_max_tokens=augmentation_max_tokens,
        rows=rows,
        train=train_config,
        eval_repair=eval_repair,
        split_seed=split_seed,
        output_dir=out_path,
    )


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Read and validate an experiment config file."""
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(obj, path.parent, seed_override)


# --- experiment runner -----------------------------------------------------


def _load(path: Path | None, origin: str) -> list[LabeledUtterance] | None:
    """A configured dataset as labeled records; None when not configured."""
    return as_labeled(read_jsonl(path), origin) if path else None


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


def run_experiment(config: ExperimentConfig) -> list[EvalReport]:
    """Execute every configured row and write all artifacts to disk.

    Returns the evaluation reports in row order.  Any failure is
    re-raised as PipelineError naming the stage that broke.
    """
    stage = "setup"
    try:
        out_dir = config.output_dir
        out_dir.mkdir(parents=True, exist_ok=True)

        stage = "load"
        es_all = _dedup(_load(config.es_indomain, "indomain"))
        ldc = _load(config.ldc, "ldc")
        en_raw = _load(config.en_indomain, "en")
        pool = _load(config.opensubtitle_pool, "opensubtitle")

        stage = "split"
        es_train, es_dev, es_test = split_corpus(
            es_all, _SPLIT_FRACTIONS, config.split_seed
        )
        write_jsonl(es_train, out_dir / "es_train.jsonl")
        write_jsonl(es_dev, out_dir / "es_dev.jsonl")
        write_jsonl(es_test, out_dir / "es_test.jsonl")
        test_keys = {(u.tokens, u.labels) for u in es_test}

        selected = None
        if pool is not None:
            stage = "select"
            selected = _select(config, es_train, pool, out_dir)

        stage = "augment"
        target = histogram(es_train)
        augmented: dict[str, list[LabeledUtterance]] = {}
        needs_augment = {
            s
            for row in config.rows
            if row.augment
            for s in row.spanish_sources
            if s != "indomain"
        }
        source_data = {"ldc": ldc, "opensubtitle": selected}
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
            stage = "convert"
            en_converted = [anglicize_to_spanish_conventions(u) for u in en_raw]
            write_jsonl(en_converted, out_dir / "en_converted.jsonl")

        reports = []
        comparison_rows = []
        # One backend per run: rows that share a training phase share it.
        backend = PerceptronBackend()
        for row in config.rows:
            stage = f"train:{row.name}"
            parts = {"indomain": es_train}
            for name in row.spanish_sources:
                if name == "indomain":
                    continue
                parts[name] = augmented[name] if row.augment else source_data[name]
            other_max = max(
                (len(parts[s]) for s in row.spanish_sources if s != "indomain"),
                default=0,
            )
            indomain_part = oversample(
                es_train, max(len(es_train), other_max), seed=config.train.seed
            )
            es_data = list(indomain_part)
            for name in row.spanish_sources:
                if name != "indomain":
                    es_data.extend(parts[name])
            en_data = en_converted if row.strategy is not Strategy.ES_ONLY else None
            _check_leakage(es_data, test_keys, row.name)
            if en_data is not None:
                _check_leakage(en_data, test_keys, row.name)
            write_jsonl(es_data, out_dir / f"train_es_{row.name}.jsonl")
            model = run_strategy(
                row.strategy, es_data, en_data, config.train, backend=backend
            )
            model.save(out_dir / f"model_{row.name}.json")

            stage = f"eval:{row.name}"
            report = evaluate(
                model,
                es_test,
                apply_repair=config.eval_repair,
                dataset_tag=row.name,
            )
            reports.append(report)
            write_report_json(report, out_dir / f"report_{row.name}.json")
            (out_dir / f"report_{row.name}.txt").write_text(
                report.format_table() + "\n", encoding="utf-8"
            )
            comparison_rows.append(
                (
                    row.name,
                    row.strategy.value,
                    len(es_data),
                    len(en_data) if en_data is not None else 0,
                    report.micro_f1_non_none,
                    report.macro_f1_non_none,
                )
            )
            # Free this row's model before the next row trains.
            del model

        stage = "compare"
        _write_comparison(comparison_rows, out_dir)
        return reports
    except PunctError as exc:
        if isinstance(exc, PipelineError):
            raise
        raise PipelineError(stage, exc) from exc
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise PipelineError(stage, exc) from exc


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


def _write_comparison(rows: Sequence[tuple], out_dir: Path) -> None:
    header = ("row", "strategy", "es_train", "en_train", "micro_f1", "macro_f1")
    with open(out_dir / "comparison.tsv", "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for name, strategy, es_n, en_n, micro, macro in rows:
            fh.write(f"{name}\t{strategy}\t{es_n}\t{en_n}\t{micro:.6f}\t{macro:.6f}\n")
    lines = [
        "| row | strategy | es train | en train | micro-F1 | macro-F1 |",
        "|---|---|---:|---:|---:|---:|",
    ]
    for name, strategy, es_n, en_n, micro, macro in rows:
        lines.append(
            f"| {name} | {strategy} | {es_n} | {en_n} | {micro:.4f} | {macro:.4f} |"
        )
    (out_dir / "comparison.md").write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- serving ---------------------------------------------------------------

_BOUNDARY_STRIP = SUPPORTED_MARKS + "".join(sorted(REJECTED_BOUNDARY))


def tokenize_for_restore(text: str) -> list[str]:
    """Whitespace tokens with all boundary punctuation peeled off.

    Tokens that were nothing but punctuation vanish; the result is
    always valid LabeledUtterance token material.
    """
    tokens = []
    for word in normalize_punctuation(text).split():
        word = word.strip(_BOUNDARY_STRIP)
        if word:
            tokens.append(word)
    return tokens


def restore(
    model,
    text: str,
    *,
    policy: RepairPolicy = RepairPolicy.DROP_OPEN_INSERT_OPEN,
    capitalize: bool = True,
) -> tuple[str, list[PunctClass]]:
    """Punctuate one line of text: tokenize, predict, repair, render."""
    tokens = tokenize_for_restore(text)
    if not tokens:
        raise MalformedRequest("text has no word tokens")
    labels = repair_pairing(model.predict(tokens), policy)
    rendered = render(
        LabeledUtterance(tuple(tokens), tuple(labels)), capitalize=capitalize
    )
    return rendered, labels


def handle_request_line(model, line: str) -> str:
    """One request in, one response out; never raises.

    Request: {"id": str, "text": str}.  Success response carries the
    punctuated text, per-token labels, and wall-clock latency; failures
    come back as {"id", "error", "message"}.
    """
    request_id = None
    try:
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRequest(f"bad JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise MalformedRequest("request is not a JSON object")
        if isinstance(obj.get("id"), str):
            request_id = obj["id"]
        else:
            raise MalformedRequest("id must be a string")
        text = obj.get("text")
        if not isinstance(text, str) or not text.strip():
            raise MalformedRequest("text must be a non-empty string")
        started = time.perf_counter()
        rendered, labels = restore(model, text)
        latency_ms = (time.perf_counter() - started) * 1000.0
        payload = {
            "id": request_id,
            "text": rendered,
            "labels": [lab.name for lab in labels],
            "latency_ms": round(latency_ms, 3),
        }
    except Exception as exc:
        kind = type(exc).__name__ if isinstance(exc, PunctError) else "InternalError"
        payload = {"id": request_id, "error": kind, "message": str(exc)}
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def serve_stdio(model, in_stream: TextIO, out_stream: TextIO) -> None:
    """Answer newline-delimited requests until the input stream ends."""
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        out_stream.write(handle_request_line(model, line))
        out_stream.write("\n")
        out_stream.flush()


class _RequestHandler(socketserver.StreamRequestHandler):
    def handle(self):
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            response = handle_request_line(self.server.model, line)
            self.wfile.write(response.encode("utf-8") + b"\n")
            self.wfile.flush()


class PunctServer(socketserver.ThreadingTCPServer):
    """TCP server sharing one immutable model across request threads."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], model):
        super().__init__(address, _RequestHandler)
        self.model = model


def serve_tcp(model, host: str, port: int) -> PunctServer:
    """Bind a threading TCP server; the caller runs serve_forever()."""
    return PunctServer((host, port), model)
