"""Averaged-perceptron punctuation tagger with greedy decoding.

The decoder runs left to right and feeds its own previous prediction
back in as a feature, so training updates on decode-time features rather
than gold history.  Weights are averaged over every utterance-level
snapshot, which is what makes the otherwise twitchy perceptron stable.

Training and prediction share one decoder, `_decode`.  Only the `prev=`
feature depends on the decoded history, so the other sixteen templates
are built once per utterance (`_static_features`) from a per-token-type
cache, and `prev=` is spliced in between at each position.
`_feature_list` remains the readable definition of the templates; tests
hold the fast path to it.  `PerceptronBackend` memoizes fresh training
phases, so a grid that trains the same Spanish phase for two strategies
trains it once.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Callable, Protocol, Sequence

from .corpus import LabeledUtterance, PunctClass
from .errors import (
    EmptyCorpus,
    IoFailure,
    LabelSetMismatch,
    MissingEnglishData,
    ModelLoadError,
    TargetTooSmall,
)

MODEL_FORMAT_VERSION = 1

DEFAULT_LABEL_SET: tuple[str, ...] = tuple(c.name for c in PunctClass)

FEATURE_TEMPLATES: tuple[str, ...] = (
    "w-2",
    "w-1",
    "w0",
    "w+1",
    "w+2",
    "pre1",
    "pre2",
    "pre3",
    "suf1",
    "suf2",
    "suf3",
    "first",
    "last",
    "prev",
    "shape",
    "wb-1",
    "wb+1",
)

_BOS_WORD = "<s>"
_EOS_WORD = "</s>"
_BOS_LABEL = "<start>"


def _word_shape(token: str) -> str:
    """Collapsed character-class sketch: Xx for "Hola", d,d for "3,5"."""
    out = []
    for ch in token:
        if ch.isupper():
            cls = "X"
        elif ch.islower():
            cls = "x"
        elif ch.isdigit():
            cls = "d"
        else:
            cls = ch if ch in ",.-" else "o"
        if not out or out[-1] != cls:
            out.append(cls)
    return "".join(out)


def _feature_list(
    tokens: Sequence[str],
    i: int,
    prev_label: str,
    lowered: Sequence[str],
) -> list[str]:
    """Feature strings for position i, in fixed template order.

    The fixed order matters: training and scoring must sum weights in
    the same sequence for runs to be bit-for-bit reproducible.
    """
    n = len(tokens)

    def word(j: int) -> str:
        if j < 0:
            return _BOS_WORD
        if j >= n:
            return _EOS_WORD
        return lowered[j]

    w = lowered[i]
    feats = [
        "w-2=" + word(i - 2),
        "w-1=" + word(i - 1),
        "w0=" + w,
        "w+1=" + word(i + 1),
        "w+2=" + word(i + 2),
    ]
    for length in (1, 2, 3):
        if length <= len(w):
            feats.append(f"pre{length}=" + w[:length])
            feats.append(f"suf{length}=" + w[-length:])
    if i == 0:
        feats.append("first")
    if i == n - 1:
        feats.append("last")
    feats.append("prev=" + prev_label)
    feats.append("shape=" + _word_shape(tokens[i]))
    feats.append("wb-1=" + word(i - 1) + "|" + w)
    feats.append("wb+1=" + w + "|" + word(i + 1))
    return feats


def featurize(tokens: Sequence[str], i: int, prev_label: str) -> set[str]:
    """Feature set for position i given the previously predicted label."""
    lowered = [t.lower() for t in tokens]
    return set(_feature_list(tokens, i, prev_label, lowered))


class _TokenFeatures:
    """Feature strings that depend only on one token type.

    The window slots are the strings this token contributes when it sits
    at that offset from the position being decoded.
    """

    __slots__ = ("word", "w_m2", "w_m1", "w0", "w_p1", "w_p2", "affixes", "shape")

    def __init__(self, token: str):
        w = token.lower()
        self.word = w
        self.w_m2 = "w-2=" + w
        self.w_m1 = "w-1=" + w
        self.w0 = "w0=" + w
        self.w_p1 = "w+1=" + w
        self.w_p2 = "w+2=" + w
        affixes = []
        for length in (1, 2, 3):
            if length <= len(w):
                affixes.append(f"pre{length}=" + w[:length])
                affixes.append(f"suf{length}=" + w[-length:])
        self.affixes = tuple(affixes)
        self.shape = "shape=" + _word_shape(token)


# Padding for the window; only word and the window slots are read.
_BOS_PAD = _TokenFeatures(_BOS_WORD)
_EOS_PAD = _TokenFeatures(_EOS_WORD)

_Static = list[tuple[tuple[str, ...], tuple[str, ...]]]


def _static_features(
    tokens: Sequence[str], cache: dict[str, _TokenFeatures]
) -> _Static:
    """Per position, every feature except prev= as a (head, tail) pair.

    head + ("prev=" + label,) + tail equals _feature_list(...) for that
    position.  cache maps token -> _TokenFeatures and may be shared by
    every utterance of one training phase or one predict call.
    """
    window = [_BOS_PAD, _BOS_PAD]
    for t in tokens:
        entry = cache.get(t)
        if entry is None:
            entry = cache[t] = _TokenFeatures(t)
        window.append(entry)
    window += (_EOS_PAD, _EOS_PAD)
    last = len(tokens) - 1
    out = []
    for i in range(len(tokens)):
        m2, m1, cur, p1, p2 = window[i : i + 5]
        w = cur.word
        head = (m2.w_m2, m1.w_m1, cur.w0, p1.w_p1, p2.w_p2) + cur.affixes
        if i == 0:
            head += ("first",)
        if i == last:
            head += ("last",)
        tail = (cur.shape, "wb-1=" + m1.word + "|" + w, "wb+1=" + w + "|" + p1.word)
        out.append((head, tail))
    return out


def _decode(
    weights: dict[str, dict[int, float]],
    static: _Static,
    label_set: Sequence[str],
    gold: Sequence[int] | None = None,
    on_mistake: Callable[[tuple[str, ...], int, int], None] | None = None,
) -> list[int]:
    """Greedy left-to-right decode; returns label indices.

    Ties go to the earliest label.  Scores sum weights in template
    order, so results are bit-for-bit those of _feature_list.  Given
    gold indices, every wrong guess calls on_mistake(feats, gold, guess);
    decoding continues from the guess, so training sees its own history.
    """
    get = weights.get
    prev_feats = [("prev=" + name,) for name in label_set]
    prev = ("prev=" + _BOS_LABEL,)
    zeros = [0.0] * len(label_set)
    out = []
    for i, (head, tail) in enumerate(static):
        feats = head + prev + tail
        scores = zeros[:]
        for f in feats:
            row = get(f)
            if row:
                for li, w in row.items():
                    scores[li] += w
        # max keeps its first strict maximum, the same as a `>` scan.
        best = scores.index(max(scores))
        if gold is not None and best != gold[i]:
            on_mistake(feats, gold[i], best)
        prev = prev_feats[best]
        out.append(best)
    return out


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 5
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


def _checked_label_set(raw: object) -> tuple[str, ...]:
    """A loaded label set: non-empty, no repeats, PunctClass names only."""
    if not isinstance(raw, list) or not raw:
        raise ModelLoadError("label_set must be a non-empty list")
    for name in raw:
        if not isinstance(name, str) or name not in PunctClass.__members__:
            raise ModelLoadError(f"label_set names an unknown label {name!r}")
    if len(set(raw)) != len(raw):
        raise ModelLoadError("label_set repeats a label")
    return tuple(raw)


def _checked_weight(feature: str, raw: object) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ModelLoadError(f"weight for {feature!r} is not finite: {raw!r}")
    return value


@dataclass
class TaggerModel:
    """Trained tagger: label inventory and sparse weights.

    weights maps feature string -> {label index -> weight}; indices point
    into label_set.  Files always carry FEATURE_TEMPLATES and
    MODEL_FORMAT_VERSION, and load refuses any others.  training_log
    records each training phase in order.
    """

    label_set: tuple[str, ...] = DEFAULT_LABEL_SET
    weights: dict[str, dict[int, float]] = field(default_factory=dict)
    training_log: list[dict] = field(default_factory=list)

    def predict(self, tokens: Sequence[str]) -> list[PunctClass]:
        """Greedy left-to-right decode; ties go to the earliest label."""
        if not tokens:
            raise ValueError("cannot predict on an empty token list")
        static = _static_features(tokens, {})
        return [
            PunctClass[self.label_set[li]]
            for li in _decode(self.weights, static, self.label_set)
        ]

    def to_json_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "label_set": list(self.label_set),
            "feature_templates": list(FEATURE_TEMPLATES),
            "weights": {
                f: {self.label_set[li]: w for li, w in sorted(row.items())}
                for f, row in self.weights.items()
            },
            "training_log": self.training_log,
        }

    def save(self, path: str | Path) -> None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(self.to_json_dict(), ensure_ascii=False, sort_keys=True))
                fh.write("\n")
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc

    @classmethod
    def from_json_dict(cls, obj: dict) -> "TaggerModel":
        if not isinstance(obj, dict):
            raise ModelLoadError("model file does not hold a JSON object")
        version = obj.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise ModelLoadError(
                f"model format {version!r} is not supported (want {MODEL_FORMAT_VERSION})"
            )
        try:
            if obj["feature_templates"] != list(FEATURE_TEMPLATES):
                raise ModelLoadError("model file lists other feature templates")
            label_set = _checked_label_set(obj["label_set"])
            index = {name: li for li, name in enumerate(label_set)}
            raw_weights = obj["weights"]
            if not isinstance(raw_weights, dict):
                raise ModelLoadError("model weights are not a JSON object")
            weights: dict[str, dict[int, float]] = {}
            for f, row in raw_weights.items():
                if not isinstance(row, dict):
                    raise ModelLoadError(f"weights for {f!r} are not a JSON object")
                weights[f] = {index[name]: _checked_weight(f, w) for name, w in row.items()}
            return cls(
                label_set=label_set,
                weights=weights,
                training_log=list(obj["training_log"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelLoadError(f"model file is malformed: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "TaggerModel":
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
        except OSError as exc:
            raise ModelLoadError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ModelLoadError(f"model file is not JSON: {exc}") from exc
        return cls.from_json_dict(obj)


def _copy_weights(weights: dict[str, dict[int, float]]) -> dict[str, dict[int, float]]:
    return {f: dict(row) for f, row in weights.items()}


class _Averager:
    """Weight averaging via totals and timestamps.

    Snapshots conceptually happen after every utterance; instead of
    materializing them, each weight accumulates value * ticks-held
    lazily on change and once more at flush.
    """

    def __init__(self, weights: dict[str, dict[int, float]]):
        self.weights = weights
        self._totals: dict[str, dict[int, float]] = {}
        self._stamps: dict[str, dict[int, int]] = {}

    def mistake(self, feats: Sequence[str], gold: int, guess: int, tick: int) -> None:
        """+1 for gold and -1 for guess on every feature, at utterance tick."""
        held = tick - 1
        weights, totals, stamps = self.weights, self._totals, self._stamps
        for f in feats:
            row = weights.get(f)
            if row is None:
                row = weights[f] = {}
            trow = totals.get(f)
            if trow is None:
                trow = totals[f] = {}
                srow = stamps[f] = {}
            else:
                srow = stamps[f]
            value = row.get(gold, 0.0)
            trow[gold] = trow.get(gold, 0.0) + (held - srow.get(gold, 0)) * value
            srow[gold] = held
            row[gold] = value + 1.0
            value = row.get(guess, 0.0)
            trow[guess] = trow.get(guess, 0.0) + (held - srow.get(guess, 0)) * value
            srow[guess] = held
            row[guess] = value - 1.0

    def averaged(self, ticks: int) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {}
        for f, row in self.weights.items():
            trow = self._totals.get(f, {})
            srow = self._stamps.get(f, {})
            arow = {}
            for li, value in row.items():
                if li in srow:
                    avg = (trow[li] + (ticks - srow[li]) * value) / ticks
                else:
                    # Never updated this phase: the average of a constant
                    # is the constant, bit for bit.
                    avg = value
                if avg != 0.0:
                    arow[li] = avg
            if arow:
                out[f] = arow
        return out


def _run_phase(
    initial: dict[str, dict[int, float]],
    corpus: Sequence[LabeledUtterance],
    label_set: Sequence[str],
    config: TrainConfig,
) -> dict[str, dict[int, float]]:
    """One training phase; returns averaged weights."""
    index = {name: li for li, name in enumerate(label_set)}
    avg = _Averager(_copy_weights(initial))
    rng = random.Random(config.seed)
    order = list(range(len(corpus)))
    cache: dict[str, _TokenFeatures] = {}
    tick = 0
    for _ in range(config.epochs):
        if config.shuffle:
            rng.shuffle(order)
        for ci in order:
            u = corpus[ci]
            tick += 1
            _decode(
                avg.weights,
                _static_features(u.tokens, cache),
                label_set,
                gold=[index[lab.name] for lab in u.labels],
                on_mistake=partial(avg.mistake, tick=tick),
            )
    return avg.averaged(tick)


def _check_labels(corpus: Sequence[LabeledUtterance], label_set: Sequence[str]) -> None:
    known = set(label_set)
    for u in corpus:
        for lab in u.labels:
            if lab.name not in known:
                raise LabelSetMismatch(
                    f"label {lab.name} is outside the model label set"
                )


def _log_entry(data_tag: str, config: TrainConfig, corpus: Sequence) -> dict:
    """One training_log record: what a phase trained on, and how."""
    return {
        "data": data_tag,
        "epochs": config.epochs,
        "seed": config.seed,
        "size": len(corpus),
    }


def train(
    corpus: Sequence[LabeledUtterance],
    config: TrainConfig = TrainConfig(),
    data_tag: str = "train",
) -> TaggerModel:
    """Train a fresh model from zero weights."""
    if not corpus:
        raise EmptyCorpus("cannot train on no utterances")
    weights = _run_phase({}, corpus, DEFAULT_LABEL_SET, config)
    return TaggerModel(weights=weights, training_log=[_log_entry(data_tag, config, corpus)])


def continue_train(
    model: TaggerModel,
    corpus: Sequence[LabeledUtterance],
    config: TrainConfig = TrainConfig(),
    data_tag: str = "continue",
) -> TaggerModel:
    """Further training from a trained model's weights.

    Returns a new model; the input model is untouched.  Weights never
    updated by the new data keep their old values exactly.
    """
    if not corpus:
        raise EmptyCorpus("cannot continue training on no utterances")
    _check_labels(corpus, model.label_set)
    weights = _run_phase(model.weights, corpus, model.label_set, config)
    return TaggerModel(
        label_set=model.label_set,
        weights=weights,
        training_log=model.training_log + [_log_entry(data_tag, config, corpus)],
    )


class TaggerBackend(Protocol):
    """What run_strategy needs from a trainable tagger implementation."""

    def train(
        self, corpus: Sequence[LabeledUtterance], config: TrainConfig, data_tag: str
    ): ...

    def continue_train(
        self, model, corpus: Sequence[LabeledUtterance], config: TrainConfig, data_tag: str
    ): ...


class PerceptronBackend:
    """The built-in averaged perceptron as a strategy backend.

    Fresh training phases are memoized by (utterance content, config,
    data tag), so strategies that share a first phase train it once.
    Models are never mutated after training (continue_train copies), so
    one instance can be handed to several callers.
    """

    def __init__(self):
        self._trained: dict[tuple, TaggerModel] = {}

    def train(self, corpus, config, data_tag):
        key = (tuple((u.tokens, u.labels) for u in corpus), config, data_tag)
        model = self._trained.get(key)
        if model is None:
            model = self._trained[key] = train(corpus, config, data_tag)
        return model

    def continue_train(self, model, corpus, config, data_tag):
        return continue_train(model, corpus, config, data_tag)


class Strategy(str, Enum):
    ES_ONLY = "ES_ONLY"
    ES_THEN_EN = "ES_THEN_EN"
    EN_THEN_ES = "EN_THEN_ES"
    JOINT = "JOINT"


def run_strategy(
    strategy: Strategy,
    es_data: Sequence[LabeledUtterance],
    en_data: Sequence[LabeledUtterance] | None,
    config: TrainConfig = TrainConfig(),
    backend: TaggerBackend | None = None,
):
    """Train per one of the four data-ordering strategies.

    English data must already be converted to Spanish conventions.  For
    JOINT the two corpora are mixed and shuffled once with the config
    seed, then trained as a single phase.
    """
    strategy = Strategy(strategy)
    backend = backend if backend is not None else PerceptronBackend()
    if not es_data:
        raise EmptyCorpus("no Spanish training data")
    if strategy is not Strategy.ES_ONLY and not en_data:
        raise MissingEnglishData(f"strategy {strategy.value} needs English data")
    if strategy is Strategy.ES_ONLY:
        return backend.train(es_data, config, "es")
    if strategy is Strategy.ES_THEN_EN:
        model = backend.train(es_data, config, "es")
        return backend.continue_train(model, en_data, config, "en")
    if strategy is Strategy.EN_THEN_ES:
        model = backend.train(en_data, config, "en")
        return backend.continue_train(model, es_data, config, "es")
    mixed = list(es_data) + list(en_data)
    random.Random(config.seed).shuffle(mixed)
    return backend.train(mixed, config, "joint-es-en")


def oversample(
    corpus: Sequence[LabeledUtterance], target_size: int, seed: int
) -> list[LabeledUtterance]:
    """Grow a corpus to target_size by whole copies plus a seeded sample
    of the remainder, then shuffle.  Every utterance appears floor or
    ceil of target_size/len times."""
    if not corpus:
        raise EmptyCorpus("cannot oversample no utterances")
    if target_size < len(corpus):
        raise TargetTooSmall(
            f"target {target_size} is below the corpus size {len(corpus)}"
        )
    copies, extra = divmod(target_size, len(corpus))
    rng = random.Random(seed)
    out = list(corpus) * copies + rng.sample(list(corpus), extra)
    rng.shuffle(out)
    return out
