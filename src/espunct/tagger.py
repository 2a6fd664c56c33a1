"""Averaged-perceptron punctuation tagger with greedy decoding.

The decoder runs left to right and feeds its own previous prediction
back in as a feature, so training updates on decode-time features rather
than gold history.  Weights are averaged over every utterance-level
snapshot, which is what makes the otherwise twitchy perceptron stable.

Weights are dense rows: a feature's row holds one weight per label, in
`corpus.CLASS_ORDER`.  A model holds them as tuples, which predict sums
as they are; a training phase holds them as lists, which it updates in
place, so an update shows at the next position that sums the row.  Only
the model file is sparse: it lists each row's non-zero weights.

Training and prediction share one decoder, `_decode`, which sums rows
rather than looking up feature strings, adding each to nine running
scores with a single unpack.  A `_RowCache` resolves each token type's
rows (window slots, affixes, shape) once, and the `first`, `last` and
`prev=` rows once per cache; only the two bigram rows are looked up at
each position.  A model keeps its predict cache for as long as it keeps
its weights dict.  Rows are summed in the order of FEATURE_TEMPLATES, so
scores are bit-for-bit those of summing each feature string's weights in
that order, the string form of the templates the tests hold the rows to.
A mistake updates the rows the decoder has just summed, in place.  The
zeros a row holds for labels its feature lacks, and the zero row summed
for an absent bigram, change no score: `x + 0.0 == x` bit for bit for
every x but -0.0, and a score starts at +0.0, so it is never -0.0 (only
-0.0 + -0.0 is).

The label inventory is fixed: a label's index is its position in
`corpus.CLASS_ORDER`, and every model file lists those nine names in
that order (`DEFAULT_LABEL_SET`).
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

from .corpus import CLASS_INDEX, CLASS_ORDER, LabeledUtterance, PunctClass, read_json, write_json
from .errors import (
    EmptyCorpus,
    MissingEnglishData,
    ModelLoadError,
    TargetTooSmall,
    UnconvertedEnglish,
)
from .postprocess import validate_pairing

MODEL_FORMAT_VERSION = 1

DEFAULT_LABEL_SET: tuple[str, ...] = tuple(c.name for c in CLASS_ORDER)

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

# The label a decoded index feeds to the next position's prev=; index
# -1 is the history before the first position.
_PREV_LABELS = DEFAULT_LABEL_SET + (_BOS_LABEL,)
# Slots in a dense weight row, one per label; _decode unpacks this many.
_WIDTH = len(CLASS_ORDER)
# The row _decode sums for an absent bigram.
_ZEROS = (0.0,) * _WIDTH


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


# A feature's row as found in a _RowCache: () when it has none, else
# (row,).  A training row is the phase's own list, so an update to it
# shows at the next position that sums it.
_Rows = tuple

# A _RowCache's token types start over when it holds this many.  An
# entry whose type has every row measured about 0.69 KB, and a full set
# of entries 34 MB, which is all a predict cache holds: its rows are the
# model's own.  Entries keep their token, so longer tokens are built but
# not cached.
_MAX_CACHED_TYPES = 50_000
_MAX_CACHED_CHARS = 64


class _TokenFeatures:
    """Weight rows of the features that depend only on one token type.

    The window slots (m2 ... p2) are the rows this token contributes
    when it sits at that offset from the position being decoded.  wbm1
    and wbp1 are the wb-1 and wb+1 keys with this token as the left word,
    less the right word.
    """

    __slots__ = ("word", "wbm1", "wbp1", "m2", "m1", "w0", "p1", "p2", "affixes", "shape")

    def __init__(self, token: str, row: Callable[[str], _Rows]):
        w = token.lower()
        self.word = w
        self.wbm1 = "wb-1=" + w + "|"
        self.wbp1 = "wb+1=" + w + "|"
        self.m2 = row("w-2=" + w)
        self.m1 = row("w-1=" + w)
        self.w0 = row("w0=" + w)
        self.p1 = row("w+1=" + w)
        self.p2 = row("w+2=" + w)
        affixes: _Rows = ()
        for length in (1, 2, 3):
            if length <= len(w):
                affixes += row(f"pre{length}=" + w[:length]) + row(f"suf{length}=" + w[-length:])
        self.affixes = affixes
        self.shape = row("shape=" + _word_shape(token))


class _RowCache:
    """Feature rows of one weights dict, resolved once per token type.

    For predict (create=False), weights is the model's dict of tuples,
    which predict never writes, and a feature missing from it has no
    rows.  For training (create=True), weights is the phase's dict of
    lists: every resolved feature gets a row, zeros if missing, so updates
    land in the rows the cache hands out.  The wb-1/wb+1 bigrams are not
    cached per token type; _decode looks them up in weights at each
    position, which makes no training row (a mistake makes them with row).
    """

    __slots__ = ("weights", "row", "entries", "bos", "eos", "first", "last", "prev")

    def __init__(self, weights: dict, create: bool):
        get = weights.get

        def lookup(feature: str) -> _Rows:
            found = get(feature)
            return () if found is None else (found,)

        def lookup_or_add(feature: str) -> _Rows:
            found = get(feature)
            if found is None:
                found = weights[feature] = [0.0] * _WIDTH
            return (found,)

        row = lookup_or_add if create else lookup
        self.weights = weights
        self.row = row
        self.entries: dict[str, _TokenFeatures] = {}
        # Padding for the window; only word, wbm1 and the window slots are read.
        self.bos = _TokenFeatures(_BOS_WORD, row)
        self.eos = _TokenFeatures(_EOS_WORD, row)
        self.first = row("first")
        self.last = row("last")
        # Indexed by label index; the last item, index -1, is <start>.
        self.prev = tuple(row("prev=" + name) for name in _PREV_LABELS)


_Static = list[tuple[_Rows, _Rows, tuple[str, str]]]


def _static_features(tokens: Sequence[str], cache: _RowCache) -> _Static:
    """Per position, the rows of every feature but prev= and the bigrams.

    Each position is (head, tail, bigrams): head + cache.prev[label] +
    tail, then the rows of the two bigram keys, are the rows of that
    position's features in template order.
    """
    entries = cache.entries
    window = [cache.bos, cache.bos]
    for t in tokens:
        entry = entries.get(t)
        if entry is None:
            entry = _TokenFeatures(t, cache.row)
            if len(t) <= _MAX_CACHED_CHARS:
                if len(entries) >= _MAX_CACHED_TYPES:
                    entries.clear()
                entries[t] = entry
        window.append(entry)
    window += (cache.eos, cache.eos)
    last = len(tokens) - 1
    out = []
    for i in range(len(tokens)):
        m2, m1, cur, p1, p2 = window[i : i + 5]
        head = m2.m2 + m1.m1 + cur.w0 + p1.p1 + p2.p2 + cur.affixes
        if i == 0:
            head += cache.first
        if i == last:
            head += cache.last
        out.append((head, cur.shape, (m1.wbm1 + cur.word, cur.wbp1 + p1.word)))
    return out


def _decode(
    cache: _RowCache,
    tokens: Sequence[str],
    gold: Sequence[int] | None = None,
    on_mistake: Callable[[_Rows, int, int], None] | None = None,
) -> list[int]:
    """Greedy left-to-right decode; returns label indices.

    Ties go to the earliest label.  Each dense row is added to the nine
    scores with one unpack, rows in template order, so results are
    bit-for-bit those of summing the features' weights in that order; an
    absent bigram adds a row of zeros.  Given gold indices, every wrong
    guess calls on_mistake(rows, gold, guess) with the rows just summed,
    the bigrams' made by cache.row if absent; decoding continues from the
    guess, so training sees its own history.
    """
    get = cache.weights.get
    row = cache.row
    prev_rows = cache.prev
    prev = -1
    out = []
    for i, (head, tail, (before, after)) in enumerate(_static_features(tokens, cache)):
        rows = head + prev_rows[prev] + tail + (get(before, _ZEROS), get(after, _ZEROS))
        s0 = s1 = s2 = s3 = s4 = s5 = s6 = s7 = s8 = 0.0
        for w0, w1, w2, w3, w4, w5, w6, w7, w8 in rows:
            s0 += w0
            s1 += w1
            s2 += w2
            s3 += w3
            s4 += w4
            s5 += w5
            s6 += w6
            s7 += w7
            s8 += w8
        scores = [s0, s1, s2, s3, s4, s5, s6, s7, s8]
        # max keeps its first strict maximum, the same as a `>` scan.
        best = scores.index(max(scores))
        if gold is not None and best != gold[i]:
            on_mistake(rows[:-2] + row(before) + row(after), gold[i], best)
        prev = best
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


def _checked_weight(feature: str, raw: object) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ModelLoadError(f"weight for {feature!r} is not a number: {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ModelLoadError(f"weight for {feature!r} is not finite: {raw!r}")
    return value


@dataclass
class TaggerModel:
    """Trained tagger: weight rows and the phases that made them.

    weights maps feature string -> a tuple of _WIDTH weights, one per
    label in CLASS_ORDER.  The file lists each row's non-zero weights by
    label name; it always carries DEFAULT_LABEL_SET, FEATURE_TEMPLATES and
    MODEL_FORMAT_VERSION, and load refuses any others.  training_log
    records each training phase in order.
    """

    weights: dict[str, tuple[float, ...]] = field(default_factory=dict)
    training_log: list[dict] = field(default_factory=list)
    _rows: _RowCache | None = field(default=None, init=False, repr=False, compare=False)

    def predict(self, tokens: Sequence[str]) -> list[PunctClass]:
        """Greedy left-to-right decode; ties go to the earliest label.

        The first call builds a row cache that lives as long as this
        weights dict; concurrent first calls may each build one.
        """
        if not tokens:
            raise ValueError("cannot predict on an empty token list")
        cache = self._rows
        if cache is None or cache.weights is not self.weights:
            cache = self._rows = _RowCache(self.weights, create=False)
        return [CLASS_ORDER[li] for li in _decode(cache, tokens)]

    def __getstate__(self) -> dict:
        # The cache holds closures, which do not pickle.
        return {"weights": self.weights, "training_log": self.training_log}

    def to_json_dict(self) -> dict:
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "label_set": list(DEFAULT_LABEL_SET),
            "feature_templates": list(FEATURE_TEMPLATES),
            "weights": {
                f: {DEFAULT_LABEL_SET[li]: w for li, w in enumerate(row) if w}
                for f, row in self.weights.items()
            },
            "training_log": self.training_log,
        }

    def save(self, path: str | Path) -> None:
        write_json(self.to_json_dict(), path)

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
            if obj["label_set"] != list(DEFAULT_LABEL_SET):
                raise ModelLoadError(
                    "model file lists another label set (want the nine classes in order)"
                )
            raw_weights = obj["weights"]
            if not isinstance(raw_weights, dict):
                raise ModelLoadError("model weights are not a JSON object")
            weights: dict[str, tuple[float, ...]] = {}
            for f, row in raw_weights.items():
                if not isinstance(row, dict):
                    raise ModelLoadError(f"weights for {f!r} are not a JSON object")
                values = [0.0] * _WIDTH
                for name, w in row.items():
                    values[CLASS_INDEX[name]] = _checked_weight(f, w)
                weights[f] = tuple(values)
            log = obj["training_log"]
            if not isinstance(log, list) or not all(isinstance(e, dict) for e in log):
                raise ModelLoadError("training_log is not a list of JSON objects")
            # What loads must save: a JSON escape such as \ud800 decodes to
            # a lone surrogate, which UTF-8 cannot encode.
            "".join(weights).encode("utf-8")
            json.dumps(log, ensure_ascii=False).encode("utf-8")
            return cls(weights=weights, training_log=log)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ModelLoadError(f"model file is malformed: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "TaggerModel":
        return cls.from_json_dict(read_json(path, ModelLoadError, "model file"))


class _Averager:
    """Weight averaging via totals and timestamps.

    Snapshots conceptually happen after every utterance; instead of
    materializing them, each weight accumulates value * ticks-held
    lazily on change and once more at flush.  weights holds a list copy
    of each initial row, which the phase updates in place.  A row's
    totals and stamps are two _WIDTH-slot lists keyed by the row's id:
    a row stays in weights for the whole phase, so its id is never
    reused.  A stamp of None marks a weight the phase never updated.
    """

    def __init__(self, initial: dict[str, tuple[float, ...]]):
        self.weights = {f: list(row) for f, row in initial.items()}
        self._books: dict[int, tuple[list[float], list[int | None]]] = {}

    def mistake(self, rows: _Rows, gold: int, guess: int, tick: int) -> None:
        """+1 for gold and -1 for guess on every row, at utterance tick."""
        held = tick - 1
        books = self._books
        for row in rows:
            book = books.get(id(row))
            if book is None:
                book = books[id(row)] = ([0.0] * _WIDTH, [None] * _WIDTH)
            totals, stamps = book
            value = row[gold]
            totals[gold] += (held - (stamps[gold] or 0)) * value
            stamps[gold] = held
            row[gold] = value + 1.0
            value = row[guess]
            totals[guess] += (held - (stamps[guess] or 0)) * value
            stamps[guess] = held
            row[guess] = value - 1.0

    def averaged(self, ticks: int) -> dict[str, tuple[float, ...]]:
        """Averaged rows; rows with no non-zero weight are left out."""
        out: dict[str, tuple[float, ...]] = {}
        books = self._books
        for f, row in self.weights.items():
            book = books.get(id(row))
            if book is None:
                # A row the phase never updated keeps its values: the
                # average of a constant is the constant, bit for bit.
                arow = tuple(row)
            else:
                totals, stamps = book
                arow = tuple(
                    value if stamp is None else (total + (ticks - stamp) * value) / ticks
                    for value, total, stamp in zip(row, totals, stamps)
                )
            if any(arow):
                out[f] = arow
        return out


def _run_phase(
    initial: dict[str, tuple[float, ...]],
    corpus: Sequence[LabeledUtterance],
    config: TrainConfig,
) -> dict[str, tuple[float, ...]]:
    """One training phase; returns averaged weights."""
    avg = _Averager(initial)
    rng = random.Random(config.seed)
    order = list(range(len(corpus)))
    # Exact-size tuples, which CPython can take from its free lists.
    golds = [tuple([CLASS_INDEX[lab] for lab in u.labels]) for u in corpus]
    cache = _RowCache(avg.weights, create=True)
    tick = 0
    for _ in range(config.epochs):
        if config.shuffle:
            rng.shuffle(order)
        for ci in order:
            tick += 1
            _decode(cache, corpus[ci].tokens, golds[ci], partial(avg.mistake, tick=tick))
    return avg.averaged(tick)


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
    return continue_train(TaggerModel(), corpus, config, data_tag)


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
        raise EmptyCorpus("cannot train on no utterances")
    weights = _run_phase(model.weights, corpus, config)
    return TaggerModel(
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

    English data must already be converted to Spanish conventions: any
    utterance whose marks do not pair is refused.  For JOINT the two
    corpora are mixed and shuffled once with the config seed, then
    trained as a single phase.
    """
    strategy = Strategy(strategy)
    fresh = train if backend is None else backend.train
    further = continue_train if backend is None else backend.continue_train
    if not es_data:
        raise EmptyCorpus("no Spanish training data")
    if strategy is Strategy.ES_ONLY:
        return fresh(es_data, config, "es")
    if not en_data:
        raise MissingEnglishData(f"strategy {strategy.value} needs English data")
    if not all(validate_pairing(u.labels) for u in en_data):
        raise UnconvertedEnglish("English data has unpaired marks; run `espunct convert` on it first")
    if strategy is Strategy.ES_THEN_EN:
        return further(fresh(es_data, config, "es"), en_data, config, "en")
    if strategy is Strategy.EN_THEN_ES:
        return further(fresh(en_data, config, "en"), es_data, config, "es")
    mixed = list(es_data) + list(en_data)
    random.Random(config.seed).shuffle(mixed)
    return fresh(mixed, config, "joint-es-en")


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
