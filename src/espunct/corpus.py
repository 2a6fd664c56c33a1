"""Corpus data model for punctuation restoration.

Utterances live in two forms: raw punctuated text, and a parallel
(tokens, labels) pair where each label says which punctuation attaches
to that token.  This module owns the label inventory, the punctuation
normalizer, the reversible text<->labels mapping, JSONL round-trip IO,
and the record conversions the CLI and the pipeline share (as_labeled,
as_text).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence, Union

from .errors import (
    ConflictingMarks,
    IoFailure,
    MalformedRecord,
    UnsupportedPunctuation,
)


class Kind(Enum):
    """Paired-mark families."""

    QUESTION = "question"
    EXCLAMATION = "exclamation"


class PunctClass(str, Enum):
    """Token-level punctuation labels.

    NONE is first on purpose: it is the background class and the
    tie-break winner wherever scores are equal.
    """

    NONE = "NONE"
    COMMA = "COMMA"
    PERIOD = "PERIOD"
    OPEN_QUESTION = "OPEN_QUESTION"
    CLOSE_QUESTION = "CLOSE_QUESTION"
    FULL_QUESTION = "FULL_QUESTION"
    OPEN_EXCLAMATION = "OPEN_EXCLAMATION"
    CLOSE_EXCLAMATION = "CLOSE_EXCLAMATION"
    FULL_EXCLAMATION = "FULL_EXCLAMATION"

    @property
    def is_opening(self) -> bool:
        return self in _OPENING

    @property
    def is_closing(self) -> bool:
        return self in _CLOSING

    @property
    def is_full(self) -> bool:
        return self in _FULL

    @property
    def is_terminating(self) -> bool:
        """True for labels that end a sentence."""
        return self in _TERMINATING

    @property
    def kind(self) -> Kind | None:
        """The mark family for paired labels, None for the rest."""
        return _KIND.get(self)


_OPENING = frozenset({PunctClass.OPEN_QUESTION, PunctClass.OPEN_EXCLAMATION})
_CLOSING = frozenset({PunctClass.CLOSE_QUESTION, PunctClass.CLOSE_EXCLAMATION})
_FULL = frozenset({PunctClass.FULL_QUESTION, PunctClass.FULL_EXCLAMATION})
_TERMINATING = frozenset({PunctClass.PERIOD}) | _CLOSING | _FULL

_KIND = {
    PunctClass.OPEN_QUESTION: Kind.QUESTION,
    PunctClass.CLOSE_QUESTION: Kind.QUESTION,
    PunctClass.FULL_QUESTION: Kind.QUESTION,
    PunctClass.OPEN_EXCLAMATION: Kind.EXCLAMATION,
    PunctClass.CLOSE_EXCLAMATION: Kind.EXCLAMATION,
    PunctClass.FULL_EXCLAMATION: Kind.EXCLAMATION,
}

OPENER_FOR = {
    Kind.QUESTION: PunctClass.OPEN_QUESTION,
    Kind.EXCLAMATION: PunctClass.OPEN_EXCLAMATION,
}
CLOSER_FOR = {
    Kind.QUESTION: PunctClass.CLOSE_QUESTION,
    Kind.EXCLAMATION: PunctClass.CLOSE_EXCLAMATION,
}
FULL_FOR = {
    Kind.QUESTION: PunctClass.FULL_QUESTION,
    Kind.EXCLAMATION: PunctClass.FULL_EXCLAMATION,
}

CLASS_ORDER: tuple[PunctClass, ...] = tuple(PunctClass)

# Mark characters a label re-attaches on rendering.
_LEADING_MARK = {
    PunctClass.OPEN_QUESTION: "\u00bf",
    PunctClass.FULL_QUESTION: "\u00bf",
    PunctClass.OPEN_EXCLAMATION: "\u00a1",
    PunctClass.FULL_EXCLAMATION: "\u00a1",
}
_TRAILING_MARK = {
    PunctClass.CLOSE_QUESTION: "?",
    PunctClass.FULL_QUESTION: "?",
    PunctClass.CLOSE_EXCLAMATION: "!",
    PunctClass.FULL_EXCLAMATION: "!",
    PunctClass.COMMA: ",",
    PunctClass.PERIOD: ".",
}

SUPPORTED_MARKS = "\u00bf?\u00a1!,."
_LEADING_CHARS = "\u00bf\u00a1"
_TRAILING_CHARS = "?!,."

# Characters that may not touch a token boundary: marks normalization
# removes or rewrites, plus parentheses and dashes, which are only
# tolerated inside a token.  The plain hyphen stays legal at boundaries
# so disfluencies like "que-" keep their token text.
REJECTED_BOUNDARY = set(
    "\"'\u00ab\u00bb\u201c\u201d\u2018\u2019:;\u2026()\u2014\u2013"
)

_LABEL_FOR_MARKS = {
    (None, None): PunctClass.NONE,
    (None, ","): PunctClass.COMMA,
    (None, "."): PunctClass.PERIOD,
    (None, "?"): PunctClass.CLOSE_QUESTION,
    (None, "!"): PunctClass.CLOSE_EXCLAMATION,
    ("\u00bf", None): PunctClass.OPEN_QUESTION,
    ("\u00bf", "?"): PunctClass.FULL_QUESTION,
    ("\u00a1", None): PunctClass.OPEN_EXCLAMATION,
    ("\u00a1", "!"): PunctClass.FULL_EXCLAMATION,
}


@dataclass(frozen=True)
class RawUtterance:
    """One line of punctuated text plus optional provenance tags."""

    text: str
    source: str | None = None
    lang: str | None = None

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError("utterance text is empty")


@dataclass(frozen=True)
class LabeledUtterance:
    """Parallel (tokens, labels) with optional provenance tags.

    Tokens never contain whitespace and never start or end with a
    supported punctuation mark; interior marks (decimal commas, word
    internal hyphens) are plain token text.
    """

    tokens: tuple[str, ...]
    labels: tuple[PunctClass, ...]
    source: str | None = None
    lang: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "labels", tuple(PunctClass(x) for x in self.labels))
        if not self.tokens:
            raise ValueError("utterance has no tokens")
        if len(self.tokens) != len(self.labels):
            raise ValueError(
                f"{len(self.tokens)} tokens but {len(self.labels)} labels"
            )
        for tok in self.tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"bad token {tok!r}")
            for ch in (tok[0], tok[-1]):
                if ch in SUPPORTED_MARKS or ch in REJECTED_BOUNDARY:
                    raise ValueError(
                        f"token {tok!r} has a boundary punctuation mark"
                    )

    def __len__(self) -> int:
        return len(self.tokens)


Utterance = Union[RawUtterance, LabeledUtterance]


# --- normalization ---------------------------------------------------------

# An apostrophe between letters is a contraction, not a quote; protect
# it before quote deletion and restore it (canonicalized to ') after.
_CONTRACTION_RE = re.compile("(?<=[^\\W\\d_])['\u2019](?=[^\\W\\d_])")
_QUOTE_RE = re.compile("[\"'\u00ab\u00bb\u201c\u201d\u2018\u2019]")
_ELLIPSIS_RE = re.compile("(?:\u2026|\\.{3,})+")
_COLON_SEMI_RE = re.compile("[:;]")
# Private-use sentinels mark punctuation this pass inserted, so a run of
# identical marks touching an insertion collapses to a single mark while
# runs the author wrote ("..", ",,") survive untouched.
_INS_PERIOD = "\ue000"
_INS_COMMA = "\ue001"
_INS_APOSTROPHE = "\ue002"
_PERIOD_RUN_RE = re.compile("\\.*\ue000[.\ue000]*")
_COMMA_RUN_RE = re.compile(",*\ue001[,\ue001]*")


def normalize_punctuation(text: str) -> str:
    """Reduce punctuation to the supported inventory.

    Quotation marks are deleted (word-internal apostrophes stay), colons
    and semicolons become commas, ellipses (three or more dots, or the
    one-char form) become periods.  Idempotent: a second pass returns
    its input unchanged.
    """
    text = _CONTRACTION_RE.sub(_INS_APOSTROPHE, text)
    text = _QUOTE_RE.sub("", text)
    text = _ELLIPSIS_RE.sub(_INS_PERIOD, text)
    text = _COLON_SEMI_RE.sub(_INS_COMMA, text)
    text = _PERIOD_RUN_RE.sub(".", text)
    text = _COMMA_RUN_RE.sub(",", text)
    return text.replace(_INS_APOSTROPHE, "'")


# --- text <-> labels -------------------------------------------------------


def _split_marks(word: str) -> tuple[str | None, str, str | None]:
    """Strip at most one leading and one trailing supported mark."""
    lead = None
    trail = None
    core = word
    if core and core[0] in _LEADING_CHARS:
        lead = core[0]
        core = core[1:]
    if core and core[-1] in _TRAILING_CHARS:
        trail = core[-1]
        core = core[:-1]
    return lead, core, trail


def extract_labels(
    text: str, *, source: str | None = None, lang: str | None = None
) -> LabeledUtterance:
    """Turn punctuated text into a LabeledUtterance.

    The inverse of render(): extract_labels(render(u)) == u for every
    valid u.  Input must already be normalized and contain at least one
    word token.
    """
    words = text.split()
    if not words:
        raise ValueError("no tokens in input text")
    tokens: list[str] = []
    labels: list[PunctClass] = []
    for word in words:
        lead, core, trail = _split_marks(word)
        if not core:
            raise UnsupportedPunctuation(
                f"token {word!r} has no word to attach punctuation to"
            )
        for ch in (core[0], core[-1]):
            if ch in REJECTED_BOUNDARY:
                raise UnsupportedPunctuation(
                    f"token {word!r} keeps unnormalized punctuation {ch!r}"
                )
        if core[0] in SUPPORTED_MARKS or core[-1] in _LEADING_CHARS:
            raise UnsupportedPunctuation(
                f"token {word!r} has a mark in an unsupported position"
            )
        if core[-1] in _TRAILING_CHARS:
            raise ConflictingMarks(f"token {word!r} stacks trailing marks")
        label = _LABEL_FOR_MARKS.get((lead, trail))
        if label is None:
            raise ConflictingMarks(
                f"token {word!r} mixes marks of different kinds"
            )
        tokens.append(core)
        labels.append(label)
    return LabeledUtterance(tuple(tokens), tuple(labels), source=source, lang=lang)


def render(u: LabeledUtterance, capitalize: bool = False) -> str:
    """Render tokens and labels back to punctuated text.

    With capitalize=True the first token and every token after a
    terminating label get an upper-cased first letter, which is display
    sugar and breaks the round trip with extract_labels.
    """
    parts = []
    cap_next = capitalize
    for token, label in zip(u.tokens, u.labels):
        if cap_next and token[0].islower():
            token = token[0].upper() + token[1:]
        cap_next = capitalize and label.is_terminating
        parts.append(
            _LEADING_MARK.get(label, "") + token + _TRAILING_MARK.get(label, "")
        )
    return " ".join(parts)


def as_labeled(
    records: Sequence[Utterance], default_source: str | None = None
) -> list[LabeledUtterance]:
    """Raw records normalized and parsed, a missing source set to
    default_source; labeled records pass through.  Raw text that
    normalizes to nothing is a MalformedRecord at its 1-based position."""
    out = []
    for position, rec in enumerate(records, start=1):
        if isinstance(rec, LabeledUtterance):
            out.append(rec)
            continue
        text = normalize_punctuation(rec.text)
        if not text.strip():
            raise MalformedRecord(position, "text has no tokens after normalization")
        source = rec.source if rec.source is not None else default_source
        out.append(extract_labels(text, source=source, lang=rec.lang))
    return out


def as_text(records: Sequence[Utterance]) -> list[RawUtterance]:
    """Labeled records rendered with their provenance; raw pass through."""
    return [
        rec
        if isinstance(rec, RawUtterance)
        else RawUtterance(render(rec), source=rec.source, lang=rec.lang)
        for rec in records
    ]


# --- JSONL IO --------------------------------------------------------------


def _record_to_dict(rec: Utterance) -> dict:
    if isinstance(rec, RawUtterance):
        out: dict = {"text": rec.text}
    else:
        out = {"tokens": list(rec.tokens), "labels": [x.name for x in rec.labels]}
    if rec.source is not None:
        out["source"] = rec.source
    if rec.lang is not None:
        out["lang"] = rec.lang
    return out


def _record_from_dict(obj: object, line_number: int) -> Utterance:
    if not isinstance(obj, dict):
        raise MalformedRecord(line_number, "record is not a JSON object")
    source = obj.get("source")
    lang = obj.get("lang")
    for name, value in (("source", source), ("lang", lang)):
        if value is not None and not isinstance(value, str):
            raise MalformedRecord(line_number, f"{name} is not a string")
    try:
        if "text" in obj:
            if not isinstance(obj["text"], str):
                raise ValueError("text is not a string")
            return RawUtterance(obj["text"], source=source, lang=lang)
        if "tokens" in obj and "labels" in obj:
            for field in ("tokens", "labels"):
                value = obj[field]
                if not isinstance(value, list) or not all(
                    isinstance(x, str) for x in value
                ):
                    raise ValueError(f"{field} is not a list of strings")
            return LabeledUtterance(
                tuple(obj["tokens"]), tuple(obj["labels"]), source=source, lang=lang
            )
    except (ValueError, TypeError) as exc:
        raise MalformedRecord(line_number, str(exc)) from exc
    raise MalformedRecord(line_number, "record has neither text nor tokens+labels")


def read_jsonl(path: str | Path) -> list[Utterance]:
    """Read a corpus file, one JSON record per line.

    Raw records carry "text"; labeled records carry "tokens" and
    "labels".  A file may hold either shape but not a mixture.
    """
    records: list[Utterance] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line_number, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped:
                    raise MalformedRecord(line_number, "blank line")
                try:
                    obj = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise MalformedRecord(line_number, f"bad JSON: {exc}") from exc
                records.append(_record_from_dict(obj, line_number))
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc
    kinds = {type(r) for r in records}
    if len(kinds) > 1:
        raise MalformedRecord(0, "file mixes raw and labeled records")
    return records


def write_jsonl(records: Iterable[Utterance], path: str | Path) -> None:
    """Write records as canonical JSONL: fixed key order, UTF-8, no ASCII
    escaping, compact separators.  Byte-identical for identical input."""
    lines = []
    for rec in records:
        lines.append(
            json.dumps(_record_to_dict(rec), ensure_ascii=False, separators=(",", ":"))
        )
    try:
        with open(path, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def terminal_count(u: LabeledUtterance) -> int:
    """Number of sentence-ending labels in the utterance."""
    return sum(1 for lab in u.labels if lab.is_terminating)


def chunk_start(labels: Sequence[PunctClass], i: int) -> int:
    """Index of the first token of the chunk containing position i.

    A chunk is a maximal run of tokens with no punctuation label on any
    token strictly before i within it; walking left from i, the first
    non-NONE label (any punctuation, commas included) bounds the chunk.
    """
    if not 0 <= i < len(labels):
        raise IndexError(f"position {i} out of range")
    j = i
    while j > 0 and labels[j - 1] is PunctClass.NONE:
        j -= 1
    return j
