"""Corpus data model for punctuation restoration.

Utterances live in two forms: raw punctuated text, and a parallel
(tokens, labels) pair where each label says which punctuation attaches
to that token.  This module owns the label inventory (one table gives
each kind of pair its opening, closing and full label), the punctuation
normalizer, the reversible text<->labels mapping, JSONL round-trip IO,
the atomic line writer every artifact goes through, JSON document IO,
and what the CLI and the pipeline share: the one reader of a corpus
file (read_corpus) and the record conversions (as_labeled, as_text).
"""

from __future__ import annotations

import json
import os
import re
import stat
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar, Union

from .errors import (
    ConflictingMarks,
    EmptyCorpus,
    IoFailure,
    MalformedRecord,
    PunctError,
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


# The (opening, closing, full) label of each kind of pair: the one place
# the pair forms are written.  Every table below is read off it.
_PAIR_FORMS = {
    Kind.QUESTION: (
        PunctClass.OPEN_QUESTION,
        PunctClass.CLOSE_QUESTION,
        PunctClass.FULL_QUESTION,
    ),
    Kind.EXCLAMATION: (
        PunctClass.OPEN_EXCLAMATION,
        PunctClass.CLOSE_EXCLAMATION,
        PunctClass.FULL_EXCLAMATION,
    ),
}
OPENER_FOR, CLOSER_FOR, FULL_FOR = (
    {kind: forms[i] for kind, forms in _PAIR_FORMS.items()} for i in range(3)
)
_OPENING, _CLOSING, _FULL = (
    frozenset(table.values()) for table in (OPENER_FOR, CLOSER_FOR, FULL_FOR)
)
_TERMINATING = frozenset({PunctClass.PERIOD}) | _CLOSING | _FULL
_KIND = {label: kind for kind, forms in _PAIR_FORMS.items() for label in forms}

CLASS_ORDER: tuple[PunctClass, ...] = tuple(PunctClass)
# Each label's position in CLASS_ORDER.  A member hashes and compares as
# its value string, which is its name, so a name read from a file finds
# its index too.
CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}

# Each label's (leading, trailing) mark, "" for none: render attaches
# them, and extract_labels reads a token's marks back through the inverse.
_MARKS = {
    PunctClass.NONE: ("", ""),
    PunctClass.COMMA: ("", ","),
    PunctClass.PERIOD: ("", "."),
    PunctClass.OPEN_QUESTION: ("\u00bf", ""),
    PunctClass.CLOSE_QUESTION: ("", "?"),
    PunctClass.FULL_QUESTION: ("\u00bf", "?"),
    PunctClass.OPEN_EXCLAMATION: ("\u00a1", ""),
    PunctClass.CLOSE_EXCLAMATION: ("", "!"),
    PunctClass.FULL_EXCLAMATION: ("\u00a1", "!"),
}
_LABEL_FOR_MARKS = {marks: label for label, marks in _MARKS.items()}
# Each trailing mark's label on a token with no leading mark.
_CLOSE_ONLY = {
    trail: label for (lead, trail), label in _LABEL_FOR_MARKS.items() if trail and not lead
}

SUPPORTED_MARKS = "\u00bf?\u00a1!,."
_LEADING_CHARS = "\u00bf\u00a1"
_TRAILING_CHARS = "?!,."

# Characters that may not touch a token boundary: marks normalization
# removes or rewrites, plus brackets of every kind and dashes, which are
# only tolerated inside a token.  The plain hyphen stays legal at
# boundaries so disfluencies like "que-" keep their token text.
REJECTED_BOUNDARY = frozenset(
    "\"'\u00ab\u00bb\u201c\u201d\u2018\u2019:;\u2026()[]{}\u2014\u2013"
)
# Every character a token may not start or end with, as str.strip takes them.
BOUNDARY_CHARS = SUPPORTED_MARKS + "".join(sorted(REJECTED_BOUNDARY))
_BOUNDARY_REJECTS = frozenset(BOUNDARY_CHARS)

# Each label keyed by itself; a member equals and hashes as its value
# string, so the value string finds it too.
_LABEL_OF = {label: label for label in PunctClass}
_first = itemgetter(0)
_last = itemgetter(-1)


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
        if isinstance(self.tokens, str):
            raise ValueError("tokens is a string, not a sequence")
        if isinstance(self.labels, str):
            raise ValueError("labels is a string, not a sequence")
        tokens = tuple(self.tokens)
        labels = tuple(self.labels)
        try:
            labels = tuple(map(_LABEL_OF.__getitem__, labels))
        except (KeyError, TypeError):
            # Not all labels are label values: PunctClass names the bad one.
            labels = tuple(PunctClass(x) for x in labels)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "labels", labels)
        if not tokens:
            raise ValueError("utterance has no tokens")
        if len(tokens) != len(labels):
            raise ValueError(f"{len(tokens)} tokens but {len(labels)} labels")
        # Splitting the joined tokens gives them back exactly when each is
        # a non-empty string without whitespace (split and isspace agree
        # on what whitespace is).  Only a failure walks token by token.
        try:
            clean = " ".join(tokens).split() == list(tokens)
        except TypeError:
            clean = False
        if (
            clean
            and _BOUNDARY_REJECTS.isdisjoint(map(_first, tokens))
            and _BOUNDARY_REJECTS.isdisjoint(map(_last, tokens))
        ):
            return
        for tok in tokens:
            if tok and not isinstance(tok, str):
                raise TypeError(f"token {tok!r} is not a string")
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"bad token {tok!r}")
            if tok[0] in _BOUNDARY_REJECTS or tok[-1] in _BOUNDARY_REJECTS:
                raise ValueError(f"token {tok!r} has a boundary punctuation mark")

    def __len__(self) -> int:
        return len(self.tokens)


Utterance = Union[RawUtterance, LabeledUtterance]
_Shaped = TypeVar("_Shaped")


# --- normalization ---------------------------------------------------------

# An apostrophe between letters is a contraction, not a quote; protect
# it before quote deletion and restore it (canonicalized to ') after.
_CONTRACTION_RE = re.compile("(?<=[^\\W\\d_])['\u2019](?=[^\\W\\d_])")
_QUOTES = "\"'\u00ab\u00bb\u201c\u201d\u2018\u2019"
_QUOTE_RE = re.compile(f"[{_QUOTES}]")
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
# Text with none of these characters and no "..." matches no pattern
# above, so normalization returns it as is.  The sentinels are in the set
# because text that already holds one is rewritten by the passes above.
_TRIGGER_RE = re.compile(f"[{_QUOTES}\u2026:;\ue000-\ue002]")


def normalize_punctuation(text: str) -> str:
    """Reduce punctuation to the supported inventory.

    Quotation marks are deleted (word-internal apostrophes stay), colons
    and semicolons become commas, ellipses (three or more dots, or the
    one-char form) become periods.  Idempotent: a second pass returns
    its input unchanged.
    """
    if "..." not in text and _TRIGGER_RE.search(text) is None:
        return text
    # Each pass runs only on text holding a character its pattern needs,
    # tested on the text as the passes before left it.
    if _QUOTE_RE.search(text) is not None:
        text = _CONTRACTION_RE.sub(_INS_APOSTROPHE, text)
        text = _QUOTE_RE.sub("", text)
    if "\u2026" in text or "..." in text:
        text = _ELLIPSIS_RE.sub(_INS_PERIOD, text)
    if ":" in text or ";" in text:
        text = _COLON_SEMI_RE.sub(_INS_COMMA, text)
    if _INS_PERIOD in text:
        text = _PERIOD_RUN_RE.sub(".", text)
    if _INS_COMMA in text:
        text = _COMMA_RUN_RE.sub(",", text)
    return text.replace(_INS_APOSTROPHE, "'")


# --- text <-> labels -------------------------------------------------------


def _split_marks(word: str) -> tuple[str, str, str]:
    """Strip at most one leading and one trailing supported mark ("" if none)."""
    lead = ""
    trail = ""
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
    none = PunctClass.NONE
    for word in words:
        if word[0] not in _BOUNDARY_REJECTS:
            if word[-1] not in _BOUNDARY_REJECTS:
                # No mark to strip and nothing to refuse: _split_marks and
                # the checks below would keep the word whole as a NONE token.
                tokens.append(word)
                labels.append(none)
                continue
            label = _CLOSE_ONLY.get(word[-1])
            if label is not None and word[-2] not in _BOUNDARY_REJECTS:
                # One trailing mark on a word with clean edges under it: the
                # checks below would pass, and the mark alone names the label.
                tokens.append(word[:-1])
                labels.append(label)
                continue
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
        cap_next = capitalize and label in _TERMINATING
        lead, trail = _MARKS[label]
        parts.append(lead + token + trail)
    return " ".join(parts)


def as_labeled(
    records: Sequence[Utterance], default_source: str | None = None
) -> list[LabeledUtterance]:
    """Raw records normalized and parsed, a missing source set to
    default_source; labeled records pass through.  Raw text that
    normalizes to nothing or that extraction refuses is a MalformedRecord
    at its 1-based position."""
    out = []
    for position, rec in enumerate(records, start=1):
        if isinstance(rec, LabeledUtterance):
            out.append(rec)
            continue
        text = normalize_punctuation(rec.text)
        source = rec.source if rec.source is not None else default_source
        try:
            out.append(extract_labels(text, source=source, lang=rec.lang))
        except ValueError:
            raise MalformedRecord(position, "text has no tokens after normalization") from None
        except (UnsupportedPunctuation, ConflictingMarks) as exc:
            raise MalformedRecord(position, str(exc)) from None
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

# The quoter JSONEncoder(ensure_ascii=False) itself uses for a string, and
# each label as its quoted name: jsonl_line builds a line from these alone.
_quote = json.encoder.encode_basestring
_QUOTED_LABEL = {label: _quote(label.name) for label in PunctClass}
# One decoder for every line: json.loads adds two wrapper calls and two
# whitespace matches a stripped line does not need.
_raw_decode = json.JSONDecoder().raw_decode


def jsonl_line(rec: Utterance) -> str:
    """rec as one compact JSON object, keys in fixed order, and a newline."""
    if isinstance(rec, RawUtterance):
        line = '{"text":' + _quote(rec.text)
    else:
        line = (
            '{"tokens":['
            + ",".join(map(_quote, rec.tokens))
            + '],"labels":['
            + ",".join(map(_QUOTED_LABEL.__getitem__, rec.labels))
            + "]"
        )
    if rec.source is not None:
        line += ',"source":' + _quote(rec.source)
    if rec.lang is not None:
        line += ',"lang":' + _quote(rec.lang)
    return line + "}\n"


def _record_from_dict(obj: object, line_number: int) -> Utterance:
    if not isinstance(obj, dict):
        raise MalformedRecord(line_number, "record is not a JSON object")
    source = obj.get("source")
    if source is not None and not isinstance(source, str):
        raise MalformedRecord(line_number, "source is not a string")
    lang = obj.get("lang")
    if lang is not None and not isinstance(lang, str):
        raise MalformedRecord(line_number, "lang is not a string")
    try:
        if "text" in obj:
            if not isinstance(obj["text"], str):
                raise ValueError("text is not a string")
            return RawUtterance(obj["text"], source=source, lang=lang)
        if "tokens" in obj and "labels" in obj:
            for field in ("tokens", "labels"):
                value = obj[field]
                if not isinstance(value, list) or not all(
                    map(isinstance, value, repeat(str))
                ):
                    raise ValueError(f"{field} is not a list of strings")
            return LabeledUtterance(
                tuple(obj["tokens"]), tuple(obj["labels"]), source=source, lang=lang
            )
    except (ValueError, TypeError) as exc:
        raise MalformedRecord(line_number, str(exc)) from exc
    raise MalformedRecord(line_number, "record has neither text nor tokens+labels")


def _encodable(rec: Utterance) -> bool:
    """False when a string of rec holds a lone surrogate (a JSON escape
    such as \\ud800 decodes to one), which no writer can encode."""
    strings = [rec.text] if isinstance(rec, RawUtterance) else list(rec.tokens)
    strings += (rec.source or "", rec.lang or "")
    try:
        "".join(strings).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_bytes(path: str | Path) -> bytes:
    """The bytes of the file at path; an OSError is raised as IoFailure."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def read_jsonl(path: str | Path) -> list[Utterance]:
    """Read a corpus file, one JSON record per line (see jsonl_records)."""
    return jsonl_records(read_bytes(path))


def read_corpus(
    path: str | Path, shape: Callable[[list], _Shaped] = list,
    data: bytes | None = None, bounds: tuple[int, int] | None = None,
) -> _Shaped:
    """shape(records) for the corpus file at path, whose bytes are data
    (read from path when None): a .jsonl file holds one JSON record per
    line (see jsonl_records), any other file one raw utterance per
    non-blank line (see _text_lines).  bounds, a (start, stop) range of
    data from a line start, reads only its lines, numbered from its start.
    No records is EmptyCorpus; a MalformedRecord from shape, which numbers
    records from 1, names its record's line."""
    path = Path(path)
    data = read_bytes(path) if data is None else data
    start, stop = bounds or (0, len(data))
    if path.suffix == ".jsonl":
        records = jsonl_records(data[start:stop])
        lines: Sequence[int] = range(1, len(records) + 1)
    else:
        numbered = _text_lines(data[start:stop], start == 0)
        lines = [n for n, _ in numbered]
        records = [RawUtterance(text) for _, text in numbered]
    if not records:
        raise EmptyCorpus(f"{path} holds no utterances")
    try:
        return shape(records)
    except MalformedRecord as exc:
        # Blank plain-text lines are not records: map a position to its line.
        raise MalformedRecord(lines[exc.line_number - 1], exc.reason) from None


def _text_lines(data: bytes, bom: bool) -> list[tuple[int, str]]:
    """The non-blank lines of a plain-text file with their 1-based numbers.

    Lines end at "\n" only, and one "\r" before it is dropped.  Other
    Unicode line breaks (U+2028, U+0085, U+001C-U+001E) stay inside the
    line as whitespace between tokens, so line numbers agree with the
    count of "\n" that names a non-UTF-8 line.  With bom, a leading byte
    order mark is dropped, after decoding, so that count still runs over
    the file's own bytes.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedRecord(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    if bom:
        text = text.removeprefix("\ufeff")
    return [
        (n, line.removesuffix("\r"))
        for n, line in enumerate(text.split("\n"), start=1)
        if line.strip()
    ]


def jsonl_records(data: bytes) -> list[Utterance]:
    """The records of JSONL bytes, one per line, numbered from 1; a final
    newline ends the last line.

    Raw records carry "text"; labeled records carry "tokens" and
    "labels".  A file may hold either shape but not a mixture.  Lines are
    decoded one at a time so a non-UTF-8 byte names its line, and so does
    a \\u escape that leaves a lone surrogate in a record's strings.
    """
    lines = data.split(b"\n")
    if not lines[-1]:
        lines.pop()
    records: list[Utterance] = []
    for line_number, raw in enumerate(lines, start=1):
        try:
            stripped = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise MalformedRecord(line_number, "not UTF-8 text") from None
        if not stripped:
            raise MalformedRecord(line_number, "blank line")
        try:
            obj, end = _raw_decode(stripped)
            if end != len(stripped):
                raise ValueError
        except (ValueError, RecursionError):
            # json.loads names what is wrong, a BOM and extra data too.
            try:
                obj = json.loads(stripped)
            except (ValueError, RecursionError) as exc:
                raise MalformedRecord(line_number, f"bad JSON: {exc}") from exc
        record = _record_from_dict(obj, line_number)
        if b"\\u" in raw and not _encodable(record):
            raise MalformedRecord(line_number, "record holds a lone surrogate")
        if records and type(record) is not type(records[0]):
            raise MalformedRecord(line_number, "file mixes raw and labeled records")
        records.append(record)
    return records


def write_jsonl(records: Iterable[Utterance], path: str | Path) -> None:
    """Write records as canonical JSONL: fixed key order, UTF-8, no ASCII
    escaping, compact separators, the bytes json.dumps would write.
    Byte-identical for identical input, and atomic (see
    write_lines_atomic).  A source or lang that is neither None nor a str
    raises TypeError and leaves path as it was."""
    write_lines_atomic(path, map(jsonl_line, records))


def write_lines_atomic(path: str | Path, lines: Iterable[str]) -> None:
    """Stream lines (each carrying its own newline) as UTF-8 to path.

    A missing or regular target in a writable directory is written to a
    temporary file beside it and renamed into place: a reader sees the
    old file or the whole new one, and a failed write leaves the old file
    and no temporary file behind.  Any other target (a symlink, a device,
    a FIFO, a file in a read-only directory) is written in place, since
    renaming onto it would replace the link or node, or cannot be done.
    An OSError is raised as IoFailure.  Inside a writes_together block
    the rename waits for the end of the block."""
    path = Path(path)
    target = path.with_name(f".{path.name}.{os.getpid()}.tmp") if _replaceable(path) else path
    try:
        with open(target, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except BaseException as exc:
        if target is not path:
            with suppress(OSError):
                os.unlink(target)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise
    if target is not path:
        with writes_together() as renames:
            renames[path] = target


# Target -> its temporary file, for the renames of the open writes_together block.
_held_renames: ContextVar[dict[Path, Path] | None] = ContextVar("_held_renames", default=None)


@contextmanager
def writes_together() -> Iterator[dict[Path, Path]]:
    """Hold back write_lines_atomic's renames until the block ends, then
    make them all; if it raises, make none and remove the temporary files,
    so each missing or regular target stays as it was.  Blocks nest: an
    inner one yields the outer one's renames, target -> temporary file."""
    renames = _held_renames.get()
    if renames is not None:
        yield renames
        return
    renames = {}
    token = _held_renames.set(renames)
    try:
        yield renames
        for path, temporary in renames.items():
            try:
                os.replace(temporary, path)
            except OSError as exc:
                raise IoFailure(f"cannot write {path}: {exc}") from exc
    finally:
        _held_renames.reset(token)
        for temporary in renames.values():
            with suppress(OSError):
                os.unlink(temporary)  # gone already once renamed


def read_json(path: str | Path, error: type[PunctError], what: str) -> object:
    """The JSON document in the UTF-8 file at path.  A file that cannot be
    read or decoded, or that is not JSON, raises error naming what it is."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers a byte that is not UTF-8 and JSON that is not valid.
        raise error(f"cannot read {what} {path}: {exc}") from exc


def write_json(obj: object, path: str | Path, indent: int | None = None) -> None:
    """obj as key-sorted JSON, UTF-8 without ASCII escaping, and a final
    newline, written atomically (see write_lines_atomic)."""
    text = json.dumps(obj, ensure_ascii=False, sort_keys=True, indent=indent)
    write_lines_atomic(path, [text, "\n"])


def _replaceable(path: Path) -> bool:
    """True when renaming a new file onto path replaces only a regular
    file (or nothing) and the directory lets us create one beside it."""
    try:
        if not stat.S_ISREG(os.lstat(path).st_mode):
            return False
    except FileNotFoundError:
        pass
    except OSError:
        return False
    return os.access(path.parent, os.W_OK | os.X_OK)


def terminal_count(u: LabeledUtterance) -> int:
    """Number of sentence-ending labels in the utterance."""
    return sum(map(_TERMINATING.__contains__, u.labels))


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
