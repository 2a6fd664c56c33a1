"""Property tests for the corpus record validator, the JSONL codec and
punctuation normalization.

The validator checks all tokens at once and walks them one by one only
on failure; these tests hold it to the plain per-token loop below.  The
codec builds each line from json's string quoter and a label table;
these tests hold it to per-record json.dumps.  Normalization returns text that no rewrite can
touch as it is; these tests hold it to the full regex chain.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from espunct import corpus
from espunct.corpus import (
    REJECTED_BOUNDARY,
    SUPPORTED_MARKS,
    LabeledUtterance,
    PunctClass,
    RawUtterance,
    normalize_punctuation,
    read_jsonl,
    write_jsonl,
)
from espunct.errors import MalformedRecord

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_validate(tokens, labels):
    """The validator as a per-token loop: normalized (tokens, labels), or
    the exception LabeledUtterance must raise."""
    for name, value in (("tokens", tokens), ("labels", labels)):
        if isinstance(value, str):
            raise ValueError(f"{name} is a string, not a sequence")
    tokens = tuple(tokens)
    labels = tuple(PunctClass(x) for x in labels)
    if not tokens:
        raise ValueError("utterance has no tokens")
    if len(tokens) != len(labels):
        raise ValueError(f"{len(tokens)} tokens but {len(labels)} labels")
    for tok in tokens:
        if tok and not isinstance(tok, str):
            raise TypeError(f"token {tok!r} is not a string")
        if not tok or any(ch.isspace() for ch in tok):
            raise ValueError(f"bad token {tok!r}")
        for ch in (tok[0], tok[-1]):
            if ch in SUPPORTED_MARKS or ch in REJECTED_BOUNDARY:
                raise ValueError(f"token {tok!r} has a boundary punctuation mark")
    return tokens, labels


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", (type(exc), str(exc))


_TRICKY = ["", " ", "\t", "\u00a0", "\u2028", "\x1c", "\x85"]
_CHARS = list("abñ") + _TRICKY[1:] + list(SUPPORTED_MARKS) + sorted(REJECTED_BOUNDARY)
_word = st.text(alphabet="abñ", min_size=1, max_size=3)
_edge = st.sampled_from(list(SUPPORTED_MARKS) + sorted(REJECTED_BOUNDARY))
_token = st.one_of(
    _word,
    st.text(alphabet=st.sampled_from(_CHARS), max_size=4),
    st.sampled_from(_TRICKY),
    st.builds(str.__add__, _word, _edge),
    st.builds(str.__add__, _edge, _word),
    st.sampled_from([None, 0, 7, ["ab"]]),
)
_label = st.sampled_from(
    list(PunctClass) + [c.value for c in PunctClass] + ["comma", 3, None, ["NONE"]]
)


@st.composite
def _fields(draw):
    n = draw(st.integers(0, 5))
    m = draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 0)]))
    tokens = draw(st.lists(_token, min_size=n, max_size=n))
    labels = draw(st.lists(_label, min_size=m, max_size=m))
    container = draw(st.sampled_from([list, tuple, iter]))
    return container, tokens, labels


@SETTINGS
@given(_fields())
def test_validator_matches_per_token_loop(fields):
    # Each side gets fresh containers, so an iterator is read once.
    container, tokens, labels = fields
    expected = _outcome(reference_validate, container(tokens), container(labels))
    got = _outcome(LabeledUtterance, container(tokens), container(labels))
    if expected[0] == "ok":
        assert got[0] == "ok", got
        u = got[1]
        assert (u.tokens, u.labels) == expected[1]
        assert all(type(x) is PunctClass for x in u.labels)
    else:
        assert got == expected


_LETTER = st.sampled_from(list("aqéñü中"))
_INTERIOR = st.text(alphabet=list("aé中😀\"\\\x01'-,.?"), max_size=3)
_valid_token = st.builds(lambda a, mid, b: a + mid + b, _LETTER, _INTERIOR, _LETTER) | _LETTER
_tag = st.none() | st.text(max_size=4)


@st.composite
def _labeled(draw):
    n = draw(st.integers(1, 5))
    return LabeledUtterance(
        draw(st.lists(_valid_token, min_size=n, max_size=n)),
        draw(st.lists(st.sampled_from(list(PunctClass)), min_size=n, max_size=n)),
        source=draw(_tag),
        lang=draw(_tag),
    )


_raw = st.builds(
    RawUtterance, st.text(min_size=1).filter(str.strip), source=_tag, lang=_tag
)


def _reference_line(rec) -> str:
    if isinstance(rec, RawUtterance):
        obj = {"text": rec.text}
    else:
        obj = {"tokens": list(rec.tokens), "labels": [x.name for x in rec.labels]}
    if rec.source is not None:
        obj["source"] = rec.source
    if rec.lang is not None:
        obj["lang"] = rec.lang
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":")) + "\n"


@SETTINGS
@given(st.lists(_labeled(), max_size=4) | st.lists(_raw, max_size=4))
def test_jsonl_codec_matches_json_dumps_and_round_trips(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("codec") / "c.jsonl"
    write_jsonl(records, path)
    expected = "".join(map(_reference_line, records))
    assert path.read_bytes() == expected.encode("utf-8")
    assert read_jsonl(path) == records


def test_unknown_label_message_is_unchanged(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"tokens": ["a"], "labels": ["NOPE"]}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        read_jsonl(path)
    assert str(err.value) == "line 1: 'NOPE' is not a valid PunctClass"


def full_normalization_chain(text):
    """Every normalization pass, run whether or not it can match."""
    text = corpus._CONTRACTION_RE.sub(corpus._INS_APOSTROPHE, text)
    text = corpus._QUOTE_RE.sub("", text)
    text = corpus._ELLIPSIS_RE.sub(corpus._INS_PERIOD, text)
    text = corpus._COLON_SEMI_RE.sub(corpus._INS_COMMA, text)
    text = corpus._PERIOD_RUN_RE.sub(".", text)
    text = corpus._COMMA_RUN_RE.sub(",", text)
    return text.replace(corpus._INS_APOSTROPHE, "'")


_TRIGGERS = list("\"'\u00ab\u00bb\u201c\u201d\u2018\u2019\u2026:;")
_SENTINELS = ["\ue000", "\ue001", "\ue002"]
_PIECES = _TRIGGERS + _SENTINELS + [".", "..", "...", "....", ",", ",,"] + list("añZ ") + ["\u2028"]


@SETTINGS
@given(st.lists(st.sampled_from(_PIECES), max_size=8).map("".join))
def test_normalize_matches_full_regex_chain(text):
    assert normalize_punctuation(text) == full_normalization_chain(text)
