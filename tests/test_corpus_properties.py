"""Property tests for the corpus record validator, the JSONL codec and
punctuation normalization.

The validator checks all tokens at once and walks them one by one only
on failure; these tests hold it to the plain per-token loop below.  The
codec builds each line from json's string quoter and a label table;
these tests hold it to per-record json.dumps.  Normalization returns text that no rewrite can
touch as it is, and runs each rewrite only on text holding a character
that rewrite needs; these tests hold it to the full regex chain.
Extraction keeps a word with no mark at either edge whole, as a NONE
token, and takes one trailing mark off a word whose edges under it are
clean; a case list and drawn text hold it to the loop that splits and
checks every word.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from espunct.corpus import (
    REJECTED_BOUNDARY,
    SUPPORTED_MARKS,
    LabeledUtterance,
    PunctClass,
    RawUtterance,
    extract_labels,
    normalize_punctuation,
    read_jsonl,
    write_jsonl,
)
from espunct.errors import ConflictingMarks, MalformedRecord, UnsupportedPunctuation

from helpers import full_normalization_chain, reference_extract_labels

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


_TRIGGERS = list("\"'\u00ab\u00bb\u201c\u201d\u2018\u2019\u2026:;")
_SENTINELS = ["\ue000", "\ue001", "\ue002"]
_PIECES = (
    _TRIGGERS + _SENTINELS + [".", "..", "...", "....", ",", ",,"] + list("añZ ") + ["\u2028"]
    + ["a'b", "l\u2019h", "\u2026."]
)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join))
def test_normalize_matches_full_regex_chain(text):
    assert normalize_punctuation(text) == full_normalization_chain(text)


# Every mark extraction treats specially, and the plain hyphen it keeps.
_EDGE_MARKS = sorted(set(SUPPORTED_MARKS) | REJECTED_BOUNDARY | {"-"})


def _extract_cases():
    for mark in _EDGE_MARKS:
        for word in (
            mark + "hola", "hola" + mark, mark, mark + mark,
            mark + "hola" + mark, "ho" + mark + "la",
            "\u00bfhola" + mark, mark + "hola?", "hola" + mark + ".",
        ):
            yield f"bien {word} que"
            yield word
    yield "bien que tal"
    yield "\u00bfqu\u00e9 tal? \u00a1vale! s\u00ed, bueno."


def test_extract_matches_per_word_loop():
    cases = list(_extract_cases())
    mismatched = [
        text
        for text in cases
        if _outcome(extract_labels, text) != _outcome(reference_extract_labels, text)
    ]
    assert len(cases) > 400 and mismatched == []


# Words of letters and every mark extraction treats specially, so each of
# its fast paths and each refusal is drawn.
_extract_word = st.lists(
    st.sampled_from(["a", "\u00f1", "1"] + _EDGE_MARKS), min_size=1, max_size=4
).map("".join)


@SETTINGS
@given(st.lists(_extract_word, min_size=1, max_size=4).map(" ".join))
def test_extract_matches_per_word_loop_on_drawn_text(text):
    assert _outcome(extract_labels, text) == _outcome(reference_extract_labels, text)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("tal?!", ("raised", (ConflictingMarks, "token 'tal?!' stacks trailing marks"))),
        ("?", ("raised", (UnsupportedPunctuation, "token '?' has no word to attach punctuation to"))),
        ("\u00bfqu\u00e9?", ("ok", LabeledUtterance(("qu\u00e9",), (PunctClass.FULL_QUESTION,)))),
        ("vale, tal.", ("ok", LabeledUtterance(("vale", "tal"), (PunctClass.COMMA, PunctClass.PERIOD)))),
    ],
)
def test_extract_on_words_near_the_trailing_mark_fast_path(text, outcome):
    assert _outcome(extract_labels, text) == _outcome(reference_extract_labels, text) == outcome
