"""Property tests for the serving boundary.

handle_request_line must answer every line it can be given with a typed
error or a result, so that InternalError only ever means a bug in the
program.  And serving must see the tokens training saw: whenever a text
extracts, its tokens are the ones tokenize_for_restore gives.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from espunct.corpus import extract_labels, normalize_punctuation
from espunct.errors import PunctError
from espunct.pipeline import handle_request_line, tokenize_for_restore
from espunct.tagger import TrainConfig, train

from generators import rule_corpus

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)

_WORDS = ["hola", "qué", "tal", "vale", "sí", "n3", "d'água", "ÑU"]
# Marks around one word: mostly pairs that extract, some that conflict.
_MARKS = [
    ("", ""), ("", ""), ("", ","), ("", "."), ("", "?"), ("", "!"), ("¿", ""),
    ("¡", ""), ("¿", "?"), ("¡", "!"), ("", ":"), ("", ";"), ("", "..."),
    ("", "…"), ("«", "»"), ('"', '".'), ("“", "”?"), ("¿", "!"), ("", "?,"),
]
# Tokens of marks alone, quotes twice as often: quotes vanish, and the
# rest keep a text from extracting.
_ALONE = ['"', "«", "»", "“", '"', "«", "»", "“", ":", "...", "…", "—"]
_word = st.builds(
    lambda marks, word: marks[0] + word + marks[1],
    st.sampled_from(_MARKS),
    st.sampled_from(_WORDS),
)
_text = st.lists(
    st.one_of(_word, _word, _word, _word, st.sampled_from(_ALONE)), min_size=1, max_size=6
).map(" ".join)


def test_extracted_tokens_are_the_tokens_serving_sees():
    extracted = []

    @SETTINGS
    @given(_text)
    def check(text):
        try:
            utterance = extract_labels(normalize_punctuation(text))
        except (ValueError, PunctError):
            return
        extracted.append(text)
        assert list(utterance.tokens) == tokenize_for_restore(text)

    check()
    # A run in which nothing extracts would check nothing.
    assert len(extracted) >= 100


@pytest.fixture(scope="module")
def model():
    return train(rule_corpus(60, seed=4), TrainConfig(epochs=1, seed=0))


# JSON fragments, marks, quotes, escapes of lone surrogates, and a
# surrogateescape'd byte as serve_lines passes on a non-UTF-8 line.
_PIECES = [
    "{", "}", "[", "]", ":", ",", '"', '"id"', '"text"', '"a"', "null", "true",
    "1", "-0.5e3", "1e999", "NaN", "Infinity", "\\ud800", "\\udc00", "\\u00bf",
    '\\"', "\\n", " ", "hola", "¿", "?", "¡", "!", ".", "...", "…", "«", "»",
    "“", "'", "\udcff", "\x00", "\u2028",
]
_request = st.builds(
    lambda request_id, text: json.dumps({"id": request_id, "text": text}),
    st.one_of(st.text(max_size=3), st.just("\ud800")),
    st.one_of(_text, st.lists(st.sampled_from(_PIECES + ["\ud800"])).map("".join)),
)
_line = st.one_of(
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
    _request,
    st.integers(0, 200_000).map(lambda n: "[" * n),
    st.integers(1, 6_000).map(lambda n: "9" * n),
    st.text(max_size=20),
)


@SETTINGS
@given(line=_line)
def test_no_request_line_gets_an_internal_error(model, line):
    answer = json.loads(handle_request_line(model, line))
    assert answer.get("error") != "InternalError", answer
