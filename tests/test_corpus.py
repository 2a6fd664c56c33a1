"""Corpus model: normalization, label extraction, rendering, JSONL IO."""

import random
from pathlib import Path

import pytest

from espunct.corpus import (
    LabeledUtterance,
    PunctClass,
    RawUtterance,
    as_labeled,
    as_text,
    chunk_start,
    extract_labels,
    normalize_punctuation,
    read_jsonl,
    render,
    terminal_count,
    write_jsonl,
)
from espunct.errors import (
    ConflictingMarks,
    IoFailure,
    MalformedRecord,
    UnsupportedPunctuation,
)
from espunct.synthetic import random_labeled_utterance

from helpers import labels, lu

DATA = Path(__file__).parent / "data"


def golden_cases():
    for line in (DATA / "normalize_golden.tsv").read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            raw, expected = line.split("\t")
            yield raw, expected


@pytest.mark.parametrize("raw,expected", list(golden_cases()))
def test_normalize_golden(raw, expected):
    assert normalize_punctuation(raw) == expected


_NOISY_ALPHABET = 'ab é ".«»\'’“”‘:;…!?¿¡,.-()—'


def _noisy_string(rng):
    return "".join(rng.choice(_NOISY_ALPHABET) for _ in range(rng.randint(0, 30)))


def test_normalize_idempotent_on_random_strings():
    rng = random.Random(7)
    for _ in range(2000):
        s = _noisy_string(rng)
        once = normalize_punctuation(s)
        assert normalize_punctuation(once) == once


def test_normalize_introduces_only_comma_period_apostrophe():
    rng = random.Random(8)
    for _ in range(2000):
        s = _noisy_string(rng)
        introduced = set(normalize_punctuation(s)) - set(s)
        assert introduced <= {",", ".", "'"}


def test_normalize_keeps_authored_runs_without_insertions():
    assert normalize_punctuation("a.. b,, c") == "a.. b,, c"


def test_label_properties():
    assert PunctClass.OPEN_QUESTION.is_opening
    assert not PunctClass.OPEN_QUESTION.is_terminating
    assert PunctClass.CLOSE_EXCLAMATION.is_closing
    assert PunctClass.CLOSE_EXCLAMATION.is_terminating
    assert PunctClass.FULL_QUESTION.is_full
    assert PunctClass.FULL_QUESTION.is_terminating
    assert PunctClass.PERIOD.is_terminating
    assert not PunctClass.COMMA.is_terminating
    assert PunctClass.NONE.kind is None
    assert PunctClass.OPEN_QUESTION.kind is PunctClass.CLOSE_QUESTION.kind
    assert list(PunctClass)[0] is PunctClass.NONE


def test_extract_labels_examples():
    u = extract_labels("¿cómo estás? bien, gracias.")
    assert u.tokens == ("cómo", "estás", "bien", "gracias")
    assert u.labels == labels("OQ CQ C P")

    u = extract_labels("¡qué! ya")
    assert u.tokens == ("qué", "ya")
    assert u.labels == labels("FE N")

    u = extract_labels("son 3,5 euros.")
    assert u.tokens == ("son", "3,5", "euros")
    assert u.labels == labels("N N P")


def test_extract_labels_rejections():
    with pytest.raises(UnsupportedPunctuation):
        extract_labels("hola ¿?")
    with pytest.raises(UnsupportedPunctuation):
        extract_labels("(hola)")
    with pytest.raises(UnsupportedPunctuation):
        extract_labels("«hola»")
    with pytest.raises(UnsupportedPunctuation):
        extract_labels("¡¿hola")
    with pytest.raises(UnsupportedPunctuation):
        extract_labels("hola¿")
    with pytest.raises(ConflictingMarks):
        extract_labels("¿hola!")
    with pytest.raises(ConflictingMarks):
        extract_labels("hola?!")
    with pytest.raises(ConflictingMarks):
        extract_labels("hola??")
    with pytest.raises(ValueError):
        extract_labels("   ")


def test_extract_keeps_boundary_hyphen():
    u = extract_labels("dije que- bueno")
    assert u.tokens == ("dije", "que-", "bueno")
    assert u.labels == labels("N N N")


def test_render_examples():
    u = lu("cómo estás bien gracias", "OQ CQ C P")
    assert render(u) == "¿cómo estás? bien, gracias."
    assert render(u, capitalize=True) == "¿Cómo estás? Bien, gracias."


def test_render_capitalizes_only_first_and_after_terminators():
    u = lu("en qué le puedo ayudar", "OQ N N N CQ")
    assert render(u, capitalize=True) == "¿En qué le puedo ayudar?"
    u = lu("vale lo hago ya", "C N P FE")
    assert render(u, capitalize=True) == "Vale, lo hago. ¡Ya!"


def test_round_trip_random_utterances():
    rng = random.Random(11)
    for _ in range(3000):
        u = random_labeled_utterance(rng)
        assert extract_labels(render(u)) == u


def test_round_trip_from_text_side():
    rng = random.Random(12)
    for _ in range(500):
        text = render(random_labeled_utterance(rng))
        sloppy = "  " + text.replace(" ", "   ") + " "
        assert render(extract_labels(sloppy)) == " ".join(sloppy.split())


def test_mark_counts_match_labels():
    rng = random.Random(13)
    marks = {
        "¿": (PunctClass.OPEN_QUESTION, PunctClass.FULL_QUESTION),
        "?": (PunctClass.CLOSE_QUESTION, PunctClass.FULL_QUESTION),
        "¡": (PunctClass.OPEN_EXCLAMATION, PunctClass.FULL_EXCLAMATION),
        "!": (PunctClass.CLOSE_EXCLAMATION, PunctClass.FULL_EXCLAMATION),
    }
    for _ in range(500):
        u = random_labeled_utterance(rng)
        text = render(u)
        interior = {m: sum(t.count(m) for t in u.tokens) for m in marks}
        for mark, owners in marks.items():
            expected = sum(1 for lab in u.labels if lab in owners)
            assert text.count(mark) == expected + interior[mark]


def test_labeled_utterance_validation():
    with pytest.raises(ValueError):
        LabeledUtterance((), ())
    with pytest.raises(ValueError):
        LabeledUtterance(("a",), (PunctClass.NONE, PunctClass.NONE))
    with pytest.raises(ValueError):
        LabeledUtterance(("a b",), (PunctClass.NONE,))
    with pytest.raises(ValueError):
        LabeledUtterance(("hola?",), (PunctClass.NONE,))
    with pytest.raises(ValueError):
        LabeledUtterance(("'hola",), (PunctClass.NONE,))
    with pytest.raises(ValueError):
        LabeledUtterance(("hola)",), (PunctClass.NONE,))
    u = LabeledUtterance(["d'oh"], ["COMMA"])
    assert u.labels == (PunctClass.COMMA,)
    assert len(u) == 1


def test_raw_utterance_rejects_blank_text():
    with pytest.raises(ValueError):
        RawUtterance("   ")


def test_jsonl_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    records = [
        lu("hola qué tal", "C OQ CQ", source="indomain", lang="es"),
        lu("bien", "P"),
    ]
    write_jsonl(records, path)
    assert read_jsonl(path) == records

    raw = [RawUtterance("¿qué tal?", source="pool"), RawUtterance("bien.")]
    raw_path = tmp_path / "raw.jsonl"
    write_jsonl(raw, raw_path)
    assert read_jsonl(raw_path) == raw


def test_jsonl_writes_are_byte_identical(tmp_path):
    records = [lu("hola qué", "C FQ", source="x", lang="es")]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(records, a)
    write_jsonl(records, b)
    assert a.read_bytes() == b.read_bytes()
    assert "é" in a.read_text(encoding="utf-8")


def test_jsonl_errors(tmp_path):
    path = tmp_path / "bad.jsonl"

    path.write_text('{"text": "hola"}\n\n{"text": "adiós"}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord) as err:
        read_jsonl(path)
    assert err.value.line_number == 2

    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_jsonl(path)

    path.write_text('{"text": "hola"}\n{"tokens": ["a"], "labels": ["NONE"]}\n',
                    encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_jsonl(path)

    path.write_text('{"tokens": "abc", "labels": ["NONE"]}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_jsonl(path)

    path.write_text('{"tokens": ["a"], "labels": ["NOPE"]}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_jsonl(path)

    path.write_text('{"text": "hola", "source": 3}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_jsonl(path)

    path.write_text('{"source": "x"}\n', encoding="utf-8")
    with pytest.raises(MalformedRecord):
        read_jsonl(path)

    with pytest.raises(IoFailure):
        read_jsonl(tmp_path / "missing.jsonl")
    with pytest.raises(IoFailure):
        write_jsonl([], tmp_path / "nosuchdir" / "out.jsonl")


def test_terminal_count():
    assert terminal_count(lu("a b c", "N N N")) == 0
    assert terminal_count(lu("a b c d", "C P N FQ")) == 2
    assert terminal_count(lu("a b", "OE CE")) == 1


def test_chunk_start():
    seq = labels("C N N P N")
    assert chunk_start(seq, 0) == 0
    assert chunk_start(seq, 1) == 1
    assert chunk_start(seq, 2) == 1
    assert chunk_start(seq, 3) == 1
    assert chunk_start(seq, 4) == 4
    assert chunk_start(labels("N N N"), 2) == 0
    with pytest.raises(IndexError):
        chunk_start(seq, 5)
    with pytest.raises(IndexError):
        chunk_start(seq, -1)


def test_as_labeled_fills_default_source_only_where_missing():
    records = [
        RawUtterance("¿sí?", lang="es"),
        RawUtterance("vale; ya", source="ldc"),
        lu("hola ya", "N P"),
    ]
    out = as_labeled(records, default_source="indomain")
    assert out[0] == lu("sí", "FQ", source="indomain", lang="es")
    assert out[1] == lu("vale ya", "C N", source="ldc")
    # labeled records pass through as they are
    assert out[2] is records[2]
    assert as_labeled(records[:1])[0].source is None


def test_as_labeled_rejects_text_that_normalizes_to_nothing():
    with pytest.raises(MalformedRecord, match="line 2"):
        as_labeled([RawUtterance("vale."), RawUtterance("\u00ab \u201c\u201d \u00bb")])


def test_as_text_renders_labeled_and_keeps_provenance():
    raw = RawUtterance("¿qué tal?", source="x")
    labeled = lu("qué tal", "OQ CQ", source="os", lang="es")
    out = as_text([raw, labeled])
    assert out[0] is raw
    assert out[1] == RawUtterance("¿qué tal?", source="os", lang="es")
