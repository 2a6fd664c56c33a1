"""Corpus model: normalization, label extraction, rendering, JSONL IO."""

import os
import random
import stat
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
    write_lines_atomic,
)
from espunct.errors import (
    ConflictingMarks,
    IoFailure,
    MalformedRecord,
    UnsupportedPunctuation,
)

from generators import random_labeled_utterance
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


def test_labeled_utterance_rejects_a_bare_string():
    # A str is a sequence of characters; it used to become one token each.
    with pytest.raises(ValueError, match="tokens is a string"):
        LabeledUtterance("hola", ["NONE"] * 4)
    with pytest.raises(ValueError, match="labels is a string"):
        LabeledUtterance(("hola",), "NONE")
    with pytest.raises(TypeError, match="is not a string"):
        LabeledUtterance(("hola", ["ab"]), ("NONE", "NONE"))


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


@pytest.mark.parametrize(
    "data, line, reason",
    [
        (b'{"text": "hola"} x\n', 1, "bad JSON: Extra data: line 1 column 18 (char 17)"),
        (
            b'{"text": "a"}\n{"text": "hola"}{"text": "b"}\n',
            2,
            "bad JSON: Extra data: line 1 column 17 (char 16)",
        ),
        (
            b'\xef\xbb\xbf{"text": "hola"}\n',
            1,
            "bad JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
            "line 1 column 1 (char 0)",
        ),
        (
            b"[" * 200_000 + b"\n",
            1,
            "bad JSON: maximum recursion depth exceeded while decoding "
            "a JSON array from a unicode string",
        ),
        (b'{"text": "a"}\n["text"]\n', 2, "record is not a JSON object"),
        (b'{"text": "a"}\n"text"\n', 2, "record is not a JSON object"),
        (
            b'{"text": "a"}\r\nnot json\r\n',
            2,
            "bad JSON: Expecting value: line 1 column 1 (char 0)",
        ),
    ],
    ids=["extra-data", "second-object", "bom", "deep-nesting", "array", "string", "crlf"],
)
def test_jsonl_read_messages(tmp_path, data, line, reason):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(data)
    with pytest.raises(MalformedRecord) as err:
        read_jsonl(path)
    assert (err.value.line_number, err.value.reason) == (line, reason)


def test_jsonl_reads_crlf_line_endings(tmp_path):
    path = tmp_path / "crlf.jsonl"
    path.write_bytes(
        b'{"tokens":["hola"],"labels":["PERIOD"],"lang":"es"}\r\n'
        b'{"tokens":["bien"],"labels":["NONE"]}\r\n'
    )
    assert read_jsonl(path) == [lu("hola", "P", lang="es"), lu("bien", "N")]


def test_write_jsonl_refuses_a_tag_that_is_not_a_string(tmp_path):
    # Such a line would not read back, so nothing is written.
    path = tmp_path / "out.jsonl"
    write_jsonl([RawUtterance("hola")], path)
    before = path.read_bytes()
    for rec in (RawUtterance("hola", source=3), lu("hola", "P", lang=b"es")):
        with pytest.raises(TypeError):
            write_jsonl([rec], path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


def test_failed_write_keeps_the_old_file_and_leaves_nothing_behind(tmp_path):
    path = tmp_path / "corpus.jsonl"
    old = [lu("hola", "P")]
    write_jsonl(old, path)
    before = path.read_bytes()

    def records_then_disk_full():
        yield lu("bien", "P")
        yield lu("adiós", "P")
        raise OSError(28, "No space left on device")

    with pytest.raises(IoFailure, match="No space left"):
        write_jsonl(records_then_disk_full(), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    def lines_then_bug():
        yield "a\n"
        raise ValueError("not a line")

    with pytest.raises(ValueError, match="not a line"):
        write_lines_atomic(path, lines_then_bug())
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]


def test_atomic_write_onto_a_directory_fails_cleanly(tmp_path):
    (tmp_path / "taken").mkdir()
    with pytest.raises(IoFailure):
        write_lines_atomic(tmp_path / "taken", ["a\n"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_atomic_write_replaces_the_whole_file(tmp_path):
    path = tmp_path / "out.tsv"
    write_lines_atomic(path, ["a\n", "b\n", "c\n"])
    write_lines_atomic(path, ["z\n"])
    assert path.read_text(encoding="utf-8") == "z\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.tsv"]


def test_write_goes_through_a_symlink(tmp_path):
    real = tmp_path / "real.jsonl"
    real.write_text("old\n", encoding="utf-8")
    link = tmp_path / "link.jsonl"
    link.symlink_to(real)
    write_lines_atomic(link, ["new\n"])
    assert link.is_symlink()
    assert real.read_text(encoding="utf-8") == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "real.jsonl"]


def test_write_to_a_fifo_keeps_the_fifo(tmp_path):
    fifo = tmp_path / "out"
    os.mkfifo(fifo)
    # A non-blocking reader lets the writer open the FIFO without a thread.
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write_lines_atomic(fifo, ["a\n", "b\n"])
        assert os.read(reader, 100) == b"a\nb\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_write_in_place_when_the_directory_is_read_only(tmp_path, monkeypatch):
    path = tmp_path / "out.tsv"
    path.write_text("old\n", encoding="utf-8")
    inode = path.stat().st_ino
    write_lines_atomic(path, ["renamed\n"])
    assert path.stat().st_ino != inode

    inode = path.stat().st_ino
    monkeypatch.setattr("espunct.corpus.os.access", lambda *args: False)
    write_lines_atomic(path, ["in place\n"])
    assert path.stat().st_ino == inode
    assert path.read_text(encoding="utf-8") == "in place\n"


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
