"""Property tests for the corpus commands.

A drawn corpus file, plain text or JSONL, never ends in a traceback:
each run of normalize, extract or convert either succeeds silently or
exits 3 with one error line and no output file.  The same drawn files,
with a one-byte minimum chunk and three CPUs, give the bytes or the
failure of one process; hand-picked files pin the cases where
chunks could disagree with it: the earliest failure sitting in a later
chunk, a chunk starting on the raw/labeled switch, a fault on the last
line, line numbering across blank lines, a BOM and \\r\\n, empty files,
and a platform without fork.  A clean chunked run works no record
twice; a failing one works its whole file once more, in this process.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from espunct import cli
from espunct.cli import main

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# Each chunked example forks up to two workers twice over, so draw fewer.
CHUNKED_SETTINGS = settings(SETTINGS, max_examples=40)

_WORDS = ["hola", "que", "tal", "a", "1,5", "l'agua"]
_MARKS = ["\u00bf", "?", "\u00a1", "!", ",", "."]
_QUOTES = ['"', "'", "\u00ab", "\u00bb", "\u201c", "\u201d", "\u2018", "\u2019"]
_OTHER = [":", ";", "\u2026", "...", "(", ")", "[", "]", "{", "}", "\u2014", "\u2013", "-"]
_SPACES = [" ", " ", "\t", "\r", "\u0085", "\u2028", "\ufeff"]
_PIECES = _WORDS + _MARKS + _QUOTES + _OTHER + _SPACES

_line = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)
# In a JSONL text, a \ud800 escape decodes to a lone surrogate.
_record_text = st.lists(st.sampled_from(_PIECES + ["\ud800"]), max_size=8).map("".join)
# Labeled records: a bad token or label is refused at read, and an opening
# or full label is refused by convert.
_tokens = st.lists(st.sampled_from(_WORDS + ["?", "(a"]), min_size=1, max_size=3)
_label = st.sampled_from(
    ["NONE", "COMMA", "PERIOD", "CLOSE_QUESTION", "CLOSE_EXCLAMATION", "OPEN_QUESTION", "BOGUS"]
)


@st.composite
def _jsonl(draw) -> str:
    labeled = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        # Now and then the records switch kind, which the reader refuses.
        if draw(st.integers(0, 7)) == 0:
            labeled = not labeled
        if labeled:
            tokens = draw(_tokens)
            record = {"tokens": tokens, "labels": [draw(_label) for _ in tokens]}
        else:
            record = {"text": draw(_record_text)}
        lines.append(json.dumps(record, ensure_ascii=draw(st.booleans())))
    return "".join(line + "\n" for line in lines)


_CORPORA = {
    ".txt": st.lists(_line, max_size=4).map("\n".join),
    ".jsonl": _jsonl(),
}


def _write(path: Path, content: str) -> None:
    # A lone surrogate outside a JSON escape is written as the bytes no
    # UTF-8 decoder accepts.
    path.write_bytes(content.encode("utf-8", "surrogatepass"))


@pytest.mark.parametrize("suffix", sorted(_CORPORA))
@pytest.mark.parametrize("command", ["normalize", "extract", "convert"])
def test_no_drawn_corpus_file_ends_in_a_traceback(command, suffix):
    @SETTINGS
    @given(_CORPORA[suffix])
    def check(content):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "in" + suffix), Path(tmp, "out.jsonl")
            _write(path, content)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--in", str(path), "--out", str(out)])
            if code == 0:
                assert err.getvalue() == "" and out.is_file()
            else:
                assert code == 3
                assert err.getvalue().startswith("error: ")
                assert err.getvalue().count("\n") == 1
                assert not out.exists()

    check()


def _outcome(command: str, path: Path, cpus: int) -> tuple:
    """(exit code, stderr, {output file name: bytes}) of one run of command
    on path with cpus CPUs; the output files are removed."""
    out, report = path.with_name("out.jsonl"), path.with_name("report.tsv")
    if command == "select":
        model = path.with_name("model.txt")
        model.write_text("hola que tal.\n\u00bfa qu\u00e9 hora?\n", encoding="utf-8")
        argv = ["select", "--model-corpus", str(model), "--pool", str(path), "--k", "1",
                "--out", str(out), "--report", str(report)]
    else:
        argv = [command, "--in", str(path), "--out", str(out)]
    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(os, "cpu_count", lambda: cpus)
        code = main(argv)
    files = {}
    for f in (out, report):
        if f.exists():
            files[f.name] = f.read_bytes()
            f.unlink()
    return code, err.getvalue(), files


@pytest.mark.parametrize("suffix", sorted(_CORPORA))
@pytest.mark.parametrize("command", ["normalize", "extract", "convert", "select"])
def test_chunked_runs_match_one_process(command, suffix, monkeypatch):
    monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", 1)

    @CHUNKED_SETTINGS
    @given(_CORPORA[suffix])
    def check(content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "in" + suffix)
            _write(path, content)
            one = _outcome(command, path, 1)
            assert _outcome(command, path, 3) == one
            code, err, files = one
            assert (code == 0) == (err == "") == bool(files)

    check()


_LABELED = '{"tokens":["hola"],"labels":["PERIOD"]}\n'
_LONG_RAW = '{"text":"bueno pues mire necesito ayuda con la factura de este mes."}\n'

# (command, suffix, content, the error line of one process or None)
_PINNED = {
    "read-error-in-a-later-chunk-beats-a-shape-error": (
        "extract", ".jsonl",
        '{"text": "tal?!"}\n{"text": "hola."}\n{"text": not json}\n',
        "error: line 3: bad JSON",
    ),
    "shape-error-in-a-later-chunk-beats-a-convert-error": (
        "convert", ".jsonl",
        '{"text": "\u00bfqu\u00e9?"}\n{"text": "vale."}\n{"text": "tal?!"}\n',
        "error: line 3: token 'tal?!' stacks trailing marks",
    ),
    "labeled-after-raw-on-a-chunk-start": (
        "extract", ".jsonl", _LONG_RAW + _LABELED,
        "error: line 2: file mixes raw and labeled records",
    ),
    "raw-after-labeled-on-a-chunk-start": (
        "normalize", ".jsonl", _LABELED * 4 + _LONG_RAW,
        "error: line 5: file mixes raw and labeled records",
    ),
    "fault-on-the-last-line": (
        "extract", ".jsonl",
        '{"text": "hola."}\n{"text": "vale."}\n{"text": "(risas)"}',
        "error: line 3: token '(risas)' keeps unnormalized punctuation '('",
    ),
    "plain-text-with-blank-lines-a-bom-and-crlf": (
        "extract", ".txt",
        "\ufeffhola que tal.\r\n\r\n   \r\nbien, gracias.\r\n\n\u00bfy t\u00fa?\r\n",
        None,
    ),
    "plain-text-fault-after-blank-lines": (
        "normalize", ".txt",
        "\ufeffhola que tal.\r\n\r\n   \r\nbien, gracias.\r\n\n\u00ab\u00bb\r\n",
        "error: line 6: text has no tokens after normalization",
    ),
    "plain-text-whose-first-chunk-is-blank": ("extract", ".txt", "\n\n\n\nhola.\n", None),
    "plain-text-with-a-bom-starting-a-later-chunk": (
        "extract", ".txt", "hola.\n\ufeffvale.\n", None,
    ),
    "plain-text-of-blank-lines": (
        "extract", ".txt", "\n \n\t\n\r\n\n\n", "holds no utterances",
    ),
    "empty-plain-text": ("normalize", ".txt", "", "holds no utterances"),
    "empty-jsonl": ("select", ".jsonl", "", "holds no utterances"),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_pinned_chunked_runs_match_one_process(case, tmp_path, monkeypatch):
    command, suffix, content, error = _PINNED[case]
    monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", 1)
    path = tmp_path / ("in" + suffix)
    _write(path, content)
    one = _outcome(command, path, 1)
    if content:
        # The file really is cut: into one chunk per line, or at least in two.
        with monkeypatch.context() as mp:
            mp.setattr(os, "cpu_count", lambda: 3)
            assert len(cli._chunks(path.read_bytes())) >= 2
    assert _outcome(command, path, 3) == one
    code, err, files = one
    if error is None:
        assert code == 0 and err == "" and files
    else:
        assert code == 3 and error in err and err.count("\n") == 1 and not files


def test_the_pinned_kind_switches_fall_on_a_chunk_start(monkeypatch):
    monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for case, switch in (
        ("labeled-after-raw-on-a-chunk-start", len(_LONG_RAW)),
        ("raw-after-labeled-on-a-chunk-start", 4 * len(_LABELED)),
    ):
        data = _PINNED[case][2].encode()
        assert switch in [start for start, _ in cli._chunks(data)], case


def test_without_fork_a_file_is_one_chunk(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", 1)
    path = tmp_path / "in.jsonl"
    _write(path, '{"text": "hola."}\n{"text": "vale, tal."}\n{"text": "\u00bfy t\u00fa?"}\n')
    one = _outcome("extract", path, 1)
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._chunks(path.read_bytes()) == [(0, path.stat().st_size)]
    assert _outcome("extract", path, 3) == one


def test_a_chunked_run_works_its_file_again_only_on_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    real = cli._work_chunk
    worked = []  # forked workers append to their own copies

    def spy(p, data, shape, finish, bounds):
        worked.append(bounds)
        return real(p, data, shape, finish, bounds)

    monkeypatch.setattr(cli, "_work_chunk", spy)
    path, out = tmp_path / "in.txt", tmp_path / "out.jsonl"
    # A clean file: this process works its first chunk alone.  A file
    # whose last line fails: its first chunk, then the whole file once.
    for content, code in (("hola.\nvale.\nbien.\n", 0), ("hola.\nvale.\n\u00ab\u00bb\n", 3)):
        _write(path, content)
        data = path.read_bytes()
        chunks = cli._chunks(data)
        assert len(chunks) == 3
        worked.clear()
        assert main(["extract", "--in", str(path), "--out", str(out)]) == code
        assert worked == [chunks[0]] + ([(0, len(data))] if code else [])
    # A failing file in one chunk: that chunk is the whole file, worked once.
    monkeypatch.setattr(cli, "_MIN_CHUNK_BYTES", len(data) + 1)
    assert cli._chunks(data) == [(0, len(data))]
    worked.clear()
    assert main(["extract", "--in", str(path), "--out", str(out)]) == 3
    assert worked == [(0, len(data))]
