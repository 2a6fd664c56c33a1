"""Property test for the corpus commands: a drawn corpus file, plain
text or JSONL, never ends in a traceback.  Each run of normalize,
extract or convert either succeeds silently or exits 3 with one error
line and no output file."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from espunct.cli import main

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_WORDS = ["hola", "que", "tal", "a", "1,5", "l'agua"]
_MARKS = ["\u00bf", "?", "\u00a1", "!", ",", "."]
_QUOTES = ['"', "'", "\u00ab", "\u00bb", "\u201c", "\u201d", "\u2018", "\u2019"]
_OTHER = [":", ";", "\u2026", "...", "(", ")", "[", "]", "{", "}", "\u2014", "\u2013", "-"]
_SPACES = [" ", " ", "\t", "\r", "\u0085", "\u2028", "\ufeff"]
_PIECES = _WORDS + _MARKS + _QUOTES + _OTHER + _SPACES

_line = st.lists(st.sampled_from(_PIECES), max_size=8).map("".join)
# In a JSONL text, a \ud800 escape decodes to a lone surrogate.
_record_text = st.lists(st.sampled_from(_PIECES + ["\ud800"]), max_size=8).map("".join)


@st.composite
def _jsonl(draw) -> str:
    lines = []
    for text in draw(st.lists(_record_text, max_size=4)):
        lines.append(json.dumps({"text": text}, ensure_ascii=draw(st.booleans())))
    return "".join(line + "\n" for line in lines)


_CORPORA = {
    ".txt": st.lists(_line, max_size=4).map("\n".join),
    ".jsonl": _jsonl(),
}


@pytest.mark.parametrize("suffix", sorted(_CORPORA))
@pytest.mark.parametrize("command", ["normalize", "extract", "convert"])
def test_no_drawn_corpus_file_ends_in_a_traceback(command, suffix):
    @SETTINGS
    @given(_CORPORA[suffix])
    def check(content):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = Path(tmp, "in" + suffix), Path(tmp, "out.jsonl")
            # A lone surrogate outside a JSON escape is written as the
            # bytes no UTF-8 decoder accepts.
            path.write_bytes(content.encode("utf-8", "surrogatepass"))
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
