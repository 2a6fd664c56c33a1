"""English close-only labels to paired Spanish labels."""

import random

import pytest

from espunct.corpus import LabeledUtterance, PunctClass, render
from espunct.crosslingual import anglicize_to_spanish_conventions
from espunct.errors import AlreadySpanishConvention
from espunct.postprocess import validate_pairing

from generators import random_english_labels
from helpers import labels, lu


def test_opening_mark_lands_at_chunk_start():
    u = lu("OK how can I help you", "C N N N N CQ", lang="en")
    out = anglicize_to_spanish_conventions(u)
    assert out.labels == labels("C OQ N N N CQ")
    assert render(out) == "OK, ¿how can I help you?"
    assert out.tokens == u.tokens
    assert out.lang == "en"


def test_opening_mark_respects_previous_terminator():
    u = lu("Hi this is Tom how can I help you", "N N N P N N N N CQ")
    out = anglicize_to_spanish_conventions(u)
    assert out.labels == labels("N N N P OQ N N N CQ")


def test_single_token_chunk_promotes_to_full():
    u = lu("ok right", "C CE")
    out = anglicize_to_spanish_conventions(u)
    assert out.labels == labels("C FE")
    assert render(out) == "ok, ¡right!"


def test_rejects_input_already_carrying_spanish_marks():
    with pytest.raises(AlreadySpanishConvention):
        anglicize_to_spanish_conventions(lu("a b", "OQ CQ"))
    with pytest.raises(AlreadySpanishConvention):
        anglicize_to_spanish_conventions(lu("a", "FE"))


def test_plain_statements_pass_through():
    u = lu("hola buenos días", "N C P")
    out = anglicize_to_spanish_conventions(u)
    assert out.labels == u.labels


def _strip_spanish_side(seq):
    """Undo the conversion: drop opens, demote fulls to closes."""
    out = []
    for lab in seq:
        if lab.is_opening:
            out.append(PunctClass.NONE)
        elif lab is PunctClass.FULL_QUESTION:
            out.append(PunctClass.CLOSE_QUESTION)
        elif lab is PunctClass.FULL_EXCLAMATION:
            out.append(PunctClass.CLOSE_EXCLAMATION)
        else:
            out.append(lab)
    return out


def test_random_close_only_sequences_become_valid_pairs():
    rng = random.Random(0)
    for _ in range(2000):
        n = rng.randint(1, 12)
        labs = random_english_labels(rng, n)
        toks = tuple(f"w{i}" for i in range(n))
        u = LabeledUtterance(toks, labs)
        out = anglicize_to_spanish_conventions(u)
        assert validate_pairing(list(out.labels))
        # conversion keeps every terminator's kind, adding only opens
        for kind in ("question", "exclamation"):
            before = sum(
                1 for l in labs
                if l.is_terminating and l.kind == kind
            )
            after = sum(
                1 for l in out.labels
                if l.is_terminating and l.kind == kind
            )
            assert before == after
        # stripping the Spanish-only marks recovers the input
        assert _strip_spanish_side(out.labels) == list(labs)
