"""Language model and perplexity selection against an exact reference."""

import math
import random
from fractions import Fraction

import sys

import pytest
from hypothesis import given, settings, strategies as st

from espunct.corpus import SUPPORTED_MARKS, RawUtterance, render
from espunct.errors import EmptyCorpus, KTooLarge
from espunct.selection import (
    BOS,
    MAX_ORDER,
    lm_tokenize,
    perplexity,
    score_pool,
    select_lowest_perplexity,
    train_ngram,
    write_selection_report,
)

from generators import rule_corpus
from helpers import EOS, RefWittenBell, UNK, reference_lm_tokenize


def test_lm_tokenize():
    assert lm_tokenize("¿Cómo estás? Bien.") == ["cómo", "estás", "bien"]
    assert lm_tokenize("¿?") == []
    # interior decimal comma survives, boundary marks peel off
    assert lm_tokenize("son 3,5 euros.") == ["son", "3,5", "euros"]
    assert lm_tokenize("«hola»") == ["hola"]


_WHITESPACE = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_lowercasing_never_moves_a_token_boundary():
    """What makes lowercasing the whole line before the split exact."""
    for c in map(chr, range(sys.maxunicode + 1)):
        if c.isspace():
            assert c.lower() == c
        else:
            assert not any(ch.isspace() for ch in c.lower()), hex(ord(c))
    # Final-sigma casing, the one rule that reads context, stops at
    # whitespace: a sigma after a space is not final, one before it is.
    for ws in _WHITESPACE:
        assert ("A" + ws + "\u03a3B").lower() == "a" + ws + "\u03c3b"
        assert ("A\u03a3" + ws + "B").lower() == "a\u03c2" + ws + "b"


_LM_TEXT = st.lists(
    st.sampled_from(
        list("aZñ\u00c9\u0130\u03a3\u03c3\u1e9e") + list(SUPPORTED_MARKS)
        + ["\u00ab", "\u2026", ":", "'", "\u0301", "\u00ad"] + _WHITESPACE
    ),
    max_size=16,
).map("".join)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_LM_TEXT)
def test_lm_tokenize_matches_lowercasing_each_token(text):
    assert lm_tokenize(text) == reference_lm_tokenize(text)


def test_train_ngram_validation():
    with pytest.raises(ValueError):
        train_ngram([RawUtterance("a")], order=0)
    with pytest.raises(ValueError, match=f"between 1 and {MAX_ORDER}"):
        train_ngram([RawUtterance("a")], order=MAX_ORDER + 1)
    assert train_ngram([RawUtterance("a a")], order=MAX_ORDER).order == MAX_ORDER
    with pytest.raises(EmptyCorpus):
        train_ngram([], order=2)


def test_frozen_repeated_line_case():
    # Ten copies of "a a a", order 2: every probability is checkable by
    # hand through the interpolation formula.
    corpus = [RawUtterance("a a a") for _ in range(10)]
    model = train_ngram(corpus, order=2)
    ref = RefWittenBell(["a a a"] * 10, order=2)

    # V = {a, unk, eos}; unigram P(a) = (30 + 2/3) / 42
    assert ref.prob("a", ()) == Fraction(30 * 3 + 2, 42 * 3)
    # bigram P(a|a) = (20 + 2 P1(a)) / 32
    expected = (20 + 2 * ref.prob("a", ())) / Fraction(32)
    assert ref.prob("a", ("a",)) == expected

    for w, ctx in [
        ("a", ()),
        ("a", ("a",)),
        (EOS, ("a",)),
        ("a", ("<s>",)),
        (EOS, ()),
    ]:
        assert model.prob(w, ctx) == pytest.approx(float(ref.prob(w, ctx)), abs=1e-12)
    assert model.prob("a", ("a",)) == pytest.approx(0.6706349206349206, abs=1e-12)

    ppl = perplexity(model, RawUtterance("a a a"))
    assert ppl == pytest.approx(ref.perplexity("a a a"), abs=1e-9)
    assert ppl == pytest.approx(1.6231613291247273, abs=1e-9)
    assert ppl < 2.0


_TRAIN_TEXTS = [
    "el gato duerme",
    "el perro corre",
    "el gato corre mucho",
    "un perro duerme aquí",
    "el gato y el perro",
    "corre mucho el perro",
    "duerme aquí un gato",
    "raro",
]


def ref_and_model(order):
    model = train_ngram([RawUtterance(t) for t in _TRAIN_TEXTS], order=order)
    return model, RefWittenBell(_TRAIN_TEXTS, order=order)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_model_matches_reference(order):
    model, ref = ref_and_model(order)
    contexts = [
        (),
        ("el",),
        ("gato",),
        ("neverseen",),
        ("el", "gato"),
        ("un", "perro"),
        ("gato", "el"),
        ("el", "gato", "duerme"),
        ("x", "y", "z"),
    ]
    words = ["el", "gato", "perro", "corre", "duerme", "aquí", "mucho",
             "y", "un", "raro", "nope", UNK, EOS]
    for ctx in contexts:
        for w in words:
            assert model.prob(w, ctx) == pytest.approx(
                float(ref.prob(w, ctx)), abs=1e-12
            ), (w, ctx)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_context_distributions_sum_to_one(order):
    model, _ = ref_and_model(order)
    vocab = sorted(model.vocabulary)
    assert len(vocab) <= 20
    contexts = list(model.counts) + [("neverseen",), ("el", "nope"), ("x", "y", "z")]
    for ctx in contexts:
        total = sum(model.prob(w, tuple(ctx)) for w in vocab)
        assert total == pytest.approx(1.0, abs=1e-9), ctx


def test_singleton_equals_unseen():
    # "raro" occurs once so it falls below the count threshold: the
    # model must score it exactly like a word it never saw.
    model, _ = ref_and_model(2)
    assert UNK in model.vocabulary
    assert "raro" not in model.vocabulary
    for ctx in [(), ("el",)]:
        assert model.prob("raro", ctx) == model.prob("jamásvisto", ctx)
    assert perplexity(model, RawUtterance("raro")) == perplexity(
        model, RawUtterance("jamásvisto")
    )


def test_log_likelihood_event_count():
    model, _ = ref_and_model(2)
    total, events = model.log_likelihood("el gato duerme")
    assert events == 4
    assert total < 0.0
    # punctuation-only text still scores the EOS event
    total, events = model.log_likelihood("¿?")
    assert events == 1


def test_perplexity_matches_reference():
    model, ref = ref_and_model(3)
    for text in ["el gato duerme", "un perro", "palabras nuevas aquí", "el"]:
        assert perplexity(model, RawUtterance(text)) == pytest.approx(
            ref.perplexity(text), rel=1e-9
        )


def _uncached_perplexity(model, text):
    """Perplexity as a plain loop over model.prob, one call per event."""
    tokens = lm_tokenize(text)
    history = [BOS] * (model.order - 1)
    total = 0.0
    for tok in tokens + [EOS]:
        total += math.log(model.prob(tok, history))
        history.append(tok)
    return math.exp(-total / (len(tokens) + 1))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_score_pool_is_bit_identical_to_per_utterance_scoring(order):
    # score_pool caches log P across the pool; repeated contexts, unknown
    # words and punctuation-only lines must still score exactly as alone.
    model, _ = ref_and_model(order)
    texts = [
        "el gato duerme",
        "el gato corre",
        "el perro duerme el gato",
        "¿El gato? ¡El perro!",
        "palabras nuevas aquí el gato",
        "nuevas palabras el gato duerme",
        "¿?",
        "...",
        "el gato duerme",
        "raro raro raro",
    ] + [render(u) for u in rule_corpus(60, seed=3)]
    pool = [RawUtterance(t) for t in texts]
    scores = score_pool(model, pool)
    assert scores == [perplexity(model, u) for u in pool]
    assert scores == [_uncached_perplexity(model, t) for t in texts]


def test_select_brute_force_every_k():
    rng = random.Random(5)
    vocab = ["el", "gato", "perro", "corre", "duerme", "casa", "luz"]
    pool = [
        RawUtterance(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 6))))
        for _ in range(60)
    ]
    model, ref = ref_and_model(2)
    scores = score_pool(model, pool)
    ref_scores = [ref.perplexity(u.text) for u in pool]
    for got, want in zip(scores, ref_scores):
        assert got == pytest.approx(want, rel=1e-9)

    for k in range(len(pool) + 1):
        picked = select_lowest_perplexity(model, pool, k)
        expected_idx = sorted(
            sorted(range(len(pool)), key=lambda i: (ref_scores[i], i))[:k]
        )
        assert picked == [pool[i] for i in expected_idx], k


def test_select_tie_break_and_pool_order():
    model, _ = ref_and_model(2)
    pool = [RawUtterance("el gato duerme") for _ in range(5)]
    picked = select_lowest_perplexity(model, pool, 3)
    assert [id(u) for u in picked] == [id(pool[0]), id(pool[1]), id(pool[2])]


def test_select_is_monotone_in_k():
    rng = random.Random(6)
    vocab = ["el", "gato", "perro", "corre", "zzz"]
    pool = [
        RawUtterance(" ".join(rng.choice(vocab) for _ in range(rng.randint(1, 5))))
        for _ in range(40)
    ]
    model, _ = ref_and_model(2)
    previous: set[int] = set()
    for k in range(len(pool) + 1):
        chosen = {id(u) for u in select_lowest_perplexity(model, pool, k)}
        assert previous <= chosen
        previous = chosen


def test_select_errors():
    model, _ = ref_and_model(2)
    pool = [RawUtterance("el gato")]
    with pytest.raises(ValueError):
        select_lowest_perplexity(model, pool, -1)
    with pytest.raises(KTooLarge):
        select_lowest_perplexity(model, pool, 2)
    assert select_lowest_perplexity(model, [], 0) == []


def test_selection_report(tmp_path):
    path = tmp_path / "scores.tsv"
    write_selection_report([1.5, 2.25, 1234.56789012], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "pool_index\tperplexity"
    assert lines[1] == "0\t1.5"
    assert lines[2] == "1\t2.25"
    assert lines[3] == "2\t1234.56789"
    assert len(lines) == 4


def test_determinism():
    corpus = [RawUtterance(t) for t in _TRAIN_TEXTS]
    a = train_ngram(corpus, order=3)
    b = train_ngram(corpus, order=3)
    assert a.counts == b.counts
    assert a.vocabulary == b.vocabulary
    text = RawUtterance("el gato corre")
    assert perplexity(a, text) == perplexity(b, text)
