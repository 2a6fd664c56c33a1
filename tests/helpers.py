"""Shared test helpers.

Label shorthand for readable expected sequences, the tagger's feature
templates as strings (the oracle its rows are held to), and a fraction-exact
reference implementation of the interpolated Witten-Bell model for
cross-checking the float code path.  The reference takes pre-tokenized
lowercase text (plain words separated by spaces) so its tokenization is
a bare split.
"""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from espunct import tagger
from espunct.corpus import LabeledUtterance, PunctClass
from espunct.tagger import _BOS_WORD, _EOS_WORD, _word_shape

_SHORT = {
    "N": PunctClass.NONE,
    "C": PunctClass.COMMA,
    "P": PunctClass.PERIOD,
    "OQ": PunctClass.OPEN_QUESTION,
    "CQ": PunctClass.CLOSE_QUESTION,
    "FQ": PunctClass.FULL_QUESTION,
    "OE": PunctClass.OPEN_EXCLAMATION,
    "CE": PunctClass.CLOSE_EXCLAMATION,
    "FE": PunctClass.FULL_EXCLAMATION,
}


def labels(spec: str) -> tuple[PunctClass, ...]:
    """Parse "C N P OQ" shorthand into a label tuple."""
    return tuple(_SHORT[part] for part in spec.split())


def lu(tokens: str, spec: str, **kwargs) -> LabeledUtterance:
    """Build a LabeledUtterance from space-separated tokens and shorthand."""
    return LabeledUtterance(tuple(tokens.split()), labels(spec), **kwargs)


def _feature_list(
    tokens: Sequence[str],
    i: int,
    prev_label: str,
    lowered: Sequence[str],
) -> list[str]:
    """Feature strings for position i, in fixed template order.

    The fixed order matters: training and scoring must sum weights in
    the same sequence for runs to be bit-for-bit reproducible.
    """
    n = len(tokens)

    def word(j: int) -> str:
        if j < 0:
            return _BOS_WORD
        if j >= n:
            return _EOS_WORD
        return lowered[j]

    w = lowered[i]
    feats = [
        "w-2=" + word(i - 2),
        "w-1=" + word(i - 1),
        "w0=" + w,
        "w+1=" + word(i + 1),
        "w+2=" + word(i + 2),
    ]
    for length in (1, 2, 3):
        if length <= len(w):
            feats.append(f"pre{length}=" + w[:length])
            feats.append(f"suf{length}=" + w[-length:])
    if i == 0:
        feats.append("first")
    if i == n - 1:
        feats.append("last")
    feats.append("prev=" + prev_label)
    feats.append("shape=" + _word_shape(tokens[i]))
    feats.append("wb-1=" + word(i - 1) + "|" + w)
    feats.append("wb+1=" + w + "|" + word(i + 1))
    return feats


# Changes that each make a saved model file unusable, by name.
BAD_MODEL_CHANGES = {
    "weights-not-object": {"weights": [["w0=hola", 1.0]]},
    "row-not-object": {"weights": {"w0=hola": [1.0]}},
    "nan-weight": {"weights": {"w0=hola": {"NONE": float("nan")}}},
    "infinite-weight": {"weights": {"w0=hola": {"COMMA": float("-inf")}}},
    "empty-label-set": {"label_set": []},
    "repeated-label": {"label_set": ["NONE", "PERIOD", "NONE"]},
    "unknown-label": {"label_set": ["NONE", "SEMICOLON"]},
    "label-subset": {"label_set": ["NONE", "PERIOD"]},
    "reordered-labels": {"label_set": list(reversed(tagger.DEFAULT_LABEL_SET))},
    "other-feature-templates": {"feature_templates": ["w0", "w-1"]},
    "boolean-weight": {"weights": {"w0=hola": {"NONE": True}}},
    "string-weight": {"weights": {"w0=hola": {"NONE": "2"}}},
    "overflowing-weight": {"weights": {"w0=hola": {"NONE": 10**400}}},
    "string-training-log": {"training_log": "abc"},
    "training-log-of-numbers": {"training_log": [1]},
    "lone-surrogate-feature": {"weights": {"w0=\ud800": {"NONE": 1.0}}},
    "lone-surrogate-in-training-log": {"training_log": [{"data": "es\udcff"}]},
}


def count_trains(monkeypatch, log: Path) -> Callable[[], list[str]]:
    """Spy on tagger.train, here and in any worker process forked after
    this call, by appending each data tag to the file log.  Returns a
    function giving the tags trained so far; each process's tags keep
    their order, but tags from concurrent processes interleave."""
    real = tagger.train

    def spy(corpus, config, data_tag):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(data_tag + "\n")
        return real(corpus, config, data_tag)

    monkeypatch.setattr(tagger, "train", spy)
    return lambda: log.read_text(encoding="utf-8").split() if log.exists() else []


BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


class RefWittenBell:
    """Exact-arithmetic Witten-Bell reference.

    P_n(w|h) = (c(hw) + T(h) P_{n-1}(w|h')) / (c(h) + T(h)) at seen
    contexts, pure backoff at unseen ones, and a uniform-prior unigram
    (c1(w) + T1/V) / (N + T1).  Tokens below min_count map to UNK.
    """

    def __init__(self, texts: list[str], order: int, min_count: int = 2):
        streams = [t.split() for t in texts]
        freq: dict[str, int] = {}
        for stream in streams:
            for w in stream:
                freq[w] = freq.get(w, 0) + 1
        kept = {w for w, c in freq.items() if c >= min_count}
        self.vocab = kept | {UNK, EOS}
        self.order = order
        self.counts: dict[tuple[str, ...], dict[str, int]] = {}
        for stream in streams:
            mapped = [w if w in kept else UNK for w in stream]
            padded = [BOS] * (order - 1) + mapped + [EOS]
            for pos in range(order - 1, len(padded)):
                for n in range(order):
                    ctx = tuple(padded[pos - n : pos])
                    row = self.counts.setdefault(ctx, {})
                    row[padded[pos]] = row.get(padded[pos], 0) + 1

    def map_word(self, w: str) -> str:
        return w if (w in self.vocab or w == BOS) else UNK

    def prob(self, w: str, ctx: tuple[str, ...]) -> Fraction:
        mapped = tuple(self.map_word(c) for c in ctx)
        keep = self.order - 1
        if keep:
            mapped = mapped[-keep:]
        else:
            mapped = ()
        return self._p(self.map_word(w), mapped)

    def _p(self, w: str, ctx: tuple[str, ...]) -> Fraction:
        if not ctx:
            row = self.counts.get((), {})
            total = sum(row.values())
            types = len(row)
            v = len(self.vocab)
            return Fraction(row.get(w, 0) * v + types, (total + types) * v)
        row = self.counts.get(ctx, {})
        if not row:
            return self._p(w, ctx[1:])
        total = sum(row.values())
        types = len(row)
        return (Fraction(row.get(w, 0)) + types * self._p(w, ctx[1:])) / (
            total + types
        )

    def perplexity(self, text: str) -> float:
        tokens = [self.map_word(w) for w in text.split()]
        padded = [BOS] * (self.order - 1) + tokens + [EOS]
        keep = self.order - 1
        logsum = 0.0
        for pos in range(keep, len(padded)):
            ctx = tuple(padded[pos - keep : pos]) if keep else ()
            logsum += math.log(float(self._p(padded[pos], ctx)))
        return math.exp(-logsum / (len(tokens) + 1))
