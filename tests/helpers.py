"""Shared test helpers.

Label shorthand for readable expected sequences, the tagger's feature
templates as strings (the oracle its rows are held to), plain-loop
references for the corpus, pairing and tokenizer code that takes fast
paths (normalization, extraction, pairing validation and repair, the
language-model tokenizer), and a fraction-exact reference implementation
of the interpolated Witten-Bell model for cross-checking the float code
path.  The Witten-Bell reference takes pre-tokenized lowercase text
(plain words separated by spaces) so its tokenization is a bare split.
child_process_left tells whether a test left a forked worker behind.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from espunct import corpus, tagger
from espunct.corpus import (
    FULL_FOR,
    OPENER_FOR,
    REJECTED_BOUNDARY,
    SUPPORTED_MARKS,
    LabeledUtterance,
    PunctClass,
    chunk_start,
)
from espunct.errors import ConflictingMarks, UnsupportedPunctuation
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


def full_normalization_chain(text: str) -> str:
    """Every normalization pass, run whether or not it can match."""
    text = corpus._CONTRACTION_RE.sub(corpus._INS_APOSTROPHE, text)
    text = corpus._QUOTE_RE.sub("", text)
    text = corpus._ELLIPSIS_RE.sub(corpus._INS_PERIOD, text)
    text = corpus._COLON_SEMI_RE.sub(corpus._INS_COMMA, text)
    text = corpus._PERIOD_RUN_RE.sub(".", text)
    text = corpus._COMMA_RUN_RE.sub(",", text)
    return text.replace(corpus._INS_APOSTROPHE, "'")


def reference_extract_labels(text: str) -> LabeledUtterance:
    """extract_labels as one loop that splits and checks every word."""
    words = text.split()
    if not words:
        raise ValueError("no tokens in input text")
    tokens: list[str] = []
    labels: list[PunctClass] = []
    for word in words:
        lead, core, trail = corpus._split_marks(word)
        if not core:
            raise UnsupportedPunctuation(
                f"token {word!r} has no word to attach punctuation to"
            )
        for ch in (core[0], core[-1]):
            if ch in REJECTED_BOUNDARY:
                raise UnsupportedPunctuation(
                    f"token {word!r} keeps unnormalized punctuation {ch!r}"
                )
        if core[0] in SUPPORTED_MARKS or core[-1] in "\u00bf\u00a1":
            raise UnsupportedPunctuation(
                f"token {word!r} has a mark in an unsupported position"
            )
        if core[-1] in "?!,.":
            raise ConflictingMarks(f"token {word!r} stacks trailing marks")
        label = corpus._LABEL_FOR_MARKS.get((lead, trail))
        if label is None:
            raise ConflictingMarks(
                f"token {word!r} mixes marks of different kinds"
            )
        tokens.append(core)
        labels.append(label)
    return LabeledUtterance(tuple(tokens), tuple(labels))


def reference_validate_pairing(labels: Sequence[PunctClass]) -> bool:
    """validate_pairing through the label properties."""
    pending = None
    for lab in labels:
        if lab.is_opening:
            if pending is not None:
                return False
            pending = lab.kind
        elif lab.is_closing:
            if pending != lab.kind:
                return False
            pending = None
    return pending is None


def reference_repair_pairing(labels: Sequence[PunctClass]) -> list[PunctClass]:
    """repair_pairing through the label properties, with both passes
    run on every sequence."""
    work = list(labels)
    pending: tuple | None = None  # (kind, index)
    unmatched_opens: list[int] = []
    for i, lab in enumerate(work):
        if lab.is_opening:
            if pending is None:
                pending = (lab.kind, i)
            else:
                unmatched_opens.append(i)
        elif lab.is_closing:
            if pending is not None and pending[0] == lab.kind:
                pending = None
    if pending is not None:
        unmatched_opens.append(pending[1])
    for i in unmatched_opens:
        work[i] = PunctClass.NONE
    pending_kind = None
    for i, lab in enumerate(work):
        if lab.is_opening:
            pending_kind = lab.kind
        elif lab.is_closing:
            if pending_kind == lab.kind:
                pending_kind = None
            elif pending_kind is not None:
                work[i] = FULL_FOR[lab.kind]
            else:
                j = chunk_start(work, i)
                if j == i:
                    work[i] = FULL_FOR[lab.kind]
                else:
                    work[j] = OPENER_FOR[lab.kind]
    return work


def reference_lm_tokenize(text: str) -> list[str]:
    """lm_tokenize lowercasing token by token, after the split."""
    out = []
    for tok in corpus.normalize_punctuation(text).split():
        tok = tok.lower().strip(SUPPORTED_MARKS)
        if tok:
            out.append(tok)
    return out


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


def child_process_left() -> str | None:
    """None when this process has no child, running or unreaped; otherwise
    what is left.  An unreaped child is reaped by the check."""
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return None
    if pid == 0:
        return "a child process is still running"
    return f"child process {pid} was left unreaped (wait status {status})"


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
