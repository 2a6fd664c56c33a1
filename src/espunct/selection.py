"""In-domain n-gram language modeling and perplexity-based data selection.

A small interpolated Witten-Bell model scores out-of-domain candidates;
the k lowest-perplexity utterances are kept.  Training text is lowercased
and stripped of punctuation first so the model measures lexical fit, not
punctuation habits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence, TypeVar

from .corpus import (
    RawUtterance,
    SUPPORTED_MARKS,
    normalize_punctuation,
    write_lines_atomic,
)
from .errors import EmptyCorpus, KTooLarge

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# Tokens seen fewer times than this in training map to UNK.
MIN_TOKEN_COUNT = 2
# n-gram order of the selection language model unless a caller picks one.
DEFAULT_ORDER = 4
# Highest order train_ngram accepts.  Training stores every context of
# every length below the order at each token, so its time and memory
# grow with the square of the order; order 800 took 1.4 s and 33 MB on
# 20 four-word lines.  Selection models rarely go past order 5.
MAX_ORDER = 10

_Record = TypeVar("_Record")


def lm_tokenize(text: str) -> list[str]:
    """Lowercased whitespace tokens prepared for language modeling.

    Boundary punctuation is peeled off repeatedly so "¿Cómo?" and "cómo"
    count as the same word; tokens that were pure punctuation vanish.
    The line is lowercased once, before the split: no code point's
    lowercase form changes whether it is whitespace, and final-sigma
    casing stops at whitespace, so the tokens are those of lowercasing
    each one.
    """
    out = []
    for tok in normalize_punctuation(text).lower().split():
        tok = tok.strip(SUPPORTED_MARKS)
        if tok:
            out.append(tok)
    return out


@dataclass(frozen=True)
class NGramModel:
    """Interpolated Witten-Bell n-gram model.

    counts maps a context tuple (length 0..order-1) to next-token counts;
    the empty tuple holds the unigram distribution.  The vocabulary is
    every kept token plus UNK and EOS; BOS only ever appears in contexts.
    """

    order: int
    counts: dict[tuple[str, ...], dict[str, int]]
    context_totals: dict[tuple[str, ...], int]
    vocabulary: frozenset[str]

    def _prob(self, token: str, context: tuple[str, ...]) -> float:
        if not context:
            bucket = self.counts[()]
            types = len(bucket)
            total = self.context_totals[()]
            uniform = 1.0 / len(self.vocabulary)
            return (bucket.get(token, 0) + types * uniform) / (total + types)
        bucket = self.counts.get(context)
        if not bucket:
            # Unseen context: nothing to interpolate, pure backoff.
            return self._prob(token, context[1:])
        types = len(bucket)
        total = self.context_totals[context]
        backoff = self._prob(token, context[1:])
        return (bucket.get(token, 0) + types * backoff) / (total + types)

    def _map(self, word: str) -> str:
        return word if word in self.vocabulary or word == BOS else UNK

    def prob(self, token: str, context: Sequence[str]) -> float:
        """P(token | context) with unknown words mapped to UNK and the
        context truncated to the model order."""
        ctx = tuple(self._map(w) for w in context)[max(0, len(context) - self.order + 1):]
        return self._prob(self._map(token), ctx)

    def log_likelihood(self, text: str) -> tuple[float, int]:
        """Sum of log P over the token stream plus end-of-utterance, and
        the number of scored events."""
        return self._log_likelihood(text, {})

    def _log_likelihood(
        self, text: str, memo: dict[tuple[str, ...], float]
    ) -> tuple[float, int]:
        """log_likelihood with log P cached in memo by n-gram window
        (context plus token); the sum runs in stream order either way."""
        tokens = [self._map(t) for t in lm_tokenize(text)]
        seq = [BOS] * (self.order - 1) + tokens + [EOS]
        total = 0.0
        for i in range(self.order - 1, len(seq)):
            window = tuple(seq[i - self.order + 1 : i + 1])
            logp = memo.get(window)
            if logp is None:
                logp = memo[window] = math.log(self._prob(window[-1], window[:-1]))
            total += logp
        return total, len(tokens) + 1


def train_ngram(corpus: Sequence[RawUtterance], order: int = DEFAULT_ORDER) -> NGramModel:
    """Count-based training of an interpolated Witten-Bell model.

    Singleton tokens become UNK so the model has probability mass for
    unseen words at score time.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {order}")
    if not corpus:
        raise EmptyCorpus("cannot train a language model on no utterances")
    streams = [lm_tokenize(u.text) for u in corpus]
    freq: dict[str, int] = {}
    for stream in streams:
        for tok in stream:
            freq[tok] = freq.get(tok, 0) + 1
    kept = {tok for tok, n in freq.items() if n >= MIN_TOKEN_COUNT}
    vocabulary = frozenset(kept | {UNK, EOS})

    counts: dict[tuple[str, ...], dict[str, int]] = {}
    for stream in streams:
        mapped = [tok if tok in kept else UNK for tok in stream]
        seq = [BOS] * (order - 1) + mapped + [EOS]
        for i in range(order - 1, len(seq)):
            target = seq[i]
            for n in range(order):
                context = tuple(seq[i - n : i])
                bucket = counts.get(context)
                if bucket is None:
                    bucket = counts[context] = {}
                bucket[target] = bucket.get(target, 0) + 1
    context_totals = {ctx: sum(bucket.values()) for ctx, bucket in counts.items()}
    return NGramModel(
        order=order,
        counts=counts,
        context_totals=context_totals,
        vocabulary=vocabulary,
    )


def perplexity(model: NGramModel, utterance: RawUtterance) -> float:
    """exp of the mean negative log probability per scored event."""
    return score_pool(model, [utterance])[0]


def score_pool(model: NGramModel, pool: Sequence[RawUtterance]) -> list[float]:
    """Perplexity of every pool utterance, in pool order.

    log P is computed once per distinct n-gram window in the pool; the
    cache lives for this call only, so it never outlives the model's use.
    """
    memo: dict[tuple[str, ...], float] = {}
    pairs = (model._log_likelihood(u.text, memo) for u in pool)
    return [math.exp(-total / events) for total, events in pairs]


def select_lowest_perplexity(
    model: NGramModel,
    pool: Sequence[_Record],
    k: int,
    *,
    scores: list[float] | None = None,
) -> list[_Record]:
    """The k best-fitting pool utterances, in original pool order.

    Ties break toward the smaller pool index, so results are stable and
    selections are monotone: the k-1 selection is a prefix-free subset of
    the k selection.  Pass scores to reuse a previous score_pool run;
    pool is then only indexed, so any records parallel to them will do.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k > len(pool):
        raise KTooLarge(f"k={k} but the pool holds {len(pool)} utterances")
    if scores is None:
        scores = score_pool(model, pool)
    ranked = sorted(range(len(pool)), key=scores.__getitem__)[:k]
    return [pool[i] for i in sorted(ranked)]


def write_selection_report(scores: Sequence[float], path: str | Path) -> None:
    """TSV of (pool_index, perplexity) with 9 significant digits."""
    rows = (f"{i}\t{s:.9g}\n" for i, s in enumerate(scores))
    write_lines_atomic(path, chain(["pool_index\tperplexity\n"], rows))
