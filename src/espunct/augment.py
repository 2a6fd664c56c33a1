"""Distribution-matching concatenation augmentation.

Out-of-domain utterances are mostly single sentences; conversational
test traffic is not.  This module concatenates utterances so the
augmented corpus matches a target histogram of sentence terminators per
utterance.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Mapping, Sequence

from .corpus import LabeledUtterance, terminal_count, write_lines_atomic
from .errors import EmptyCorpus, ZeroTerminalSource, ZeroTerminalTarget

_MASS_TOLERANCE = 1e-9
# Longest concatenation, in tokens, that augmentation builds by default.
DEFAULT_MAX_TOKENS = 200
# Draws are dealt in decks of this size once the initial estimate runs out.
_REFILL_DECK = 64


@dataclass(frozen=True)
class TerminalHistogram:
    """Distribution over terminators-per-utterance.

    buckets maps a terminator count to its probability mass.
    """

    buckets: Mapping[int, float]

    def __post_init__(self):
        cleaned: dict[int, float] = {}
        for key, mass in self.buckets.items():
            if not isinstance(key, int) or key < 0:
                raise ValueError(f"bad bucket {key!r}")
            if mass < 0:
                raise ValueError(f"negative mass for bucket {key}")
            if mass > 0:
                cleaned[key] = mass
        if abs(sum(cleaned.values()) - 1.0) > _MASS_TOLERANCE:
            raise ValueError("bucket masses do not sum to 1")
        object.__setattr__(self, "buckets", dict(sorted(cleaned.items())))

    def mass(self, count: int) -> float:
        return self.buckets.get(count, 0.0)

    @property
    def mean(self) -> float:
        return sum(k * p for k, p in self.buckets.items())


def histogram(corpus: Sequence[LabeledUtterance]) -> TerminalHistogram:
    """Observed terminators-per-utterance distribution of a corpus."""
    if not corpus:
        raise EmptyCorpus("cannot build a histogram from no utterances")
    tally = Counter(map(terminal_count, corpus))
    return TerminalHistogram({k: n / len(corpus) for k, n in tally.items()})


def distribution_distance(a: TerminalHistogram, b: TerminalHistogram) -> float:
    """L1 distance between two histograms over the union of buckets."""
    keys = set(a.buckets) | set(b.buckets)
    return sum(abs(a.mass(k) - b.mass(k)) for k in keys)


def _quota_deck(target: TerminalHistogram, n: int, rng: random.Random) -> list[int]:
    """n target draws apportioned by largest remainder, then shuffled.

    Dealing from an apportioned deck instead of sampling iid keeps the
    realized draw histogram within O(1/n) of the target, which row-level
    L1 budgets require; iid draws wander like 1/sqrt(n).
    """
    keys = sorted(target.buckets)
    exact = {k: target.buckets[k] * n for k in keys}
    base = {k: int(exact[k]) for k in keys}
    shortfall = n - sum(base.values())
    by_remainder = sorted(keys, key=lambda k: (-(exact[k] - base[k]), k))
    for k in by_remainder[:shortfall]:
        base[k] += 1
    deck = [k for k in keys for _ in range(base[k])]
    rng.shuffle(deck)
    return deck


def _concat(group: Sequence[LabeledUtterance]) -> LabeledUtterance:
    if len(group) == 1:
        return group[0]
    tokens: list[str] = []
    labels = []
    for u in group:
        tokens.extend(u.tokens)
        labels.extend(u.labels)
    sources = {u.source for u in group}
    langs = {u.lang for u in group}
    return LabeledUtterance(
        tuple(tokens),
        tuple(labels),
        source=sources.pop() if len(sources) == 1 else None,
        lang=langs.pop() if len(langs) == 1 else None,
    )


def augment_to_distribution(
    source: Sequence[LabeledUtterance],
    target: TerminalHistogram,
    seed: int,
    max_tokens: int = DEFAULT_MAX_TOKENS,
) -> list[LabeledUtterance]:
    """Concatenate source utterances until each group's terminator count
    reaches a drawn target, consuming every utterance exactly once.

    A group stops growing early rather than exceed max_tokens, unless it
    is still empty (one oversized utterance passes through alone).  The
    tail of the source that cannot fill its final draw is emitted as is.
    """
    if not source:
        return []
    counts = list(map(terminal_count, source))
    if 0 in counts:
        u = source[counts.index(0)]
        raise ZeroTerminalSource(
            f"utterance {u.tokens[:3]}... has no terminating label"
        )
    if target.mass(0) > 0:
        raise ZeroTerminalTarget(
            f"{target.mass(0):.1%} of the target's utterances have no sentence-final mark"
        )
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")

    rng = random.Random(seed)
    shuffled = list(zip(source, counts))
    rng.shuffle(shuffled)

    total_terminals = sum(counts)
    estimate = max(1, round(total_terminals / target.mean))
    deck = _quota_deck(target, estimate, rng)
    dealt = 0

    out: list[LabeledUtterance] = []
    idx = 0
    while idx < len(shuffled):
        if dealt == len(deck):
            deck = _quota_deck(target, _REFILL_DECK, rng)
            dealt = 0
        want = deck[dealt]
        dealt += 1
        group: list[LabeledUtterance] = []
        terms = 0
        size = 0
        while idx < len(shuffled) and terms < want:
            u, count = shuffled[idx]
            if group and size + len(u.tokens) > max_tokens:
                break
            group.append(u)
            idx += 1
            terms += count
            size += len(u.tokens)
        out.append(_concat(group))
    return out


def write_histogram_report(
    target: TerminalHistogram,
    before: TerminalHistogram,
    after: TerminalHistogram,
    path,
) -> None:
    """TSV of per-bucket probability mass: target vs source vs augmented."""
    keys = sorted(set(target.buckets) | set(before.buckets) | set(after.buckets))
    rows = (
        f"{k}\t{target.mass(k):.9g}\t{before.mass(k):.9g}\t{after.mass(k):.9g}\n"
        for k in keys
    )
    write_lines_atomic(path, chain(["terminals\ttarget\tbefore\tafter\n"], rows))
