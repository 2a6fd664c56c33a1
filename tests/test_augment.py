"""Histogram-matching concatenation augmentation."""

import random

import pytest

from espunct.augment import (
    TerminalHistogram,
    augment_to_distribution,
    distribution_distance,
    histogram,
    write_histogram_report,
)
from espunct.corpus import LabeledUtterance, PunctClass, terminal_count
from espunct.errors import EmptyCorpus, ZeroTerminalSource

from helpers import lu


def single(word="hola", n=2):
    toks = tuple(f"{word}{i}" for i in range(n))
    labs = (PunctClass.NONE,) * (n - 1) + (PunctClass.PERIOD,)
    return LabeledUtterance(toks, labs)


def test_histogram_basics():
    corpus = [lu("a b", "N P"), lu("c d e", "P N FQ"), lu("f", "P")]
    h = histogram(corpus)
    assert h.mass(1) == pytest.approx(2 / 3)
    assert h.mass(2) == pytest.approx(1 / 3)
    assert h.mass(5) == 0.0
    assert h.mean == pytest.approx(4 / 3)
    with pytest.raises(EmptyCorpus):
        histogram([])


def test_histogram_drops_zero_mass_buckets():
    h = TerminalHistogram({1: 0.7, 2: 0.0, 3: 0.3})
    assert 2 not in h.buckets
    assert set(h.buckets) == {1, 3}


def test_distribution_distance():
    a = TerminalHistogram({1: 1.0})
    b = TerminalHistogram({2: 1.0})
    assert distribution_distance(a, b) == pytest.approx(2.0)
    assert distribution_distance(a, a) == 0.0
    c = TerminalHistogram({1: 0.5, 2: 0.5})
    assert distribution_distance(a, c) == pytest.approx(1.0)


def test_augment_hand_case_groups_of_three():
    source = [single("a"), single("b"), single("c")]
    out = augment_to_distribution(source, TerminalHistogram({3: 1.0}), seed=0)
    assert len(out) == 1
    assert terminal_count(out[0]) == 3
    assert len(out[0].tokens) == 6


def test_augment_point_mass_identity():
    source = [single(w) for w in ("a", "b", "c", "d", "e")]
    out = augment_to_distribution(source, TerminalHistogram({1: 1.0}), seed=3)
    assert len(out) == len(source)
    # groups of one pass through as the same objects, reordered
    assert {id(u) for u in out} == {id(u) for u in source}


def test_augment_conserves_tokens_and_labels_in_shuffle_order():
    rng = random.Random(9)
    source = [single(f"w{i}", rng.randint(1, 4)) for i in range(200)]
    seed = 17
    target = TerminalHistogram({1: 0.4, 2: 0.3, 3: 0.3})
    out = augment_to_distribution(source, target, seed=seed)

    shuffled = list(source)
    random.Random(seed).shuffle(shuffled)
    want_tokens = [t for u in shuffled for t in u.tokens]
    want_labels = [l for u in shuffled for l in u.labels]
    got_tokens = [t for u in out for t in u.tokens]
    got_labels = [l for u in out for l in u.labels]
    assert got_tokens == want_tokens
    assert got_labels == want_labels
    assert sum(terminal_count(u) for u in out) == sum(
        terminal_count(u) for u in source
    )


def test_augment_converges_to_target():
    source = [single(f"w{i}") for i in range(2000)]
    target = TerminalHistogram({1: 0.35, 2: 0.25, 3: 0.2, 4: 0.12, 5: 0.08})
    out = augment_to_distribution(source, target, seed=0)
    assert distribution_distance(histogram(out), target) < 0.05


def test_augment_respects_max_tokens():
    big = single("x", 150)
    source = [single(f"w{i}", 150) for i in range(10)]
    out = augment_to_distribution(source, TerminalHistogram({2: 1.0}), seed=1,
                                  max_tokens=200)
    # no group can take a second 150-token utterance
    assert all(len(u.tokens) == 150 for u in out)
    assert len(out) == 10

    # a single oversized utterance still passes through alone
    out = augment_to_distribution([single("y", 500)], TerminalHistogram({1: 1.0}),
                                  seed=1, max_tokens=200)
    assert len(out) == 1
    assert len(out[0].tokens) == 500
    assert big is not out[0]


def test_augment_merges_provenance_only_when_uniform():
    a = single("a")
    b = single("b")
    same = [
        LabeledUtterance(a.tokens, a.labels, source="ldc", lang="es"),
        LabeledUtterance(b.tokens, b.labels, source="ldc", lang="es"),
    ]
    out = augment_to_distribution(same, TerminalHistogram({2: 1.0}), seed=0)
    assert out[0].source == "ldc"
    assert out[0].lang == "es"

    mixed = [
        LabeledUtterance(a.tokens, a.labels, source="ldc"),
        LabeledUtterance(b.tokens, b.labels, source="os"),
    ]
    out = augment_to_distribution(mixed, TerminalHistogram({2: 1.0}), seed=0)
    assert out[0].source is None


def test_augment_errors():
    assert augment_to_distribution([], TerminalHistogram({1: 1.0}), seed=0) == []
    with pytest.raises(ZeroTerminalSource):
        augment_to_distribution(
            [lu("a b", "N N")], TerminalHistogram({1: 1.0}), seed=0
        )
    with pytest.raises(ValueError):
        augment_to_distribution(
            [single()], TerminalHistogram({0: 0.5, 1: 0.5}), seed=0
        )
    with pytest.raises(ValueError):
        augment_to_distribution([single()], TerminalHistogram({1: 1.0}), seed=0,
                                max_tokens=0)


def test_augment_deterministic_per_seed():
    source = [single(f"w{i}", 1 + i % 3) for i in range(100)]
    target = TerminalHistogram({1: 0.5, 2: 0.5})
    a = augment_to_distribution(source, target, seed=4)
    b = augment_to_distribution(source, target, seed=4)
    c = augment_to_distribution(source, target, seed=5)
    assert a == b
    assert a != c


def test_histogram_report(tmp_path):
    target = TerminalHistogram({1: 0.5, 3: 0.5})
    before = TerminalHistogram({1: 1.0})
    after = TerminalHistogram({1: 0.45, 2: 0.1, 3: 0.45})
    path = tmp_path / "hist.tsv"
    write_histogram_report(target, before, after, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "terminals\ttarget\tbefore\tafter"
    assert lines[1] == "1\t0.5\t1\t0.45"
    assert lines[2] == "2\t0\t0\t0.1"
    assert lines[3] == "3\t0.5\t0\t0.45"
