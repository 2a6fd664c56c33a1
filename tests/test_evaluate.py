"""Corpus splits, scoring reports, and the confusion matrix."""

import pytest

from espunct.corpus import CLASS_ORDER, PunctClass
from espunct.errors import BadFractions, EmptyTestSet, PredictionLengthMismatch
from espunct.evaluate import evaluate, split_corpus

from generators import rule_corpus
from helpers import labels, lu


class _FixedModel:
    """Predicts a canned label sequence per token count."""

    def __init__(self, by_length):
        self.by_length = by_length
        self.training_log = [{"data": "es", "epochs": 1, "seed": 0, "size": 1}]

    def predict(self, tokens):
        return list(self.by_length[len(tokens)])


class _EchoModel:
    """Predicts exactly the gold labels it was built from."""

    def __init__(self, corpus):
        self.answers = {u.tokens: list(u.labels) for u in corpus}

    def predict(self, tokens):
        return list(self.answers[tuple(tokens)])


# ------------------------------------------------------------------ split


def test_split_sizes_and_partition():
    corpus = rule_corpus(10, seed=0)
    train, dev, test = split_corpus(corpus, (0.6, 0.1, 0.3), seed=0)
    assert (len(train), len(dev), len(test)) == (6, 1, 3)
    assert sorted(id(u) for u in train + dev + test) == sorted(
        id(u) for u in corpus
    )


def test_split_deterministic():
    corpus = rule_corpus(40, seed=1)
    a = split_corpus(corpus, seed=7)
    b = split_corpus(corpus, seed=7)
    c = split_corpus(corpus, seed=8)
    assert a == b
    assert a != c


def test_split_empty_middle_fraction():
    corpus = rule_corpus(20, seed=2)
    train, dev, test = split_corpus(corpus, (0.7, 0.0, 0.3), seed=0)
    assert (len(train), len(dev), len(test)) == (14, 0, 6)


def test_split_bad_fractions():
    corpus = rule_corpus(12, seed=0)
    with pytest.raises(BadFractions):
        split_corpus(corpus, (0.5, 0.5))
    with pytest.raises(BadFractions):
        split_corpus(corpus, (0.8, -0.1, 0.3))
    with pytest.raises(BadFractions):
        split_corpus(corpus, (0.5, 0.2, 0.2))


def test_split_too_small():
    with pytest.raises(ValueError):
        split_corpus(rule_corpus(9, seed=0))


# ----------------------------------------------------------------- scoring


def _hand_report():
    gold = lu("uno dos tres cuatro", "C P CQ N")
    model = _FixedModel({4: labels("C P P N")})
    return evaluate(model, [gold], apply_repair=False)


def test_micro_scores_hand_case():
    report = _hand_report()
    # 3 gold punctuation tokens, 3 predicted, 2 agree
    assert report.micro_precision == pytest.approx(2 / 3)
    assert report.micro_recall == pytest.approx(2 / 3)
    assert report.micro_f1_non_none == pytest.approx(2 / 3)
    assert report.token_count == 4
    assert report.utterance_count == 1
    assert not report.repaired


def test_per_class_scores_hand_case():
    report = _hand_report()
    comma = report.per_class[PunctClass.COMMA]
    assert (comma.precision, comma.recall, comma.f1) == (1.0, 1.0, 1.0)
    period = report.per_class[PunctClass.PERIOD]
    assert period.precision == pytest.approx(0.5)
    assert period.recall == 1.0
    cq = report.per_class[PunctClass.CLOSE_QUESTION]
    assert cq.f1 == 0.0
    assert cq.support == 1
    # macro averages COMMA, PERIOD, CLOSE_QUESTION (support > 0)
    want = (1.0 + period.f1 + 0.0) / 3
    assert report.macro_f1_non_none == pytest.approx(want)


def test_confusion_hand_case():
    report = _hand_report()
    idx = {c: i for i, c in enumerate(CLASS_ORDER)}
    cq, period = idx[PunctClass.CLOSE_QUESTION], idx[PunctClass.PERIOD]
    # gold by predicted: the CLOSE_QUESTION became a PERIOD
    grid = [[report.confusion[g][p] for p in (cq, period)] for g in (cq, period)]
    assert grid == [[0, 1], [0, 1]]


def test_confusion_totals_match_token_count():
    report = _hand_report()
    assert sum(sum(row) for row in report.confusion) == report.token_count


def test_micro_recomputable_from_confusion():
    report = _hand_report()
    idx = {c: i for i, c in enumerate(CLASS_ORDER)}
    none = idx[PunctClass.NONE]
    tp = sum(
        report.confusion[i][i] for c, i in idx.items() if c is not PunctClass.NONE
    )
    gold_punct = sum(
        sum(report.confusion[i]) for c, i in idx.items() if c is not PunctClass.NONE
    )
    pred_punct = sum(
        report.confusion[g][p]
        for g in range(len(CLASS_ORDER))
        for p in range(len(CLASS_ORDER))
        if p != none
    )
    assert report.micro_precision == pytest.approx(tp / pred_punct)
    assert report.micro_recall == pytest.approx(tp / gold_punct)


def test_perfect_predictions_score_one():
    corpus = rule_corpus(30, seed=3)
    report = evaluate(_EchoModel(corpus), corpus, apply_repair=False)
    assert report.micro_f1_non_none == 1.0
    assert report.macro_f1_non_none == 1.0
    for i, row in enumerate(report.confusion):
        for j, v in enumerate(row):
            assert v == 0 or i == j


def test_all_none_predictions_score_zero():
    gold = lu("uno dos", "N P")
    model = _FixedModel({2: labels("N N")})
    report = evaluate(model, [gold], apply_repair=False)
    assert report.micro_f1_non_none == 0.0
    assert report.micro_precision == 0.0
    assert report.micro_recall == 0.0


def test_repair_changes_scores_observably():
    # raw prediction leaves an unmatched opener; repair drops it
    gold = lu("uno dos tres", "OQ N CQ")
    model = _FixedModel({3: labels("OQ N N")})
    raw = evaluate(model, [gold], apply_repair=False)
    fixed = evaluate(model, [gold], apply_repair=True)
    assert raw.micro_precision == 1.0
    assert raw.micro_recall == pytest.approx(0.5)
    assert fixed.micro_recall == 0.0
    assert fixed.repaired
    assert not raw.repaired


def test_zero_support_classes_left_out_of_macro():
    gold = lu("uno dos", "N P")
    model = _FixedModel({2: labels("N P")})
    report = evaluate(model, [gold], apply_repair=False)
    assert report.macro_f1_non_none == 1.0
    assert report.per_class[PunctClass.COMMA].support == 0


def test_empty_test_set():
    with pytest.raises(EmptyTestSet):
        evaluate(_FixedModel({}), [])


class _WrongLengthModel:
    """Drops or adds labels relative to the tokens it is given."""

    def __init__(self, extra):
        self.extra = extra

    def predict(self, tokens):
        return [PunctClass.NONE] * max(len(tokens) + self.extra, 0)


@pytest.mark.parametrize("extra", [-1, 1, -100])
def test_prediction_length_mismatch_is_an_error(extra):
    test = [lu("hola buenos días", "N N P")]
    for repair in (True, False):
        with pytest.raises(PredictionLengthMismatch):
            evaluate(_WrongLengthModel(extra), test, apply_repair=repair)


def test_report_serialization_and_tables():
    report = _hand_report()
    obj = report.to_json_dict()
    assert obj["dataset"] == "test"
    assert obj["confusion_order"][0] == "NONE"
    assert obj["per_class"]["COMMA"]["f1"] == 1.0
    assert obj["training_log"][0]["data"] == "es"

    table = report.format_table()
    assert "micro-F1 (punctuation): 0.6667" in table
    assert "COMMA" in table
