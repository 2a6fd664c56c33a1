"""Splits, scoring, and error analysis for punctuation tagging.

The headline number is micro-F1 over tokens whose gold or predicted
label is punctuation; NONE dominates token counts and would otherwise
drown the signal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .corpus import CLASS_INDEX, CLASS_ORDER, LabeledUtterance, PunctClass, write_json
from .errors import BadFractions, EmptyTestSet, PredictionLengthMismatch
from .postprocess import repair_pairing

_FRACTION_TOLERANCE = 1e-9
_MIN_SPLIT_SIZE = 10
# Whether evaluate repairs predictions unless a caller says otherwise;
# `eval --repair` and the config's eval.repair default to it too.
DEFAULT_REPAIR = True


def split_corpus(
    corpus: Sequence[LabeledUtterance],
    fractions: tuple[float, float, float] = (0.6, 0.1, 0.3),
    seed: int = 0,
) -> tuple[list[LabeledUtterance], list[LabeledUtterance], list[LabeledUtterance]]:
    """Seeded shuffle, then floor cuts into train/validation/test."""
    if len(fractions) != 3:
        raise BadFractions(f"need 3 fractions, got {len(fractions)}")
    if any(f < 0 for f in fractions):
        raise BadFractions("fractions must be non-negative")
    if abs(sum(fractions) - 1.0) > _FRACTION_TOLERANCE:
        raise BadFractions(f"fractions sum to {sum(fractions)}, not 1")
    if len(corpus) < _MIN_SPLIT_SIZE:
        raise ValueError(
            f"corpus of {len(corpus)} utterances is too small to split"
        )
    shuffled = list(corpus)
    random.Random(seed).shuffle(shuffled)
    n = len(shuffled)
    cut1 = int(fractions[0] * n)
    cut2 = int((fractions[0] + fractions[1]) * n)
    return shuffled[:cut1], shuffled[cut1:cut2], shuffled[cut2:]


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    """Per-class and aggregate scores plus the full confusion matrix.

    confusion is indexed [gold][predicted] in CLASS_ORDER.  training_log
    echoes the evaluated model's history so a report is self-describing.
    """

    dataset_tag: str
    per_class: dict[PunctClass, ClassMetrics]
    micro_precision: float
    micro_recall: float
    micro_f1_non_none: float
    macro_f1_non_none: float
    confusion: list[list[int]]
    token_count: int
    utterance_count: int
    repaired: bool
    training_log: list[dict] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "dataset": self.dataset_tag,
            "utterances": self.utterance_count,
            "tokens": self.token_count,
            "repaired": self.repaired,
            "micro_precision": self.micro_precision,
            "micro_recall": self.micro_recall,
            "micro_f1_non_none": self.micro_f1_non_none,
            "macro_f1_non_none": self.macro_f1_non_none,
            "per_class": {
                c.name: {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for c, m in self.per_class.items()
            },
            "confusion_order": [c.name for c in CLASS_ORDER],
            "confusion": self.confusion,
            "training_log": self.training_log,
        }

    def format_table(self) -> str:
        """Fixed-width per-class table plus the aggregate lines."""
        width = max(len(c.name) for c in CLASS_ORDER)
        lines = [
            f"{'class':<{width}}  {'prec':>7}  {'rec':>7}  {'f1':>7}  {'support':>7}"
        ]
        for c in CLASS_ORDER:
            m = self.per_class[c]
            lines.append(
                f"{c.name:<{width}}  {m.precision:>7.4f}  {m.recall:>7.4f}"
                f"  {m.f1:>7.4f}  {m.support:>7d}"
            )
        lines.append("")
        lines.append(f"micro-F1 (punctuation): {self.micro_f1_non_none:.4f}")
        lines.append(f"macro-F1 (punctuation): {self.macro_f1_non_none:.4f}")
        return "\n".join(lines)


def write_report_json(report: EvalReport, path: str | Path) -> None:
    """The report as sorted, indented UTF-8 JSON with a final newline."""
    write_json(report.to_json_dict(), path, indent=2)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def evaluate(
    model,
    test: Sequence[LabeledUtterance],
    apply_repair: bool = DEFAULT_REPAIR,
    *,
    dataset_tag: str = "test",
) -> EvalReport:
    """Score a model on labeled utterances.

    With apply_repair the predictions go through pairing repair first,
    exactly as they would when serving.  A model that returns the wrong
    number of labels raises PredictionLengthMismatch.
    """
    if not test:
        raise EmptyTestSet("no test utterances")
    nclasses = len(CLASS_ORDER)
    confusion = [[0] * nclasses for _ in range(nclasses)]
    for u in test:
        pred = model.predict(u.tokens)
        if len(pred) != len(u.labels):
            raise PredictionLengthMismatch(
                f"model returned {len(pred)} labels for {len(u.labels)} tokens"
            )
        if apply_repair:
            pred = repair_pairing(pred)
        for gold_label, pred_label in zip(u.labels, pred):
            confusion[CLASS_INDEX[gold_label]][CLASS_INDEX[pred_label]] += 1

    per_class: dict[PunctClass, ClassMetrics] = {}
    tp = pred_punct = gold_punct = tokens_seen = 0
    for ci, c in enumerate(CLASS_ORDER):
        support = sum(confusion[ci])
        predicted = sum(row[ci] for row in confusion)
        correct = confusion[ci][ci]
        precision = correct / predicted if predicted else 0.0
        recall = correct / support if support else 0.0
        per_class[c] = ClassMetrics(precision, recall, _f1(precision, recall), support)
        tokens_seen += support
        if c is not PunctClass.NONE:
            tp += correct
            pred_punct += predicted
            gold_punct += support

    micro_precision = tp / pred_punct if pred_punct else 0.0
    micro_recall = tp / gold_punct if gold_punct else 0.0
    micro_f1 = _f1(micro_precision, micro_recall)

    macro_classes = [
        c for c in CLASS_ORDER
        if c is not PunctClass.NONE and per_class[c].support > 0
    ]
    macro_f1 = (
        sum(per_class[c].f1 for c in macro_classes) / len(macro_classes)
        if macro_classes
        else 0.0
    )
    return EvalReport(
        dataset_tag=dataset_tag,
        per_class=per_class,
        micro_precision=micro_precision,
        micro_recall=micro_recall,
        micro_f1_non_none=micro_f1,
        macro_f1_non_none=macro_f1,
        confusion=confusion,
        token_count=tokens_seen,
        utterance_count=len(test),
        repaired=apply_repair,
        training_log=list(getattr(model, "training_log", [])),
    )
