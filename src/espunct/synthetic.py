"""The synthetic bilingual benchmark for the transfer experiments.

One seed builds every corpus, with an engineered domain shift between
the small in-domain Spanish sample, its test traffic, the out-of-domain
Spanish sources and the English data.  The benchmark builds its inputs
from it; the tests add their own generators on top of its label shapes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .corpus import (
    CLOSER_FOR,
    FULL_FOR,
    Kind,
    LabeledUtterance,
    OPENER_FOR,
    PunctClass,
    RawUtterance,
    render,
)


def _statement_labels(starters: int, body: int) -> list[PunctClass]:
    """Labels of a statement: a comma on each of its starter words, then
    body words of which the last carries the period."""
    return (
        [PunctClass.COMMA] * starters
        + [PunctClass.NONE] * (body - 1)
        + [PunctClass.PERIOD]
    )


def _pair_labels(kind: Kind, n: int) -> list[PunctClass]:
    """Labels of an n-token question or exclamation in Spanish convention:
    the full form on a single token, else opener, NONE..., closer."""
    if n == 1:
        return [FULL_FOR[kind]]
    return [OPENER_FOR[kind]] + [PunctClass.NONE] * (n - 2) + [CLOSER_FOR[kind]]


# --- bilingual transfer benchmark -----------------------------------------

# Surface forms shared by both languages.  The helpful patterns (final
# tag-question "no", standalone exclamations) are frequent in English
# and in the Spanish test traffic but absent from the small Spanish
# training sample; the conflict tokens are mid-sentence filler in
# Spanish but sentence-final with PERIOD in English, so English-last
# training actively corrupts them.
_SHARED_TAGQ = "no"
_SHARED_EXCL = ("perfecto", "genial")
_SHARED_CONFLICT = ("ya", "listo")
_SHARED_CONTEXT = "bien"

# Confirmation sign-offs end statements with PERIOD.  The out-of-domain
# single-sentence corpora only ever show them line-final, where end-of-
# line position cues soak up the credit; the test traffic uses them
# mid-utterance too, so only concatenation-augmented data teaches the
# geometry that matters.
_CONFIRM_WORDS = ("correcto", "exacto")

_ES_STARTERS = ("bueno", "mire", "oiga", "vale")
_ES_FILLERS = (
    "necesito",
    "cuenta",
    "factura",
    "servicio",
    "sistema",
    "funciona",
    "acceso",
    "pago",
    "quería",
    "revisar",
)
_ES_QWORDS = ("qué", "cómo", "cuándo")
_ES_QFILLS = ("puedo", "hacer", "pasa", "tarda")

_EN_STARTERS = ("well", "okay", "so", "look")
_EN_FILLERS = (
    "account",
    "billing",
    "password",
    "signal",
    "issue",
    "working",
    "update",
    "charge",
)
_EN_QWORDS = ("what", "how", "when")
_EN_QFILLS = ("happens", "works", "costs", "helps")

_LDC_EXTRA = ("documento", "numero", "tarjeta", "oficina", "fecha")
_OS_EXTRA = ("película", "escena", "amigo", "noche", "casa")
_ALIEN_WORDS = (
    "dragón",
    "espada",
    "reino",
    "batalla",
    "castillo",
    "sangre",
    "rey",
    "trono",
)


@dataclass(frozen=True)
class TransferBenchmark:
    """Corpora for the cross-lingual and domain-adaptation experiments.

    os_pool is raw punctuated text (selection input); everything else is
    labeled.  en uses close-only English conventions and needs
    conversion before training.
    """

    es_train: list[LabeledUtterance]
    es_test: list[LabeledUtterance]
    ldc: list[LabeledUtterance]
    os_pool: list[RawUtterance]
    en: list[LabeledUtterance]


def _es_statement(
    rng: random.Random,
    first: bool,
    conflict_p: float,
    negation_p: float,
    confirm_p: float,
) -> tuple[list[str], list[PunctClass]]:
    starters = [rng.choice(_ES_STARTERS)] if rng.random() < (0.5 if first else 0.30) else []
    body = [rng.choice(_ES_FILLERS) for _ in range(rng.randint(2, 4))]
    if rng.random() < conflict_p:
        # "bien ya" sits mid-sentence, both tokens NONE.
        at = rng.randrange(len(body))
        body[at:at] = [_SHARED_CONTEXT, rng.choice(_SHARED_CONFLICT)]
    if rng.random() < negation_p:
        # Plain negation "no", never sentence-final.
        body.insert(rng.randrange(len(body)), _SHARED_TAGQ)
    if rng.random() < confirm_p:
        # Confirmation sign-off carries the period.
        body.append(rng.choice(_CONFIRM_WORDS))
    return starters + body, _statement_labels(len(starters), len(body))


def _es_question(rng: random.Random) -> tuple[list[str], list[PunctClass]]:
    body_len = rng.randint(1, 3)
    tokens = [rng.choice(_ES_QWORDS)]
    tokens.extend(rng.choice(_ES_QFILLS) for _ in range(body_len))
    return tokens, _pair_labels(Kind.QUESTION, len(tokens))


def _es_utterance(
    rng: random.Random,
    *,
    tagq_p: float,
    excl_p: float,
    conflict_p: float,
    negation_p: float,
    confirm_p: float,
    source: str,
) -> LabeledUtterance:
    sentences = rng.choices((1, 2, 3), weights=(30, 45, 25))[0]
    tokens: list[str] = []
    labels: list[PunctClass] = []
    if rng.random() < excl_p:
        tokens.append(rng.choice(_SHARED_EXCL))
        labels.append(PunctClass.FULL_EXCLAMATION)
    for _ in range(sentences):
        if rng.random() < 0.65:
            t, l = _es_statement(rng, not tokens, conflict_p, negation_p, confirm_p)
        else:
            t, l = _es_question(rng)
        tokens.extend(t)
        labels.extend(l)
    if (
        labels[-1] is PunctClass.PERIOD
        and tokens[-1] not in _CONFIRM_WORDS
        and rng.random() < tagq_p
    ):
        # Tag question: the closing statement ends ", no?" instead of ".".
        labels[-1] = PunctClass.COMMA
        tokens.append(_SHARED_TAGQ)
        labels.append(PunctClass.FULL_QUESTION)
    return LabeledUtterance(tuple(tokens), tuple(labels), source=source, lang="es")


def _en_utterance(
    rng: random.Random, *, tagq_p: float, excl_p: float, conflict_p: float
) -> LabeledUtterance:
    sentences = rng.choices((1, 2), weights=(50, 50))[0]
    tokens: list[str] = []
    labels: list[PunctClass] = []
    if rng.random() < excl_p:
        tokens.append(rng.choice(_SHARED_EXCL))
        labels.append(PunctClass.CLOSE_EXCLAMATION)
    for _ in range(sentences):
        if rng.random() < 0.6:
            starters = [rng.choice(_EN_STARTERS)] if not tokens or rng.random() < 0.7 else []
            body = [rng.choice(_EN_FILLERS) for _ in range(rng.randint(2, 4))]
            tokens.extend(starters + body)
            labels.extend(_statement_labels(len(starters), len(body)))
            if rng.random() < conflict_p:
                # Sentence-final "bien ya." is idiomatic here, the same
                # surface the Spanish side uses mid-sentence; more words
                # always follow so the period cannot ride on end-of-line
                # position cues.
                tokens.extend([_SHARED_CONTEXT, rng.choice(_SHARED_CONFLICT)])
                tail = [rng.choice(_EN_FILLERS) for _ in range(rng.randint(2, 3))]
                tokens.extend(tail)
                labels.extend(_statement_labels(0, 2) + _statement_labels(0, len(tail)))
        else:
            body_len = rng.randint(1, 3)
            tokens.append(rng.choice(_EN_QWORDS))
            tokens.extend(rng.choice(_EN_QFILLS) for _ in range(body_len))
            labels.extend([PunctClass.NONE] * body_len)
            labels.append(PunctClass.CLOSE_QUESTION)
    if labels[-1] is PunctClass.PERIOD and rng.random() < tagq_p:
        labels[-1] = PunctClass.COMMA
        tokens.append(_SHARED_TAGQ)
        labels.append(PunctClass.CLOSE_QUESTION)
    return LabeledUtterance(tuple(tokens), tuple(labels), source="en", lang="en")


def _single_sentence(
    rng: random.Random, extra: tuple[str, ...], source: str
) -> LabeledUtterance:
    # Every sentence takes at least one word from the source-exclusive
    # extra vocabulary, so these lines never coincide with in-domain
    # utterances and the pipeline leakage check stays quiet.
    if rng.random() < 0.7:
        starters = [rng.choice(_ES_STARTERS)] if rng.random() < 0.5 else []
        body = [rng.choice(_ES_FILLERS) for _ in range(rng.randint(2, 5))]
        body.insert(rng.randrange(len(body)), rng.choice(extra))
        if rng.random() < 0.4:
            body.append(rng.choice(_CONFIRM_WORDS))
        tokens = starters + body
        labels = _statement_labels(len(starters), len(body))
    else:
        tokens = [rng.choice(_ES_QWORDS)]
        tokens.extend(rng.choice(_ES_QFILLS) for _ in range(rng.randint(1, 2)))
        tokens.append(rng.choice(extra))
        labels = _pair_labels(Kind.QUESTION, len(tokens))
    return LabeledUtterance(tuple(tokens), tuple(labels), source=source, lang="es")


def _alien_sentence(rng: random.Random) -> LabeledUtterance:
    # Subtitle-register noise: unknown vocabulary, and an in-domain
    # starter word abused as the exclamation-final token, so training on
    # it corrupts the starter cue.  Selection is supposed to filter it.
    tokens = [rng.choice(_ALIEN_WORDS) for _ in range(rng.randint(2, 5))]
    tokens.append(rng.choice(_ES_STARTERS))
    labels = _pair_labels(Kind.EXCLAMATION, len(tokens))
    return LabeledUtterance(tuple(tokens), tuple(labels), source="os-alien", lang="es")


def transfer_benchmark(
    seed: int,
    *,
    es_train_size: int = 300,
    es_test_size: int = 400,
    ldc_size: int = 1200,
    pool_good: int = 800,
    pool_alien: int = 1600,
    en_size: int = 2000,
) -> TransferBenchmark:
    """Build the benchmark corpora; one seed fixes everything."""
    rng = random.Random(seed)
    es_train = [
        _es_utterance(rng, tagq_p=0.0, excl_p=0.0, conflict_p=0.35,
                      negation_p=0.25, confirm_p=0.0, source="indomain")
        for _ in range(es_train_size)
    ]
    es_test = [
        _es_utterance(rng, tagq_p=0.30, excl_p=0.12, conflict_p=0.35,
                      negation_p=0.25, confirm_p=0.55, source="indomain")
        for _ in range(es_test_size)
    ]
    ldc = [
        _single_sentence(rng, _LDC_EXTRA, "ldc") for _ in range(ldc_size)
    ]
    pool_labeled = [
        _single_sentence(rng, _OS_EXTRA, "os-good") for _ in range(pool_good)
    ]
    pool_labeled.extend(_alien_sentence(rng) for _ in range(pool_alien))
    rng.shuffle(pool_labeled)
    os_pool = [
        RawUtterance(render(u), source=u.source, lang="es") for u in pool_labeled
    ]
    en = [
        _en_utterance(rng, tagq_p=0.30, excl_p=0.12, conflict_p=0.50)
        for _ in range(en_size)
    ]
    return TransferBenchmark(
        es_train=es_train, es_test=es_test, ldc=ldc, os_pool=os_pool, en=en
    )
