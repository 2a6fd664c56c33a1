"""Synthetic utterances for the tests.

Arbitrary valid utterances and label sequences for round-trip and
repair properties, and a rule corpus whose labels follow
deterministically from lexical cues, so a working tagger must score
near-perfect on it.  The benchmark's bilingual corpora live in
espunct.synthetic, which lends the rule corpus its label shapes.
"""

from __future__ import annotations

import random

from espunct.corpus import CLOSER_FOR, Kind, LabeledUtterance, PunctClass
from espunct.synthetic import _pair_labels, _statement_labels

# --- arbitrary valid utterances -------------------------------------------

_TOKEN_ALPHABET = "abcdefghijklmnopqrstuvwxyzáéíóúñü"


def random_token(rng: random.Random) -> str:
    """A single valid token: word, number with decimal comma or point,
    occasionally capitalized, hyphen-suffixed, or with an inner
    apostrophe."""
    draw = rng.random()
    if draw < 0.05:
        return f"{rng.randint(0, 99)},{rng.randint(0, 9)}"
    if draw < 0.09:
        return f"{rng.randint(0, 9)}.{rng.randint(0, 99)}"
    word = "".join(
        rng.choice(_TOKEN_ALPHABET) for _ in range(rng.randint(1, 10))
    )
    style = rng.random()
    if style < 0.08:
        word = word[0].upper() + word[1:]
    elif style < 0.11:
        word = word.upper()
    if len(word) >= 3 and rng.random() < 0.04:
        word = word[:2] + "'" + word[2:]
    if rng.random() < 0.04:
        word += "-"
    return word


def random_valid_labels(rng: random.Random, n: int) -> list[PunctClass]:
    """A label sequence of length n that passes pairing validation.

    All nine classes occur with positive probability once n allows them.
    """
    labels: list[PunctClass] = []
    pending: Kind | None = None
    for i in range(n):
        last = i == n - 1
        if pending is not None and last:
            labels.append(CLOSER_FOR[pending])
            pending = None
            continue
        if pending is not None:
            choices = [
                PunctClass.NONE,
                CLOSER_FOR[pending],
                PunctClass.COMMA,
                PunctClass.PERIOD,
                PunctClass.FULL_QUESTION,
                PunctClass.FULL_EXCLAMATION,
            ]
            weights = [40, 35, 5, 5, 2, 2]
        else:
            choices = [
                PunctClass.NONE,
                PunctClass.COMMA,
                PunctClass.PERIOD,
                PunctClass.FULL_QUESTION,
                PunctClass.FULL_EXCLAMATION,
                PunctClass.OPEN_QUESTION,
                PunctClass.OPEN_EXCLAMATION,
            ]
            weights = [50, 10, 12, 3, 3, 0 if last else 6, 0 if last else 6]
        lab = rng.choices(choices, weights=weights)[0]
        if lab.is_opening:
            pending = lab.kind
        elif lab.is_closing:
            pending = None
        labels.append(lab)
    return labels


def random_labeled_utterance(
    rng: random.Random, max_tokens: int = 12
) -> LabeledUtterance:
    """An arbitrary valid LabeledUtterance for property tests."""
    n = rng.randint(1, max_tokens)
    return LabeledUtterance(
        tuple(random_token(rng) for _ in range(n)),
        tuple(random_valid_labels(rng, n)),
    )


def random_label_sequence(rng: random.Random, n: int) -> list[PunctClass]:
    """Unconstrained labels, usually failing pairing validation."""
    classes = list(PunctClass)
    return [rng.choice(classes) for _ in range(n)]


def random_english_labels(rng: random.Random, n: int) -> list[PunctClass]:
    """Close-only convention labels, as English data carries them."""
    choices = [
        PunctClass.NONE,
        PunctClass.COMMA,
        PunctClass.PERIOD,
        PunctClass.CLOSE_QUESTION,
        PunctClass.CLOSE_EXCLAMATION,
    ]
    weights = [55, 12, 15, 12, 6]
    return list(rng.choices(choices, weights=weights, k=n))


# --- rule corpus: labels decidable from local lexical cues ----------------

_RULE_STARTERS = ("bueno", "mire", "vale", "entonces", "pues", "oiga")
_RULE_FILLERS = (
    "necesito",
    "ayuda",
    "cuenta",
    "factura",
    "servicio",
    "problema",
    "sistema",
    "acceso",
    "clave",
    "correo",
    "tengo",
    "quería",
    "revisar",
    "cambiar",
    "pago",
    "María",
    "Juan",
)
_RULE_QWORDS = ("qué", "cómo", "dónde", "cuándo", "cuál")
_RULE_QFILLS = ("puedo", "hacer", "funciona", "cuesta", "tarda", "pasa")
_RULE_EWORDS = ("genial", "increíble", "gracias", "caramba", "madre")
_RULE_EFILLS = ("mía", "total", "santa")


def _rule_sentence(
    rng: random.Random, first: bool
) -> tuple[list[str], list[PunctClass]]:
    # Cue words never leak across roles: starters only open statements,
    # question/exclamation words only open their sentence type, so every
    # label is decidable from the token, its right neighbor, and
    # utterance end.
    draw = rng.random()
    if draw < 0.60:
        starters = [rng.choice(_RULE_STARTERS)] if not first or rng.random() < 0.5 else []
        body = [rng.choice(_RULE_FILLERS) for _ in range(rng.randint(2, 5))]
        if rng.random() < 0.08:
            # Numbers stay off the final slot so PERIOD keeps its cue.
            body.insert(
                rng.randrange(len(body)),
                f"{rng.randint(1, 99)},{rng.randint(0, 9)}",
            )
        return starters + body, _statement_labels(len(starters), len(body))
    if draw < 0.85:
        head, fills, kind = _RULE_QWORDS, _RULE_QFILLS, Kind.QUESTION
        body_max = 3
    else:
        head, fills, kind = _RULE_EWORDS, _RULE_EFILLS, Kind.EXCLAMATION
        body_max = 2
    tokens = [rng.choice(head)]
    tokens.extend(rng.choice(fills) for _ in range(rng.randint(0, body_max)))
    return tokens, _pair_labels(kind, len(tokens))


def rule_corpus(n: int, seed: int) -> list[LabeledUtterance]:
    """n utterances whose punctuation follows deterministic lexical rules."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        sentences = rng.choices((1, 2, 3), weights=(45, 35, 20))[0]
        tokens: list[str] = []
        labels: list[PunctClass] = []
        for s in range(sentences):
            t, l = _rule_sentence(rng, first=s == 0)
            tokens.extend(t)
            labels.extend(l)
        out.append(
            LabeledUtterance(tuple(tokens), tuple(labels), source="rule", lang="es")
        )
    return out
