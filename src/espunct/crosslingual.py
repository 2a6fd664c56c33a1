"""English-convention to Spanish-convention label conversion.

English question and exclamation marks only close; Spanish pairs them
with an inverted opener at the start of the clause.  Conversion walks
each closing label back to the start of its chunk and plants the opener
there, or promotes the label to the full form when the chunk is a single
token.
"""

from __future__ import annotations

from .corpus import (
    CLOSER_FOR,
    FULL_FOR,
    LabeledUtterance,
    OPENER_FOR,
    PunctClass,
    chunk_start,
)
from .errors import AlreadySpanishConvention


def anglicize_to_spanish_conventions(u: LabeledUtterance) -> LabeledUtterance:
    """Rewrite close-only labels into open/close pairs.

    Input labels must be close-only convention: no opening or full labels
    anywhere.  Closing labels keep their positions; each gains an opener
    at its chunk start, where the chunk is bounded by the previous
    punctuation of any kind.  A chunk of one token collapses into the
    full form on that token.
    """
    for lab in u.labels:
        if lab.is_opening or lab.is_full:
            raise AlreadySpanishConvention(
                f"label {lab.name} already uses Spanish pairing"
            )
    work = list(u.labels)
    for i, lab in enumerate(u.labels):
        if not lab.is_closing:
            continue
        kind = lab.kind
        j = chunk_start(work, i)
        if j == i:
            work[i] = FULL_FOR[kind]
        else:
            work[j] = OPENER_FOR[kind]
    return LabeledUtterance(u.tokens, tuple(work), source=u.source, lang=u.lang)
