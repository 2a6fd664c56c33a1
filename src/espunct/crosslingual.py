"""English-convention to Spanish-convention label conversion.

English question and exclamation marks only close; Spanish pairs them
with an inverted opener at the start of the clause.  Conversion is
pairing repair applied to close-only labels: every close is unmatched,
so repair plants its opener at the chunk start, or promotes it to the
full form when the chunk is a single token.
"""

from __future__ import annotations

from .corpus import LabeledUtterance, PunctClass
from .errors import AlreadySpanishConvention
from .postprocess import repair_pairing

# Labels only Spanish convention uses: a close-only sequence holds none.
_SPANISH_ONLY = frozenset(lab for lab in PunctClass if lab.is_opening or lab.is_full)


def anglicize_to_spanish_conventions(u: LabeledUtterance) -> LabeledUtterance:
    """Rewrite close-only labels into open/close pairs.

    Input labels must be close-only convention: no opening or full labels
    anywhere.  Closing labels keep their positions; each gains an opener
    at its chunk start, where the chunk is bounded by the previous
    punctuation of any kind.  A chunk of one token collapses into the
    full form on that token.
    """
    if not _SPANISH_ONLY.isdisjoint(u.labels):
        lab = next(lab for lab in u.labels if lab in _SPANISH_ONLY)
        raise AlreadySpanishConvention(
            f"label {lab.name} already uses Spanish pairing"
        )
    labels = tuple(repair_pairing(u.labels))
    return LabeledUtterance(u.tokens, labels, source=u.source, lang=u.lang)
