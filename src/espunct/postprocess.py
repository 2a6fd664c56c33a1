"""Validation and repair of paired-mark structure in label sequences.

A greedy tagger can open a question and never close it, or close one
that never opened.  Repair turns any label sequence into one that passes
validate_pairing without touching tokens.  It is the one code path that
places pairing marks: serving and evaluation repair predictions with it,
and English-to-Spanish conversion is repair of close-only labels.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import FULL_FOR, OPENER_FOR, PunctClass, chunk_start


def validate_pairing(labels: Sequence[PunctClass]) -> bool:
    """True when opens and closes of each kind nest flatly and match.

    At most one pair may be open at a time; full labels are self-closed
    and legal anywhere, including inside an open pair.
    """
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


def repair_pairing(labels: Sequence[PunctClass]) -> list[PunctClass]:
    """Minimal rewrite of labels so that validate_pairing holds.

    Unmatched opens become NONE.  Each unmatched close gains a partner:
    an opener at its chunk start, or the full form when the chunk is one
    token or a different pair is already open around it.  Matched pairs
    and all non-paired labels survive untouched.  The result is a fixed
    point: repairing it again changes nothing.
    """
    work = list(labels)

    # First drop every open that never finds its close; what remains is
    # a sequence whose opens all match.
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

    # Then resolve closes left to right.  Inserting an opener at a chunk
    # start is safe only when no pair is open there; inside a foreign
    # pair the close is promoted to its full form instead.
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
