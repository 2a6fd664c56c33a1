"""Validation and repair of paired-mark structure in label sequences.

A greedy tagger can open a question and never close it, or close one
that never opened.  Repair turns any label sequence into a valid one
without touching tokens, and it is the only statement of the pairing
rule: a sequence is valid exactly when repair would change nothing.  It
is also the one code path that places pairing marks: serving and
evaluation repair predictions with it, and English-to-Spanish conversion
is repair of close-only labels.
"""

from __future__ import annotations

from typing import Sequence

from .corpus import FULL_FOR, OPENER_FOR, PunctClass, chunk_start

# The kind of each label that opens a pair, and of each that closes one.
_OPENS = {lab: lab.kind for lab in PunctClass if lab.is_opening}
_CLOSES = {lab: lab.kind for lab in PunctClass if lab.is_closing}
_PAIRED = frozenset(_OPENS) | frozenset(_CLOSES)


def validate_pairing(labels: Sequence[PunctClass]) -> bool:
    """True when repair_pairing would leave labels as they are."""
    return repair_pairing(labels) == list(labels)


def repair_pairing(labels: Sequence[PunctClass]) -> list[PunctClass]:
    """Minimal rewrite of labels into a valid sequence.

    Valid means each open is matched by a later close of its kind, each
    close by an earlier open, and at most one pair is open at a time;
    full labels are self-closed and legal anywhere, including inside an
    open pair.  Unmatched opens become NONE.  Each unmatched close gains
    a partner: an opener at its chunk start, or the full form when the
    chunk is one token or a different pair is already open around it.
    Matched pairs and all non-paired labels survive untouched.  The
    result is a fixed point: repairing it again changes nothing.
    """
    work = list(labels)
    if _PAIRED.isdisjoint(work):
        return work

    # First drop every open that never finds its close; what remains is
    # a sequence whose opens all match.
    pending: tuple | None = None  # (kind, index)
    unmatched_opens: list[int] = []
    for i, lab in enumerate(work):
        kind = _OPENS.get(lab)
        if kind is not None:
            if pending is None:
                pending = (kind, i)
            else:
                unmatched_opens.append(i)
        elif pending is not None and pending[0] is _CLOSES.get(lab):
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
        kind = _OPENS.get(lab)
        if kind is not None:
            pending_kind = kind
            continue
        kind = _CLOSES.get(lab)
        if kind is None:
            continue
        if pending_kind is kind:
            pending_kind = None
        elif pending_kind is not None:
            work[i] = FULL_FOR[kind]
        else:
            j = chunk_start(work, i)
            if j == i:
                work[i] = FULL_FOR[kind]
            else:
                work[j] = OPENER_FOR[kind]
    return work
