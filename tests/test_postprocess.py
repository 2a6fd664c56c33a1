"""Pairing validation and repair of predicted label sequences."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from espunct.corpus import PunctClass, terminal_count
from espunct.postprocess import repair_pairing, validate_pairing

from generators import random_label_sequence, random_valid_labels
from helpers import labels, reference_repair_pairing, reference_validate_pairing


def L(pattern):
    return list(labels(pattern))


def _terminals(seq):
    return sum(1 for l in seq if l.is_terminating)


@pytest.mark.parametrize("pattern", [
    "OQ N CQ",
    "N C P",
    "FE",
    "OQ P CQ",       # plain terminators are legal inside a pair
    "OQ FE CQ",      # so are full marks
    "OE N CE N FQ",
])
def test_validate_accepts_well_formed(pattern):
    assert validate_pairing(L(pattern))


def test_validate_accepts_empty():
    assert validate_pairing([])


@pytest.mark.parametrize("pattern", [
    "OQ N N",        # open never closed
    "N N CQ",        # close never opened
    "OQ N CE",       # kinds disagree
    "OQ OE CE",      # nesting
    "OQ FQ",         # full does not close the pending open
    "CQ OQ N CQ",    # leading close unopened
])
def test_validate_rejects(pattern):
    assert not validate_pairing(L(pattern))


def test_unmatched_open_dropped():
    assert repair_pairing(L("OQ N N")) == L("N N N")


def test_unmatched_close_gains_open():
    assert repair_pairing(L("N N CQ")) == L("OQ N CQ")


def test_close_right_after_terminator_opens_at_chunk_start():
    assert repair_pairing(L("N P N CE")) == L("N P OE CE")
    assert repair_pairing(L("N C N CE")) == L("N C OE CE")


def test_close_on_single_token_chunk_becomes_full():
    assert repair_pairing(L("N P CQ")) == L("N P FQ")
    assert repair_pairing(L("CQ")) == L("FQ")


def test_close_inside_foreign_pair_promotes_to_full():
    assert repair_pairing(L("OE CQ CE")) == L("OE FQ CE")


def test_repair_preserves_valid_input():
    for pattern in ("OQ N CQ", "N C P", "FE", "OE N N CE N P", "OQ P CQ"):
        seq = L(pattern)
        assert repair_pairing(seq) == seq


def test_repair_output_is_valid_and_idempotent():
    rng = random.Random(1)
    for _ in range(10000):
        n = rng.randint(1, 10)
        seq = random_label_sequence(rng, n)
        got = repair_pairing(seq)
        assert validate_pairing(got)
        assert repair_pairing(got) == got


def test_repair_preserves_terminator_count():
    rng = random.Random(2)
    for _ in range(5000):
        n = rng.randint(1, 10)
        seq = random_label_sequence(rng, n)
        want = _terminals(seq)
        assert _terminals(repair_pairing(seq)) == want


def test_random_valid_sequences_pass_validation():
    rng = random.Random(3)
    for _ in range(2000):
        n = rng.randint(1, 12)
        assert validate_pairing(random_valid_labels(rng, n))


def test_repair_outputs_and_fixed_points_match_the_plain_loop_validator():
    # validate_pairing is defined as "repair changes nothing", so the
    # pairing rule itself is checked here against the plain-loop oracle:
    # repair fixes exactly the valid sequences, and its output is valid.
    classes = list(PunctClass)
    for n in range(1, 6):
        for seq in map(list, itertools.product(classes, repeat=n)):
            repaired = repair_pairing(seq)
            assert reference_validate_pairing(seq) == (repaired == seq), seq
            assert reference_validate_pairing(repaired), seq


def test_terminal_count_helper_matches():
    from helpers import lu
    assert terminal_count(lu("a b c", "OQ N CQ")) == 1
    assert terminal_count(lu("a b", "N N")) == 0


# Sequences over all nine labels; a bias toward NONE gives long chunks,
# which is where repair plants its openers.
_LABEL_SEQUENCES = st.lists(
    st.sampled_from(list(PunctClass)) | st.just(PunctClass.NONE), max_size=14
)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_LABEL_SEQUENCES)
def test_pairing_tables_match_label_properties(seq):
    assert validate_pairing(seq) is reference_validate_pairing(seq)
    repaired = repair_pairing(seq)
    assert repaired == reference_repair_pairing(seq)
    assert type(repaired) is list and repaired is not seq
