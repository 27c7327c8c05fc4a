"""Statically decided pco pairs fold out of the stratified encoding.

A closure-layer, ``ww_r`` or ``rw_r`` definition that folds to TRUE, FALSE
or one literal is stored as that expression instead of a variable plus an
``Iff``, so session order and impossible pairs never reach the SAT core.
Verdict equality with the round-by-round reference is pinned by
``test_round_escalation.py`` and ``test_encoding_oracle.py``.
"""
import pytest
from hypothesis import given, settings

from repro.isolation import IsolationLevel
from repro.predict.encoder import Encoding
from repro.predict.unserializability import (
    approx_unserializability_constraints,
)
from repro.predict.weak_isolation import isolation_constraints
from repro.smt import TRUE, Iff, Not
from tests.predict.test_encoding_oracle import random_history
from tests.predict.test_round_escalation import GALLERY

ROUNDS = 3


def _rounds(history):
    """The encoding after each of its first ``ROUNDS`` ww/rw rounds."""
    enc = Encoding(history, fixpoint_rounds=1)
    yield enc
    for _ in range(ROUNDS - 1):
        enc.extend_pco()
        yield enc


def assert_so_pairs_are_true(history):
    for enc in _rounds(history):
        so = [pair for pair in enc.pairs() if enc.so(*pair)]
        assert all(enc.pco(*pair) is TRUE for pair in so)


def assert_no_literal_definition(history):
    enc = Encoding(history, fixpoint_rounds=ROUNDS)
    approx_unserializability_constraints(enc)  # builds pco
    isolation_constraints(enc, IsolationLevel.CAUSAL)  # builds hb
    iffs = 0
    for definition in enc.definitions():
        lit = definition.args[0] if definition.kind == "not" else definition
        if lit.kind == "var":
            # a unit: only hb's session-order facts, never a folded Iff
            assert lit.args[0].startswith("hb[")
            continue
        if definition.kind != "and":
            continue  # an hb clause
        # Iff(var, rhs) == And(Or(Not(var), rhs), Or(Not(rhs), var))
        back = definition.args[1]
        var, rhs = back.args[1], Not(back.args[0])
        assert Iff(var, rhs) is definition
        assert rhs.kind in ("and", "or"), f"{var} folds to {rhs}"
        iffs += 1
    return iffs


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_so_pairs_are_true_at_every_round_on_the_gallery(name):
    assert_so_pairs_are_true(GALLERY[name])


@given(random_history())
@settings(max_examples=60, deadline=None)
def test_so_pairs_are_true_at_every_round_on_random_histories(history):
    assert_so_pairs_are_true(history)


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_no_definition_has_a_literal_right_hand_side_on_the_gallery(name):
    assert_no_literal_definition(GALLERY[name])


@given(random_history())
@settings(max_examples=60, deadline=None)
def test_no_definition_has_a_literal_right_hand_side_on_random_histories(
    history,
):
    assert_no_literal_definition(history)


def test_the_gallery_still_defines_undecided_pairs():
    """Folding removes decided pairs, not the search: some Iffs remain."""
    assert sum(map(assert_no_literal_definition, GALLERY.values())) > 0
