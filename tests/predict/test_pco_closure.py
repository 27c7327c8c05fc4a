"""The stratified pco closure, pair by pair, against the graph relations.

With every read pinned to its observed writer and every boundary at
infinity (as in ``test_encoding_oracle.py``) each encoded pair has one
value. Round 0's pairs must be exactly the transitive closure of
so ∪ wr, round r's the r-th iterate of the graph fixpoint computation,
and the top round's exactly ``repro.isolation.pco_fixpoint``. Pivot
elimination defines at most n·(n−1)·(n−2) closure variables per round.
"""
import re

from hypothesis import given, settings

from repro.history.relations import so_pairs, transitive_closure, wr_pairs
from repro.isolation import pco_fixpoint
from repro.isolation.axioms import _ww_from_pco, rw_edges
from repro.predict.encoder import Encoding, INFINITY_POS
from repro.predict.strategies import BoundaryMode
from repro.smt import Result, Solver
from tests.predict.test_encoding_oracle import random_history
from tests.predict.test_round_escalation import GALLERY

_CLOSURE_VAR = re.compile(r"(p0|q\d+)\.c\d+\[")


def graph_rounds(history) -> list[frozenset]:
    """pco after each round of the graph fixpoint, until it is stable."""
    nodes = [t.tid for t in history.all_transactions()]
    pco = transitive_closure(
        set(so_pairs(history)) | set(wr_pairs(history)), nodes=nodes
    )
    rounds = [pco]
    while True:
        edges = (
            set(pco)
            | set(_ww_from_pco(history, pco))
            | set(rw_edges(history, pco))
        )
        pco = transitive_closure(edges, nodes=nodes)
        if pco == rounds[-1]:
            return rounds
        rounds.append(pco)


def pinned_pairs(history, rounds: int) -> dict:
    """Each pair's pco value at ``rounds`` with the observed choices pinned."""
    enc = Encoding(
        history, boundary=BoundaryMode.RELAXED, fixpoint_rounds=rounds
    )
    enc.pco(*enc.pairs()[0])  # builds the closure
    solver = Solver()
    for c in enc.feasibility_constraints():
        solver.add(c)
    for c in enc.definitions():
        solver.add(c)
    for (tid, pos), var in enc.choice.items():
        read = [r for r in history.transaction(tid).reads if r.pos == pos][0]
        solver.add(var.eq(read.writer))
    for var in enc.boundary.values():
        solver.add(var.eq(INFINITY_POS))
    assert solver.check() is Result.SAT
    model = solver.model()
    return {pair: model.evaluate(enc.pco(*pair)) for pair in enc.pairs()}


def assert_rounds_match_graph(history):
    expected = graph_rounds(history)
    for r, graph in enumerate(expected):
        values = pinned_pairs(history, r)
        wrong = sorted(p for p, v in values.items() if v != (p in graph))
        assert not wrong, f"round {r}: pairs {wrong} differ from the graph"
    # the encoding has no pair (t, t); a cycle shows as both (a, b), (b, a)
    top = pinned_pairs(history, len(expected))
    fixpoint = {(a, b) for (a, b) in pco_fixpoint(history) if a != b}
    assert {p for p, v in top.items() if v} == fixpoint


def closure_vars_per_round(enc: Encoding) -> dict[str, int]:
    counts: dict[str, int] = {}
    for definition in enc.definitions():
        if definition.kind != "and":
            continue
        var = definition.args[1].args[1]  # Iff(v, D): And(.., Or(¬D, v))
        m = _CLOSURE_VAR.match(var.args[0])
        if m:
            counts[m[1]] = counts.get(m[1], 0) + 1
    return counts


def assert_size_bound(history):
    enc = Encoding(history, fixpoint_rounds=3)
    enc.pco(*enc.pairs()[0])
    n = len(enc.tids)
    for tag, count in closure_vars_per_round(enc).items():
        assert count <= n * (n - 1) * (n - 2), tag


class TestClosurePairs:
    @given(random_history())
    @settings(max_examples=60, deadline=None)
    def test_random_rounds_match_graph_fixpoint(self, history):
        assert_rounds_match_graph(history)

    def test_gallery_rounds_match_graph_fixpoint(self):
        for name, history in GALLERY.items():
            try:
                assert_rounds_match_graph(history)
            except AssertionError as exc:
                raise AssertionError(f"{name}: {exc}") from exc


class TestClosureSize:
    @given(random_history())
    @settings(max_examples=40, deadline=None)
    def test_random_round_defines_at_most_n_cubed(self, history):
        assert_size_bound(history)

    def test_gallery_round_defines_at_most_n_cubed(self):
        for history in GALLERY.values():
            assert_size_bound(history)

    def test_closure_names_keep_round_and_pivot(self):
        history = GALLERY["fig8a_smallbank_observed"]
        enc = Encoding(history, fixpoint_rounds=2)
        enc.pco(*enc.pairs()[0])
        counts = closure_vars_per_round(enc)
        assert set(counts) <= {"p0", "q1", "q2"}
        assert counts.get("q2", 0) > 0
