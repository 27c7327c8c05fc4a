"""The interned-expression table frees the nodes only it references."""
import gc

from repro import gallery
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import FALSE, TRUE, And, Bool, Not, Or
from repro.smt.ast import Expr, simplify_ops


def _live_ids() -> set:
    gc.collect()
    Expr.sweep()
    return {id(node) for node in Expr._table.values()}


def _build_chain(depth: int) -> Expr:
    e = Bool("sweep-leaf")
    for i in range(depth):
        e = Or(And(e, Bool(f"sweep-x{i}")), Not(Bool(f"sweep-y{i}")))
    return e


def _assert_interned(root: Expr) -> int:
    """Every node under ``root`` is the table's node for its key."""
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        assert Expr._table.get((node.kind, node.args)) is node
        stack.extend(a for a in node.args if isinstance(a, Expr))
    return len(seen)


def test_unreferenced_nodes_are_freed():
    before = _live_ids()
    _build_chain(50)
    assert len(Expr._table) > len(before)
    assert _live_ids() <= before


def test_a_held_node_survives_and_stays_interned():
    held = And(Bool("sweep-held-a"), Or(Bool("sweep-held-b"), Bool("c")))
    Expr.sweep()
    assert id(held) in {id(node) for node in Expr._table.values()}
    assert And(Bool("sweep-held-a"), Or(Bool("sweep-held-b"), Bool("c"))) \
        is held
    assert _assert_interned(held) == 5


def test_constants_survive_every_sweep():
    Expr.sweep()
    assert Expr._table[("true", ())] is TRUE
    assert Expr._table[("false", ())] is FALSE


def test_a_released_enumeration_leaves_only_held_nodes():
    before = _live_ids()
    analyzer = IsoPredict(
        IsolationLevel.CAUSAL, PredictionStrategy.APPROX_RELAXED
    )
    enum = analyzer.enumerator(gallery.fig8a_smallbank_observed())
    enum.ensure(2)
    assert enum.predictions
    assert len(Expr._table) > len(before)
    enum.release()
    del enum
    after = _live_ids()
    assert after <= before
    assert {id(TRUE), id(FALSE)} <= after


def test_sweeps_during_a_deep_build_leave_it_intact(monkeypatch):
    """Sweep every few new nodes while a deep expression is built."""
    sweeps = []
    sweep = Expr.sweep.__func__

    def frequent(cls):
        freed = sweep(cls)
        sweeps.append(freed)
        cls._sweep_at = len(cls._table) + 7
        return freed

    monkeypatch.setattr(Expr, "sweep", classmethod(frequent))
    monkeypatch.setattr(Expr, "_sweep_at", len(Expr._table) + 7)
    root = _build_chain(300)
    assert len(sweeps) > 50
    assert _assert_interned(root) == 1 + 300 * 5
    monkeypatch.undo()
    assert _build_chain(300) is root


def test_simplify_ops_counts_live_nodes():
    held = [Bool(f"sweep-count{i}") for i in range(10)]
    live = simplify_ops()
    del held
    assert simplify_ops() == live - 10


def test_the_automatic_sweep_bounds_the_table(monkeypatch):
    floor = len(Expr._table) + 100
    monkeypatch.setattr("repro.smt.ast._MIN_SWEEP", floor)
    monkeypatch.setattr(Expr, "_sweep_at", floor)
    for i in range(20 * floor):
        And(Bool(f"sweep-auto{i}.a"), Bool(f"sweep-auto{i}.b"))
    assert len(Expr._table) <= floor
