"""Tseitin compiler tests: sharing, enum expansion, literal accounting."""
import itertools

from hypothesis import given, settings, strategies as st

from repro.smt import (
    And,
    Bool,
    EnumSort,
    EnumVar,
    FALSE,
    Iff,
    Not,
    Or,
    Result,
    Solver,
    TRUE,
)
from repro.smt.cnf import CnfCompiler
from repro.smt.difference import DifferenceTheory
from repro.smt.sat import SatSolver


def fresh():
    theory = DifferenceTheory()
    sat = SatSolver(theory=theory)
    return sat, CnfCompiler(sat, theory)


class TestTopLevelDestructuring:
    def test_top_level_and_asserts_conjuncts(self):
        sat, cnf = fresh()
        cnf.assert_expr(And(Bool("a"), Bool("b")))
        assert sat.solve() is Result.SAT
        assert cnf.bool_value("a") and cnf.bool_value("b")

    def test_top_level_or_is_one_clause(self):
        sat, cnf = fresh()
        before = sat.num_clauses
        cnf.assert_expr(Or(Bool("a"), Bool("b"), Bool("c")))
        assert sat.num_clauses == before + 1

    def test_true_asserts_nothing(self):
        sat, cnf = fresh()
        cnf.assert_expr(TRUE)
        assert sat.num_clauses == 0

    def test_false_makes_unsat(self):
        sat, cnf = fresh()
        cnf.assert_expr(FALSE)
        assert sat.solve() is Result.UNSAT


class TestSharing:
    def test_shared_subterm_compiled_once(self):
        sat, cnf = fresh()
        shared = And(Bool("a"), Bool("b"))
        cnf.assert_expr(Or(shared, Bool("c")))
        vars_after_first = sat.num_vars
        cnf.assert_expr(Or(shared, Bool("d")))
        # the shared conjunction must not allocate a second auxiliary var;
        # only 'd' is new
        assert sat.num_vars == vars_after_first + 1

    def test_negation_shares_literal(self):
        sat, cnf = fresh()
        a = Bool("a")
        l1 = cnf.literal(a)
        l2 = cnf.literal(Not(a))
        assert l1 == -l2


class TestEnumExpansion:
    def test_exactly_one_clauses_emitted_once(self):
        sat, cnf = fresh()
        sort = EnumSort("s", ["a", "b", "c"])
        v = EnumVar("v", sort)
        cnf.assert_expr(Or(v.eq("a"), v.eq("b")))
        clauses_after = sat.num_clauses
        cnf.assert_expr(Or(v.ne("c"), Bool("g")))
        # one new clause for the disjunction; no repeated exactly-one set
        assert sat.num_clauses == clauses_after + 1
        assert sat.solve() is Result.SAT
        assert cnf.enum_value(v) in ("a", "b")

    def test_model_assigns_exactly_one(self):
        sat, cnf = fresh()
        sort = EnumSort("s", ["a", "b", "c"])
        v = EnumVar("v", sort)
        cnf.assert_expr(v.ne("b"))
        assert sat.solve() is Result.SAT
        assert cnf.enum_value(v) in ("a", "c")

    def test_unmentioned_enum_defaults(self):
        sat, cnf = fresh()
        sort = EnumSort("s", ["a", "b"])
        v = EnumVar("unused", sort)
        assert cnf.enum_value(v) == "a"


class TestLiteralAccounting:
    def test_counter_monotone(self):
        sat, cnf = fresh()
        cnf.assert_expr(Or(Bool("a"), Bool("b")))
        first = cnf.num_literals
        cnf.assert_expr(Iff(Bool("c"), And(Bool("a"), Bool("b"))))
        assert cnf.num_literals > first


class TestExprValue:
    def test_compiled_subexpression_value(self):
        sat, cnf = fresh()
        conj = And(Bool("a"), Bool("b"))
        # nested (not top-level) so the conjunction gets its own literal
        cnf.assert_expr(Or(conj, Bool("g")))
        cnf.assert_expr(Not(Bool("g")))
        cnf.assert_expr(Bool("a"))
        cnf.assert_expr(Bool("b"))
        assert sat.solve() is Result.SAT
        assert cnf.expr_value(conj) is True

    def test_top_level_and_is_destructured_not_compiled(self):
        sat, cnf = fresh()
        conj = And(Bool("a"), Bool("b"))
        cnf.assert_expr(conj)
        assert sat.solve() is Result.SAT
        # destructured: the conjunction itself has no literal of its own
        assert cnf.expr_value(conj) is None
        assert cnf.bool_value("a") and cnf.bool_value("b")

    def test_uncompiled_returns_none(self):
        sat, cnf = fresh()
        assert cnf.expr_value(And(Bool("x"), Bool("y"))) is None


class TestDefinitionGates:
    """``Iff(v, D)`` compiles D's gate with v as its output."""

    def setup_method(self):
        self.sat, self.cnf = fresh()
        self.atoms = [Bool(n) for n in "abc"]
        for a in self.atoms:
            self.cnf.literal(a)

    def added(self, e):
        clauses, nvars = self.sat.num_clauses, self.sat.num_vars
        self.cnf.assert_expr(e)
        return self.sat.num_clauses - clauses, self.sat.num_vars - nvars

    def test_fresh_var_gets_only_the_gate_clauses(self):
        a, b, c = self.atoms
        d = Or(a, And(b, c))
        self.cnf.literal(d.args[1])  # compile the conjunction first
        # Or over 2 children: 2 + 1 clauses, and v is the only new var
        assert self.added(Iff(Bool("v"), d)) == (3, 1)
        assert self.cnf._lit_cache[d] == self.cnf.literal(Bool("v"))

    def test_compiled_var_gets_only_the_gate_clauses(self):
        a, b, c = self.atoms
        v = Bool("v")
        self.cnf.literal(v)
        # And over 3 children: 3 + 1 clauses, no new var
        assert self.added(Iff(v, And(a, b, c))) == (4, 0)

    def test_compiled_definition_falls_back_to_links(self):
        a, b, _ = self.atoms
        d = And(a, b)
        self.cnf.literal(d)
        assert self.added(Iff(Bool("v"), d)) == (2, 1)

    def test_var_among_its_own_arguments_falls_back(self):
        a, b, _ = self.atoms
        v = Bool("v")
        # v ↔ (v ∧ a ∧ b): a gate with v as output would be a tautology
        e = Iff(v, And(v, a, b))
        assert e.kind == "and"
        clauses, nvars = self.added(e)
        assert nvars == 2  # v and the conjunction's own gate
        assert self.sat.solve() is Result.SAT

    def test_aliased_literal_in_one_clause(self):
        a, b, _ = self.atoms
        v, d = Bool("v"), Or(a, b)
        self.cnf.assert_expr(Iff(v, d))
        # v and d now share one literal, so these clauses repeat a
        # variable: the tautology adds nothing, the repeat is dropped
        assert self.added(Or(v, Not(d))) == (0, 0)
        self.cnf.assert_expr(Or(v, d))
        self.cnf.assert_expr(Or(Not(v), Not(a)))
        self.cnf.assert_expr(Or(And(v, d), And(Not(v), Not(d))))
        assert self.sat.solve() is Result.SAT
        assert self.cnf.bool_value("b") is True
        assert self.cnf.bool_value("a") is False


# --- a brute-force oracle for formulas with definitions -------------------

_BASE = ["a", "b", "c"]
_DEFINED = ["v0", "v1", "v2"]


def _formula(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            inner.map(Not),
            st.lists(inner, min_size=2, max_size=3).map(lambda es: And(*es)),
            st.lists(inner, min_size=2, max_size=3).map(lambda es: Or(*es)),
        ),
        max_leaves=5,
    )


@st.composite
def definitions_and_constraints(draw):
    leaves = [Bool(n) for n in _BASE + _DEFINED]
    rhs = [draw(_formula(leaves)) for _ in _DEFINED]
    defs = [Iff(Bool(name), d) for name, d in zip(_DEFINED, rhs)]
    # constraints may mention a definition's right-hand side too, so a
    # clause can hold two expressions that share one literal
    constraints = draw(st.lists(_formula(leaves + rhs), max_size=3))
    order = draw(st.permutations(defs + constraints))
    return rhs, defs, constraints, order


def _truth(e, env):
    kind = e.kind
    if kind == "true":
        return True
    if kind == "false":
        return False
    if kind == "var":
        return env[e.args[0]]
    if kind == "not":
        return not _truth(e.args[0], env)
    if kind == "and":
        return all(_truth(a, env) for a in e.args)
    return any(_truth(a, env) for a in e.args)


class TestDefinitionOracle:
    @given(definitions_and_constraints())
    @settings(max_examples=300, deadline=None)
    def test_matches_truth_table(self, case):
        rhs, defs, constraints, order = case
        names = _BASE + _DEFINED
        expected = any(
            all(_truth(e, dict(zip(names, bits))) for e in order)
            for bits in itertools.product((False, True), repeat=len(names))
        )
        solver = Solver()
        for e in order:
            solver.add(e)
        result = solver.check()
        assert result is (Result.SAT if expected else Result.UNSAT)
        if result is Result.SAT:
            model = solver.model()
            for e in defs + constraints:
                assert model.evaluate(e)
            # a right-hand side compiled as its variable's gate reads
            # back that variable's value, which must be its own truth
            for d in rhs:
                truth = model.evaluate(d)
                assert model.expr_value(d, truth) is truth
