"""Tseitin transformation from the expression AST to CNF.

The compiler walks the hash-consed DAG once per distinct node, emitting:

* a fresh SAT variable per composite node with defining clauses in both
  polarities (plain Tseitin; the DAG sharing from hash-consing keeps the
  output small in practice),
* a SAT variable per Boolean atom,
* a SAT variable per ``enum_eq`` atom, together with *exactly-one* clauses
  over each enum variable's candidate domain the first time the variable is
  seen, and
* a SAT variable per difference-logic atom, registered with the theory.

Top-level assertions are destructured: conjunctions assert each conjunct,
and disjunctions of literals become plain clauses, so no auxiliary variable
is wasted on the outermost structure. A definition ``Iff(v, D)`` whose
And/Or ``D`` is not compiled yet becomes ``D``'s gate with ``v`` as its
output, instead of a gate plus two clauses linking it to ``v``.
"""
from __future__ import annotations

from typing import Optional

from .ast import Expr, EnumVar, FALSE, Iff, TRUE
from .difference import DifferenceTheory
from .sat import SatSolver

__all__ = ["CnfCompiler"]


class CnfCompiler:
    """Compiles :class:`Expr` assertions into a :class:`SatSolver`.

    One compiler per solver instance; it owns the atom and enum registries
    used later for model extraction.
    """

    def __init__(self, sat: SatSolver, theory: Optional[DifferenceTheory]):
        self._sat = sat
        self._theory = theory
        self._lit_cache: dict[Expr, int] = {}
        self._enum_vars: dict[EnumVar, dict[int, int]] = {}
        self._bool_vars: dict[str, int] = {}
        self.num_literals = 0  # literal instances emitted (paper's "# Literals")

    # ------------------------------------------------------------------
    def assert_expr(self, e: Expr) -> None:
        """Assert ``e`` at the top level."""
        if e is TRUE:
            return
        if e is FALSE:
            self._sat.add_clause([])  # marks the solver unsat
            return
        if e.kind == "and":
            if len(e.args) == 2 and self._assert_definition(e):
                return
            for arg in e.args:
                self.assert_expr(arg)
            return
        if e.kind == "or":
            cache = self._lit_cache
            lits = [
                cache[arg] if arg in cache else self.literal(arg)
                for arg in e.args
            ]
            self._emit(lits, _distinct(lits))
            return
        self._emit([self.literal(e)])

    def _assert_definition(self, e: Expr) -> bool:
        """Compile ``Iff(v, D)`` as D's gate with ``v`` as its output.

        ``Iff(v, D)`` is ``And(Or(Not(v), D), Or(Not(D), v))``. Compiled
        as two clauses it costs a gate variable for D plus two clauses
        linking it to v; when D (an And/Or) has no literal yet, v itself
        can be the gate, and D is cached as v. Whether v was compiled
        before does not matter. Returns False, leaving ``e`` to the
        general path, when ``e`` is not of this shape, D is compiled
        already, or v is one of D's own arguments.
        """
        back = e.args[1]
        if back.kind != "or" or len(back.args) != 2:
            return False
        neg, v = back.args
        if v.kind != "var" or neg.kind != "not":
            return False
        d = neg.args[0]
        kind = d.kind
        if (
            (kind != "and" and kind != "or")
            or d in self._lit_cache
            or Iff(v, d) is not e
        ):
            return False
        g = self.literal(v)
        child_lits = [self.literal(a) for a in d.args]
        if g in child_lits or -g in child_lits:
            return False
        self._gate(kind, g, child_lits)
        self._lit_cache[d] = g
        return True

    def _gate(self, kind: str, g: int, child_lits: list[int]) -> None:
        """Emit the defining clauses of ``g ↔ kind(child_lits)``."""
        emit = self._emit
        clean = _distinct(child_lits)
        if kind == "and":
            for cl in child_lits:
                emit([-g, cl], clean)
            emit([g] + [-cl for cl in child_lits], clean)
        else:
            for cl in child_lits:
                emit([g, -cl], clean)
            emit([-g] + child_lits, clean)

    def _emit(self, lits: list[int], clean: bool = True) -> None:
        # Connectives dedupe and complement-fold their arguments, and
        # distinct atoms compile to distinct variables, so a clause repeats
        # a variable only where _assert_definition made two expressions
        # share one literal. Such a clause (not ``clean``) goes through
        # add_clause, which drops repeats and tautologies.
        self.num_literals += len(lits)
        if clean:
            self._sat.add_clause_trusted(lits)
        else:
            self._sat.add_clause(lits)

    # ------------------------------------------------------------------
    def literal(self, e: Expr) -> int:
        """SAT literal equisatisfiable with ``e`` (defining clauses added).

        Compilation walks the DAG with an explicit worklist rather than
        recursion, so arbitrarily deep expression chains (e.g. the layered
        closure encodings) never touch the interpreter's recursion limit
        and skip the per-node call overhead. The traversal reproduces the
        recursive order exactly: gate variables are allocated pre-order,
        children resolve depth-first left-to-right, and defining clauses
        are emitted post-order — so variable numbering (and therefore
        search behaviour) is byte-for-byte what the recursive compiler
        produced.
        """
        cache = self._lit_cache
        lit = cache.get(e)
        if lit is not None:
            return lit
        kind = e.kind
        if kind != "and" and kind != "or":
            if kind == "not":
                inner = cache.get(e.args[0])
                if inner is not None:
                    lit = -inner
                    cache[e] = lit
                    return lit
            else:
                lit = self._atom(e)
                cache[e] = lit
                return lit
        else:
            # fast path: a connective whose children are all compiled
            # already (the common case in layered closure encodings) needs
            # no traversal — allocate the gate and emit, exactly as the
            # worklist's enter/exit pair would
            child_lits = []
            for arg in e.args:
                cl = cache.get(arg)
                if cl is None:
                    break
                child_lits.append(cl)
            else:
                g = self._sat.new_var()
                self._gate(kind, g, child_lits)
                cache[e] = g
                return g
        _ENTER, _EXIT = 0, 1
        stack: list[tuple[Expr, int]] = [(e, _ENTER)]
        gates: dict[Expr, int] = {}
        while stack:
            node, phase = stack.pop()
            if phase == _ENTER:
                if node in cache:
                    continue  # shared subterm already compiled
                kind = node.kind
                if kind == "and" or kind == "or":
                    gates[node] = self._sat.new_var()
                    stack.append((node, _EXIT))
                    for arg in reversed(node.args):
                        stack.append((arg, _ENTER))
                elif kind == "not":
                    stack.append((node, _EXIT))
                    stack.append((node.args[0], _ENTER))
                else:
                    cache[node] = self._atom(node)
            else:  # _EXIT: children are compiled, finish this node
                kind = node.kind
                if kind == "not":
                    cache[node] = -cache[node.args[0]]
                    continue
                g = gates.pop(node)
                self._gate(kind, g, [cache[a] for a in node.args])
                cache[node] = g
        return cache[e]

    def _atom(self, e: Expr) -> int:
        """Compile a non-connective node to a literal."""
        kind = e.kind
        if kind == "true" or kind == "false":
            # a constant literal: a fresh var pinned by a unit clause
            var = self._sat.new_var()
            self._emit([var if kind == "true" else -var])
            return var if kind == "true" else -var
        if kind == "var":
            name = e.args[0]
            var = self._bool_vars.get(name)
            if var is None:
                var = self._sat.new_var()
                self._bool_vars[name] = var
            return var
        if kind == "enum_eq":
            enum_var, idx = e.args
            return self._enum_literal(enum_var, idx)
        if kind == "le" or kind == "le1":
            x, y, c = e.args
            if self._theory is None:
                raise RuntimeError(
                    "difference-logic atom used without a theory solver"
                )
            var = self._sat.new_var()
            self._theory.add_atom(var, x, y, c, one_sided=(kind == "le1"))
            return var
        raise AssertionError(f"unknown expression kind {kind!r}")

    # ------------------------------------------------------------------
    def _enum_literal(self, enum_var: EnumVar, value_idx: int) -> int:
        table = self._enum_vars.get(enum_var)
        if table is None:
            table = {
                enum_var.sort.index_of(v): self._sat.new_var()
                for v in enum_var.candidates
            }
            self._enum_vars[enum_var] = table
            sat_vars = list(table.values())
            self._emit(sat_vars)  # at least one
            for i in range(len(sat_vars)):
                for j in range(i + 1, len(sat_vars)):
                    self._emit([-sat_vars[i], -sat_vars[j]])
        lit = table.get(value_idx)
        if lit is None:
            raise AssertionError(
                f"value index {value_idx} not a candidate of {enum_var!r}"
            )
        return lit

    # ------------------------------------------------------------------
    # Model extraction helpers
    # ------------------------------------------------------------------
    def enum_value(self, enum_var: EnumVar) -> object:
        """The enum member assigned to ``enum_var`` in the current model."""
        table = self._enum_vars.get(enum_var)
        if table is None:
            # never mentioned in any constraint: any candidate works
            return enum_var.candidates[0]
        for idx, sat_var in table.items():
            if self._sat.model_value(sat_var):
                return enum_var.sort.values[idx]
        raise AssertionError(f"no value assigned for {enum_var!r}")

    def bool_value(self, name: str) -> Optional[bool]:
        var = self._bool_vars.get(name)
        if var is None:
            return None
        return self._sat.model_value(var)

    def expr_value(self, e: Expr) -> Optional[bool]:
        """Model value of a compiled (sub)expression, if it was compiled."""
        lit = self._lit_cache.get(e)
        if lit is None:
            return None
        val = self._sat.model_value(abs(lit))
        if val is None:
            return None
        return val if lit > 0 else not val


def _distinct(lits: list[int]) -> bool:
    """Do ``lits`` mention pairwise-distinct variables?"""
    if len(lits) == 2:
        a, b = lits
        return a != b and a != -b
    return len({lit if lit > 0 else -lit for lit in lits}) == len(lits)
