"""Round-by-round pco solving must count exactly what the eager encoding counts.

:class:`IsoPredict` encodes the stratified pco at one ww/rw round, checks
the cycle goal under an activation literal, and adds rounds (up to
``fixpoint_rounds``) to the same solver only on UNSAT. The reference here
is the eager encoding: ``Encoding(fixpoint_rounds=N)`` fully compiled
before the first check, walked with the same blocking clauses.
"""
import pickle
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import gallery
from repro.api import Analysis
from repro.fuzz import load_corpus
from repro.isolation import IsolationLevel
from repro.predict import IsoPredict, PredictionStrategy
from repro.predict import analysis as analysis_mod
from repro.predict.encoder import Encoding
from repro.predict.unserializability import (
    approx_unserializability_constraints,
    blocking_clause,
)
from repro.predict.weak_isolation import isolation_constraints
from repro.smt import Bool, Not, Or, Result, SatSolver, Solver
from repro.sources import FuzzSource
from tests.predict.test_encoding_oracle import random_history

CAUSAL = IsolationLevel.CAUSAL
RC = IsolationLevel.READ_COMMITTED
#: the level/strategy pairs the campaign sweeps run
CONFIGS = (
    (CAUSAL, PredictionStrategy.APPROX_RELAXED),
    (RC, PredictionStrategy.APPROX_STRICT),
)
CORPUS = load_corpus(Path(__file__).parents[1] / "corpus" / "corpus.jsonl")


def eager_count(history, level, strategy, k, rounds=2) -> int:
    """Predictions (up to ``k``) of the eager ``rounds``-round encoding."""
    enc = Encoding(
        history, boundary=strategy.boundary, fixpoint_rounds=rounds
    )
    solver = Solver()
    for c in [
        *enc.feasibility_constraints(),
        *approx_unserializability_constraints(enc),
        *isolation_constraints(enc, level),
        *enc.definitions(),
    ]:
        solver.add(c)
    found = 0
    while found < k and solver.check() is Result.SAT:
        found += 1
        solver.add(blocking_clause(enc, solver.model()))
    return found


def escalated(history, level, strategy, k, **kwargs):
    return IsoPredict(level, strategy, **kwargs).predict_many(history, k=k)


def gallery_histories() -> dict:
    histories = {
        name: getattr(gallery, name)()
        for name in dir(gallery)
        if name.endswith(("_observed", "_history", "_predicted",
                          "_unserializable", "_noncausal"))
        and callable(getattr(gallery, name))
    }
    for name, pair in gallery.fig10_patterns().items():
        for i, history in enumerate(pair):
            histories[f"fig10{name}.{i}"] = history
    return histories


GALLERY = gallery_histories()


def assert_counts_agree(history, level, strategy, ks=(1, 2, 3)):
    # a walk to k finds min(k, |models|): one eager walk serves every k
    reference = eager_count(history, level, strategy, max(ks))
    for k in ks:
        batch = escalated(history, level, strategy, k)
        assert batch.status is not Result.UNKNOWN
        assert len(batch) == min(k, reference)
        # SAT may come at any round; UNSAT only once every round is encoded
        if len(batch) < k:
            assert batch.stats["pco_rounds"] == 2


class TestEscalationMatchesEagerReference:
    @given(
        random_history(),
        st.sampled_from(CONFIGS),
        st.sampled_from([1, 2, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_histories(self, history, config, k):
        assert_counts_agree(history, *config, ks=(k,))

    @pytest.mark.parametrize("name", sorted(GALLERY))
    @pytest.mark.parametrize("config", CONFIGS, ids=["causal", "rc"])
    def test_gallery(self, name, config):
        assert_counts_agree(GALLERY[name], *config)

    @pytest.mark.parametrize("entry", CORPUS, ids=[e.id for e in CORPUS])
    @pytest.mark.parametrize("config", CONFIGS, ids=["causal", "rc"])
    def test_corpus(self, entry, config):
        history = Analysis(
            FuzzSource(plan=entry.plan, seed=entry.record_seed)
        ).history
        assert_counts_agree(history, *config)


# an UNSAT history at every round: strict boundaries cut the deposit cycle
UNSAT = (gallery.deposit_observed(), CAUSAL, PredictionStrategy.APPROX_STRICT)


@pytest.fixture
def extensions(monkeypatch):
    """Counts :meth:`Encoding.extend_pco` calls."""
    calls = []
    original = Encoding.extend_pco

    def counting(enc):
        calls.append(enc.fixpoint_rounds + 1)
        return original(enc)

    monkeypatch.setattr(Encoding, "extend_pco", counting)
    return calls


class TestEscalationPolicy:
    def test_unsat_history_is_unsat_at_every_round(self):
        history, level, strategy = UNSAT
        for rounds in (1, 2, 3):
            assert eager_count(history, level, strategy, 1, rounds) == 0

    def test_rank_mode_never_escalates(self, extensions):
        batch = escalated(*UNSAT, k=1, pco_mode="rank")
        assert batch.status is Result.UNSAT
        assert extensions == []
        assert batch.stats["pco_rounds"] == 0

    def test_one_round_cap_never_escalates(self, extensions):
        batch = escalated(*UNSAT, k=1, fixpoint_rounds=1)
        assert batch.status is Result.UNSAT
        assert extensions == []
        assert batch.stats["pco_rounds"] == 1

    def test_clause_store_backends_get_every_round_up_front(
        self, extensions
    ):
        # each check re-solves the whole store cold: no escalation
        batch = escalated(*UNSAT, k=1, solver="portfolio:2:deterministic")
        assert batch.status is Result.UNSAT
        assert extensions == []
        assert batch.stats["pco_rounds"] == 2

    def test_three_round_cap_escalates_twice(self, extensions):
        history, level, strategy = UNSAT
        batch = escalated(history, level, strategy, k=1, fixpoint_rounds=3)
        assert batch.status is Result.UNSAT
        assert extensions == [2, 3]
        assert batch.stats["pco_rounds"] == 3
        assert len(batch) == eager_count(history, level, strategy, 1, 3)

    @pytest.mark.parametrize("rounds", [2, 3])
    def test_round_cap_agrees_with_eager_on_the_gallery(self, rounds):
        for history in GALLERY.values():
            for level, strategy in CONFIGS:
                assert len(
                    escalated(history, level, strategy, k=2,
                              fixpoint_rounds=rounds)
                ) == eager_count(history, level, strategy, 2, rounds)

    def test_sat_at_round_one_does_not_escalate(self, extensions):
        batch = escalated(
            gallery.deposit_observed(), CAUSAL,
            PredictionStrategy.APPROX_RELAXED, k=1,
        )
        assert batch.status is Result.SAT
        assert extensions == []
        assert batch.stats["pco_rounds"] == 1

    def test_single_predict_escalates_too(self, extensions):
        history, level, strategy = UNSAT
        result = IsoPredict(level, strategy).predict(history)
        assert result.status is Result.UNSAT
        assert extensions == [2]
        assert result.stats["pco_rounds"] == 2

    def test_exact_strategy_reports_the_seeding_rounds(self):
        result = IsoPredict(CAUSAL, PredictionStrategy.EXACT_STRICT).predict(
            gallery.deposit_observed()
        )
        assert result.stats["pco_rounds"] == 2

    def test_exact_enumeration_does_not_sum_rounds_over_phases(self):
        # the approximate phase drains at round 2, then CEGIS runs
        batch = escalated(
            gallery.deposit_observed(), CAUSAL,
            PredictionStrategy.EXACT_STRICT, k=1,
        )
        assert batch.stats["pco_rounds"] == 2

    def test_escalation_is_timed_into_the_gen_stages(self, monkeypatch):
        history, level, strategy = UNSAT
        escalate = IsoPredict._escalate
        seen = {}

        def spy(self, enc, solver, timings, guard):
            seen["before"] = dict(timings)
            escalate(self, enc, solver, timings, guard)
            seen["after"] = dict(timings)

        monkeypatch.setattr(IsoPredict, "_escalate", spy)
        stats = escalated(history, level, strategy, k=1).stats
        for key in ("encode_seconds", "compile_seconds", "gen_seconds"):
            assert seen["after"][key] > seen["before"][key]
            assert stats[key] == pytest.approx(seen["after"][key])
        assert stats["gen_seconds"] == pytest.approx(
            stats["encode_seconds"] + stats["compile_seconds"]
        )

    def test_deadline_during_escalation_resumes_to_same_verdict(
        self, monkeypatch
    ):
        """The clock runs out just after round 2 is added: UNKNOWN, and a
        later ensure finishes on the live solver with the fresh verdict."""
        history, level, strategy = UNSAT

        class Clock:
            offset = 0.0

            @staticmethod
            def monotonic():
                return time.monotonic() + Clock.offset

        reset = Solver.reset_activity

        def expire(solver):
            reset(solver)
            Clock.offset = 1e6  # every deadline is now in the past

        monkeypatch.setattr(analysis_mod, "time", Clock)
        monkeypatch.setattr(Solver, "reset_activity", expire)
        enum = IsoPredict(level, strategy).enumerator(history)
        enum.ensure(1, deadline=Clock.monotonic() + 60)
        assert enum.batch(1).status is Result.UNKNOWN
        assert enum.stats["pco_rounds"] == 2
        enum.ensure(1, deadline=Clock.monotonic() + 60)
        fresh = escalated(history, level, strategy, k=1)
        assert enum.batch(1).status is fresh.status is Result.UNSAT
        assert len(enum.batch(1)) == len(fresh) == 0


class TestEncodingExtension:
    @pytest.mark.parametrize("name", sorted(GALLERY))
    def test_extended_definitions_equal_eager(self, name):
        history = GALLERY[name]
        lazy = Encoding(history, fixpoint_rounds=1)
        lazy.pco("t0", "t1")
        added = lazy.extend_pco()
        eager = Encoding(history, fixpoint_rounds=2)
        eager.pco("t0", "t1")
        # choice/boundary atoms belong to each encoding: compare by text
        assert list(map(str, lazy.definitions())) == list(
            map(str, eager.definitions())
        )
        assert lazy.definitions()[-len(added):] == added
        assert lazy.pco_rounds == eager.pco_rounds == 2
        for pair in eager.pairs():
            assert lazy.pco(*pair) is eager.pco(*pair)
            assert lazy.ww(*pair) is eager.ww(*pair)
            assert lazy.rw(*pair) is eager.rw(*pair)

    def test_rank_mode_has_no_rounds(self):
        enc = Encoding(gallery.deposit_observed(), pco_mode="rank")
        enc.pco("t0", "t1")
        assert enc.pco_rounds == 0
        with pytest.raises(ValueError):
            enc.extend_pco()

    def test_guarded_goal_compiles_to_as_many_clauses(self):
        for history in GALLERY.values():
            enc = Encoding(history, fixpoint_rounds=1)
            goal = approx_unserializability_constraints(enc)
            guard = Bool("guard")
            bare, guarded = Solver(), Solver()
            for c in goal:
                bare.add(c)
                guarded.add(analysis_mod._guarded(guard, c))
            assert guarded.num_clauses == bare.num_clauses


class TestSolverSeams:
    def test_check_takes_expression_assumptions(self):
        p, q = Bool("p"), Bool("q")
        solver = Solver()
        solver.add(Or(Not(p), Not(q)))
        solver.add(Or(p, q))
        assert solver.check(assumptions=[p, q]) is Result.UNSAT
        assert solver.check(assumptions=[p]) is Result.SAT
        assert solver.model().bool_value("q") is False
        assert solver.check(assumptions=[Not(p)]) is Result.SAT
        assert solver.model().bool_value("q") is True

    def test_reset_activity_keeps_learned_clauses_and_phases(self):
        sat = SatSolver()
        for _ in range(6):
            sat.new_var()
        for clause in ([1, 2], [-1, 3], [-2, 3], [-3, 4], [-4, -5], [5, 6]):
            sat.add_clause(clause)
        assert sat.solve() is Result.SAT
        learned = sat.stats["learned"]
        phases = list(sat._phase)
        sat.reset_activity()
        assert sat._activity == [0.0] * 7
        assert sorted(sat._order) == [(0.0, v) for v in range(1, 7)]
        assert sat._phase == phases
        assert sat.stats["learned"] == learned
        assert sat.solve() is Result.SAT
        sat.add_clause([-3])
        assert sat.solve() is Result.UNSAT

    def test_reset_activity_is_a_no_op_for_clause_stores(self):
        from repro.smt.backends.base import ClauseStoreBackend

        store = ClauseStoreBackend()
        store.new_var()
        store.add_clause([1])
        store.reset_activity()
        assert store.num_clauses == 1


class TestTransactionViewsAreCached:
    def test_views_are_computed_once(self):
        txn = gallery.deposit_observed().transaction("t1")
        assert txn.reads is txn.reads
        assert txn.write_keys is txn.write_keys
        assert txn.read_keys == frozenset(r.key for r in txn.reads)

    def test_eq_hash_and_pickles_ignore_the_cache(self):
        fresh = gallery.deposit_observed().transaction("t1")
        warm = gallery.deposit_observed().transaction("t1")
        before = pickle.dumps(warm)
        warm.reads, warm.writes, warm.read_keys, warm.write_keys
        assert pickle.dumps(warm) == before
        assert warm == fresh and hash(warm) == hash(fresh)
        clone = pickle.loads(before)
        assert clone == warm and clone.write_keys == warm.write_keys
