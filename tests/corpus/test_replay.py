"""Replay the checked-in fuzzing corpus: every mined reproducer re-judges.

``tests/corpus/corpus.jsonl`` holds reproducers mined by the
coverage-guided fuzzer (see ``docs/fuzzing.md`` for the mining recipe).
Each row records the plan, the analysis configuration, and the verdict it
produced; this suite re-runs the analysis and asserts the status and
prediction count reproduce — on the in-memory backend and, extending the
store-backend equivalence invariant, on ``sharded:2`` and ``sqlite:`` as
well. Rows that store a (choice, boundary) assignment per fingerprint also
pin their shapes: each assignment must still be a model and decode to its
fingerprint on every backend. Shape fingerprints are portable by
construction, so this holds wherever the plan executes, and it does not
depend on which k predictions a search reaches first (see
``docs/fuzzing.md``).
"""
from pathlib import Path

import pytest

from repro.fuzz import load_corpus, replay_entry, replay_mismatches
from repro.history import history_to_json
from repro.isolation import is_serializable, pco_unserializable
from repro.minimize import minimize_witness

CORPUS_PATH = Path(__file__).parent / "corpus.jsonl"
CORPUS = load_corpus(CORPUS_PATH)

_IDS = [entry.id for entry in CORPUS]


def _assert_reproduces(entry, backend):
    history, batch = replay_entry(entry, backend)
    assert replay_mismatches(entry, history, batch) == []


class TestCorpusIsHealthy:
    def test_corpus_is_checked_in_and_nonempty(self):
        assert CORPUS_PATH.exists()
        assert len(CORPUS) >= 10

    def test_entry_ids_are_unique(self):
        ids = [entry.id for entry in CORPUS]
        assert len(set(ids)) == len(ids)

    def test_isolation_and_backend_diversity(self):
        """The mining recipe guarantees weak-level and sharded coverage;
        losing it would silently narrow what replay exercises."""
        isolations = {entry.isolation for entry in CORPUS}
        assert {"causal", "ra", "rc"} <= isolations
        assert any(
            entry.backend.startswith("sharded") for entry in CORPUS
        )

    def test_fingerprint_pinning_rows_keep_the_diversity(self):
        """Verdict-only rows must not become the only coverage of a
        level or of the sharded backend."""
        pinned = [entry for entry in CORPUS if entry.pins_fingerprints]
        assert len(pinned) > len(CORPUS) // 2
        assert {"causal", "ra", "rc"} <= {e.isolation for e in pinned}
        assert any(e.backend.startswith("sharded") for e in pinned)

    @pytest.mark.parametrize("entry", CORPUS, ids=_IDS)
    def test_pinning_rows_pin_every_fingerprint(self, entry):
        if entry.pins_fingerprints:
            assert set(entry.assignments) == set(entry.fingerprints)
            assert entry.novel in entry.assignments

    @pytest.mark.parametrize("entry", CORPUS, ids=_IDS)
    def test_rows_are_canonical(self, entry):
        raw = [
            line
            for line in CORPUS_PATH.read_text().splitlines()
            if line.strip()
        ]
        stored = raw[CORPUS.index(entry)]
        assert entry.line() == stored


class TestWitnesses:
    @pytest.mark.parametrize("entry", CORPUS, ids=_IDS)
    def test_witness_is_a_genuine_anomaly(self, entry):
        witness = entry.witness_history()
        assert witness is not None
        assert pco_unserializable(witness)
        assert not is_serializable(witness)
        assert entry.witness["meta"]["fingerprint"] == entry.novel

    @pytest.mark.parametrize("entry", CORPUS, ids=_IDS)
    def test_witness_is_minimal(self, entry):
        """Stored witnesses are fixpoints of the minimizer — re-shrinking
        changes nothing (gallery-sized reproducers, not raw predictions)."""
        witness = entry.witness_history()
        assert history_to_json(minimize_witness(witness)) == history_to_json(
            witness
        )
        assert len(witness) <= 4  # small enough to read as a figure


class TestReplay:
    @pytest.mark.parametrize("entry", CORPUS, ids=_IDS)
    def test_replays_on_inmemory(self, entry):
        _assert_reproduces(entry, "inmemory")

    @pytest.mark.parametrize("entry", CORPUS, ids=_IDS)
    def test_replays_on_sharded(self, entry):
        _assert_reproduces(entry, "sharded:2")

    @pytest.mark.parametrize("entry", CORPUS, ids=_IDS)
    def test_replays_on_sqlite(self, entry, tmp_path):
        _assert_reproduces(entry, f"sqlite:{tmp_path / 'replay.sqlite'}")
