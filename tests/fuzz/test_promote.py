"""Corpus promotion: novelty admission, re-verification, idempotence."""
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz import (
    append_entry,
    batch_fingerprints,
    load_corpus,
    promote_entries,
    replay_entry,
)
from repro.predict.encoder import INFINITY_POS

REGRESSION = Path(__file__).parent.parent / "corpus" / "corpus.jsonl"


@pytest.fixture(scope="module")
def entries():
    corpus = load_corpus(REGRESSION)
    assert len(corpus) >= 3
    return corpus


@pytest.fixture
def source(tmp_path, entries):
    path = tmp_path / "finds" / "corpus.jsonl"
    for entry in entries[:2]:
        append_entry(path, entry)
    return path


class TestPromotion:
    def test_novel_finds_are_promoted(self, tmp_path, source, entries):
        dest = tmp_path / "regression.jsonl"
        report = promote_entries(source, dest)
        assert [e.id for e in report.promoted] == [
            e.id for e in entries[:2]
        ]
        assert not report.known and not report.failed
        assert [e.id for e in load_corpus(dest)] == [
            e.id for e in entries[:2]
        ]

    def test_repromotion_is_a_noop(self, tmp_path, source):
        dest = tmp_path / "regression.jsonl"
        promote_entries(source, dest)
        before = dest.read_text()
        report = promote_entries(source, dest)
        assert not report.promoted and not report.failed
        assert len(report.known) == 2
        assert dest.read_text() == before

    def test_known_shape_under_new_id_is_not_promoted(
        self, tmp_path, entries
    ):
        # same novel fingerprint, different campaign id: still a dup
        dest = tmp_path / "regression.jsonl"
        append_entry(dest, entries[0])
        source = tmp_path / "finds.jsonl"
        append_entry(source, replace(entries[0], id="fresh00000000-causal"))
        report = promote_entries(source, dest)
        assert not report.promoted
        assert [e.id for e in report.known] == ["fresh00000000-causal"]

    def test_failing_verification_is_reported_not_written(
        self, tmp_path, entries
    ):
        # claim one more prediction than the replay will produce
        broken = replace(
            entries[0],
            id="broken0000000-causal",
            predictions=entries[0].predictions + 1,
        )
        source = tmp_path / "finds.jsonl"
        append_entry(source, broken)
        append_entry(source, entries[1])
        dest = tmp_path / "regression.jsonl"
        messages = []
        report = promote_entries(source, dest, log=messages.append)
        assert [e.id for e in report.failed] == ["broken0000000-causal"]
        assert [e.id for e in report.promoted] == [entries[1].id]
        assert [e.id for e in load_corpus(dest)] == [entries[1].id]
        assert any("did not reproduce" in m for m in messages)

    def test_promotion_records_assignments_from_the_replay(
        self, tmp_path, entries
    ):
        # a pinned row whose replay still reaches all of its shapes
        for entry in entries:
            history, batch = replay_entry(entry)
            if entry.pins_fingerprints and set(entry.fingerprints) <= set(
                batch_fingerprints(batch, history)
            ):
                break
        source = tmp_path / "finds.jsonl"
        append_entry(source, replace(entry, assignments={}))
        dest = tmp_path / "regression.jsonl"
        report = promote_entries(source, dest)
        assert [e.id for e in report.promoted] == [entry.id]
        (promoted,) = load_corpus(dest)
        assert set(promoted.assignments) == set(entry.fingerprints)

    def test_a_broken_assignment_fails_verification(self, tmp_path, entries):
        # uncut sessions: no model, or one whose fingerprint says cut=0
        entry = next(
            e for e in entries
            if e.pins_fingerprints and "|cut=0" not in "".join(e.fingerprints)
        )
        broken = {
            fingerprint: {**doc, "boundaries": dict.fromkeys(
                doc["boundaries"], INFINITY_POS
            )}
            for fingerprint, doc in entry.assignments.items()
        }
        source = tmp_path / "finds.jsonl"
        append_entry(source, replace(entry, assignments=broken))
        report = promote_entries(source, tmp_path / "regression.jsonl")
        assert [e.id for e in report.failed] == [entry.id]

    def test_verify_false_skips_the_replay(self, tmp_path, entries):
        broken = replace(
            entries[0],
            id="broken0000000-causal",
            predictions=entries[0].predictions + 1,
        )
        source = tmp_path / "finds.jsonl"
        append_entry(source, broken)
        dest = tmp_path / "regression.jsonl"
        report = promote_entries(source, dest, verify=False)
        assert [e.id for e in report.promoted] == ["broken0000000-causal"]

    def test_summary_lists_ids(self, tmp_path, source, entries):
        dest = tmp_path / "regression.jsonl"
        summary = promote_entries(source, dest).summary()
        assert summary["promoted"] == [e.id for e in entries[:2]]
        assert summary["known"] == [] and summary["failed"] == []

    def test_regression_corpus_promotes_into_itself_as_noop(self, entries):
        # the shipped suite is already deduplicated: promoting it onto
        # itself must not touch the file
        before = REGRESSION.read_text()
        report = promote_entries(REGRESSION, REGRESSION)
        assert not report.promoted and not report.failed
        assert len(report.known) == len(entries)
        assert REGRESSION.read_text() == before
