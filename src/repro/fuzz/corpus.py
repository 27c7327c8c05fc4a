"""The fuzzing corpus: JSONL-durable finds with full provenance.

One :class:`CorpusEntry` per novel unserializable find. Each row carries
everything needed to re-derive and re-judge it:

* the **plan** (full program JSON — the entry replays without its mutation
  lineage being re-run) plus provenance: parent entry id, mutation trail,
  root shape seed;
* the **configuration** that produced the verdict: isolation level, store
  backend spec, recording seed, prediction count ``k``;
* the **verdict**: batch status, prediction count, the sorted distinct
  shape fingerprints, and the one novel fingerprint that admitted the
  entry;
* the **assignments**: for each fingerprint, the (choice, boundary)
  assignment of one prediction that has it, so replay can pin the shapes
  without depending on the order a search reaches predictions in;
* the **witness**: the first novel prediction shrunk through
  ``minimize_witness`` into a gallery-sized reproducer (a version-1 trace
  document).

Rows are canonical JSON (sorted keys, no timestamps or timings), so a
reproducible campaign writes a byte-identical corpus — the property the
reproducibility test pins. The file layout follows the campaign JSONL
conventions: append-only, one document per line, resumable by re-reading.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Union

from ..history.model import History
from ..history.trace import history_from_json, history_to_json
from .plan import ProgramPlan

__all__ = [
    "CORPUS_VERSION",
    "CorpusEntry",
    "PromotionReport",
    "append_entry",
    "assignments_for",
    "load_corpus",
    "promote_entries",
    "replay_entry",
    "replay_mismatches",
]

#: Corpus row format version.
CORPUS_VERSION = 1


@dataclass
class CorpusEntry:
    """One mined reproducer: plan, provenance, configuration, verdict."""

    id: str
    plan: ProgramPlan
    isolation: str
    backend: str
    record_seed: int
    k: int
    status: str
    predictions: int
    fingerprints: tuple[str, ...]
    novel: str
    witness: Optional[dict] = None
    parent: Optional[str] = None
    trail: tuple[str, ...] = ()
    root_shape_seed: Optional[int] = None
    iteration: Optional[int] = None
    meta: dict = field(default_factory=dict)
    #: fingerprint -> ``{"choices": [[tid, pos, writer], ...],
    #: "boundaries": {session: pos}}`` of one prediction with that shape
    assignments: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def pins_fingerprints(self) -> bool:
        """Whether replay re-judges the row's shapes, not only its verdict.

        True when the row stores an assignment per fingerprint. Rows
        without one pin status and prediction count only: their
        ``fingerprints`` record what the mining run reached.
        """
        return bool(self.assignments)

    def witness_history(self) -> Optional[History]:
        """The minimized witness decoded back into a :class:`History`."""
        if self.witness is None:
            return None
        return history_from_json(self.witness)

    def to_json(self) -> dict:
        return {
            "version": CORPUS_VERSION,
            "id": self.id,
            "plan": self.plan.to_json(),
            "isolation": self.isolation,
            "backend": self.backend,
            "record_seed": self.record_seed,
            "k": self.k,
            "status": self.status,
            "predictions": self.predictions,
            "fingerprints": list(self.fingerprints),
            "novel": self.novel,
            "witness": self.witness,
            "parent": self.parent,
            "trail": list(self.trail),
            "root_shape_seed": self.root_shape_seed,
            "iteration": self.iteration,
            "meta": self.meta,
            "assignments": self.assignments,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CorpusEntry":
        version = data.get("version", CORPUS_VERSION)
        if version > CORPUS_VERSION:
            raise ValueError(
                f"corpus row version {version} is newer than this reader "
                f"(supports <= {CORPUS_VERSION})"
            )
        return cls(
            id=data["id"],
            plan=ProgramPlan.from_json(data["plan"]),
            isolation=data["isolation"],
            backend=data["backend"],
            record_seed=data["record_seed"],
            k=data["k"],
            status=data["status"],
            predictions=data["predictions"],
            fingerprints=tuple(data["fingerprints"]),
            novel=data["novel"],
            witness=data.get("witness"),
            parent=data.get("parent"),
            trail=tuple(data.get("trail", ())),
            root_shape_seed=data.get("root_shape_seed"),
            iteration=data.get("iteration"),
            meta=dict(data.get("meta", {})),
            assignments=dict(data.get("assignments", {})),
        )

    def line(self) -> str:
        """The canonical JSONL row (sorted keys, compact separators)."""
        return json.dumps(
            self.to_json(), sort_keys=True, separators=(",", ":")
        )


def make_witness_doc(history: History, meta: Optional[dict] = None) -> dict:
    """A witness history as an embeddable version-1 trace document."""
    return history_to_json(history, meta=meta)


def append_entry(path: Union[str, Path], entry: CorpusEntry) -> None:
    """Append one corpus row (creates the file and parents as needed)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as out:
        out.write(entry.line() + "\n")


def load_corpus(path: Union[str, Path]) -> list[CorpusEntry]:
    """Every corpus entry in ``path`` (empty list when the file is absent).

    Tolerates a trailing partial line — an interrupted campaign must stay
    resumable, mirroring the campaign executor's JSONL conventions.
    """
    path = Path(path)
    if not path.exists():
        return []
    out: list[CorpusEntry] = []
    with path.open() as lines:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError:
                continue  # trailing partial write from an interrupted run
            out.append(CorpusEntry.from_json(data))
    return out


def iter_corpus(path: Union[str, Path]) -> Iterator[CorpusEntry]:
    """Streaming variant of :func:`load_corpus`."""
    yield from load_corpus(path)


@dataclass
class PromotionReport:
    """What :func:`promote_entries` did, entry by entry."""

    promoted: list = field(default_factory=list)
    known: list = field(default_factory=list)
    failed: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "promoted": [e.id for e in self.promoted],
            "known": [e.id for e in self.known],
            "failed": [e.id for e in self.failed],
        }


def _assignment_doc(prediction) -> dict:
    """A prediction's (choice, boundary) assignment as row JSON."""
    return {
        "choices": sorted(
            [tid, pos, writer]
            for (tid, pos), writer in prediction.choices.items()
        ),
        "boundaries": dict(sorted(prediction.boundaries.items())),
    }


def assignments_for(fingerprints, batch, observed: History) -> dict:
    """One assignment per fingerprint, from the first prediction with it.

    Empty unless ``batch`` reaches every one of ``fingerprints``: a row
    pins all of its shapes or none.
    """
    from .feedback import shape_fingerprint

    found: dict = {}
    for prediction in batch.predictions:
        fingerprint = shape_fingerprint(prediction, observed)
        if fingerprint in fingerprints and fingerprint not in found:
            found[fingerprint] = _assignment_doc(prediction)
    return found if set(found) == set(fingerprints) else {}


def replay_entry(entry: CorpusEntry, backend: Optional[str] = None):
    """Re-run ``entry``'s recorded configuration: ``(history, batch)``."""
    from ..api import Analysis
    from ..sources import FuzzSource

    session = Analysis(
        FuzzSource(plan=entry.plan, seed=entry.record_seed),
        backend=backend,
    ).under(entry.isolation)
    session.using(
        "approx-relaxed",
        max_seconds=None,
        max_conflicts=entry.meta.get("max_conflicts"),
    )
    return session.history, session.predict(entry.k)


def replay_mismatches(entry: CorpusEntry, history: History, batch) -> list:
    """How a replay differs from ``entry``'s record; empty if it reproduces.

    The replay must reach the recorded status and prediction count. Each
    stored assignment must still be a model of the approximate encoding
    and decode to its fingerprint. That pins every shape to one
    prediction, whatever order a search reaches the predictions in.
    """
    from ..isolation.levels import IsolationLevel
    from ..predict import IsoPredict, PredictionStrategy
    from .feedback import shape_fingerprint

    problems = []
    if batch.status.value != entry.status:
        problems.append(f"status {batch.status.value}, recorded {entry.status}")
    if len(batch) != entry.predictions:
        problems.append(
            f"{len(batch)} predictions, recorded {entry.predictions}"
        )
    analyzer = IsoPredict(
        IsolationLevel.parse(entry.isolation),
        PredictionStrategy.APPROX_RELAXED,
        max_conflicts=entry.meta.get("max_conflicts"),
    )
    for fingerprint, doc in sorted(entry.assignments.items()):
        choices = {(tid, pos): writer for tid, pos, writer in doc["choices"]}
        result = analyzer.predict_assignment(
            history, choices, doc["boundaries"]
        )
        if not result.found:
            problems.append(f"{fingerprint}: assignment is no model")
            continue
        decoded = shape_fingerprint(result, history)
        if decoded != fingerprint:
            problems.append(f"{fingerprint}: assignment decodes to {decoded}")
    return problems


def _reverify(entry: CorpusEntry) -> bool:
    """Replay one entry as the regression suite does; True iff it reproduces.

    An entry without assignments gets them from the replay, so a promoted
    row pins its shapes whenever the replay reaches all of them.
    """
    history, batch = replay_entry(entry)
    if replay_mismatches(entry, history, batch):
        return False
    if not entry.assignments:
        entry.assignments = assignments_for(
            entry.fingerprints, batch, history
        )
    return True


def promote_entries(
    source: Union[str, Path],
    dest: Union[str, Path],
    verify: bool = True,
    log=None,
) -> PromotionReport:
    """Promote novel finds from a fuzz-run corpus into a regression corpus.

    Admission mirrors the miner's own novelty rule: an entry is promoted
    iff its ``novel`` fingerprint does not already appear in any ``dest``
    entry's fingerprint set (so re-promoting the same campaign is a
    no-op). With ``verify`` (the default) each candidate is replayed
    first and only reproducing entries land — a find that fails
    re-judging is reported under ``failed``, never silently written into
    the suite it would immediately break.
    """
    dest = Path(dest)
    known_shapes: set[str] = set()
    known_ids: set[str] = set()
    for entry in load_corpus(dest):
        known_shapes.update(entry.fingerprints)
        known_ids.add(entry.id)
    report = PromotionReport()
    for entry in load_corpus(source):
        if entry.novel in known_shapes or entry.id in known_ids:
            report.known.append(entry)
            continue
        if verify and not _reverify(entry):
            report.failed.append(entry)
            if log:
                log(f"  {entry.id}: verdict did not reproduce — skipped")
            continue
        append_entry(dest, entry)
        known_shapes.update(entry.fingerprints)
        known_ids.add(entry.id)
        report.promoted.append(entry)
        if log:
            log(f"  {entry.id}: promoted ({entry.novel})")
    return report
