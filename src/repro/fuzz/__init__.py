"""Coverage-guided scenario fuzzing (and the original random generator).

This package grew out of the single-module ``repro.fuzz`` random-app
generator; ``RandomApp``/``random_app`` are re-exported unchanged (same
import path, byte-identical shapes per seed). Around them now sits a
feedback-driven anomaly miner — see ``docs/fuzzing.md``:

* :mod:`repro.fuzz.plan` — program plans, the mutable genotype;
* :mod:`repro.fuzz.apps` — :class:`PlanApp`, executing any valid plan;
* :mod:`repro.fuzz.mutate` — deterministic structural mutation;
* :mod:`repro.fuzz.feedback` — anomaly-shape fingerprints and coverage
  keys;
* :mod:`repro.fuzz.corpus` — the JSONL find corpus with minimized
  witnesses;
* :mod:`repro.fuzz.engine` — the energy-scheduled fuzzing loop behind
  ``isopredict fuzz``.
"""
from .apps import PlanApp, RandomApp, random_app
from .corpus import (
    CorpusEntry,
    PromotionReport,
    append_entry,
    load_corpus,
    promote_entries,
    replay_entry,
    replay_mismatches,
)
from .engine import FuzzConfig, FuzzReport, Fuzzer, fuzz
from .feedback import (
    batch_fingerprints,
    coverage_key,
    cycle_signature,
    shape_fingerprint,
)
from .mutate import MUTATIONS, mutate_plan
from .plan import ProgramPlan, random_plan

__all__ = [
    "RandomApp",
    "random_app",
    "PlanApp",
    "ProgramPlan",
    "random_plan",
    "MUTATIONS",
    "mutate_plan",
    "cycle_signature",
    "shape_fingerprint",
    "batch_fingerprints",
    "coverage_key",
    "CorpusEntry",
    "PromotionReport",
    "append_entry",
    "load_corpus",
    "promote_entries",
    "replay_entry",
    "replay_mismatches",
    "FuzzConfig",
    "FuzzReport",
    "Fuzzer",
    "fuzz",
]
