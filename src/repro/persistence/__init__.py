"""Checkpoint, journal and deterministic replay.

The persistence subsystem makes experiments resumable and auditable:

* :mod:`~repro.persistence.snapshot` -- canonical-JSON digests and
  whole-system fingerprints.
* :mod:`~repro.persistence.journal` -- the append-only JSONL event
  journal (write-ahead log) with crash-tolerant reading and WAL-style
  truncation.
* :mod:`~repro.persistence.checkpoint` -- versioned, integrity-hashed
  checkpoint files.
* :mod:`~repro.persistence.scenarios` -- the declarative scenario
  registry that makes checkpoints rebuildable.
* :mod:`~repro.persistence.runner` -- the :class:`Run` session
  (start/resume -> drive -> checkpoint -> finish/abandon) and the thin
  run / run-to-checkpoint / resume drivers over it.
* :mod:`~repro.persistence.replay` -- re-run a journal and report the
  first divergence.
"""

# Eager on purpose (library packages export lazily, repro/_lazy.py):
# whoever imports this package is about to run, and ``run_to_checkpoint`` /
# ``resume_run`` / ``replay_journal`` execute inside the benchmark's timed
# regions, so what they import is compiled at start-up (DESIGN.md §4,
# "Import what runs").
from repro.persistence.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    default_paths,
)
from repro.persistence.journal import (
    JOURNAL_VERSION,
    JournalError,
    JournalRecords,
    JournalWriter,
    read_journal,
    truncate,
)
from repro.persistence.replay import (
    Divergence,
    ReplayReport,
    replay_journal,
    replay_run,
    write_divergence_report,
)
from repro.persistence.runner import (
    Run,
    RunRecorder,
    RunResult,
    drive,
    fast_forward,
    resume_run,
    run_scenario,
    run_to_checkpoint,
    save_checkpoint,
)
from repro.persistence.scenarios import (
    PreparedRun,
    ScenarioSpec,
    UnknownScenarioError,
    describe_scenario,
    prepare,
    register_scenario,
    scenario_names,
)
from repro.persistence.snapshot import (
    canonical_json,
    state_digest,
    system_digest,
    system_digest_state,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "Divergence",
    "JOURNAL_VERSION",
    "JournalError",
    "JournalRecords",
    "JournalWriter",
    "PreparedRun",
    "ReplayReport",
    "Run",
    "RunRecorder",
    "RunResult",
    "ScenarioSpec",
    "UnknownScenarioError",
    "canonical_json",
    "default_paths",
    "describe_scenario",
    "drive",
    "fast_forward",
    "prepare",
    "read_journal",
    "register_scenario",
    "replay_journal",
    "replay_run",
    "resume_run",
    "run_scenario",
    "run_to_checkpoint",
    "save_checkpoint",
    "scenario_names",
    "state_digest",
    "system_digest",
    "system_digest_state",
    "truncate",
    "write_divergence_report",
]
