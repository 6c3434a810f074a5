"""Crash-safe run state: durable journals, graceful shutdown, atomic
artifacts.

Three cooperating pieces make long mapping runs killable at any instant
without losing finished work or leaving torn files:

* :mod:`repro.runstate.journal` — a WAL-style JSONL run journal with
  content-addressed task keys; ``resume`` replays completed groups and
  rejects stale or option-mismatched records by key.
* :mod:`repro.runstate.shutdown` — SIGINT/SIGTERM handlers that unwind
  the dispatch loop via :class:`ShutdownRequested`, letting it terminate
  workers, flush the journal and report ``interrupted`` instead of dying
  mid-splice.
* :mod:`repro.runstate.atomic` — :func:`atomic_write`, the tmp-file +
  ``os.replace`` + fsync writer every artifact producer goes through.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "atomic": ("atomic_write", "fsync_directory"),
    "journal": (
        "JOURNAL_VERSION",
        "JournalError",
        "RunJournal",
        "journal_path",
        "load_journal",
        "open_journal",
        "task_key",
        "validate_journal",
    ),
    "shutdown": ("RunInterrupted", "ShutdownRequested", "graceful_shutdown"),
})

__all__ = [
    "atomic_write",
    "fsync_directory",
    "JOURNAL_VERSION",
    "JournalError",
    "RunJournal",
    "journal_path",
    "load_journal",
    "open_journal",
    "task_key",
    "validate_journal",
    "RunInterrupted",
    "ShutdownRequested",
    "graceful_shutdown",
]
