"""Test-support machinery: deterministic fault injection and the
failing-case shrinker.

Everything in this package is production code in the sense that the CLI
exposes it (``--inject-faults``) and the fault-tolerance layer is
validated through it — but nothing in the mapping flows *depends* on it:
:mod:`repro.mapping.parallel` imports it lazily and only when a task
actually carries an injection spec.
"""

from .._lazy import lazy_exports

__getattr__ = lazy_exports(__name__, globals(), {
    "faults": ("FAULT_KINDS", "FaultPlan", "FaultSpec", "InjectedFault"),
    "service_chaos": (
        "ChaosJournal",
        "hold_store_lock",
        "kill_process",
        "read_info",
        "slow_loris",
        "wait_for_info",
    ),
    "shrink": ("save_repro", "shrink_network"),
})

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ChaosJournal",
    "hold_store_lock",
    "kill_process",
    "read_info",
    "slow_loris",
    "wait_for_info",
    "shrink_network",
    "save_repro",
]
