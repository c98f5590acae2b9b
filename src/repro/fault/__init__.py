"""Failure injection: fault models, crash schedules and the storage injector.

The runtime consumes a :class:`~repro.fault.model.FaultModel` describing
whole-machine crashes and stable-storage faults (transient op failures +
silent checkpoint corruption), plus the retry budget for failed storage
operations.
"""

from .._lazy import lazy_surface

#: name -> the submodule defining it, imported on first use.
_LAZY = {
    "FaultModel": "model",
    "StorageFaultSpec": "model",
    "StorageFaultInjector": "injection",
    "OpVerdict": "injection",
    "make_injector": "injection",
    "CrashSchedule": "plans",
    "crash_times": "plans",
}

__all__ = list(_LAZY)
__getattr__, __dir__ = lazy_surface(__name__, _LAZY)
