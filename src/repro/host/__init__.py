"""repro.host — the host-computer software stack.

The driver (message-level), the session API (register allocation, typed
operations, multi-word arithmetic), batch program execution, and the
software baselines the benchmarks compare against.
"""

from .baselines import OpCounter, limbs_of, multiword_add, multiword_sub, value_of
from .driver import CoprocessorDriver, CoprocessorError
from .engine import (
    DEFAULT_WINDOW,
    EngineStats,
    HostEngine,
    HostFuture,
    TagAllocator,
    default_deadline_cycles,
)
from .errors import HostTimeoutError, LinkDownError, MachineCheckError
from .program import collect_values, run_program
from .session import OutOfRegisters, Pipeline, Session

__all__ = [
    "OpCounter",
    "limbs_of",
    "multiword_add",
    "multiword_sub",
    "value_of",
    "CoprocessorDriver",
    "CoprocessorError",
    "DEFAULT_WINDOW",
    "EngineStats",
    "HostEngine",
    "HostFuture",
    "HostTimeoutError",
    "LinkDownError",
    "MachineCheckError",
    "TagAllocator",
    "default_deadline_cycles",
    "collect_values",
    "run_program",
    "OutOfRegisters",
    "Pipeline",
    "Session",
]
