"""Computational model of the paper (Section 2).

Locally shared memory, prioritised guarded actions, distributed fair
schedulers, Dolev-Israeli-Moran rounds, tracked neighbor reads, a sound
silence (communication fixed point) checker, and incremental
enabled-set engines that keep "who can act now" current in
O(Δ·activated) per step instead of a full O(n·Δ) rescan.
"""

from .actions import GuardedAction, first_enabled
from .batchengine import (
    BatchCrossCheckEngine,
    BatchEngine,
    BatchKernel,
    register_batch_kernel,
)
from .columns import ColumnStore
from .context import StepContext, StepContextPool
from .engine import (
    ENGINE_NAMES,
    CrossCheckEngine,
    EnabledSetEngine,
    IncrementalEngine,
    ScanEngine,
    make_engine,
)
from .exceptions import (
    ConvergenceError,
    DomainError,
    IllegalRead,
    IllegalWrite,
    ModelError,
    ReproError,
    TopologyError,
)
from .metrics import METRICS_TIERS, LeanStepRecord, MetricsCollector, StepRecord
from .protocol import Protocol
from .rngstreams import RngStreams, derive_seed
from .rounds import RoundTracker
from .scheduler import (
    BoundedFairScheduler,
    CentralScheduler,
    FixedSequenceScheduler,
    RandomSubsetScheduler,
    RoundRobinScheduler,
    Scheduler,
    SynchronousScheduler,
    make_scheduler,
)
from .silence import QuiescenceWitness, is_silent, silence_witness
from .simulator import Simulator, StabilizationReport
from .state import Configuration, StateLayout, StateView
from .trace import (
    FaultEvent,
    Trace,
    TraceEvent,
    TraceRecorder,
    record_run,
    verify_replay,
)
from .variables import (
    BOOL,
    Domain,
    FiniteSet,
    IntRange,
    VariableSpec,
    comm,
    const,
    internal,
)

__all__ = [
    "BOOL",
    "BatchCrossCheckEngine",
    "BatchEngine",
    "BatchKernel",
    "BoundedFairScheduler",
    "CentralScheduler",
    "ColumnStore",
    "Configuration",
    "ConvergenceError",
    "CrossCheckEngine",
    "Domain",
    "DomainError",
    "ENGINE_NAMES",
    "EnabledSetEngine",
    "FaultEvent",
    "FiniteSet",
    "FixedSequenceScheduler",
    "GuardedAction",
    "IncrementalEngine",
    "IllegalRead",
    "IllegalWrite",
    "IntRange",
    "LeanStepRecord",
    "METRICS_TIERS",
    "MetricsCollector",
    "ModelError",
    "Protocol",
    "QuiescenceWitness",
    "RandomSubsetScheduler",
    "ReproError",
    "RngStreams",
    "RoundRobinScheduler",
    "RoundTracker",
    "ScanEngine",
    "Scheduler",
    "Simulator",
    "StabilizationReport",
    "StateLayout",
    "StateView",
    "StepContext",
    "StepContextPool",
    "StepRecord",
    "SynchronousScheduler",
    "Trace",
    "TraceEvent",
    "TraceRecorder",
    "TopologyError",
    "VariableSpec",
    "comm",
    "const",
    "derive_seed",
    "first_enabled",
    "internal",
    "is_silent",
    "make_engine",
    "make_scheduler",
    "record_run",
    "register_batch_kernel",
    "verify_replay",
    "silence_witness",
]
