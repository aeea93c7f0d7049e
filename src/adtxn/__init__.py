"""Transactional concurrency control for abstract data types.

Operations, not reads and writes, are the unit of conflict: two operations
conflict only when their order could change a state or an answer, decided by
per-type commutativity tables whose conditions may read in-parameters and,
once an op has run, its results. Undo is by inverse operations chosen from
those same results. On top sit strict two-phase transactions, a per-object
admission monitor with result deduction, deadlock detection with
youngest-victim resolution, a deterministic workload simulator and
brute-force oracles for serializability, abort transparency and monitor
self-consistency.
"""

from .adts import BOOLEAN, REAL, SET, STACK, builtin_names, get_adt, register
from .core import (AdtSpec, ArityMismatch, FrameworkError, InverseRule,
                   Lifecycle, NoRuleMatches, OpSig, Origin, PreconditionViolated,
                   PrivateCall, PrivateInvocation, PublicCall, TagMismatch,
                   Translation, TranslationRule, UnknownOp, determine_inverse,
                   translate_public)
from .history import History, Metrics, compute_metrics, render_trace
from .manager import (TransactionAborted, TransactionManager, TransactionRecord,
                      TxnStatus)
from .monitor import AdmitOutcome, ManagedObject
from .oracles import (check_abort_transparency, check_serializable,
                      replay_serial, validate_run)
from .simulate import RunResult, ScheduleStuck, SimulationError, run_simulated
from .tables import (CommutTables, InCommutEntry, OutCommutEntry,
                     commute_with_in, commute_with_in_out, try_deduce)
from .validate import validate_adt
from .values import (FALSE, TRUE, UNIT, Tag, Value, boolean, item, rational,
                     render, report, seq)
from .workload import (Workload, WorkloadError, parse_workload, render_workload)

__version__ = "0.1.0"
