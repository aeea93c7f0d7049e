"""Deterministic cooperative simulation of concurrent transactions.

Each transaction is a cursor over its declared steps: the index of its
next step. The op it is blocked on, and the op a wake admitted for it, live
in its manager record. The scheduling quantum is one public operation, and
`quantum` runs exactly one: a transaction's first quantum is its BEGIN and
its first step (or, with no steps, its commit or abort); each later one
issues its next step, which completes (the manager executes an op that
its own deadlock resolution admitted), parks the transaction on a block,
or loses the deadlock it closed; the EXEC of an op a wake admitted is a
quantum of its own; and after the last step, the commit or abort is a
quantum of its own. A blocked transaction takes no quantum. Given the
same workload and seed the interleaving, the event stream and therefore
the rendered trace are byte-identical on every run; there is no wall clock
and no thread anywhere.

`quantum` is the one definition of what a transaction does when it next
moves. The simulation calls it for the transaction its schedule picks;
the history replay in `oracles` calls it on its own manager for the
transaction each quantum-opening event names. So the schedule, or the
history, supplies only the picks, and the declared steps supply the calls.
In the same way `engine` is the one setup of a run, the manager on its
sink with each declared object at its initial state and the one map from
each declared txn's name to its cursor, and `account` the one account of a
finished one: every object drained, every declared txn committed or
aborted, one INVERSE per undo entry of an aborted txn, and the final
states, statuses and metrics that follow. The simulation and the history
replay each call both, so a replay's result is a `RunResult` like the
run's, and the two are compared whole.

`quantum` drives the manager's plain steps, `begin`, `issue`, `resume`,
`commit` and `abort`, never the `perform` generator, and the manager's
wake notice is a list's `append`. So nothing in a run points back at the
simulation, no generator is made per call, and a finished run is freed by
reference counting alone.

A schedule is either seeded-random (uniform choice among runnable
transactions, with a step cap as a safety net against bugs that stall
progress) or an explicit token list naming which transaction advances next;
tokens for transactions that are waiting or finished are skipped, and when
tokens run out the lowest-numbered runnable transaction proceeds. The
tokens are read once, front to back, so a schedule costs time linear in
its length, skipped tokens included.

A deadlock victim other than the caller is parked on a block, so it is not
on the READY list, and it is simply never resumed: its record says
ABORTED, and nothing else needs to know. A victim that is the caller
itself sees its record ABORTED once its call returns, and leaves READY.

The READY list is kept, not rebuilt each step: it changes only where an
activity changes state. The resumed activity leaves it when its op did
not execute, parked on a block or lost, or when it finishes; it stays in
place when its step completes. Each activity woken during the quantum is
inserted afterwards at its declaration position; the resumed one, if its
own call was admitted while it resolved a deadlock, is still on the list.
The run ends when the list is empty, and `account` alone says whether it
finished: READY empties with a txn still ACTIVE only when a waits-for
cycle went unresolved or a wake was lost, an engine fault that the
account refuses as it refuses the same history in a replay. The list must
stay in declaration order, exactly as a scan of all activities would give
it, because the seeded schedule picks with `rng.choice`, which indexes it:
any other order would pick different transactions and change the trace.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter

from .adts import get_adt
from .core import FrameworkError, Lifecycle, PublicCall
from .history import History, Metrics, compute_metrics, render_trace
from .manager import ManagerInvariantError, TransactionManager, TxnStatus
from .monitor import MonitorInvariantError
from .workload import (ExplicitSchedule, RandomSchedule, TxnDecl, Workload,
                       initial_state)

# enum members as globals (see the `core` docstring)
_COMMITTED, _ABORTED = TxnStatus.COMMITTED, TxnStatus.ABORTED
_EXECUTED = Lifecycle.EXECUTED
_new_tuple = tuple.__new__
_by_index = attrgetter("index")


class SimulationError(FrameworkError):
    pass


class StepLimitExceeded(SimulationError):
    """The run did not finish within the schedule's step cap."""


class _Activity:
    """A transaction's cursor: its record once begun, and the index of its
    next step."""

    __slots__ = ("decl", "index", "rec", "next_step")

    def __init__(self, decl: TxnDecl, index: int):
        self.decl = decl
        self.index = index          # declaration position, the READY order
        self.rec = None
        self.next_step = 0


def quantum(mgr: TransactionManager, act: _Activity) -> bool:
    """Run one quantum of `act`'s txn on `mgr`; True when it leaves READY,
    parked on a block, lost a deadlock or finished. A blocked txn takes no
    quantum: that is the READY rule, checked here because `abort`, the
    only step that would take one, withdraws its op. The manager's steps
    refuse every other txn that is not free to step."""
    rec = act.rec
    if rec is None:
        rec = act.rec = mgr.begin(act.decl.name)
    elif rec.blocked_on:
        raise ManagerInvariantError(f"{rec.name} is blocked")
    elif rec.woken:
        # the EXEC of a woken op is a quantum of its own
        mgr.resume(rec)
        return False
    steps, i = act.decl.steps, act.next_step
    if i == len(steps):
        if act.decl.terminal == "commit":
            mgr.commit(rec)
        else:
            mgr.abort(rec)
        return True
    step = steps[i]
    act.next_step = i + 1
    _, inv = mgr.issue(rec, step.obj, _new_tuple(PublicCall, (step.op, step.ins)))
    # an op that did not execute is blocked, or its txn lost the deadlock
    return inv is not None and inv.lifecycle is not _EXECUTED


@dataclass
class RunResult:
    workload: Workload
    history: History
    metrics: Metrics
    final_states: dict[str, object]
    statuses: dict[str, TxnStatus]

    @property
    def trace(self) -> str:
        return render_trace(self.history)

    def rendered_states(self) -> dict[str, str]:
        out = {}
        for decl in self.workload.objects:
            out[decl.name] = get_adt(decl.adt).render_state(self.final_states[decl.name])
        return out


def engine(workload: Workload, sink, strict: bool = True, on_wake=None):
    """(manager, cursors): a `TransactionManager` that emits into `sink`,
    with each declared object at its initial state, and `{name: cursor}`
    over the declared txns, in declaration order. The one setup of a run
    and of its history replay, and the one map of a run's txn names: a
    name declared twice raises `SimulationError`."""
    mgr = TransactionManager(sink, strict=strict, on_wake=on_wake)
    for decl in workload.objects:
        mgr.add_object(decl.name, get_adt(decl.adt), initial_state(decl))
    cursors = {}
    for i, decl in enumerate(workload.txns):
        if decl.name in cursors:
            raise SimulationError(f"txn {decl.name} is declared twice")
        cursors[decl.name] = _Activity(decl, i)
    return mgr, cursors


def account(workload: Workload, history: History, mgr: TransactionManager,
            cursors) -> RunResult:
    """What a finished run is, the one account of a run and of its history
    replay: every object drained, every declared txn committed or aborted,
    and one INVERSE event per undo entry of an aborted txn, or this raises;
    then the final states, the statuses and the metrics that follow, each
    object's `max_in_execution` as its monitor counted it."""
    for obj in mgr.objects.values():
        if obj.live:
            raise MonitorInvariantError(f"{obj.name} still holds invocations")
    statuses, undone = {}, 0
    for name, act in cursors.items():
        rec = act.rec
        if rec is None or rec.status not in (_COMMITTED, _ABORTED):
            raise ManagerInvariantError(f"{name} did not commit or abort")
        if rec.status is _ABORTED:
            undone += len(rec.undo)
        statuses[name] = rec.status
    high = {name: obj.max_in_execution for name, obj in mgr.objects.items()}
    metrics = compute_metrics(history, high)
    if metrics.inverses != undone:
        raise ManagerInvariantError(f"{metrics.inverses} INVERSE events for "
                                    f"{undone} undo entries of aborted txns")
    return RunResult(
        workload=workload,
        history=history,
        metrics=metrics,
        final_states={n: o.state for n, o in mgr.objects.items()},
        statuses=statuses,
    )


def run_simulated(workload: Workload, seed: int | None = None,
                  strict: bool = True) -> RunResult:
    return _Simulation(workload, seed, strict).run()


class _Simulation:
    def __init__(self, workload, seed, strict):
        self.workload = workload
        self.history = History()
        # txn ids woken in the current quantum; `run` moves them to READY
        self.wakes = []
        self.mgr, self.cursors = engine(workload, self.history, strict,
                                        self.wakes.append)
        self.ready = list(self.cursors.values())    # READY, in declaration order
        sched = workload.schedule
        if isinstance(sched, RandomSchedule):
            self.rng = random.Random(sched.seed if seed is None else seed)
            self.max_steps = sched.max_steps
            self.tokens = None
        elif isinstance(sched, ExplicitSchedule):
            self.rng = None
            self.max_steps = None
            self.tokens = iter(sched.tokens)
        else:
            raise SimulationError(f"unknown schedule {sched!r}")

    def run(self) -> RunResult:
        steps = 0
        mgr, ready, woken, cursors = self.mgr, self.ready, self.wakes, self.cursors
        txns = mgr.txns
        while ready:
            steps += 1
            if self.max_steps is not None and steps > self.max_steps:
                raise StepLimitExceeded(
                    f"needed more than {self.max_steps} scheduler steps")
            act = self._pick(ready)
            if quantum(mgr, act):
                ready.remove(act)
            if woken:
                for txn_id in woken:
                    woke = cursors[txns[txn_id].name]
                    # the resumed activity, woken mid-deadlock-resolution,
                    # never parked and is still on the list
                    if woke is not act:
                        insort(ready, woke, key=_by_index)
                woken.clear()
        return account(self.workload, self.history, mgr, cursors)

    # -- scheduling -----------------------------------------------------------

    def _pick(self, ready):
        if self.rng is not None:
            return self.rng.choice(ready)
        # one pass over the tokens for the whole run, so a schedule of n
        # tokens costs O(n), skipped ones included
        for name in self.tokens:
            for act in ready:
                if act.decl.name == name:
                    return act
            # tokens naming waiting or finished txns are skipped
        return ready[0]
