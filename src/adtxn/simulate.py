"""Deterministic cooperative simulation of concurrent transactions.

Each transaction runs as a generator coroutine. The scheduling quantum is
one public operation: a resumed transaction runs until its current call
completes (yielding a boundary), suspends on a block, or terminates. The
commit/abort statement is its own quantum. Given the same workload and seed
the interleaving, the event stream and therefore the rendered trace are
byte-identical on every run; there is no wall clock and no thread anywhere.

A schedule is either seeded-random (uniform choice among runnable
transactions, with a step cap as a safety net against bugs that stall
progress) or an explicit token list naming which transaction advances next;
tokens for transactions that are waiting or finished are skipped, and when
tokens run out the lowest-numbered runnable transaction proceeds.

A deadlock victim other than the caller is parked on a block, so it is not
on the READY list, and its coroutine is simply never resumed: its record
says ABORTED, and nothing else needs to know. A victim that is the caller
itself receives TransactionAborted from the manager and finishes.

The READY list is kept, not rebuilt each step: it changes only where an
activity changes state. The resumed activity leaves it when it suspends on
a block or finishes (it stays in place across a boundary), and a woken one
is inserted at its declaration position. The run ends when the list is
empty; a record still ACTIVE then means the schedule is stuck. The list
must stay in declaration order, exactly as a scan of all activities would
give it, because the seeded schedule picks with `rng.choice`, which indexes
it: any other order would pick different transactions and change the
trace.
"""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter

from .adts import get_adt
from .core import FrameworkError, PublicCall
from .history import History, Metrics, compute_metrics, render_trace
from .manager import (ManagerInvariantError, TransactionAborted,
                      TransactionManager, TxnStatus)
from .monitor import MonitorInvariantError
from .workload import (ExplicitSchedule, RandomSchedule, TxnDecl, Workload,
                       initial_state)

# enum members as globals (see the `core` docstring)
_ACTIVE, _COMMITTED, _ABORTED = TxnStatus.ACTIVE, TxnStatus.COMMITTED, TxnStatus.ABORTED
_new_tuple = tuple.__new__


class SimulationError(FrameworkError):
    pass


class ScheduleStuck(SimulationError):
    """No transaction is runnable but the workload has not finished."""


class StepLimitExceeded(SimulationError):
    """The run did not finish within the schedule's step cap."""


class _Activity:
    def __init__(self, decl: TxnDecl, index: int):
        self.decl = decl
        self.index = index          # declaration position, the READY order
        self.gen = None
        self.rec = None


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


def run_simulated(workload: Workload, seed: int | None = None,
                  strict: bool = True) -> RunResult:
    return _Simulation(workload, seed, strict).run()


class _Simulation:
    def __init__(self, workload, seed, strict):
        self.workload = workload
        self.history = History()
        self.mgr = TransactionManager(self.history, strict=strict,
                                      on_wake=self._on_wake)
        for decl in workload.objects:
            self.mgr.add_object(decl.name, get_adt(decl.adt), initial_state(decl))
        self.activities = [_Activity(decl, i)
                           for i, decl in enumerate(workload.txns)]
        for act in self.activities:
            act.gen = self._drive(act)
        self.ready = list(self.activities)    # READY, in declaration order
        self.resumed = None
        self._by_txn_id: dict[int, _Activity] = {}
        sched = workload.schedule
        if isinstance(sched, RandomSchedule):
            self.rng = random.Random(sched.seed if seed is None else seed)
            self.max_steps = sched.max_steps
            self.tokens = None
        elif isinstance(sched, ExplicitSchedule):
            self.rng = None
            self.max_steps = None
            self.tokens = list(sched.tokens)
        else:
            raise SimulationError(f"unknown schedule {sched!r}")

    def run(self) -> RunResult:
        steps = 0
        ready = self.ready
        while ready:
            steps += 1
            if self.max_steps is not None and steps > self.max_steps:
                raise StepLimitExceeded(
                    f"needed more than {self.max_steps} scheduler steps")
            self._resume(self._pick(ready))
        stuck = [a.decl.name for a in self.activities
                 if a.rec.status is _ACTIVE]
        if stuck:
            raise ScheduleStuck(f"nothing runnable; waiting: {stuck}")
        return self._result()

    # -- scheduling -----------------------------------------------------------

    def _pick(self, ready):
        if self.rng is not None:
            return self.rng.choice(ready)
        while self.tokens:
            name = self.tokens.pop(0)
            for act in ready:
                if act.decl.name == name:
                    return act
            # tokens naming waiting or finished txns are skipped
        return ready[0]

    def _resume(self, act):
        self.resumed = act
        try:
            yielded = act.gen.send(None)
        except StopIteration:
            self.ready.remove(act)
            return
        if yielded == ("boundary",):
            return
        if yielded[0] != "wait":
            raise ManagerInvariantError(f"{act.decl.name} yielded {yielded!r}")
        self.ready.remove(act)

    # -- transaction program ----------------------------------------------------

    def _drive(self, act):
        rec = self.mgr.begin(act.decl.name)
        act.rec = rec
        self._by_txn_id[rec.id] = act
        try:
            for step in act.decl.steps:
                yield from self.mgr.perform(
                    rec, step.obj, _new_tuple(PublicCall, (step.op, step.ins)))
                yield ("boundary",)
            if act.decl.terminal == "commit":
                self.mgr.commit(rec)
            else:
                self.mgr.abort(rec)
        except TransactionAborted:
            pass

    # -- manager callbacks ---------------------------------------------------------

    def _on_wake(self, txn_id):
        act = self._by_txn_id[txn_id]
        # the resumed activity, woken mid-deadlock-resolution, never
        # suspends and is still on the list; any other was parked
        if act is not self.resumed:
            insort(self.ready, act, key=attrgetter("index"))

    # -- wrap-up ----------------------------------------------------------------

    def _result(self):
        for obj in self.mgr.objects.values():
            if obj.live:
                raise MonitorInvariantError(f"{obj.name} not drained at end of run")
        statuses = {}
        for act in self.activities:
            if act.rec is None or act.rec.status not in (_COMMITTED, _ABORTED):
                raise ManagerInvariantError(f"{act.decl.name} unfinished at end of run")
            statuses[act.decl.name] = act.rec.status
        high = {name: obj.max_in_execution
                for name, obj in self.mgr.objects.items()}
        return RunResult(
            workload=self.workload,
            history=self.history,
            metrics=compute_metrics(self.history, high),
            final_states={n: o.state for n, o in self.mgr.objects.items()},
            statuses=statuses,
        )
