"""Brute-force correctness oracles.

These deliberately share no cleverness with the machinery they judge:

* the serializability check replays committed transactions one at a time, in
  every possible order, through the pure reference semantics, and demands
  some order reproduce both the final states and every public answer each
  committed transaction actually saw;
* the abort transparency check is the same demand on a run that aborted
  transactions: the survivors must tell a serial story in which the aborted
  ones never existed;
* the history replay rebuilds every monitor from the event stream alone,
  re-deciding each admission, deduction, wake, inverse and victim with the
  same pure table functions, and checks the run's decisions against the
  trace at every event.

The replay's monitors are strict, so each of their entry sections (`admit`,
`complete`, `finish`, `withdraw`) ends by checking that monitor's structural
invariants. Nothing else changes a monitor's bookkeeping: `execute` and
`apply_inverse` touch only the state and the execution counter, and the same
event always follows them with `complete` or `finish`. So after every event
each monitor has been checked since its last change, which is every state
the run passes through; checking every monitor again after every event
would only re-read bookkeeping that has not moved.

The history replay shares the engine's transaction bookkeeping only:
`TransactionRecord` with its `register` and `release_order`, and
`abort_plan`. Those fix orders, not outcomes; every admission, wake, inverse
result and victim is still re-decided by fresh `ManagedObject`s. A wrong
shared order would still show in the serial-replay checks, which share
nothing with the engine: an inverse out of order, or an op released before
its inverse lands, leaves states or answers no serial order explains.

Factorial and exponential costs are embraced: inputs are kept small enough
that exhaustiveness is affordable, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .adts import get_adt
from .core import (FrameworkError, Lifecycle, PrivateInvocation, PublicCall,
                   public_outs_from_private, translate_public)
from . import history as hist
from .history import History, check_metric_identities
from .manager import (RELEASE, Observation, TransactionRecord, TxnStatus,
                      abort_plan, find_cycle, waits_for_graph)
from .monitor import AdmitOutcome, ManagedObject
from .simulate import RunResult
from .workload import Workload, initial_state

MAX_PERMUTED_TXNS = 8


class SerializabilityBudgetError(FrameworkError):
    """More committed transactions than the factorial search can afford."""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str
    witness: tuple[str, ...] | None = None


def replay_serial(workload: Workload, order) -> tuple[dict, dict]:
    """Run whole transactions back to back through the reference semantics.

    Returns ({object: final state}, {txn: [Observation]}). No monitor, no
    blocking, no undo: this is the meaning concurrent runs are measured
    against.
    """
    states = {o.name: initial_state(o) for o in workload.objects}
    specs = {o.name: get_adt(o.adt) for o in workload.objects}
    observations: dict[str, list] = {}
    for decl in order:
        seen = observations.setdefault(decl.name, [])
        for step in decl.steps:
            spec = specs[step.obj]
            call = PublicCall(step.op, step.ins)
            tr = translate_public(spec, call)
            if tr.null:
                outs = tr.public_outs
            else:
                new_state, pouts = spec.apply(states[step.obj], tr.call.op,
                                              tr.call.ins)
                states[step.obj] = new_state
                outs = public_outs_from_private(tr.rule, call.ins, pouts)
            seen.append(Observation(step.obj, step.op, step.ins, outs))
    return states, observations


def check_serializable(result: RunResult) -> Verdict:
    """Is there a serial order of the committed transactions that explains
    the run's final states and every committed transaction's answers?"""
    committed = [t for t in result.workload.txns
                 if result.statuses[t.name] is TxnStatus.COMMITTED]
    if len(committed) > MAX_PERMUTED_TXNS:
        raise SerializabilityBudgetError(
            f"{len(committed)} committed txns is past the factorial budget "
            f"of {MAX_PERMUTED_TXNS}")
    for order in permutations(committed):
        states, observations = replay_serial(result.workload, order)
        if states != result.final_states:
            continue
        if all(observations.get(t.name, []) == result.observations[t.name]
               for t in committed):
            return Verdict(True, "serializable",
                           tuple(t.name for t in order))
    return Verdict(False,
                   f"no serial order of {[t.name for t in committed]} "
                   f"explains final states {result.rendered_states()} "
                   f"and the committed observations")


def check_abort_transparency(result: RunResult) -> Verdict:
    """Aborted transactions must be invisible: the committed remainder alone
    must explain everything observable."""
    aborted = [n for n, s in result.statuses.items() if s is TxnStatus.ABORTED]
    assert aborted, "transparency check needs at least one aborted txn"
    verdict = check_serializable(result)
    if not verdict.ok:
        return Verdict(False, f"aborted {aborted} left a visible residue: "
                              + verdict.detail)
    return Verdict(True, f"aborted {aborted} fully invisible", verdict.witness)


# -- history replay -----------------------------------------------------------


class HistoryReplayError(AssertionError):
    pass


class _Replayer:
    """Second, independent run of every monitor decision in a history."""

    def __init__(self, workload: Workload):
        self.objects: dict[str, ManagedObject] = {}
        for i, decl in enumerate(workload.objects):
            self.objects[decl.name] = ManagedObject(
                name=decl.name, index=i, spec=get_adt(decl.adt),
                state=initial_state(decl), strict=True)
        self.txns: dict[str, TransactionRecord] = {}
        self.txns_by_id: dict[int, TransactionRecord] = {}
        self.pending_admit = None          # (obj, inv, AdmitOutcome)
        self.expected_wakes = []           # invs in emission order
        self.aborting = None               # TransactionRecord mid-abort
        self.plan = []                     # its abort steps the trace still owes

    def _fail(self, event, msg):
        where = f"event {event.index} ({event.render()})" if event else "end of history"
        raise HistoryReplayError(f"{where}: {msg}")

    def _require(self, cond, event, msg):
        if not cond:
            self._fail(event, msg)

    def replay(self, history: History) -> dict[str, object]:
        # no invariant sweep here: every entry section of the strict
        # monitors ends with its own check (see the module docstring)
        for event in history:
            self._step(event)
        self._require(self.pending_admit is None, None, "history ended mid-admission")
        self._require(self.aborting is None, None, "history ended mid-abort")
        self._require(not self.expected_wakes, None, "announced wakes never happened")
        for obj in self.objects.values():
            self._require(not (obj.blocked or obj.in_execution or obj.executed),
                          None, f"{obj.name} still holds invocations")
        for txn in self.txns.values():
            self._require(txn.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED),
                          None, f"{txn.name} ended {txn.status.value}")
        return {name: obj.state for name, obj in self.objects.items()}

    # one event

    def _step(self, e):
        if e.kind != hist.WAKE:
            self._require(not self.expected_wakes, e,
                          f"wakes {[w.id for w in self.expected_wakes]} "
                          f"were due before this event")
        if self.pending_admit is not None and e.kind not in (
                hist.DEDUCE, hist.BLOCK, hist.EXEC):
            self._fail(e, "an admission outcome event was due here")
        handler = getattr(self, "_on_" + e.kind.lower())
        handler(e)

    def _wake_up(self, e, obj, woken):
        for w in woken:
            txn = self.txns_by_id[w.txn]
            self._require(txn.blocked_on is not None and txn.blocked_on[1] is w,
                          e, f"woken {w!r} is not what {txn.name} was blocked on")
            txn.blocked_on = None
        self.expected_wakes.extend(woken)

    # handlers

    def _on_begin(self, e):
        self._require(e.txn not in self.txns, e, "txn began twice")
        txn = TransactionRecord(len(self.txns) + 1, e.txn)
        self.txns[e.txn] = self.txns_by_id[txn.id] = txn

    def _on_nullop(self, e):
        obj = self.objects[e.obj]
        tr = translate_public(obj.spec, PublicCall(e.op, e.ins))
        self._require(tr.null, e, "op reached a monitor yet claimed NULL")
        self._require(tr.public_outs == e.outs, e,
                      f"NULL outs should be {tr.public_outs}")

    def _on_invoke(self, e):
        obj = self.objects[e.obj]
        txn = self.txns[e.txn]
        inv = PrivateInvocation(id=e.inv_id, txn=txn.id, obj=e.obj,
                                op=e.op, ins=e.ins)
        outcome = obj.admit(inv)
        self.pending_admit = (obj, inv, outcome)

    def _take_pending(self, e, *allowed):
        self._require(self.pending_admit is not None, e,
                      "no admission was in flight")
        obj, inv, outcome = self.pending_admit
        self.pending_admit = None
        self._require(inv.id == e.inv_id, e, f"expected invocation {inv.id}")
        self._require(outcome in allowed, e,
                      f"admission decided {outcome.value}, trace disagrees")
        return obj, inv

    def _on_deduce(self, e):
        obj, inv = self._take_pending(e, AdmitOutcome.DEDUCED)
        self._require(inv.outs == e.outs, e,
                      f"deduction produced {inv.outs}, trace says {e.outs}")
        self.txns[e.txn].register(obj, inv)

    def _on_block(self, e):
        obj, inv = self._take_pending(e, AdmitOutcome.BLOCKED)
        self.txns[e.txn].blocked_on = (obj, inv)

    def _on_exec(self, e):
        if self.pending_admit is not None:
            obj, inv = self._take_pending(e, AdmitOutcome.ADMITTED)
        else:
            obj = self.objects[e.obj]
            inv = obj.in_execution.get(e.inv_id)
            self._require(inv is not None, e,
                          "executing an op that was never admitted")
        outs = obj.execute(inv)
        self._require(outs == e.outs, e, f"execution produced {outs}")
        self._wake_up(e, obj, obj.complete(inv, outs))
        self.txns[e.txn].register(obj, inv)

    def _on_wake(self, e):
        self._require(bool(self.expected_wakes), e, "wake out of thin air")
        inv = self.expected_wakes.pop(0)
        self._require(inv.id == e.inv_id, e, f"expected wake of {inv.id}")
        self._require(inv.lifecycle is Lifecycle.IN_EXECUTION, e,
                      "woken op is not in execution")

    def _on_commit(self, e):
        txn = self.txns[e.txn]
        self._require(txn.status is TxnStatus.ACTIVE, e, "commit of non-active txn")
        self._require(txn.blocked_on is None, e, "committing while blocked")
        for obj, inv in txn.release_order():
            self._require(inv.lifecycle is Lifecycle.EXECUTED, e,
                          f"commit with unfinished {inv!r}")
            self._wake_up(e, obj, obj.finish(inv))
        txn.status = TxnStatus.COMMITTED

    def _on_victim(self, e):
        txn = self.txns[e.txn]
        cycle = find_cycle(self._waits_for_edges())
        self._require(cycle is not None, e, "victim without a waits-for cycle")
        self._require(max(cycle) == txn.id, e,
                      f"victim should be txn id {max(cycle)}, trace chose {txn.id}")

    def _waits_for_edges(self):
        # the whole graph, unlike the engine's rooted search: the replay
        # does not assume the graph was acyclic before each block
        return waits_for_graph(self.txns.values())

    def _on_abort(self, e):
        txn = self.txns[e.txn]
        self._require(txn.status is TxnStatus.ACTIVE, e, "abort of non-active txn")
        self._require(self.aborting is None, e, "overlapping aborts")
        txn.status = TxnStatus.ABORTING
        self.aborting, self.plan = txn, abort_plan(txn)
        self._release_due(e)

    def _release_due(self, e):
        # releases emit no event of their own, only wakes; run them as soon
        # as they reach the head of the plan
        while self.plan and self.plan[0][0] == RELEASE:
            _, obj, inv, _ = self.plan.pop(0)
            self._wake_up(e, obj, obj.finish(inv))
        if not self.plan:
            self.aborting.status = TxnStatus.ABORTED
            self.aborting = None

    def _on_abort_step(self, e):
        # a WITHDRAW or INVERSE line: the head of the plan, of that kind
        self._require(self.aborting is self.txns[e.txn] and self.plan
                      and self.plan[0][0] == e.kind, e,
                      f"{e.kind.lower()} not due for this txn")
        kind, obj, inv, call = self.plan.pop(0)
        if kind == hist.WITHDRAW:
            self._require(inv.id == e.inv_id, e, f"expected withdrawal of {inv.id}")
            self.aborting.blocked_on = None
            woken = obj.withdraw(inv)
        else:
            self._require(obj.name == e.obj and call.op == e.op
                          and call.ins == e.ins, e,
                          f"expected inverse {call!r} of {inv!r}")
            outs = obj.apply_inverse(call)
            self._require(outs == e.outs, e, f"inverse produced {outs}")
            woken = obj.finish(inv)
        self._wake_up(e, obj, woken)
        self._release_due(e)

    _on_withdraw = _on_inverse = _on_abort_step


def replay_history(workload: Workload, history: History) -> dict[str, object]:
    """Reconstruct all monitors from the event stream; raises on any drift."""
    return _Replayer(workload).replay(history)


def validate_run(result: RunResult) -> Verdict:
    """Everything short of serializability: accounting, replay, state match."""
    check_metric_identities(result.metrics)
    final = replay_history(result.workload, result.history)
    if final != result.final_states:
        return Verdict(False, f"replayed states {final} != run states "
                              f"{result.final_states}")
    return Verdict(True, "history replays cleanly")


def check_run(result: RunResult) -> tuple[str | None, Verdict]:
    """(first failing stage, its verdict), or (None, the serializability
    verdict) if all pass. Stages: replay, where a raise is a failure, then
    serializability. Abort transparency is the serializability search on
    the same result, so a run that passed it is transparent too, and the
    search runs once whether or not anything aborted."""
    try:
        verdict = validate_run(result)
    except AssertionError as exc:
        return "replay", Verdict(False, str(exc))
    if not verdict.ok:
        return "replay", verdict
    verdict = check_serializable(result)
    if not verdict.ok:
        return "serializability", verdict
    return None, verdict
