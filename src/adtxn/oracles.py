"""Brute-force correctness oracles.

These deliberately share no cleverness with the machinery they judge:

* the serializability check replays the committed transactions one at a
  time, in the order of their COMMIT events, through the pure reference
  semantics, and demands that replay reproduce both the final states and
  every answer each committed transaction saw. Those answers are read from
  the history, the events the history replay has judged, and nowhere else:
  a NULLOP's public outs, and each DEDUCE's or EXEC's private outs. The
  private outs decide the public ones, through the step's translation
  rule, and they are what `verify-tables` proves the tables on, hidden
  before-images included; so comparing them is the stricter test. Strict
  two-phase locking promises that the commit order is a serial witness, so
  that order is the contract: one replay settles a run at any size, and a
  run it does not explain fails, naming the first divergence. No other
  order is searched: a witness found elsewhere would hide a broken
  promise, and searching for one is NP-complete in general;
* the abort transparency check is the same demand on a run that aborted
  transactions: the survivors must tell a serial story in which the aborted
  ones never existed;
* the history replay rebuilds every monitor from the event stream alone,
  re-deciding each admission, deduction, wake, inverse and victim with the
  same pure table functions, and checks the run's decisions against the
  trace at every event.

The replay keeps its own waits-for graph, edge by edge, from its rebuilt
monitors; it reads nothing of the engine's. At each BLOCK it records the
blocked transaction's out-edges: each blocker's owner, read from the
monitor the blocker is live on as the engine reads it, and how many of
that owner's ops the blocked op waits on. The release sections `complete`,
`finish` and `withdraw` run only through `_Replayer._section`, which
mirrors each in the graph: it reads the op's waiters first; each waiter
whose blockers have lost the op then waits on one op of the op's owner
fewer, and an owner at zero is no longer waited for. Each woken
transaction leaves the graph, and its WAKE is due next; a withdrawn one
leaves it just before. The graph stays exact on one monitor fact, which
tests/test_oracles.py checks after every event against the graph derived
afresh: a waiter's blockers grow only in `admit`, before its BLOCK, and
only those three sections shrink them. At every VICTIM, `find_cycle`
searches this whole graph, not the engine's rooted and pruned subgraph,
so the replay does not rely on the engine's claim that each resolution
left the graph acyclic.

INVOKE ids must strictly increase, as the engine's counter makes them: an
id then names one invocation for the whole history, and the monitors'
edges, which run from a smaller id to a larger one, follow arrival order.
An INVOKE's call must fit its type's private signature. An event that
names a txn with no BEGIN before it, or an object the workload does not
declare, fails the replay like any other drift. So does a NULLOP, INVOKE
or COMMIT whose txn is not ACTIVE or is blocked, and a DEDUCE, BLOCK,
EXEC, WAKE or WITHDRAW that names another txn, object, op or in-params
than the INVOKE the op came from. A malformed call that the reference
semantics refuse (a `FrameworkError`) fails the replay too, rather than
escaping `check_run`. Last, the run's metrics must be the event counts of
the history the replay judged.

The replay's monitors are strict, so each of their entry sections (`admit`,
`complete`, `finish`, `withdraw`) ends by checking the ops and edges it
changed; the `monitor` docstring shows why that keeps the monitor's whole
structural invariant. Nothing else changes a monitor's bookkeeping:
`execute` and `apply_inverse` touch only the state and the execution
counter, and the same event always follows them with `complete` or
`finish`. So after every event each monitor has been checked since its last
change, which is every state the run passes through; checking every monitor
again after every event would only re-read bookkeeping that has not moved.

The history replay shares the engine's transaction bookkeeping only:
`TransactionRecord` with its `register` and `release_order`, and
`abort_plan`. Those fix orders, not outcomes; every admission, wake, inverse
result and victim is still re-decided by fresh `ManagedObject`s. A wrong
shared order would still show in the serial-replay checks, which share
nothing with the engine: an inverse out of order, or an op released before
its inverse lands, leaves states or answers no serial order explains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .adts import get_adt
from .core import (FrameworkError, Lifecycle, PrivateInvocation, PublicCall,
                   check_private_ins, translate_public)
from . import history as hist
from .history import History, compute_metrics
from .manager import (RELEASE, TransactionRecord, TxnStatus, abort_plan,
                      find_cycle)
from .monitor import AdmitOutcome, ManagedObject
from .simulate import RunResult
from .values import Value, render_params
from .workload import Workload, initial_state


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str
    witness: tuple[str, ...] | None = None


class Observation(NamedTuple):
    """One step of a transaction and the answer it got, as the history
    records it: the public call and outs of a NULL step, the private call
    and outs of any other."""
    obj: str
    op: str
    ins: tuple[Value, ...]
    outs: tuple[Value, ...]


# the events that record a step's answer
_ANSWERS = frozenset((hist.NULLOP, hist.DEDUCE, hist.EXEC))


def replay_serial(workload: Workload, order) -> tuple[dict, dict]:
    """Run whole transactions back to back through the reference semantics.

    Returns ({object: final state}, {txn: [Observation]}). No monitor, no
    blocking, no undo: this is the meaning concurrent runs are measured
    against.
    """
    specs = {o.name: get_adt(o.adt) for o in workload.objects}
    states = {o.name: initial_state(o) for o in workload.objects}
    observations: dict[str, list] = {}
    for decl in order:
        seen = observations.setdefault(decl.name, [])
        for step in decl.steps:
            spec = specs[step.obj]
            tr = translate_public(spec, PublicCall(step.op, step.ins))
            if tr.null:
                seen.append(Observation(step.obj, step.op, step.ins,
                                        tr.public_outs))
                continue
            op, ins = tr.call
            states[step.obj], outs = spec.apply(states[step.obj], op, ins)
            seen.append(Observation(step.obj, op, ins, outs))
    return states, observations


def _observed(history: History) -> dict[str, list]:
    """{txn: [Observation]}: every answer each txn got, in history order."""
    seen: dict[str, list] = {}
    for e in history:
        if e.kind in _ANSWERS:
            seen.setdefault(e.txn, []).append(
                Observation(e.obj, e.op, e.ins, e.outs))
    return seen


def _rendered_step(observations, step) -> str:
    """One observation as a failure detail shows it."""
    if step >= len(observations):
        return "no step"
    obj, op, ins, outs = observations[step]
    return f"{obj} {op} {render_params(ins)} -> {render_params(outs)}"


def check_serializable(result: RunResult) -> Verdict:
    """Does the order of the COMMIT events explain the run's final states
    and every committed transaction's answers?

    It passes, with that order as its witness, exactly when the COMMIT
    events name each committed txn once and one serial replay in their
    order reproduces every answer a committed txn got, as its NULLOP,
    DEDUCE and EXEC events record it, and every final state.
    Otherwise the detail names the first divergence: the txn and step whose
    answer differs from the serial replay's, or else the object whose final
    state does."""
    committed = {t.name: t for t in result.workload.txns
                 if result.statuses[t.name] is TxnStatus.COMMITTED}
    order = tuple(e.txn for e in result.history if e.kind == hist.COMMIT)
    if sorted(order) != sorted(committed):
        return Verdict(False, f"COMMIT events {list(order)} do not name each "
                              f"committed txn {sorted(committed)} once")
    states, observations = replay_serial(
        result.workload, [committed[name] for name in order])
    answers = _observed(result.history)
    failure = f"commit order {list(order)} is no witness"
    for name in order:
        seen, serial = answers.get(name, []), observations[name]
        if seen != serial:
            step = next((i for i, (a, b) in enumerate(zip(seen, serial))
                         if a != b), min(len(seen), len(serial)))
            return Verdict(False, f"{failure}: {name} step {step} saw "
                                  f"{_rendered_step(seen, step)}, the serial "
                                  f"replay gives {_rendered_step(serial, step)}")
    if states != result.final_states:
        obj = next(o for o in {**states, **result.final_states}
                   if states.get(o) != result.final_states.get(o))
        return Verdict(False, f"{failure}: the run's final state of {obj} "
                              f"is not the serial replay's")
    return Verdict(True, "serializable in commit order", order)


def check_abort_transparency(result: RunResult) -> Verdict:
    """Aborted transactions must be invisible: the committed remainder alone
    must explain everything observable."""
    aborted = [n for n, s in result.statuses.items() if s is TxnStatus.ABORTED]
    if not aborted:
        raise FrameworkError("transparency check needs at least one aborted txn")
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
        self.last_inv_id = 0               # INVOKE ids strictly increase
        self.pending_admit = None          # (obj, inv, AdmitOutcome)
        self.expected_wakes = []           # invs in emission order
        self.aborting = None               # TransactionRecord mid-abort
        self.plan = []                     # its abort steps the trace still owes
        # {blocked txn id: {owner txn id: its ops the blocked op waits on}}
        self.waits_for: dict[int, dict[int, int]] = {}

    def _fail(self, event, msg):
        # callers test their condition first, so a message is only
        # formatted for a check that failed
        where = f"event {event.index} ({event.render()})" if event else "end of history"
        raise HistoryReplayError(f"{where}: {msg}")

    def replay(self, history: History) -> dict[str, object]:
        # no invariant sweep here: every entry section of the strict
        # monitors ends with its own check (see the module docstring)
        for event in history:
            self._step(event)
        if self.pending_admit is not None:
            self._fail(None, "history ended mid-admission")
        if self.aborting is not None:
            self._fail(None, "history ended mid-abort")
        if self.expected_wakes:
            self._fail(None, "announced wakes never happened")
        for obj in self.objects.values():
            if obj.live:
                self._fail(None, f"{obj.name} still holds invocations")
        for txn in self.txns.values():
            if txn.status not in (TxnStatus.COMMITTED, TxnStatus.ABORTED):
                self._fail(None, f"{txn.name} ended {txn.status.value}")
        return {name: obj.state for name, obj in self.objects.items()}

    # one event

    def _step(self, e):
        handler = self._HANDLERS.get(e.kind)
        if handler is None:
            self._fail(e, f"unknown event kind {e.kind!r}")
        if self.expected_wakes and e.kind != hist.WAKE:
            self._fail(e, f"wakes {[w.id for w in self.expected_wakes]} "
                          f"were due before this event")
        if self.pending_admit is not None and e.kind not in (
                hist.DEDUCE, hist.BLOCK, hist.EXEC):
            self._fail(e, "an admission outcome event was due here")
        handler(self, e)

    def _section(self, e, obj, inv, section, *args):
        """Run `section`, one of obj's release sections (`complete`,
        `finish`, `withdraw`), on `inv`, and mirror what it changed in the
        kept graph. The op's waiters are read first, and copied, since
        `complete` sheds edges from that very set; each waiter the section
        left no longer blocked by the op waits on one op of inv's owner
        fewer. Each txn the section woke leaves the graph, and its WAKE is
        due."""
        waiters = obj.blocks.get(inv.id)
        if waiters:
            waiters = tuple(waiters)
        woken = section(inv, *args)
        if waiters:
            waits_for, live, blocked_by = self.waits_for, obj.live, obj.blocked_by
            inv_id, owner = inv.id, inv.txn
            for w in waiters:
                if inv_id in blocked_by.get(w, ()):
                    continue
                owners = waits_for[live[w].txn]
                if owners[owner] == 1:
                    del owners[owner]
                else:
                    owners[owner] -= 1
        for w in woken:
            txn = self.txns_by_id[w.txn]
            if txn.blocked_on is None or txn.blocked_on[1] is not w:
                self._fail(e, f"woken {w!r} is not what {txn.name} was blocked on")
            txn.blocked_on = None
            del self.waits_for[txn.id]
        self.expected_wakes.extend(woken)

    # handlers

    def _on_begin(self, e):
        if e.txn in self.txns:
            self._fail(e, "txn began twice")
        txn = TransactionRecord(len(self.txns) + 1, e.txn)
        self.txns[e.txn] = self.txns_by_id[txn.id] = txn

    def _begun(self, e):
        """The txn `e` names, which must have begun."""
        txn = self.txns.get(e.txn)
        if txn is None:
            self._fail(e, f"{e.txn} has not begun")
        return txn

    def _stepping(self, e):
        """The txn `e` names, which must have begun and be free to take its
        next step or commit: ACTIVE and not blocked."""
        txn = self._begun(e)
        if txn.status is not TxnStatus.ACTIVE:
            self._fail(e, f"{e.txn} is {txn.status.value}, not active")
        if txn.blocked_on is not None:
            self._fail(e, f"{e.txn} is blocked")
        return txn

    def _on_nullop(self, e):
        obj = self.objects.get(e.obj)
        if obj is None:
            self._fail(e, f"unknown object {e.obj!r}")
        self._stepping(e)
        tr = translate_public(obj.spec, PublicCall(e.op, e.ins))
        if not tr.null:
            self._fail(e, "op reached a monitor yet claimed NULL")
        if tr.public_outs != e.outs:
            self._fail(e, f"NULL outs should be {tr.public_outs}")

    def _on_invoke(self, e):
        obj = self.objects.get(e.obj)
        if obj is None:
            self._fail(e, f"unknown object {e.obj!r}")
        txn = self._stepping(e)
        if e.inv_id <= self.last_inv_id:
            self._fail(e, f"invocation id {e.inv_id} does not follow {self.last_inv_id}")
        self.last_inv_id = e.inv_id
        inv = PrivateInvocation(id=e.inv_id, txn=txn.id, obj=e.obj,
                                op=e.op, ins=e.ins)
        check_private_ins(obj.spec, inv)
        outcome = obj.admit(inv)
        self.pending_admit = (obj, inv, outcome)

    def _owner(self, e, inv):
        """The txn `e` names, which must be the one that invoked `inv`; `e`
        must also name inv's object, op and in-params."""
        txn = self._begun(e)
        if inv.txn != txn.id:
            self._fail(e, f"invocation {inv.id} belongs to txn id {inv.txn}, "
                          f"not {e.txn}")
        if e.op != inv.op or e.ins != inv.ins or e.obj != inv.obj:
            self._fail(e, f"invocation {inv.id} is {inv.obj} {inv.op} "
                          f"{render_params(inv.ins)}")
        return txn

    def _take_pending(self, e, *allowed):
        """(obj, inv, owner) of the admission in flight, whose outcome `e`
        reports."""
        if self.pending_admit is None:
            self._fail(e, "no admission was in flight")
        obj, inv, outcome = self.pending_admit
        self.pending_admit = None
        if inv.id != e.inv_id:
            self._fail(e, f"expected invocation {inv.id}")
        if outcome not in allowed:
            self._fail(e, f"admission decided {outcome.value}, trace disagrees")
        return obj, inv, self._owner(e, inv)

    def _on_deduce(self, e):
        obj, inv, txn = self._take_pending(e, AdmitOutcome.DEDUCED)
        if inv.outs != e.outs:
            self._fail(e, f"deduction produced {inv.outs}, trace says {e.outs}")
        txn.register(obj, inv)

    def _on_block(self, e):
        obj, inv, txn = self._take_pending(e, AdmitOutcome.BLOCKED)
        txn.blocked_on = (obj, inv)
        live, owners = obj.live, {}
        for b in obj.blocked_by[inv.id]:
            owner = live[b].txn
            owners[owner] = owners.get(owner, 0) + 1
        if txn.id in owners:
            self._fail(e, f"self-edge on {txn.id} in the waits-for graph")
        self.waits_for[txn.id] = owners

    def _on_exec(self, e):
        if self.pending_admit is not None:
            obj, inv, txn = self._take_pending(e, AdmitOutcome.ADMITTED)
        else:
            obj = self.objects.get(e.obj)
            if obj is None:
                self._fail(e, f"unknown object {e.obj!r}")
            inv = obj.live.get(e.inv_id)
            if inv is None or inv.lifecycle is not Lifecycle.IN_EXECUTION:
                self._fail(e, "executing an op that was never admitted")
            txn = self._owner(e, inv)
        outs = obj.execute(inv)
        if outs != e.outs:
            self._fail(e, f"execution produced {outs}")
        self._section(e, obj, inv, obj.complete, outs)
        txn.register(obj, inv)

    def _on_wake(self, e):
        if not self.expected_wakes:
            self._fail(e, "wake out of thin air")
        inv = self.expected_wakes.pop(0)
        if inv.id != e.inv_id:
            self._fail(e, f"expected wake of {inv.id}")
        self._owner(e, inv)
        if inv.lifecycle is not Lifecycle.IN_EXECUTION:
            self._fail(e, "woken op is not in execution")

    def _on_commit(self, e):
        txn = self._stepping(e)
        for obj, inv in txn.release_order():
            if inv.lifecycle is not Lifecycle.EXECUTED:
                self._fail(e, f"commit with unfinished {inv!r}")
            self._section(e, obj, inv, obj.finish)
        txn.status = TxnStatus.COMMITTED

    def _on_victim(self, e):
        txn = self._begun(e)
        cycle = find_cycle(self._waits_for_edges())
        if cycle is None:
            self._fail(e, "victim without a waits-for cycle")
        if max(cycle) != txn.id:
            self._fail(e, f"victim should be txn id {max(cycle)}, "
                          f"trace chose {txn.id}")

    def _waits_for_edges(self):
        # the whole kept graph, unlike the engine's rooted search: the
        # replay does not assume the graph was acyclic before each block
        return self.waits_for

    def _on_rollback(self, e):
        txn = self._begun(e)
        if txn.status is not TxnStatus.ACTIVE:
            self._fail(e, "abort of non-active txn")
        if self.aborting is not None:
            self._fail(e, "overlapping aborts")
        txn.status = TxnStatus.ABORTING
        self.aborting, self.plan = txn, abort_plan(txn)
        self._release_due(e)

    def _release_due(self, e):
        # releases emit no event of their own, only wakes; run them as soon
        # as they reach the head of the plan
        while self.plan and self.plan[0][0] == RELEASE:
            _, obj, inv, _ = self.plan.pop(0)
            self._section(e, obj, inv, obj.finish)
        if not self.plan:
            self.aborting.status = TxnStatus.ABORTED
            self.aborting = None

    def _on_undo_step(self, e):
        # a WITHDRAW or INVERSE line: the head of the plan, of that kind
        if not (self.aborting is self.txns.get(e.txn) and self.plan
                and self.plan[0][0] == e.kind):
            self._fail(e, f"{e.kind.lower()} not due for this txn")
        kind, obj, inv, call = self.plan.pop(0)
        if kind == hist.WITHDRAW:
            if inv.id != e.inv_id:
                self._fail(e, f"expected withdrawal of {inv.id}")
            self._owner(e, inv)
            self.aborting.blocked_on = None
            del self.waits_for[self.aborting.id]
            self._section(e, obj, inv, obj.withdraw)
        else:
            if not (obj.name == e.obj and call.op == e.op
                    and call.ins == e.ins):
                self._fail(e, f"expected inverse {call!r} of {inv!r}")
            outs = obj.apply_inverse(call)
            if outs != e.outs:
                self._fail(e, f"inverse produced {outs}")
            self._section(e, obj, inv, obj.finish)
        self._release_due(e)

    # exactly one handler per event kind; a kind not here is refused
    _HANDLERS = {
        hist.BEGIN: _on_begin, hist.NULLOP: _on_nullop, hist.INVOKE: _on_invoke,
        hist.DEDUCE: _on_deduce, hist.BLOCK: _on_block, hist.EXEC: _on_exec,
        hist.WAKE: _on_wake, hist.COMMIT: _on_commit, hist.VICTIM: _on_victim,
        hist.ABORT: _on_rollback, hist.WITHDRAW: _on_undo_step,
        hist.INVERSE: _on_undo_step,
    }


def replay_history(workload: Workload, history: History) -> dict[str, object]:
    """Reconstruct all monitors from the event stream; raises on any drift."""
    return _Replayer(workload).replay(history)


def validate_run(result: RunResult) -> Verdict:
    """Everything short of serializability: the history replays, and its
    final states and event counts are the run's."""
    final = replay_history(result.workload, result.history)
    if final != result.final_states:
        return Verdict(False, f"replayed states {final} != run states "
                              f"{result.final_states}")
    metrics = result.metrics
    counted = compute_metrics(result.history, metrics.max_in_execution)
    if counted != metrics:
        name = next(f for f, _ in hist.METRIC_COUNTS
                    if getattr(counted, f) != getattr(metrics, f))
        return Verdict(False, f"the run counts {getattr(metrics, name)} {name}, "
                              f"its history {getattr(counted, name)}")
    return Verdict(True, "history replays cleanly")


def check_run(result: RunResult) -> tuple[str | None, Verdict]:
    """(first failing stage, its verdict), or (None, the serializability
    verdict) if all pass. Stages: replay, where a raise of a failed check or
    of a malformed call is a failure, then serializability. Abort
    transparency is the serializability check on the same result, so a run
    that passed it is transparent too, and the check runs once whether or
    not anything aborted."""
    try:
        verdict = validate_run(result)
    except (AssertionError, FrameworkError) as exc:
        return "replay", Verdict(False, str(exc))
    if not verdict.ok:
        return "replay", verdict
    verdict = check_serializable(result)
    if not verdict.ok:
        return "serializability", verdict
    return None, verdict
