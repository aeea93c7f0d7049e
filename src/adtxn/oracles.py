"""Brute-force correctness oracles.

These deliberately share no cleverness with the machinery they judge:

* the serializability check replays the committed transactions, those
  the COMMIT events name (each a declared txn, once), one at a time in the
  order of those events, through the pure reference semantics, and demands
  that replay reproduce both the final states and every answer each
  committed transaction saw. Those answers are read from
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
  transactions, those the ABORT events name: the survivors must tell a
  serial story in which the aborted ones never existed;
* the history replay rebuilds every monitor from the event stream alone,
  re-deciding each admission, deduction, wake, inverse and victim with the
  same pure table functions, and checks the run's decisions against the
  trace at every event.

The replay splits the event kinds in two. The chosen ones are those the
txn or the scheduler decides: BEGIN, NULLOP, INVOKE, the EXEC of an op a
wake admitted, COMMIT, an ABORT the txn asked for, and VICTIM. Only these
have a handler, which judges whether the choice was allowed and then runs
the sections it causes. The monitors determine every other event
completely: the DEDUCE, BLOCK or EXEC that answers an INVOKE, each WAKE,
the ABORT a VICTIM forces, and each WITHDRAW and INVERSE of an abort, which
runs its whole `abort_plan` at once, as the engine does. The replay
computes each caused event when it runs the step that causes it, a
VICTIM's ABORT in its handler and every other one in the shared steps
(below), and appends it to one queue, `due`; while anything is due, the
next event must equal the head of the queue in every field but its
index. So a caused event cannot go missing, come twice, come out of order
or differ in any field, and no chosen event can come while one is owed.
The replay also numbers invocations itself: each INVOKE's id must be the
last one plus one, as the engine's counter makes them. So an id names one
invocation for the whole history, and the monitors' edges, which run from
a smaller id to a larger one, follow arrival order. INVOKE is the only
event whose id the replay reads; every later one is compared as part of
its event.

A VICTIM must sit on a cycle, and be its largest txn id. An event that
names a txn with no BEGIN before it, or an object the workload does not
declare, fails the replay like any other drift, and so does a NULLOP,
INVOKE, COMMIT or asked-for ABORT whose txn is not ACTIVE, is blocked, or
still owes its woken op's EXEC. An INVOKE's call must fit its type's private
signature; a malformed call that the reference semantics refuse (a
`FrameworkError`) fails the replay too, rather than escaping `check_run`.
Last, the run's txn statuses and metrics must be those of the history the
replay judged: each txn's status as the replay left it, and the event
counts.

The replay keeps its own waits-for graph, edge by edge, from its rebuilt
monitors; it reads nothing of the engine's. When an INVOKE blocks, it
records the blocked transaction's out-edges: each blocker's owner, read
from the monitor the blocker is live on as the engine reads it, and how
many of that owner's ops the blocked op waits on. The release sections
`complete`, `finish` and `withdraw` run only in the shared steps, which
hand each section's report, (woken, shed), to `_Replayer._section`, the
release hook the replay gives them, whenever the section shed an edge.
`_section` mirrors the report in the graph: each waiter in `shed` waits
on one op of the op's owner fewer, and an owner at zero is no longer
waited for. Each woken transaction leaves the graph and owes its WAKE; a
withdrawn one leaves it just before. The strict monitors check that the
report names exactly the waiters whose edge to the op is gone. The
graph stays exact on one monitor fact, which tests/test_oracles.py checks
after every event against the graph derived afresh: a waiter's blockers
grow only in `admit`, when it blocks, and only those three sections
shrink them. At every VICTIM, `find_cycle` searches this whole graph, not
the engine's rooted and pruned subgraph, so the replay does not rely on
the engine's claim that each resolution left the graph acyclic.

The replay's monitors are strict, so each of their entry sections (`admit`,
`complete`, `finish`, `withdraw`) ends by checking the ops and edges it
changed; the `monitor` docstring shows why that keeps the monitor's whole
structural invariant. Nothing else changes a monitor's bookkeeping:
`execute` and `apply_inverse` touch only the state and the execution
counter, and the same event always follows them with `complete` or
`finish`. So after every event each monitor has been checked since its last
change, which is every state the run passes through; checking every monitor
again after every event would only re-read bookkeeping that has not moved.

The history replay shares the engine's transaction steps, and nothing
else: `TransactionRecord` with its `register` and `release_order`,
`abort_plan`, and the five steps `manager` defines next to it, `admit`,
`execute`, `wake`, `erase` and `commit`. The engine hands those steps its
history's `emit` and its `_release`; the replay hands them `_owe`, which
queues each event in `due`, and `_section`. So the engine and the replay run each
step, and build each caused event, through one definition. The steps fix
orders and event shapes, not outcomes: every admission, wake, inverse
result and victim is still re-decided by fresh `ManagedObject`s, and every
event the replay owes is built from those, not copied from the engine's.
A fault in a shared step moves the engine and the replay alike, so the
history replay cannot see it; only the serial-replay checks, which share
nothing with the engine, the golden traces and the bench digests can. An
inverse out of order, or an op released before its inverse lands, leaves
states or answers no serial order explains: an `abort_plan` that undoes
oldest first fails 30 of the 406 mixed runs of tests/test_oracles.py, all
at serializability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .adts import get_adt
from .core import (FrameworkError, PrivateInvocation, PublicCall,
                   check_private_ins, translate_public)
from . import history as hist
from .history import History, compute_metrics
from .manager import (TransactionRecord, TxnStatus, admit, commit, erase,
                      execute, find_cycle, wake)
from .monitor import AdmitOutcome, ManagedObject
from .simulate import RunResult
from .values import Value, render_params
from .workload import Workload, initial_state

# enum members as globals (see the `core` docstring)
_ACTIVE, _COMMITTED, _ABORTED = TxnStatus.ACTIVE, TxnStatus.COMMITTED, TxnStatus.ABORTED
_OUTCOME_BLOCKED = AdmitOutcome.BLOCKED
_new_tuple = tuple.__new__


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
        seen = observations.get(decl.name)
        if seen is None:
            seen = observations[decl.name] = []
        for step in decl.steps:
            spec = specs[step.obj]
            tr = translate_public(spec, _new_tuple(PublicCall, (step.op, step.ins)))
            if tr.call is None:
                seen.append(_new_tuple(Observation, (step.obj, step.op, step.ins,
                                                     tr.public_outs)))
                continue
            op, ins = tr.call
            states[step.obj], outs = spec.apply(states[step.obj], op, ins)
            seen.append(_new_tuple(Observation, (step.obj, op, ins, outs)))
    return states, observations


def _observed(history: History) -> dict[str, list]:
    """{txn: [Observation]}: every answer each txn got, in history order."""
    seen: dict[str, list] = {}
    for e in history:
        if e.kind in _ANSWERS:
            answer = _new_tuple(Observation, (e.obj, e.op, e.ins, e.outs))
            answers = seen.get(e.txn)
            if answers is None:
                seen[e.txn] = [answer]
            else:
                answers.append(answer)
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
    events name declared txns, each once, and one serial replay in their
    order reproduces every answer a committed txn got, as its NULLOP,
    DEDUCE and EXEC events record it, and every final state.
    Otherwise the detail names the first divergence: the txn and step whose
    answer differs from the serial replay's, or else the object whose final
    state does."""
    declared = {t.name: t for t in result.workload.txns}
    order = tuple(e.txn for e in result.history if e.kind == hist.COMMIT)
    if len(set(order)) != len(order) or not declared.keys() >= set(order):
        return Verdict(False, f"COMMIT events {list(order)} do not each name "
                              f"a declared txn once")
    states, observations = replay_serial(
        result.workload, [declared[name] for name in order])
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
    must explain everything observable. The aborted ones are those the
    ABORT events name."""
    aborted = [e.txn for e in result.history if e.kind == hist.ABORT]
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
        self.last_inv_id = 0
        # the caused events the history owes next, each an Event's fields
        # but its index
        self.due: deque[tuple] = deque()
        # {txn id: (obj, inv)}: the op a wake admitted, whose EXEC is the
        # txn's next event
        self.woken: dict[int, tuple] = {}
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
        if self.due:
            self._fail(None, f"owed {_owed_line(self.due[0])}")
        for obj in self.objects.values():
            if obj.live:
                self._fail(None, f"{obj.name} still holds invocations")
        for txn in self.txns.values():
            if txn.status not in (_COMMITTED, _ABORTED):
                self._fail(None, f"{txn.name} ended {txn.status.value}")
        return {name: obj.state for name, obj in self.objects.items()}

    # one event

    def _step(self, e):
        if self.due:
            self._match(e, self.due.popleft())
            return
        handler = self._HANDLERS.get(e.kind)
        if handler is None:
            self._fail(e, f"no {e.kind} is owed here" if e.kind in hist.KINDS
                       else f"unknown event kind {e.kind!r}")
        handler(self, e)

    def _match(self, e, owed):
        """`e` must be the caused event `owed` in every field but its index."""
        if e[1:] != owed:
            self._fail(e, f"owed {_owed_line(owed)}")

    def _owe(self, *event):
        """The event sink of the shared steps: owe the event, each field
        but its index."""
        self.due.append(event)

    def _section(self, obj, inv, woken, shed):
        """The release hook of the shared steps: mirror in the kept graph
        what a release section of obj's did to `inv`'s waiters. Each waiter
        in `shed` waits on one op of inv's owner fewer, and an owner at zero
        is no longer waited for. Each txn in `woken` leaves the graph and
        owes its WAKE; its own next event must then be its woken op's EXEC."""
        waits_for, live, owner = self.waits_for, obj.live, inv.txn
        for w in shed:
            owners = waits_for[live[w].txn]
            if owners[owner] == 1:
                del owners[owner]
            else:
                owners[owner] -= 1
        for w in woken:
            txn = self.txns_by_id[w.txn]
            wake(txn, obj, w, self._owe)
            del self.waits_for[txn.id]
            self.woken[txn.id] = (obj, w)

    def _abort(self, txn):
        """Erase `txn` by its whole `abort_plan`, as the engine's `abort`
        does; a blocked txn leaves the kept graph just before its
        WITHDRAW."""
        if txn.blocked_on is not None:
            del self.waits_for[txn.id]
        erase(txn, self._owe, self._section)

    # the handlers of the chosen events

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
        next step or end: ACTIVE, not blocked, and owing no woken op's EXEC."""
        txn = self._begun(e)
        if txn.status is not _ACTIVE:
            self._fail(e, f"{e.txn} is {txn.status.value}, not active")
        if txn.blocked_on is not None:
            self._fail(e, f"{e.txn} is blocked")
        if txn.id in self.woken:
            self._fail(e, f"{e.txn} owes the EXEC of its woken op")
        return txn

    def _object(self, e):
        obj = self.objects.get(e.obj)
        if obj is None:
            self._fail(e, f"unknown object {e.obj!r}")
        return obj

    def _on_nullop(self, e):
        obj = self._object(e)
        self._stepping(e)
        tr = translate_public(obj.spec, _new_tuple(PublicCall, (e.op, e.ins)))
        if tr.call is not None:
            self._fail(e, "op reached a monitor yet claimed NULL")
        if tr.public_outs != e.outs:
            self._fail(e, f"NULL outs should be {tr.public_outs}")

    def _on_invoke(self, e):
        obj = self._object(e)
        txn = self._stepping(e)
        inv_id = self.last_inv_id + 1
        if e.inv_id != inv_id:
            self._fail(e, f"invocation id {e.inv_id} is not {inv_id}")
        self.last_inv_id = inv_id
        inv = PrivateInvocation(inv_id, txn.id, obj.name, e.op, e.ins)
        check_private_ins(obj.spec, inv)
        if admit(txn, obj, inv, self._owe, self._section) is not _OUTCOME_BLOCKED:
            return
        live, owners = obj.live, {}
        for b in obj.blocked_by[inv_id]:
            owner = live[b].txn
            owners[owner] = owners.get(owner, 0) + 1
        if txn.id in owners:
            self._fail(e, f"self-edge on {txn.id} in the waits-for graph")
        self.waits_for[txn.id] = owners

    def _on_exec(self, e):
        # the EXEC of an op a wake admitted: its txn chose when to run it
        txn = self._begun(e)
        woken = self.woken.pop(txn.id, None)
        if woken is None:
            self._fail(e, f"{e.txn} has no woken op to execute")
        execute(txn, *woken, self._owe, self._section)
        self._match(e, self.due.popleft())

    def _on_commit(self, e):
        commit(self._stepping(e), self._section)

    def _on_abort(self, e):
        # an abort the txn asked for; a victim's is owed by its VICTIM
        self._abort(self._stepping(e))

    def _on_victim(self, e):
        txn = self._begun(e)
        cycle = find_cycle(self._waits_for_edges())
        if cycle is None:
            self._fail(e, "victim without a waits-for cycle")
        if max(cycle) != txn.id:
            self._fail(e, f"victim should be txn id {max(cycle)}, "
                          f"trace chose {txn.id}")
        self._owe(hist.ABORT, txn.name, None, None, (), (), None)
        self._abort(txn)

    def _waits_for_edges(self):
        # the whole kept graph, unlike the engine's rooted search: the
        # replay does not assume the graph was acyclic before each block
        return self.waits_for

    # the chosen kinds; every other kind is only ever owed
    _HANDLERS = {
        hist.BEGIN: _on_begin, hist.NULLOP: _on_nullop, hist.INVOKE: _on_invoke,
        hist.EXEC: _on_exec, hist.COMMIT: _on_commit, hist.ABORT: _on_abort,
        hist.VICTIM: _on_victim,
    }


def _owed_line(owed) -> str:
    """A caused event the replay owes, as a failure detail shows it: its
    trace line less the index, then its invocation id."""
    *fields, inv = owed
    line = hist.Event(0, *fields).render().partition(" ")[2]
    return line if inv is None else f"{line}, invocation {inv}"


def replay_history(workload: Workload, history: History) -> dict[str, object]:
    """Reconstruct all monitors from the event stream; raises on any drift."""
    return _Replayer(workload).replay(history)


def validate_run(result: RunResult) -> Verdict:
    """Everything short of serializability: the history replays, and its
    final states, txn statuses and event counts are the run's."""
    replayer = _Replayer(result.workload)
    final = replayer.replay(result.history)
    if final != result.final_states:
        return Verdict(False, f"replayed states {final} != run states "
                              f"{result.final_states}")
    statuses = {name: txn.status for name, txn in replayer.txns.items()}
    if statuses != result.statuses:
        # the engine's statuses name the declared txns only
        name = next(n for n in {**result.statuses, **statuses}
                    if result.statuses.get(n) is not statuses.get(n))
        said, replayed = (getattr(s.get(name), "value", "absent")
                          for s in (result.statuses, statuses))
        return Verdict(False, f"the run says {name} is {said}, "
                              f"its history {replayed}")
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
