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
  same pure table functions, and asserts the run's decisions and the
  structural invariants after every single event.

Factorial and exponential costs are embraced: inputs are kept small enough
that exhaustiveness is affordable, which is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .adts import get_adt
from .core import (Lifecycle, Origin, PrivateCall, PrivateInvocation,
                   PublicCall, determine_inverse, public_outs_from_private,
                   translate_public)
from . import history as hist
from .history import History, check_metric_identities
from .manager import Observation, TxnStatus, find_cycle, waits_for_graph
from .monitor import AdmitOutcome, ManagedObject
from .simulate import RunResult
from .workload import TxnDecl, Workload, initial_state

MAX_PERMUTED_TXNS = 8


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
    assert len(committed) <= MAX_PERMUTED_TXNS, \
        f"{len(committed)} committed txns is past the factorial budget"
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


class _ShadowTxn:
    def __init__(self, txn_id, name):
        self.id = txn_id
        self.name = name
        self.status = TxnStatus.ACTIVE
        self.invocations = []       # (ManagedObject, inv)
        self.undo = []              # (ManagedObject, inv, PrivateCall)
        self.blocked_on = None      # (ManagedObject, inv)
        self.plan = None            # abort steps still owed by the trace


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
        self.txns: dict[str, _ShadowTxn] = {}
        self.txns_by_id: dict[int, _ShadowTxn] = {}
        self.pending_admit = None          # (obj, inv, AdmitOutcome)
        self.expected_wakes = []           # invs in emission order
        self.active_plan = None            # _ShadowTxn currently aborting

    def _fail(self, event, msg):
        raise HistoryReplayError(f"event {event.index} ({event.render()}): {msg}")

    def _require(self, cond, event, msg):
        if not cond:
            self._fail(event, msg)

    def replay(self, history: History) -> dict[str, object]:
        for event in history:
            self._step(event)
            for obj in self.objects.values():
                obj.check_invariants()
        assert self.pending_admit is None, "history ended mid-admission"
        assert self.active_plan is None, "history ended mid-abort"
        assert not self.expected_wakes, "announced wakes never happened"
        for obj in self.objects.values():
            assert not obj.blocked and not obj.in_execution and not obj.executed
        for txn in self.txns.values():
            assert txn.status in (TxnStatus.COMMITTED, TxnStatus.ABORTED)
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

    def _wake_up(self, obj, woken):
        for w in woken:
            txn = self.txns_by_id[w.txn]
            assert txn.blocked_on is not None and txn.blocked_on[1] is w, \
                f"woken {w!r} is not what {txn.name} was blocked on"
            txn.blocked_on = None
        self.expected_wakes.extend(woken)

    def _register(self, txn, obj, inv):
        txn.invocations.append((obj, inv))
        inverse = determine_inverse(obj.spec, inv.op, inv.ins, inv.outs)
        if inv.origin is Origin.DEDUCED:
            assert inverse is None
        if inverse is not None:
            txn.undo.append((obj, inv, inverse))

    def _release_order(self, txn):
        return sorted(txn.invocations, key=lambda p: (p[0].index, p[1].id))

    # handlers

    def _on_begin(self, e):
        self._require(e.txn not in self.txns, e, "txn began twice")
        txn = _ShadowTxn(len(self.txns) + 1, e.txn)
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
        self._register(self.txns[e.txn], obj, inv)

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
        self._wake_up(obj, obj.complete(inv, outs))
        self._register(self.txns[e.txn], obj, inv)

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
        for obj, inv in self._release_order(txn):
            self._require(inv.lifecycle is Lifecycle.EXECUTED, e,
                          f"commit with unfinished {inv!r}")
            self._wake_up(obj, obj.finish(inv))
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
        self._require(self.active_plan is None, e, "overlapping aborts")
        txn.status = TxnStatus.ABORTING
        plan = []
        if txn.blocked_on is not None:
            plan.append(("withdraw",) + txn.blocked_on)
        for obj, inv, call in reversed(txn.undo):
            plan.append(("inverse", obj, inv, call))
        undone = {id(inv) for _, inv, _ in txn.undo}
        for obj, inv in self._release_order(txn):
            if id(inv) not in undone:
                plan.append(("release", obj, inv))
        txn.plan = plan
        self.active_plan = txn
        self._drain_plan(txn)

    def _drain_plan(self, txn):
        # releases emit no event of their own, only wakes; run them as soon
        # as they reach the head of the plan
        while txn.plan and txn.plan[0][0] == "release":
            _, obj, inv = txn.plan.pop(0)
            self._wake_up(obj, obj.finish(inv))
        if not txn.plan:
            txn.plan = None
            txn.status = TxnStatus.ABORTED
            self.active_plan = None

    def _on_withdraw(self, e):
        txn = self.txns[e.txn]
        self._require(self.active_plan is txn and txn.plan
                      and txn.plan[0][0] == "withdraw", e,
                      "withdraw not due for this txn")
        _, obj, inv = txn.plan.pop(0)
        self._require(inv.id == e.inv_id, e, f"expected withdrawal of {inv.id}")
        txn.blocked_on = None
        self._wake_up(obj, obj.withdraw(inv))
        self._drain_plan(txn)

    def _on_inverse(self, e):
        txn = self.txns[e.txn]
        self._require(self.active_plan is txn and txn.plan
                      and txn.plan[0][0] == "inverse", e,
                      "inverse not due for this txn")
        _, obj, inv, call = txn.plan.pop(0)
        self._require(obj.name == e.obj and call.op == e.op and call.ins == e.ins,
                      e, f"expected inverse {call!r} of {inv!r}")
        outs = obj.apply_inverse(call)
        self._require(outs == e.outs, e, f"inverse produced {outs}")
        self._wake_up(obj, obj.finish(inv))
        self._drain_plan(txn)


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
