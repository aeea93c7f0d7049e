"""Transactions over monitored objects: strict two-phase locking by conflict.

There are no locks to acquire by name. A transaction implicitly "holds" the
conflict edges its executed operations induce, and it holds every one of
them until a single release point: commit or abort. That is strictness, and
it is why no transaction ever reads state an aborter will rewind (aborting
rewrites only its own executed effects, which strictness kept fenced) and
why cascading rollback cannot occur.

Aborting runs the undo log backwards. Each executed operation recorded its
inverse at registration time, chosen from its own results; NULL inverses
(the op turned out to change nothing) are not logged at all but their
invocations still hold edges and are released at the end, in the order
`abort_plan` gives. Inverses are applied straight to the object, bypassing
admission: the aborter still owns every conflict its direct ops created, so
admission could only be vacuous or, worse, self-blocking. Each direct op is
released immediately after its inverse lands, never before.

One `TransactionManager` is the whole engine: the records, the id
counters, the objects and every transaction step. The simulator drives one
that emits into a `History`. The history replay drives another, on fresh
strict monitors, whose sink owes each event to the history it judges; so
the run and its replay take each step through one definition, and any
engine state has one place to live. A transaction's record holds the op it
is blocked on and, once a wake admits it, that op as its woken op until
its EXEC; each step reads from the record whether the transaction is free
to take it, and refuses it if not. The two fields are kept apart, rather
than one field whose op's lifecycle says "blocked", because the waits-for
walk, the abort plan and the resolution's prune read only the blocked op.

Deadlock is handled at block time, by `_resolve`. The waits-for graph
is derived on demand from the monitors' edge ledgers, and the youngest
transaction on a cycle (the largest id, the one with the least work
behind it) is named VICTIM and aborted outright, through the same `abort`
a transaction that asks to abort takes, so the undo discipline has one
definition; this repeats until no cycle runs through the blocked
transaction, so it sleeps only on live, cycle-free waits. Only `commit`
and `abort` end a transaction. A blocker is live on the waiter's
own object, so its owner is read from that monitor's `live` map, never
searched for. An edge from a transaction to itself is refused, not made
into a cycle of one.

The search is rooted at the transaction that just blocked, and is exact.
Edges are added only when a transaction blocks, and every resolution leaves
the graph acyclic, so any cycle passes through the blocker and all its
nodes can reach the blocker. The search therefore looks only at those
transactions, gathered by `waits_for_edges`, which walks waits-for edges
backwards from the blocker. A transaction outside that set has no edge
into it, so the depth-first search of `find_cycle`, visiting nodes and
neighbours in sorted order, meets the same cycle first on that subgraph as
on the whole graph: from a root outside the set it never enters the set,
and from inside it any excursion out of the set finishes without coming
back. Victims, and hence traces, are those of a whole-graph search. The
same holds for any set that contains every cycle and that no outside edge
enters. The history replay's manager resolves after each BLOCK as well,
so the graph it rebuilds is acyclic before each BLOCK too, by the same
induction, and its rooted search is exact on the same argument.

The backward walk runs once per BLOCK. An abort only deletes edges: it
takes out the victim's own edges and the out-edges of the transactions it
wakes, and it adds none. So after each victim the walked subgraph is pruned
rather than walked again: every transaction no longer blocked, the victim
among them, loses its out-edges, and the victim leaves every remaining edge
set. What is left is the current graph induced on the walked set. That set
still contains every cycle, since any cycle now was one at the BLOCK, and
no edge enters it from outside, since every edge now was an edge then; by
the argument above the next search meets the whole graph's first cycle.
The prune edits the walked sets in place, and is skipped once the blocker
no longer waits: then no cycle runs through it and the resolution is over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, count
from typing import NamedTuple

from . import history as hist
from .core import (AdtSpec, FrameworkError, Lifecycle, Origin, PrivateCall,
                   PrivateInvocation, PublicCall, determine_inverse,
                   public_outs_from_private, translate_public)
from .history import History
from .monitor import AdmitOutcome, ManagedObject

# enum members as globals (see the `core` docstring)
_EXECUTED = Lifecycle.EXECUTED
_DEDUCED = Origin.DEDUCED
_OUTCOME_DEDUCED, _OUTCOME_BLOCKED = AdmitOutcome.DEDUCED, AdmitOutcome.BLOCKED


class TransactionAborted(FrameworkError):
    """Raised inside a transaction's own control flow when it loses a
    deadlock resolution."""


class ManagerInvariantError(AssertionError):
    """A transaction was driven in the wrong status, a wake or a waits-for
    edge broke the bookkeeping, or a deduced op asked for an undo. Raised
    rather than asserted so the checks hold under `python -O`; an
    AssertionError so the oracles count it as a failed check."""


class TxnStatus(Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


_ACTIVE, _COMMITTED, _ABORTED = TxnStatus.ACTIVE, TxnStatus.COMMITTED, TxnStatus.ABORTED


class UndoEntry(NamedTuple):
    obj: ManagedObject
    inv: PrivateInvocation
    call: PrivateCall


_new_tuple = tuple.__new__


@dataclass(eq=False, slots=True)
class TransactionRecord:
    id: int
    name: str
    status: TxnStatus = TxnStatus.ACTIVE
    invocations: list = field(default_factory=list)   # (ManagedObject, inv)
    undo: list = field(default_factory=list)          # UndoEntry, execution order
    blocked_on: tuple | None = None                   # (ManagedObject, inv)
    woken: tuple | None = None                        # (ManagedObject, inv)

    def register(self, obj: ManagedObject, inv: PrivateInvocation):
        """Hold `inv`'s edges until release; log its inverse unless NULL."""
        self.invocations.append((obj, inv))
        inverse = determine_inverse(obj.spec, inv.op, inv.ins, inv.outs)
        if inverse is not None:
            if inv.origin is _DEDUCED:
                # a deduced result means the state never moved for this op
                raise ManagerInvariantError(f"deduced {inv!r} demands an undo")
            self.undo.append(_new_tuple(UndoEntry, (obj, inv, inverse)))

    def release_order(self) -> list:
        """The invocations by object, then by id."""
        return sorted(self.invocations, key=lambda p: (p[0].index, p[1].id))


def _refuse(rec: TransactionRecord):
    """Raise for `rec`, a transaction not free to take a step: not ACTIVE,
    owing its woken op's EXEC, or blocked."""
    if rec.status is not _ACTIVE:
        raise ManagerInvariantError(f"{rec.name} is {rec.status.value}, not active")
    if rec.woken is not None:
        raise ManagerInvariantError(f"{rec.name} owes the EXEC of its woken op")
    raise ManagerInvariantError(f"{rec.name} is blocked")


# An abort step that emits no event of its own, only the wakes it causes.
RELEASE = "RELEASE"


def abort_plan(rec: TransactionRecord) -> list[tuple]:
    """The (kind, obj, inv, call) steps that erase `rec`: WITHDRAW its
    blocked op, then INVERSE each undo entry newest first (releasing `inv`
    once `call` lands), then RELEASE the rest in release order."""
    plan = [(hist.WITHDRAW, *rec.blocked_on, None)] if rec.blocked_on else []
    plan += [(hist.INVERSE, u.obj, u.inv, u.call) for u in reversed(rec.undo)]
    undone = {u.inv.id for u in rec.undo}
    plan += [(RELEASE, obj, inv, None) for obj, inv in rec.release_order()
             if inv.id not in undone]
    return plan


def find_cycle(adj: dict[int, set[int]]) -> list[int] | None:
    """First cycle under deterministic DFS order, as a node list.

    Roots are the keys of `adj`, tried in sorted order, and each node's
    neighbours are tried in sorted order. A node that is only a target has
    no out-edges: it cannot start a cycle, and visiting it as a root first
    would change no later path, so it is visited only when reached. The
    DFS keeps its own stack of neighbour iterators, so a chain of any
    length fits.
    """
    color: dict[int, int] = {}
    for n in sorted(adj):
        if color.get(n, 0):
            continue
        color[n] = 1
        path = [n]
        pending = [iter(sorted(adj[n]))]
        while pending:
            for v in pending[-1]:
                c = color.get(v, 0)
                if c == 1:
                    return path[path.index(v):]
                if c == 0:
                    color[v] = 1
                    path.append(v)
                    pending.append(iter(sorted(adj.get(v, ()))))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return None


def waits_for_edges(txns: dict[int, TransactionRecord], root: int) -> dict[int, set[int]]:
    """The waits-for subgraph induced by the transactions that can reach
    `root`, a blocked transaction, found by walking the monitors' edges
    backwards from it. `txns` maps each id to its record. An edge from a
    transaction to itself is refused."""
    adj: dict[int, set[int]] = {}
    reach, frontier = {root}, [root]
    while frontier:
        rec = txns[frontier.pop()]
        for obj, inv in chain(rec.invocations, (rec.blocked_on,)):
            for wid in obj.blocks.get(inv.id, ()):
                waiter = obj.live[wid].txn
                if waiter == rec.id:
                    raise ManagerInvariantError(
                        f"self-edge on {waiter} in the waits-for graph")
                waits = adj.get(waiter)
                if waits is None:
                    adj[waiter] = {rec.id}
                else:
                    waits.add(rec.id)
                if waiter not in reach:
                    reach.add(waiter)
                    frontier.append(waiter)
    return adj


class TransactionManager:
    """Owns the objects, the transactions and the event stream.

    A record's `blocked_on` holds its op from BLOCK to WAKE, and its
    `woken` from WAKE to EXEC. `issue`, `invoke` and `commit` take only a
    transaction free to step: ACTIVE, not blocked, and owing no woken op's
    EXEC. `abort` also takes a blocked one, whose op it withdraws, and
    `resume` takes only one with a woken op.

    The simulator and the history replay each drive one. `history` is the
    event sink: anything whose `emit` takes `History.emit`'s fields, which
    the manager always passes in order, all seven. A run's manager emits
    into its `History`; the replay's owes each event to the history it
    judges.

    `on_wake(txn_id)` fires when a blocked transaction's operation is
    admitted. The simulator passes a list's `append` and moves the woken
    transactions back onto its READY list after each quantum; it is
    optional for direct use in tests. An aborted transaction needs no
    notice: its record says ABORTED, and a scheduler never resumes a
    victim's parked call.
    """

    def __init__(self, history: History | None = None, strict: bool = True,
                 on_wake=None):
        self.history = history if history is not None else History()
        self.strict = strict
        self.on_wake = on_wake
        self.objects: dict[str, ManagedObject] = {}
        self.txns: dict[int, TransactionRecord] = {}
        self._txn_ids = count(1)
        self._inv_ids = count(1)

    # -- setup ---------------------------------------------------------------

    def add_object(self, name: str, spec: AdtSpec, initial_state=None) -> ManagedObject:
        if name in self.objects:
            raise FrameworkError(f"object {name} already exists")
        state = spec.initial_state if initial_state is None else initial_state
        obj = ManagedObject(name=name, index=len(self.objects), spec=spec,
                            state=state, strict=self.strict)
        self.objects[name] = obj
        return obj

    # -- transaction lifecycle -------------------------------------------------

    def begin(self, name: str) -> TransactionRecord:
        rec = TransactionRecord(id=next(self._txn_ids), name=name)
        self.txns[rec.id] = rec
        self.history.emit(hist.BEGIN, rec.name, None, None, (), (), None)
        return rec

    def issue(self, rec: TransactionRecord, obj_name: str, call: PublicCall):
        """Issue one public call up to any wait: translate it, then emit
        its NULLOP, or `invoke` its private call. Returns (translation,
        inv), with inv None for a NULL call.

        When inv has not executed, it blocked: `resume` executes it once a
        wake admits it. If `rec` is no longer ACTIVE, it lost the deadlock
        its call closed.
        """
        obj = self.objects[obj_name]
        tr = translate_public(obj.spec, call)
        if tr.call is None:
            # result decided by in-params alone: no invocation, no monitor
            if rec.status is not _ACTIVE or rec.blocked_on or rec.woken:
                _refuse(rec)
            self.history.emit(hist.NULLOP, rec.name, obj.name, call.op, call.ins,
                              tr.public_outs, None)
            return tr, None
        return tr, self.invoke(rec, obj, *tr.call)

    def perform(self, rec: TransactionRecord, obj_name: str, call: PublicCall):
        """Issue one public call; a generator so the caller can park.

        Yields ("wait", inv) at most once, when the translated invocation
        blocked; resume it after the wake notification. Returns the public
        out-params. Raises TransactionAborted if issuing this call closed a
        waits-for cycle that this transaction lost.
        """
        tr, inv = self.issue(rec, obj_name, call)
        if inv is None:
            return tr.public_outs
        if inv.lifecycle is not _EXECUTED:       # it blocked
            if rec.status is not _ACTIVE:
                raise TransactionAborted(rec.name)
            yield ("wait", inv)
            self.resume(rec)
        return public_outs_from_private(tr.rule, call.ins, inv.outs)

    def invoke(self, rec: TransactionRecord, obj: ManagedObject, op: str,
               ins: tuple) -> PrivateInvocation:
        """Issue `rec`'s private call as the next invocation and emit its
        INVOKE. Admission executes it at once, registers it with its
        DEDUCE, or emits its BLOCK and parks `rec` on it; a BLOCK is then
        followed by the deadlock resolution, and if that admitted the op,
        by its EXEC. Returns the invocation."""
        if rec.status is not _ACTIVE or rec.blocked_on or rec.woken:
            _refuse(rec)
        inv = PrivateInvocation(next(self._inv_ids), rec.id, obj.name, op, ins)
        emit = self.history.emit
        emit(hist.INVOKE, rec.name, obj.name, op, ins, (), inv.id)
        outcome = obj.admit(inv)
        if outcome is _OUTCOME_DEDUCED:
            emit(hist.DEDUCE, rec.name, obj.name, op, ins, inv.outs, inv.id)
            rec.register(obj, inv)
        elif outcome is _OUTCOME_BLOCKED:
            emit(hist.BLOCK, rec.name, obj.name, op, ins, (), inv.id)
            rec.blocked_on = (obj, inv)
            self._resolve(rec)
            if rec.woken:
                # a victim's abort admitted it: it runs now, in this step
                self.resume(rec)
        else:
            self._execute(rec, obj, inv)
        return inv

    def resume(self, rec: TransactionRecord):
        """Execute the op a wake admitted for `rec`."""
        woken = rec.woken
        if woken is None:
            raise ManagerInvariantError(f"{rec.name} has no woken op to execute")
        rec.woken = None
        self._execute(rec, *woken)

    def commit(self, rec: TransactionRecord):
        """Finish each of `rec`'s ops in release order, and leave it
        COMMITTED. `finish` refuses an op that has not executed."""
        if rec.status is not _ACTIVE or rec.blocked_on or rec.woken:
            _refuse(rec)
        self.history.emit(hist.COMMIT, rec.name, None, None, (), (), None)
        for obj, inv in rec.release_order():
            woken, shed = obj.finish(inv)
            if shed:
                self._release(obj, inv, woken, shed)
        rec.status = _COMMITTED

    def abort(self, rec: TransactionRecord):
        """Erase a transaction: emit its ABORT, then run its `abort_plan`,
        emitting each WITHDRAW and INVERSE, and leave it ABORTED.

        Never fails and never blocks; that is what makes two-phase locking
        with inverse undo livable. Unlike the other steps it takes a
        blocked transaction, and withdraws its op. A transaction that asks
        to abort and a deadlock's victim abort through this one step.
        """
        if rec.status is not _ACTIVE or rec.woken:
            _refuse(rec)
        emit = self.history.emit
        emit(hist.ABORT, rec.name, None, None, (), (), None)
        for kind, obj, inv, call in abort_plan(rec):
            if kind == hist.WITHDRAW:
                emit(hist.WITHDRAW, rec.name, obj.name, inv.op, inv.ins, (), inv.id)
                rec.blocked_on = None
                woken, shed = obj.withdraw(inv)
            else:
                if kind == hist.INVERSE:
                    outs = obj.apply_inverse(call)
                    emit(hist.INVERSE, rec.name, obj.name, call.op, call.ins, outs, inv.id)
                woken, shed = obj.finish(inv)
            if shed:
                self._release(obj, inv, woken, shed)
        rec.status = _ABORTED

    # -- steps --------------------------------------------------------------------
    # Each release section a step runs returns (woken, shed): the ops it
    # admitted and the ids of the waiters that shed their edge to the op.
    # Only when something was shed does the step hand that report to
    # `_release`.

    def _execute(self, rec: TransactionRecord, obj: ManagedObject, inv: PrivateInvocation):
        """Run an admitted op, emit its EXEC, complete it and register it."""
        outs = obj.execute(inv)
        self.history.emit(hist.EXEC, rec.name, obj.name, inv.op, inv.ins, outs, inv.id)
        woken, shed = obj.complete(inv, outs)
        if shed:
            self._release(obj, inv, woken, shed)
        rec.register(obj, inv)

    def _release(self, obj, inv, woken, shed):
        """Wake each op in `woken`, which a release section of obj's
        admitted when it shed `shed`: move it from its txn's `blocked_on`
        to its `woken`, and emit its WAKE."""
        for w in woken:
            rec = self.txns[w.txn]
            blocked = rec.blocked_on
            if blocked is None or blocked[1] is not w:
                raise ManagerInvariantError(f"{rec.name} woken for {w!r}, "
                                            "which it was not waiting on")
            rec.blocked_on, rec.woken = None, blocked
            self.history.emit(hist.WAKE, rec.name, obj.name, w.op, w.ins, (), w.id)
            if self.on_wake:
                self.on_wake(w.txn)

    def _resolve(self, rec: TransactionRecord):
        """Abort victims until no cycle runs through `rec`, which just
        blocked: emit each victim's VICTIM, then `abort` it. The search
        runs on `waits_for_edges` from `rec`, pruned in place after each
        victim; see the module docstring for why that finds every cycle,
        and the same ones."""
        txns, adj = self.txns, self.waits_for_edges(rec.id)
        while True:
            cycle = find_cycle(adj)
            if cycle is None:
                return
            victim = txns[max(cycle)]
            self.history.emit(hist.VICTIM, victim.name, None, None, (), (), None)
            self.abort(victim)
            if rec.blocked_on is None:
                return
            # prune in place rather than walk again (the victim is unblocked
            # too); the walk built these sets and nothing else holds them
            for t in [t for t in adj if txns[t].blocked_on is None]:
                del adj[t]
            for waits in adj.values():
                waits.discard(victim.id)

    # kept as a method because bench/tracer.py patches it by name (ROADMAP item 8)
    def waits_for_edges(self, root: int) -> dict[int, set[int]]:
        return waits_for_edges(self.txns, root)
