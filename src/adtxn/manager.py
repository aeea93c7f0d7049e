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

Deadlock is handled at block time. The waits-for graph is derived on demand
from the monitors' edge ledgers, and the youngest transaction on a cycle
(the largest id, the one with the least work behind it) is aborted outright;
this repeats until the graph is acyclic, so a blocked transaction sleeps
only on live, cycle-free waits. A blocker is live on the waiter's own
object, so its owner is read from that monitor's `live` map, never
searched for.

The search is rooted at the transaction that just blocked, and is exact.
Edges are added only when a transaction blocks, and every resolution leaves
the graph acyclic, so any cycle passes through the blocker and all its
nodes can reach the blocker. The search therefore looks only at those
transactions, gathered by walking waits-for edges backwards from the
blocker. A transaction outside that set has no edge into it, so the
depth-first search of `find_cycle`, visiting nodes and neighbours in sorted
order, meets the same cycle first on that subgraph as on the whole graph:
from a root outside the set it never enters the set, and from inside it
any excursion out of the set finishes without coming back. Victims, and
hence traces, are those of a whole-graph search. The same holds for any
set that contains every cycle and that no outside edge enters.

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
_BLOCKED, _RUNNING = Lifecycle.BLOCKED, Lifecycle.IN_EXECUTION
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
    COMMITTING = "committing"
    COMMITTED = "committed"
    ABORTING = "aborting"
    ABORTED = "aborted"


_ACTIVE, _COMMITTING, _COMMITTED, _ABORTING, _ABORTED = (
    TxnStatus.ACTIVE, TxnStatus.COMMITTING, TxnStatus.COMMITTED, TxnStatus.ABORTING,
    TxnStatus.ABORTED)


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


# The transaction steps the engine and the history replay share. Each emits
# its events through `emit`, called in `History.emit`'s positional field
# order, and calls a monitor's release section directly. A section returns
# (woken, shed): the ops it admitted and the ids of the waiters that shed
# their edge to the op. Only when something was shed does the step call
# `release(obj, inv, woken, shed)`, which wakes each woken op: the engine
# emits what the sink gets, and the replay owes it.


def admit(rec: TransactionRecord, obj: ManagedObject, inv: PrivateInvocation,
          emit, release) -> AdmitOutcome:
    """Admit `rec`'s `inv` at `obj`: execute it at once, register it with
    its DEDUCE, or emit its BLOCK and park `rec` on it."""
    outcome = obj.admit(inv)
    if outcome is _OUTCOME_DEDUCED:
        emit(hist.DEDUCE, rec.name, obj.name, inv.op, inv.ins, inv.outs, inv.id)
        rec.register(obj, inv)
    elif outcome is _OUTCOME_BLOCKED:
        emit(hist.BLOCK, rec.name, obj.name, inv.op, inv.ins, (), inv.id)
        rec.blocked_on = (obj, inv)
    else:
        execute(rec, obj, inv, emit, release)
    return outcome


def execute(rec: TransactionRecord, obj: ManagedObject, inv: PrivateInvocation,
            emit, release):
    """Run an admitted op, emit its EXEC, complete it and register it."""
    outs = obj.execute(inv)
    emit(hist.EXEC, rec.name, obj.name, inv.op, inv.ins, outs, inv.id)
    woken, shed = obj.complete(inv, outs)
    if shed:
        release(obj, inv, woken, shed)
    rec.register(obj, inv)


def wake(rec: TransactionRecord, obj: ManagedObject, inv: PrivateInvocation, emit):
    """Unpark `rec`, whose blocked `inv` a release section admitted, and
    emit its WAKE."""
    if rec.blocked_on is None or rec.blocked_on[1] is not inv:
        raise ManagerInvariantError(f"{rec.name} woken for {inv!r}, "
                                    "which it was not waiting on")
    rec.blocked_on = None
    emit(hist.WAKE, rec.name, obj.name, inv.op, inv.ins, (), inv.id)


def erase(rec: TransactionRecord, emit, release):
    """Run `rec`'s whole `abort_plan`, emitting each WITHDRAW and INVERSE,
    and leave it ABORTED."""
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
            release(obj, inv, woken, shed)
    rec.status = _ABORTED


def commit(rec: TransactionRecord, release):
    """Finish each of `rec`'s ops in release order, and leave it COMMITTED.
    `finish` refuses an op that has not executed."""
    for obj, inv in rec.release_order():
        woken, shed = obj.finish(inv)
        if shed:
            release(obj, inv, woken, shed)
    rec.status = _COMMITTED


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


class TransactionManager:
    """Owns the objects, the transactions and the event stream.

    `on_wake(txn_id)` fires when a blocked transaction's operation is
    admitted. A scheduler uses it to mark the coroutine runnable; it is
    optional for direct use in tests. An aborted transaction needs no
    notice: its record says ABORTED, and a scheduler never resumes a
    victim's parked coroutine.
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
        self.history.emit(hist.BEGIN, txn=rec.name)
        return rec

    def perform(self, rec: TransactionRecord, obj_name: str, call: PublicCall):
        """Issue one public call; a generator so the caller can park.

        Yields ("wait", inv) at most once, when the translated invocation
        blocked; resume it after the wake notification. Returns the public
        out-params. Raises TransactionAborted if issuing this call closed a
        waits-for cycle that this transaction lost.
        """
        if rec.status is not _ACTIVE:
            raise ManagerInvariantError(f"{rec.name} is {rec.status.value}")
        obj = self.objects[obj_name]
        tr = translate_public(obj.spec, call)
        if tr.call is None:
            # result decided by in-params alone: no invocation, no monitor
            self.history.emit(hist.NULLOP, txn=rec.name, obj=obj.name,
                              op=call.op, ins=call.ins, outs=tr.public_outs)
            return tr.public_outs
        op, ins = tr.call
        inv = PrivateInvocation(next(self._inv_ids), rec.id, obj.name, op, ins)
        emit = self.history.emit
        emit(hist.INVOKE, rec.name, obj.name, inv.op, inv.ins, (), inv.id)
        if admit(rec, obj, inv, emit, self._release) is _OUTCOME_BLOCKED:
            self._resolve_deadlocks(rec)
            if rec.status is not _ACTIVE:
                raise TransactionAborted(rec.name)
            if inv.lifecycle is _BLOCKED:
                yield ("wait", inv)
            # resolving a deadlock elsewhere may have admitted us already
            if inv.lifecycle is not _RUNNING or rec.blocked_on is not None:
                raise ManagerInvariantError(f"{rec.name} resumed with {inv!r} not admitted")
            execute(rec, obj, inv, emit, self._release)
        return public_outs_from_private(tr.rule, call.ins, inv.outs)

    def commit(self, rec: TransactionRecord):
        if rec.status is not _ACTIVE:
            raise ManagerInvariantError(f"{rec.name} is {rec.status.value}")
        if rec.blocked_on is not None:
            raise ManagerInvariantError(f"{rec.name} commits while blocked")
        rec.status = _COMMITTING
        self.history.emit(hist.COMMIT, txn=rec.name)
        commit(rec, self._release)

    def abort(self, rec: TransactionRecord):
        """Erase a transaction by running its `abort_plan`.

        Never fails and never blocks; that is what makes two-phase locking
        with inverse undo livable.
        """
        if rec.status is not _ACTIVE:
            raise ManagerInvariantError(f"{rec.name} is {rec.status.value}")
        rec.status = _ABORTING
        self.history.emit(hist.ABORT, txn=rec.name)
        erase(rec, self.history.emit, self._release)

    # -- internals --------------------------------------------------------------

    def _release(self, obj, inv, woken, shed):
        """The release hook of the shared steps: wake each op in `woken`,
        which a release section of obj's admitted when it shed `shed`."""
        for w in woken:
            wake(self.txns[w.txn], obj, w, self.history.emit)
            if self.on_wake:
                self.on_wake(w.txn)

    def waits_for_edges(self, root: int) -> dict[int, set[int]]:
        """The waits-for subgraph induced by the transactions that can reach
        `root`, a blocked transaction, found by walking the monitors' edges
        backwards from it."""
        adj: dict[int, set[int]] = {}
        reach, frontier = {root}, [root]
        while frontier:
            rec = self.txns[frontier.pop()]
            for obj, inv in chain(rec.invocations, (rec.blocked_on,)):
                for wid in obj.blocks.get(inv.id, ()):
                    waiter = obj.live[wid].txn
                    waits = adj.get(waiter)
                    if waits is None:
                        adj[waiter] = {rec.id}
                    else:
                        waits.add(rec.id)
                    if waiter not in reach:
                        reach.add(waiter)
                        frontier.append(waiter)
        return adj

    def _resolve_deadlocks(self, rec: TransactionRecord):
        """Abort victims until no cycle runs through `rec`, which just
        blocked. One backward walk, pruned after each victim; see the module
        docstring for why that finds every cycle, and the same ones."""
        adj = self.waits_for_edges(rec.id)
        while True:
            cycle = find_cycle(adj)
            if cycle is None:
                return
            victim = self.txns[max(cycle)]
            self.history.emit(hist.VICTIM, txn=victim.name)
            self.abort(victim)
            if rec.blocked_on is None:
                return
            # prune in place rather than walk again (the victim is unblocked
            # too); the walk built these sets and nothing else holds them
            for t in [t for t in adj if self.txns[t].blocked_on is None]:
                del adj[t]
            for waits in adj.values():
                waits.discard(victim.id)
