"""Per-object monitor: admission, execution, release.

Every shared object runs its operations through a four-step discipline:

  (1) on arrival, try to *deduce* the result from already-executed
      operations; failing that, test in-parameter commutativity against
      everything admitted but unfinished and out-parameter commutativity
      against everything executed, and block on the conflicts;
  (2) wait until no conflict remains;
  (3) execute, exactly once;
  (4) publish the out-parameters and re-test the ops blocked on this one,
      since results often reveal commutativity that in-parameters alone
      could not (a failed pop conflicts with nothing).

Steps (1), (4) and the release operations (finish, withdraw) are entry
sections: each runs to completion before the next begins, and the
structural invariants below hold between any two of them. Step (3) is
deliberately outside: executions of commuting ops may overlap in a threaded
build. Under the cooperative scheduler used here a quantum never splits an
entry section, so the exclusion is the scheduler itself; the invariant
checker still runs after every section to keep the discipline honest.

Blocking is tracked as a ledger kept in both directions: `blocks[b]` holds
the ids waiting on b, and `blocked_by[w]` holds the ids w still waits on.
Each edge is in both or in neither, so a blocker's waiters and a waiter's
blockers are each one lookup. When a waiter's last blocker goes, the op
moves to in-execution immediately, inside the same entry section that
removed the edge, so "blocked iff it has a blocker" is never observably
false. The caller is handed the list of newly admitted ops and owns waking
their transactions.

Conflicts are never recorded between operations of the same transaction:
transactions are sequential, so their own ops are already ordered and
self-blocking would deadlock on arrival. Deduction, by contrast, must
consider *all* executed ops including the transaction's own, because a
deduced answer has to be consistent with every result the state already
reflects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .core import (AdtSpec, Lifecycle, Origin, PrivateCall, PrivateInvocation,
                   check_outs)
from .tables import commute_with_in, commute_with_in_out, try_deduce
from .values import Value


class MonitorInvariantError(AssertionError):
    """A strict check found the monitor's bookkeeping broken. Raised rather
    than asserted so the checks hold under `python -O`; an AssertionError
    so the oracles count it as a failed check."""


class AdmitOutcome(Enum):
    ADMITTED = "admitted"    # runs now
    DEDUCED = "deduced"      # answered without running
    BLOCKED = "blocked"      # parked on conflicts


@dataclass(eq=False)
class ManagedObject:
    """One shared object plus its monitor bookkeeping."""
    name: str
    index: int
    spec: AdtSpec
    state: object
    strict: bool = True
    blocked: dict[int, PrivateInvocation] = field(default_factory=dict)
    in_execution: dict[int, PrivateInvocation] = field(default_factory=dict)
    executed: dict[int, PrivateInvocation] = field(default_factory=dict)
    blocks: dict[int, set[int]] = field(default_factory=dict)
    blocked_by: dict[int, set[int]] = field(default_factory=dict)
    max_in_execution: int = 0

    # -- step (1): deduction, then in-control ------------------------------

    def admit(self, inv: PrivateInvocation) -> AdmitOutcome:
        assert inv.lifecycle is Lifecycle.NEW and inv.obj == self.name
        executed = [self.executed[i] for i in sorted(self.executed)]
        pending = ([self.blocked[i] for i in sorted(self.blocked)]
                   + [self.in_execution[i] for i in sorted(self.in_execution)])
        deduced = try_deduce(self.spec.tables, inv, executed, pending)
        if deduced is not None:
            check_outs(self.spec, inv.op, deduced)
            inv.outs = deduced
            inv.origin = Origin.DEDUCED
            inv.lifecycle = Lifecycle.EXECUTED
            self.executed[inv.id] = inv
            self._check()
            return AdmitOutcome.DEDUCED
        conflicts = set()
        for other in pending:
            if other.txn != inv.txn and not commute_with_in(self.spec.tables, other, inv):
                conflicts.add(other.id)
        for other in executed:
            if other.txn != inv.txn and \
                    not commute_with_in_out(self.spec.tables, other, inv).commutes:
                conflicts.add(other.id)
        if conflicts:
            inv.lifecycle = Lifecycle.BLOCKED
            self.blocked[inv.id] = inv
            self.blocked_by[inv.id] = conflicts
            for b in conflicts:
                self.blocks.setdefault(b, set()).add(inv.id)
            self._check()
            return AdmitOutcome.BLOCKED
        self._enter_execution(inv)
        self._check()
        return AdmitOutcome.ADMITTED

    # -- step (3): the only forward mutation of object state ---------------

    def execute(self, inv: PrivateInvocation) -> tuple[Value, ...]:
        assert inv.lifecycle is Lifecycle.IN_EXECUTION
        inv.executions += 1
        assert inv.executions == 1, f"{inv!r} executed more than once"
        new_state, outs = self.spec.apply(self.state, inv.op, inv.ins)
        check_outs(self.spec, inv.op, outs)
        self.state = new_state
        return outs

    # -- step (4): out-control ----------------------------------------------

    def complete(self, inv: PrivateInvocation,
                 outs: tuple[Value, ...]) -> list[PrivateInvocation]:
        """Record results, move to executed, re-test this op's waiters.

        A waiter whose conflict was only pseudo (the results commute even
        though the in-params did not promise it) sheds that edge now.
        Returns the ops this admitted, in id order.
        """
        assert inv.lifecycle is Lifecycle.IN_EXECUTION
        inv.outs = outs
        del self.in_execution[inv.id]
        inv.lifecycle = Lifecycle.EXECUTED
        self.executed[inv.id] = inv
        woken = []
        for wid in sorted(self.blocks.get(inv.id, set())):
            waiter = self.blocked[wid]
            if commute_with_in_out(self.spec.tables, inv, waiter).commutes:
                self.blocks[inv.id].discard(wid)
                woken += self._shed_edge(waiter, inv.id)
        if inv.id in self.blocks and not self.blocks[inv.id]:
            del self.blocks[inv.id]
        self._check()
        return woken

    # -- release: transaction outcome reached -------------------------------

    def finish(self, inv: PrivateInvocation) -> list[PrivateInvocation]:
        """Commit-or-reject for one executed op: drop every edge it holds."""
        assert inv.lifecycle is Lifecycle.EXECUTED
        del self.executed[inv.id]
        inv.lifecycle = Lifecycle.FINISHED
        woken = []
        for wid in sorted(self.blocks.pop(inv.id, set())):
            woken += self._shed_edge(self.blocked[wid], inv.id)
        self._check()
        return woken

    def withdraw(self, inv: PrivateInvocation) -> list[PrivateInvocation]:
        """Remove a still-blocked op entirely (its transaction is aborting).

        Only Blocked ops can be withdrawn: once admitted, an op's effects
        exist and must be undone through its inverse instead.
        """
        assert inv.lifecycle is Lifecycle.BLOCKED
        del self.blocked[inv.id]
        woken = []
        for wid in sorted(self.blocks.pop(inv.id, set())):
            woken += self._shed_edge(self.blocked[wid], inv.id)
        # then drop the edges that pointed at the withdrawn op itself
        for b in self.blocked_by.pop(inv.id):
            self.blocks[b].remove(inv.id)
            if not self.blocks[b]:
                del self.blocks[b]
        inv.lifecycle = Lifecycle.FINISHED
        self._check()
        return woken

    # -- undo path -----------------------------------------------------------

    def apply_inverse(self, call: PrivateCall) -> tuple[Value, ...]:
        """Run an inverse against the state, bypassing admission.

        Inverses are installed by the aborting transaction itself while it
        still holds every conflict edge its direct ops created, so admission
        would be vacuous; running them through it could even self-block.
        """
        new_state, outs = self.spec.apply(self.state, call.op, call.ins)
        check_outs(self.spec, call.op, outs)
        self.state = new_state
        return outs

    # -- internals ------------------------------------------------------------

    def _enter_execution(self, inv: PrivateInvocation):
        inv.lifecycle = Lifecycle.IN_EXECUTION
        self.in_execution[inv.id] = inv
        self.max_in_execution = max(self.max_in_execution, len(self.in_execution))
        if self.strict:
            self._admission_safety(inv)

    def _shed_edge(self, waiter: PrivateInvocation,
                   blocker_id: int) -> list[PrivateInvocation]:
        """Drop the edge blocker -> waiter from `blocked_by`; the caller has
        already dropped it from `blocks`. Admits the waiter if it was the last."""
        blockers = self.blocked_by[waiter.id]
        blockers.remove(blocker_id)
        if blockers:
            return []
        del self.blocked_by[waiter.id]
        del self.blocked[waiter.id]
        self._enter_execution(waiter)
        return [waiter]

    def find_invocation(self, inv_id: int) -> PrivateInvocation:
        for pool in (self.blocked, self.in_execution, self.executed):
            if inv_id in pool:
                return pool[inv_id]
        raise KeyError(inv_id)

    def _admission_safety(self, inv: PrivateInvocation):
        # Entering execution must be conflict-free right now, not just at
        # whatever moment the edges were recorded.
        for other in self.in_execution.values():
            if other is inv or other.txn == inv.txn:
                continue
            if not commute_with_in(self.spec.tables, other, inv):
                raise MonitorInvariantError(
                    f"{inv!r} admitted against conflicting {other!r}")
        for other in self.executed.values():
            if other.txn == inv.txn:
                continue
            if not commute_with_in_out(self.spec.tables, other, inv).commutes:
                raise MonitorInvariantError(
                    f"{inv!r} admitted against conflicting executed {other!r}")

    def _check(self):
        if not self.strict:
            return
        b, x, e = set(self.blocked), set(self.in_execution), set(self.executed)
        if b & x or b & e or x & e:
            raise MonitorInvariantError(f"{self.name}: partition overlap")
        for pool, life in ((self.blocked, Lifecycle.BLOCKED),
                           (self.in_execution, Lifecycle.IN_EXECUTION),
                           (self.executed, Lifecycle.EXECUTED)):
            for iid, inv in pool.items():
                if inv.id != iid or inv.lifecycle is not life:
                    raise MonitorInvariantError(f"{inv!r} misfiled")
        if self.blocked_by.keys() != b:
            raise MonitorInvariantError(f"{self.name}: blocked_by vs blocked drift")
        live = b | x | e
        edges = 0
        for blocker, waiters in self.blocks.items():
            if blocker not in live:
                raise MonitorInvariantError(f"{self.name}: edges from dead op {blocker}")
            for w in waiters:
                if w not in b:
                    raise MonitorInvariantError(f"{self.name}: edge to non-blocked {w}")
                if blocker >= w:
                    raise MonitorInvariantError(
                        f"{self.name}: edge {blocker}->{w} not forward")
                if blocker not in self.blocked_by[w]:
                    raise MonitorInvariantError(
                        f"{self.name}: edge {blocker}->{w} missing from blocked_by")
            edges += len(waiters)
        # every blocks edge is in blocked_by, so equal totals make them mirrors
        mirrored = 0
        for w, blockers in self.blocked_by.items():
            if not blockers:
                raise MonitorInvariantError(f"{self.name}: {w} blocked by nothing")
            mirrored += len(blockers)
        if mirrored != edges:
            raise MonitorInvariantError(
                f"{self.name}: {mirrored} blocked_by edges vs {edges} blocks edges")
        for inv in self.executed.values():
            expect = 0 if inv.origin is Origin.DEDUCED else 1
            if inv.outs is None or inv.executions != expect:
                raise MonitorInvariantError(f"{inv!r} outs or execution count")
        for inv in self.blocked.values():
            if inv.outs is not None or inv.executions != 0:
                raise MonitorInvariantError(f"{inv!r} blocked with outs or executions")
        for inv in self.in_execution.values():
            if inv.outs is not None:
                raise MonitorInvariantError(f"{inv!r} in execution with outs")
