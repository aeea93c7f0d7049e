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

Each object holds its admitted, unfinished ops in one map, `live`, from
`admit` until `finish` or `withdraw`; an op's stage is its lifecycle and is
recorded nowhere else. `running` counts the ops in execution for the
`max_in_execution` metric; only `_enter_execution` and `complete` move it.
`executed` counts the executed ops, for keyed deduction (below); only
`admit` (when it deduces), `complete` and `finish` move it. The
whole-object check compares both counts with the stages in `live`.

Admission is keyed. For a data type that gives its calls conflict keys (a
set op's item), `admit` stores the op's key as `inv.key` and `live` is also
filed by key: every op sits in `by_key[inv.key]`, and an op without a key
(a set's CARD) under `None`, a key like any other. Each group is dropped
when its last op goes, `None`'s too. An incoming op with a key is tested
only against its key's group and `None`'s; one without a key, like every
op of a type without keys, against all of `live`. Either way an op whose op
pairs with the incoming one through the shared `ALWAYS` in-entry is passed
over without a query. Skipping these is exact, not a heuristic:

  * two ops under distinct keys commute in both tables, for every result
    (the data type's key claim);
  * an `ALWAYS` pair commutes by the in-table, and the out-query falls
    back to the in-table, so both queries answer yes without reading any
    parameter.

So every skipped query would have answered "commutes". The key claim is a
claim about the tables, proved by `verify-tables` (`validate.check_pairs`)
for every probe pair with distinct keys in every bounded state, and
re-tested at run time by `_admission_safety`, which still scans all of
`live`.

Deduction is keyed too. A deduction needs every executed op to pin the
answer, and the key claim says an op under another key cannot pin it. So
`_screen` gathers, in one list, the executed ops of the groups it reads
for conflicts: its key's group and `None`'s, or all of `live` for an op
without a key and every op of a type without keys. It asks `try_deduce`
only if there are `executed` of them, that is, if no executed op sits
under another key. Then `try_deduce` reads the same executed ops a scan
of `live` would, for an op with a key in another order; every deduction
must agree, so the answer is the same. When the counts differ, an executed
op sits under another key, and the scan of `live` would have stopped there
with no deduction (`validate.check_pairs` sweeps "a deducing entry
matches" across keys). The pending ops are still read from all of `live`.
So a false key claim could only cost a deduction, never make one.

In strict mode a section checks what it changed, not the whole object. The
invariant is a conjunction of predicates on one op each (live exactly while
blocked, in execution or executed, with the outs and execution count its
stage implies; blocked exactly when it waits on a non-empty blocker set;
holding no edges once dead; wait-listed by no one while in execution) and
on one edge each (in both directions of the ledger or in neither; from a
smaller id to a larger one; from a live op to a blocked one). A predicate
turns false only when something it reads changes, and a section changes
only its own op, the ops it releases or wakes, and the edges between those
and its op. So if the invariant held before a section, `_check(op,
waiters, shed, blockers)` over exactly those shows it holds after:

  * `admit` passes the new op alone. When it blocks, all its edges are new
    and are read from its side (each blocker lists it, precedes it and is
    live); nothing about the blockers' own stages moved.
  * `complete` and `finish` pass the op and its former waiters, whether
    they were woken or still wait on others; with no waiters, the op alone.
  * `withdraw` passes the op, its former waiters and its blockers.

Each passes its report too (below), `shed`: the former waiters that shed
their edge to the op. `_check` demands that it name, in order, exactly
the waiters whose edge is gone from both maps. The engine and the replay
act on the report alone, so a section that sheds an edge it does not
report, or reports one it kept, fails here rather than in their
bookkeeping.

The scoped check sends the op and each peer through one per-op stage
predicate, `_check_stage`, which the whole-object check loops over too. It
reads the op's entries in `live`, `blocks` and `blocked_by` and branches on
the stage the section left it in:

  * dead: it waits on nothing and blocks nothing;
  * executed: it waits on nothing, holds outs, and ran once (never, if it
    was deduced);
  * in execution: it waits on nothing, holds no outs, and no `blocks` set
    lists it, which a scan of every set shows (skipped when there is none);
  * blocked: no outs, no execution, and a non-empty blocker set;

and a live op must be filed under its own id. That is the conjunction one
loop trying every predicate on the op checks, less the predicates its
stage already settles: "blocked by nothing" and the blocker checks can
fail only for an op with blockers, which only a blocked op may have, and
an op in execution that no set lists has no edge into it, from itself or
from a peer. What `_check` adds is its own: the op's filing under its
key, no edge from the op to itself, each blocker of a blocked op live,
earlier and listing it, and, in one pass over the peers with each one's
stage, the edges between op and peer, read from both maps, and the
report. tests/test_strict_faults.py keeps the single loop as a reference and
requires the two to agree at every section of several hundred runs, with
and without a planted fault in a section.

The whole-object `_check()` first checks what no scoped check can see:
the stage of every op by the id it is filed under in `live`, and of every
dead id still holding an edge; `running` and `executed` against the
stages; and that every live op is filed exactly once in the index, under
the key its type gives it, that no group is empty, `None`'s included, and
that nothing else is filed. Then every edge has a live end, so it runs the
scoped check of each live op with all its waiters and blockers as peers,
which reads every edge from both sides: the edge rules are stated once, in
`_check`. A scoped check verifies the filing of its own op.

A direct admission needs no separate safety check: admit's empty conflict
set was computed over the same live ops with the same queries, and is the
certificate. An op woken through `_shed_edges` enters execution at a moment
admit never checked, so it alone is re-tested against the live ops
(`_admission_safety`). That no section touches more than it passes is
tested too: tests/test_oracles.py runs the whole-object `_check()` and the
admission re-test after every section of several hundred runs.

Blocking is tracked as a ledger kept in both directions: `blocks[b]` holds
the ids waiting on b, and `blocked_by[w]` holds the ids w still waits on.
Each edge is in both or in neither, so a blocker's waiters and a waiter's
blockers are each one lookup. When a waiter's last blocker goes, the op
moves to in-execution immediately, inside the same entry section that
removed the edge, so "blocked iff it has a blocker" is never observably
false. `finish` and `withdraw` leave through one drop, `_drop`: the op
leaves `live` and the index, and every waiter sheds its edge to it. Each
release section (`complete`, `finish`, `withdraw`) returns its report,
(woken, shed): the ops it admitted and the ids of the waiters whose edge
to the op it removed, each in id order, so woken is a subset of shed; a
section that shed nothing returns one shared empty pair.
The caller, the manager's `_release`, wakes the woken ops' transactions;
the strict check confirms that shed names exactly the waiters whose edge
to the op is gone.

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
from itertools import chain
from types import MappingProxyType
from typing import Hashable, Sequence

from .core import (AdtSpec, Lifecycle, Origin, PrivateCall, PrivateInvocation,
                   check_outs)
from .tables import commute_with_in, commute_with_in_out, try_deduce
from .values import Value


# enum members as globals (see the `core` docstring)
_NEW, _BLOCKED, _RUNNING, _EXECUTED, _FINISHED = (
    Lifecycle.NEW, Lifecycle.BLOCKED, Lifecycle.IN_EXECUTION, Lifecycle.EXECUTED,
    Lifecycle.FINISHED)
_DEDUCED = Origin.DEDUCED


class MonitorInvariantError(AssertionError):
    """An entry section was called on an op in the wrong lifecycle, an op
    ran twice, or a strict check found the bookkeeping broken. Raised rather
    than asserted so the checks hold under `python -O`; an AssertionError
    so the oracles count it as a failed check."""


class AdmitOutcome(Enum):
    ADMITTED = "admitted"    # runs now
    DEDUCED = "deduced"      # answered without running
    BLOCKED = "blocked"      # parked on conflicts


_OUTCOME_ADMITTED, _OUTCOME_DEDUCED, _OUTCOME_BLOCKED = (
    AdmitOutcome.ADMITTED, AdmitOutcome.DEDUCED, AdmitOutcome.BLOCKED)

# what a release section returns when it shed no edge: nothing woken, none shed
_NOTHING = ((), ())
# the group of a key no live op is filed under
_NO_OPS = MappingProxyType({})


@dataclass(eq=False)
class ManagedObject:
    """One shared object plus its monitor bookkeeping."""
    name: str
    index: int
    spec: AdtSpec
    state: object
    strict: bool = True
    live: dict[int, PrivateInvocation] = field(default_factory=dict)
    # for a type with conflict keys, the live ops again, by key (`None` for
    # an op without one); a key is dropped when its last op goes
    by_key: dict[Hashable, dict[int, PrivateInvocation]] = field(default_factory=dict)
    blocks: dict[int, set[int]] = field(default_factory=dict)
    blocked_by: dict[int, set[int]] = field(default_factory=dict)
    running: int = 0
    executed: int = 0
    max_in_execution: int = 0

    # -- step (1): deduction, then in-control ------------------------------

    def admit(self, inv: PrivateInvocation) -> AdmitOutcome:
        if inv.lifecycle is not _NEW or inv.obj != self.name:
            raise MonitorInvariantError(f"{self.name}: cannot admit {inv!r}")
        conflict_key = self.spec.conflict_key
        if conflict_key is not None:
            inv.key = conflict_key(inv.op, inv.ins)
        deduced, conflicts = self._screen(inv) if self.live else (None, None)
        self.live[inv.id] = inv
        if conflict_key is not None:
            self._file(inv)
        if deduced is not None:
            check_outs(self.spec, inv.op, deduced)
            inv.outs = deduced
            inv.origin = _DEDUCED
            inv.lifecycle = _EXECUTED
            self.executed += 1
            self._check(inv)
            return _OUTCOME_DEDUCED
        if conflicts:
            inv.lifecycle = _BLOCKED
            inv_id, blocks = inv.id, self.blocks
            self.blocked_by[inv_id] = conflicts
            for b in conflicts:
                waiters = blocks.get(b)
                if waiters is None:
                    blocks[b] = {inv_id}
                else:
                    waiters.add(inv_id)
            self._check(inv)
            return _OUTCOME_BLOCKED
        # the empty conflict set, over every live op `_admission_safety`
        # reads that can conflict with inv, certifies this admission
        self._enter_execution(inv)
        self._check(inv)
        return _OUTCOME_ADMITTED

    def _screen(self, inv: PrivateInvocation) -> tuple[tuple[Value, ...] | None, set]:
        """(deduced outs or None, conflicts) for inv, not yet filed.

        Both read `groups`: the groups of inv's key and of `None`, or every
        live op when inv has no key. `try_deduce` is asked only when the
        groups hold every executed op, and reads the pending ops of all of
        `live`; it is not asked about an op that no out-entry deduces.
        Conflicts pass over ops that pair with inv's through `ALWAYS`."""
        live, tables = self.live, self.spec.tables
        if inv.key is None:
            groups = (live,)
        else:
            by_key = self.by_key
            near, keyless = by_key.get(inv.key, _NO_OPS), by_key.get(None)
            groups = (near, keyless) if keyless else (near,)
        if inv.op in tables.deducible:
            executed = [other for group in groups for other in group.values()
                        if other.lifecycle is _EXECUTED]
            # with fewer, one sits under another key and cannot pin the answer
            if len(executed) == self.executed:
                deduced = try_deduce(
                    tables, inv, executed,
                    (other for other in live.values() if other.lifecycle is not _EXECUTED))
                if deduced is not None:
                    return deduced, None
        always, txn = tables.always.get(inv.op), inv.txn
        conflicts = set()
        for group in groups:
            for other in group.values():
                if other.txn == txn or always and other.op in always:
                    continue
                if other.lifecycle is _EXECUTED:
                    if not commute_with_in_out(tables, other, inv):
                        conflicts.add(other.id)
                elif not commute_with_in(tables, other, inv):
                    conflicts.add(other.id)
        return None, conflicts

    # -- step (3): the only forward mutation of object state ---------------

    def execute(self, inv: PrivateInvocation) -> tuple[Value, ...]:
        if inv.lifecycle is not _RUNNING:
            raise MonitorInvariantError(f"{inv!r} is not in execution")
        inv.executions += 1
        if inv.executions != 1:
            raise MonitorInvariantError(f"{inv!r} executed more than once")
        new_state, outs = self.spec.apply(self.state, inv.op, inv.ins)
        check_outs(self.spec, inv.op, outs)
        self.state = new_state
        return outs

    # -- step (4): out-control ----------------------------------------------

    def complete(self, inv: PrivateInvocation, outs: tuple[Value, ...]) -> tuple:
        """Record results, move to executed, re-test this op's waiters.

        A waiter whose conflict was only pseudo (the results commute even
        though the in-params did not promise it) sheds that edge now.
        Returns (woken, shed): the ops this admitted and the ids of the
        waiters that shed their edge to `inv`, each in id order.
        """
        if inv.lifecycle is not _RUNNING:
            raise MonitorInvariantError(f"{inv!r} completed outside execution")
        inv.outs = outs
        inv.lifecycle = _EXECUTED
        self.running -= 1
        self.executed += 1
        inv_id = inv.id
        waiting = self.blocks.get(inv_id)
        if waiting is None:
            self._check(inv)
            return _NOTHING
        live, tables = self.live, self.spec.tables
        waiters = sorted(waiting)
        shed = [wid for wid in waiters if commute_with_in_out(tables, inv, live[wid])]
        if not shed:
            self._check(inv, waiters, shed)
            return _NOTHING
        waiting.difference_update(shed)
        if not waiting:
            del self.blocks[inv_id]
        woken = self._shed_edges(shed, inv_id)
        self._check(inv, waiters, shed)
        return woken, shed

    # -- release: transaction outcome reached -------------------------------

    def finish(self, inv: PrivateInvocation) -> tuple:
        """Commit-or-reject for one executed op: drop every edge it holds.
        Returns (woken, shed), as `complete` does; every waiter sheds."""
        if inv.lifecycle is not _EXECUTED:
            raise MonitorInvariantError(f"{inv!r} finished before it executed")
        self.executed -= 1
        report = self._drop(inv)
        self._check(inv, report[1], report[1])
        return report

    def withdraw(self, inv: PrivateInvocation) -> tuple:
        """Remove a still-blocked op entirely (its transaction is aborting).
        Returns (woken, shed), as `finish` does.

        Only Blocked ops can be withdrawn: once admitted, an op's effects
        exist and must be undone through its inverse instead.
        """
        if inv.lifecycle is not _BLOCKED:
            raise MonitorInvariantError(f"{inv!r} withdrawn but not blocked")
        report = self._drop(inv)
        # then drop the edges that pointed at the withdrawn op itself
        inv_id, blocks = inv.id, self.blocks
        blockers = self.blocked_by.pop(inv_id)
        for b in blockers:
            blocks[b].remove(inv_id)
            if not blocks[b]:
                del blocks[b]
        self._check(inv, report[1], report[1], blockers)
        return report

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

    def _file(self, inv: PrivateInvocation):
        group = self.by_key.get(inv.key)
        if group is None:
            self.by_key[inv.key] = {inv.id: inv}
        else:
            group[inv.id] = inv

    def _unfile(self, inv: PrivateInvocation):
        group = self.by_key[inv.key]
        del group[inv.id]
        if not group:
            del self.by_key[inv.key]

    def _drop(self, inv: PrivateInvocation) -> tuple:
        """Take inv out of `live` and the index, and shed every edge from it
        to its waiters (`_shed_edges`). Returns (woken, shed)."""
        inv_id = inv.id
        del self.live[inv_id]
        if self.spec.conflict_key is not None:
            self._unfile(inv)
        inv.lifecycle = _FINISHED
        waiting = self.blocks.pop(inv_id, None)
        if not waiting:
            return _NOTHING
        shed = sorted(waiting)
        return self._shed_edges(shed, inv_id), shed

    def _enter_execution(self, inv: PrivateInvocation):
        inv.lifecycle = _RUNNING
        self.running += 1
        if self.running > self.max_in_execution:
            self.max_in_execution = self.running

    def _shed_edges(self, waiters: list[int], blocker_id: int) -> list[PrivateInvocation]:
        """Drop the edge blocker -> w from `blocked_by` for each w in
        `waiters`, in order; the caller has already dropped them from
        `blocks`. Admits each waiter whose last edge that was, and returns
        those, in order."""
        live, blocked_by, strict, woken = self.live, self.blocked_by, self.strict, []
        for wid in waiters:
            blockers = blocked_by[wid]
            blockers.remove(blocker_id)
            if blockers:
                continue
            del blocked_by[wid]
            waiter = live[wid]
            self._enter_execution(waiter)
            if strict:
                # admit never checked this moment: the waiter's edges were
                # recorded against the live ops as they stood then
                self._admission_safety(waiter)
            woken.append(waiter)
        return woken

    # no caller: kept because bench/tracer.py patches it by name (ROADMAP item 8)
    def find_invocation(self, inv_id: int) -> PrivateInvocation:
        return self.live[inv_id]

    def _admission_safety(self, inv: PrivateInvocation):
        # Entering execution must be conflict-free right now, not just at
        # whatever moment the edges were recorded. Every live op is read,
        # whatever its key: a conflict across keys is a false key claim.
        tables, conflict_key = self.spec.tables, self.spec.conflict_key
        for other in self.live.values():
            if other.txn == inv.txn or other.lifecycle is _BLOCKED:
                continue
            executed = other.lifecycle is _EXECUTED
            if (commute_with_in_out(tables, other, inv) if executed
                    else commute_with_in(tables, other, inv)):
                continue
            if conflict_key is not None:
                keys = conflict_key(other.op, other.ins), conflict_key(inv.op, inv.ins)
                if None not in keys and keys[0] != keys[1]:
                    raise MonitorInvariantError(
                        f"{inv!r} conflicts with {other!r} under another key: "
                        f"the key claim is false")
            raise MonitorInvariantError(
                f"{inv!r} admitted against conflicting "
                f"{'executed ' if executed else ''}{other!r}")

    def _check(self, op: PrivateInvocation | None = None, waiters: Sequence[int] = (),
               shed: Sequence[int] = (), blockers: Sequence[int] = ()):
        """Check the bookkeeping an entry section can have changed.

        Given an op, that is the op's filing; the stage of the op and of
        each peer, its former `waiters` and its former `blockers`, through
        `_check_stage`; no edge from the op to itself; the edges between the
        op and each peer, read from both sides; and the section's report:
        `shed` lists, in order, exactly the waiters whose edge to the op is
        gone. A blocked op's own edges are read from its side. With no op,
        the whole object (`_check_whole`): what no scope sees, then each
        live op with all its edges. The module docstring says what each
        stage checks, and why the first, after every section, keeps the
        whole invariant.
        """
        if not self.strict:
            return
        if op is None:
            self._check_whole()
            return
        live, blocks, blocked_by = self.live, self.blocks, self.blocked_by
        inv_id = op.id
        if self.spec.conflict_key is not None:
            # filed under its key exactly while it is live
            if (inv_id in self.by_key.get(op.key, ())) is not (inv_id in live):
                raise MonitorInvariantError(f"{op!r} misfiled in the index")
        check_stage = self._check_stage
        stage = check_stage(inv_id)
        # the stage leaves edges into the op only to a blocked op, and none
        # from a dead one
        in_edges = blocked_by.get(inv_id) if stage is _BLOCKED else None
        out_edges = None if stage is None else blocks.get(inv_id)
        # no edge from the op to itself; one into it from itself is caught
        # with its other blockers below
        if out_edges and inv_id in out_edges:
            raise MonitorInvariantError(f"{self.name}: edge {inv_id}->{inv_id} broken")
        if not (waiters or blockers):
            if shed:
                raise MonitorInvariantError(f"{self.name}: shed {list(shed)} with no waiter")
        elif out_edges or in_edges:
            # per peer, its stage and the edges between it and the op: in
            # both maps or in neither, and forward; the stages make them
            # run from a live op to a blocked one
            out_edges, in_edges = out_edges or (), in_edges or ()
            for i in chain(waiters, blockers):
                check_stage(i)
                there = i in out_edges
                if there != (inv_id in blocked_by.get(i, ())) or there and inv_id >= i:
                    raise MonitorInvariantError(f"{self.name}: edge {inv_id}->{i} broken")
                there = inv_id in blocks.get(i, ())
                if there != (i in in_edges) or there and i >= inv_id:
                    raise MonitorInvariantError(f"{self.name}: edge {i}->{inv_id} broken")
            if list(shed) != [i for i in waiters if i not in out_edges]:
                raise MonitorInvariantError(
                    f"{self.name}: {inv_id} shed {list(shed)} of waiters {list(waiters)}, "
                    f"kept {sorted(out_edges)}")
        else:
            # the op holds no edge, so no peer may hold one to or from it,
            # and every waiter shed its edge. A measured fast path: folded
            # into the branch above, it gave the same digests but cost the
            # `hot_stack` bench workload 2-4% in simulate and in check
            for i in chain(waiters, blockers):
                check_stage(i)
                if inv_id in blocked_by.get(i, ()):
                    raise MonitorInvariantError(f"{self.name}: edge {inv_id}->{i} broken")
                if inv_id in blocks.get(i, ()):
                    raise MonitorInvariantError(f"{self.name}: edge {i}->{inv_id} broken")
            if list(shed) != list(waiters):
                raise MonitorInvariantError(
                    f"{self.name}: {inv_id} shed {list(shed)} of waiters {list(waiters)}, "
                    f"kept none")
        if in_edges:
            # the op's own blockers: the op is blocked, as checked above
            for b in in_edges:
                if b >= inv_id or inv_id not in blocks.get(b, ()) or b not in live:
                    raise MonitorInvariantError(f"{self.name}: edge {b}->{inv_id} broken")

    def _check_stage(self, i: int):
        """Check op i's stage, and return it (None for a dead op): a live
        op is blocked, in execution or executed, with the outs and
        executions its stage implies; blocked iff it waits on something; no
        edges from a dead op."""
        inv = self.live.get(i)
        if inv is None:
            if i in self.blocked_by:
                raise MonitorInvariantError(f"{self.name}: {i} waits but is not blocked")
            if i in self.blocks:
                raise MonitorInvariantError(f"{self.name}: edges from dead op {i}")
            return None
        stage = inv.lifecycle
        if stage is _BLOCKED:
            if inv.outs is not None or inv.executions:
                raise MonitorInvariantError(f"{inv!r} blocked with outs or executions")
            if not self.blocked_by.get(i):
                raise MonitorInvariantError(f"{self.name}: {i} blocked by nothing")
        elif i in self.blocked_by:
            raise MonitorInvariantError(f"{self.name}: {i} waits but is not blocked")
        elif stage is _EXECUTED:
            expect = 0 if inv.origin is _DEDUCED else 1
            if inv.outs is None or inv.executions != expect:
                raise MonitorInvariantError(f"{inv!r} outs or execution count")
        elif stage is _RUNNING:
            if inv.outs is not None:
                raise MonitorInvariantError(f"{inv!r} in execution with outs")
            # it was just admitted or woken: nothing may still wait-list it
            blocks = self.blocks
            if blocks:
                for waiters in blocks.values():
                    if i in waiters:
                        raise MonitorInvariantError(f"{self.name}: edge to non-blocked {i}")
        else:
            raise MonitorInvariantError(f"{inv!r} misfiled")
        if inv.id != i:
            raise MonitorInvariantError(f"{inv!r} misfiled")
        return stage

    def _check_whole(self):
        live, blocks, blocked_by = self.live, self.blocks, self.blocked_by
        stages = [self._check_stage(i) for i in live]
        for i in chain(blocks, blocked_by):
            if i not in live:
                self._check_stage(i)    # a dead op holding an edge: raises
        waiting, running = stages.count(_BLOCKED), stages.count(_RUNNING)
        if running != self.running:
            raise MonitorInvariantError(f"{self.name}: {self.running} counted running, "
                                        f"{running} in execution")
        # the stages leave every other live op executed
        if len(live) - waiting - running != self.executed:
            raise MonitorInvariantError(f"{self.name}: {self.executed} counted executed, "
                                        f"{len(live) - waiting - running} executed")
        # each filed op is live and filed under the key its type gives it (a
        # dict holds it at most once there), so as many filed as live means
        # each live op is filed once; a type without keys files nothing
        conflict_key = self.spec.conflict_key
        filed = 0
        for key, group in self.by_key.items():
            if not group:
                raise MonitorInvariantError(f"{self.name}: empty key {key!r} filed")
            for i, inv in group.items():
                if live.get(i) is not inv or conflict_key is None or \
                        inv.key != key or conflict_key(inv.op, inv.ins) != key:
                    raise MonitorInvariantError(f"{inv!r} misfiled in the index")
            filed += len(group)
        if conflict_key is not None and filed != len(live):
            raise MonitorInvariantError(f"{self.name}: {len(live)} live, {filed} filed")
        # every edge has a live end, so the scoped check of each live op
        # with all its edges as peers reads every edge from both sides
        for i, inv in live.items():
            self._check(inv, sorted(blocks.get(i, ())), (), sorted(blocked_by.get(i, ())))
