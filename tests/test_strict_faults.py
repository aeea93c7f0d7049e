"""Planted faults in the monitor's entry sections, and the strict check that
must catch them.

Each fault is a copy of one section with one bookkeeping step left out or
bent, monkeypatched over the real one. The batch is the 406
`_mixed_workloads()` runs plus five 50-txn single-stack instances. For each
fault the test counts the runs that raise, and with what, and it runs the
scoped `_check` next to `reference_check`, the scoped check as it was
written before it branched on the op's stage: at every section of every run
both must pass, or both must raise.

One fault only the whole-object check can see: a `finish` that leaves the
op in the `executed` count, which no scoped check reads. Its test runs the
whole check after every finish, also under `python -O`.
"""

import random
from collections import Counter

import pytest

from adtxn.core import Lifecycle, Origin
from adtxn.monitor import ManagedObject, MonitorInvariantError
from adtxn.simulate import run_simulated
from adtxn.tables import TableSoundnessError, commute_with_in_out
from test_manager import _stack_instance
from test_monitor import run_optimized
from test_oracles import _mixed_workloads


def reference_check(obj, op, waiters, shed, blockers):
    """The scoped strict check as one generic loop over the op and its
    peers, its former waiters and blockers: each one's stage, then the
    edges between it and the op from both maps, then a blocked op's own
    blockers, then the section's report: the waiters that lost their edge,
    in order."""
    live, blocks, blocked_by = obj.live, obj.blocks, obj.blocked_by
    inv_id = op.id
    out_edges, in_edges = blocks.get(inv_id, ()), blocked_by.get(inv_id, ())
    if obj.spec.conflict_key is not None:
        group = obj.unkeyed if op.key is None else obj.by_key.get(op.key, ())
        if (inv_id in group) is not (inv_id in live):
            raise MonitorInvariantError(f"{op!r} misfiled in the index")
    for i in (inv_id, *waiters, *blockers):
        inv = live.get(i)
        stage = None if inv is None else inv.lifecycle
        if stage is Lifecycle.BLOCKED:
            if inv.outs is not None or inv.executions:
                raise MonitorInvariantError(f"{inv!r} blocked with outs or executions")
            if not blocked_by.get(i):
                raise MonitorInvariantError(f"{obj.name}: {i} blocked by nothing")
        elif i in blocked_by:
            raise MonitorInvariantError(f"{obj.name}: {i} waits but is not blocked")
        elif stage is Lifecycle.IN_EXECUTION:
            if inv.outs is not None:
                raise MonitorInvariantError(f"{inv!r} in execution with outs")
            for listed in blocks.values():
                if i in listed:
                    raise MonitorInvariantError(f"{obj.name}: edge to non-blocked {i}")
        elif stage is Lifecycle.EXECUTED:
            expect = 0 if inv.origin is Origin.DEDUCED else 1
            if inv.outs is None or inv.executions != expect:
                raise MonitorInvariantError(f"{inv!r} outs or execution count")
        elif inv is not None:
            raise MonitorInvariantError(f"{inv!r} misfiled")
        elif i in blocks:
            raise MonitorInvariantError(f"{obj.name}: edges from dead op {i}")
        if inv is not None and inv.id != i:
            raise MonitorInvariantError(f"{inv!r} misfiled")
        there = i in out_edges
        if there != (inv_id in blocked_by.get(i, ())) or there and inv_id >= i:
            raise MonitorInvariantError(f"{obj.name}: edge {inv_id}->{i} broken")
        there = inv_id in blocks.get(i, ())
        if there != (i in in_edges) or there and i >= inv_id:
            raise MonitorInvariantError(f"{obj.name}: edge {i}->{inv_id} broken")
    for b in in_edges:
        if b >= inv_id or inv_id not in blocks.get(b, ()) or b not in live:
            raise MonitorInvariantError(f"{obj.name}: edge {b}->{inv_id} broken")
    if list(shed) != [i for i in waiters if i not in out_edges]:
        raise MonitorInvariantError(f"{obj.name}: shed {list(shed)} misreported")


# -- the planted faults: each a section with one step left out or bent --------

def shed_keeps_blocked_by(self, waiters, blocker_id):
    woken = []
    for wid in waiters:
        blockers = self.blocked_by[wid]
        blockers.remove(blocker_id)
        if blockers:
            continue
        # planted: the emptied blocker set stays in blocked_by
        waiter = self.live[wid]
        self._enter_execution(waiter)
        if self.strict:
            self._admission_safety(waiter)
        woken.append(waiter)
    return woken


def _complete(discard=True, cut_early=False, report_shed=True, report_kept=False):
    def complete(self, inv, outs):
        if inv.lifecycle is not Lifecycle.IN_EXECUTION:
            raise MonitorInvariantError(f"{inv!r} completed outside execution")
        inv.outs = outs
        inv.lifecycle = Lifecycle.EXECUTED
        self.running -= 1
        self.executed += 1
        waiting = self.blocks.get(inv.id)
        if waiting is None:
            self._check(inv)
            return (), ()
        waiters = sorted(waiting)
        shed = [wid for wid in waiters
                if commute_with_in_out(self.spec.tables, inv, self.live[wid])]
        if not shed:
            # planted, with report_kept: a waiter that keeps its edge is
            # reported shed
            reported = waiters[:1] if report_kept else []
            self._check(inv, waiters, reported)
            return (), reported
        if discard:
            waiting.difference_update(shed)
        # else planted: `blocks` keeps the shed edges
        if not waiting:
            del self.blocks[inv.id]
        if cut_early:
            # planted: the waiters forget their other blockers, which still
            # list them
            for wid in shed:
                self.blocked_by[wid].intersection_update((inv.id,))
        woken = self._shed_edges(shed, inv.id)
        reported = shed
        if not report_shed:
            reported = shed[1:]     # planted: a shed edge goes unreported
        elif report_kept:
            reported = waiters      # planted: the kept edges are reported shed
        self._check(inv, waiters, reported)
        return woken, reported
    return complete


def _finish(keep_live=False, count_down=True):
    def finish(self, inv):
        if inv.lifecycle is not Lifecycle.EXECUTED:
            raise MonitorInvariantError(f"{inv!r} finished before it executed")
        if not keep_live:
            del self.live[inv.id]
        # else planted: the op stays in `live`
        if self.spec.conflict_key is not None:
            self._unfile(inv)
        inv.lifecycle = Lifecycle.FINISHED
        if count_down:
            self.executed -= 1
        # else planted: `executed` still counts the finished op
        waiting = self.blocks.pop(inv.id, None)
        if not waiting:
            self._check(inv)
            return (), ()
        shed = sorted(waiting)
        woken = self._shed_edges(shed, inv.id)
        self._check(inv, shed, shed)
        return woken, shed
    return finish


def withdraw_keeps_inbound_edges(self, inv):
    if inv.lifecycle is not Lifecycle.BLOCKED:
        raise MonitorInvariantError(f"{inv!r} withdrawn but not blocked")
    del self.live[inv.id]
    if self.spec.conflict_key is not None:
        self._unfile(inv)
    shed = sorted(self.blocks.pop(inv.id, ()))
    woken = self._shed_edges(shed, inv.id)
    # planted: the blockers' `blocks` sets keep the withdrawn op
    blockers = self.blocked_by.pop(inv.id)
    inv.lifecycle = Lifecycle.FINISHED
    self._check(inv, shed, shed, blockers)
    return woken, shed


def screen_skips_executed(self, inv):
    deduced, conflicts = _screen(self, inv)
    if deduced is not None:
        return deduced, conflicts
    # planted: admit tests no conflict against an executed op
    return None, {c for c in conflicts
                  if self.live[c].lifecycle is not Lifecycle.EXECUTED}


_screen = ManagedObject._screen

# (method, variant, runs that raise, the error they raise) at 411 runs
FAULTS = {
    "shed_keeps_blocked_by": ("_shed_edges", shed_keeps_blocked_by, 339,
                              MonitorInvariantError),
    "complete_skips_discard": ("complete", _complete(discard=False), 14,
                               MonitorInvariantError),
    "withdraw_keeps_inbound_edges": ("withdraw", withdraw_keeps_inbound_edges, 261,
                                     MonitorInvariantError),
    "finish_keeps_live": ("finish", _finish(keep_live=True), 411, MonitorInvariantError),
    "complete_cuts_blockers_early": ("complete", _complete(cut_early=True), 9,
                                     MonitorInvariantError),
    "complete_hides_a_shed_edge": ("complete", _complete(report_shed=False), 14,
                                   MonitorInvariantError),
    "complete_reports_a_kept_edge": ("complete", _complete(report_kept=True), 59,
                                     MonitorInvariantError),
    # a conflict admit missed shows as executed ops that pin different answers
    "admit_skips_executed": ("_screen", screen_skips_executed, 2, TableSoundnessError),
}


@pytest.fixture(scope="module")
def batch():
    rng = random.Random(13)
    return _mixed_workloads() + [_stack_instance(rng) for _ in range(5)]


def _run_batch(monkeypatch, batch):
    """Run every workload with the scoped check compared against the
    reference at every section. Returns (Counter of the error types the
    runs raised, the first error, the sections where the two checks
    disagreed, the sections compared)."""
    check = ManagedObject._check
    disagreed, compared = [], [0]

    def both(obj, op=None, waiters=(), shed=(), blockers=()):
        if op is None or not obj.strict:
            return check(obj, op, waiters, shed, blockers)
        blockers, outcome = list(blockers), []
        for run in (reference_check, check):
            try:
                run(obj, op, waiters, shed, blockers)
                outcome.append(None)
            except MonitorInvariantError as exc:
                outcome.append(exc)
        compared[0] += 1
        ref, new = outcome
        if (ref is None) != (new is None):
            disagreed.append((op.id, ref, new))
        if new is not None:
            raise new

    monkeypatch.setattr(ManagedObject, "_check", both)
    raised, first = Counter(), None
    for workload in batch:
        try:
            run_simulated(workload)
        except Exception as exc:          # counted and reported, by type
            raised[type(exc)] += 1
            first = first or exc
    return raised, first, disagreed, compared[0]


def test_the_unmutated_batch_passes_both_checks(monkeypatch, batch):
    raised, first, disagreed, compared = _run_batch(monkeypatch, batch)
    assert len(batch) == 411
    assert raised == Counter(), first
    assert disagreed == []
    assert compared > 9_000


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_each_planted_fault_fails_the_same_runs(monkeypatch, capsys, batch, fault):
    method, variant, runs, error = FAULTS[fault]
    monkeypatch.setattr(ManagedObject, method, variant)
    raised, first, disagreed, _ = _run_batch(monkeypatch, batch)
    with capsys.disabled():
        print(f"\n{fault}: {sum(raised.values())} of {len(batch)} runs raise; "
              f"first: {type(first).__name__}: {first}")
    assert disagreed == []
    assert raised == Counter({error: runs})


def test_a_finish_that_keeps_counting_the_op_fails_the_whole_check(monkeypatch, capsys, batch):
    # no scoped check reads `executed`; the whole-object check compares it
    # with the stages in `live`, so run it after every finish
    finish = _finish(count_down=False)

    def checked(self, inv):
        report = finish(self, inv)
        self._check()
        return report

    monkeypatch.setattr(ManagedObject, "finish", checked)
    raised, first = Counter(), None
    for workload in batch:
        try:
            run_simulated(workload)
        except Exception as exc:          # counted and reported, by type
            raised[type(exc)] += 1
            first = first or exc
    with capsys.disabled():
        print(f"\nfinish_keeps_counting: {sum(raised.values())} of {len(batch)} runs "
              f"raise; first: {type(first).__name__}: {first}")
    assert raised == Counter({MonitorInvariantError: 411})
    assert "counted executed" in str(first)


def test_a_finish_that_keeps_counting_the_op_fails_under_optimization():
    out = run_optimized("""\
        from adtxn.monitor import ManagedObject
        from test_strict_faults import _finish
        ManagedObject.finish = _finish(count_down=False)
        obj, ids = make_object(), Ids()
        inv = ids.inv(1, "PUSH", item("a"))
        obj.admit(inv)
        obj.complete(inv, obj.execute(inv))
        obj._check()
        obj.finish(inv)
        try:
            obj._check()
        except MonitorInvariantError as exc:
            print("rejected:", exc)
        """)
    assert "rejected: s: 1 counted executed, 0 executed" in out
