"""Oracles judged from both sides: they must accept real runs and reject
doctored ones. Every rejection test here is a seam a regression could hide
in if the oracle went soft."""

import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from adtxn import history as hist
from adtxn import manager, monitor, oracles
from adtxn.adts import builtin_names, get_adt
from adtxn.core import Lifecycle
from adtxn.fuzz import (derive_seed, flip_random_abort, generate_workload,
                        run_pipeline)
from adtxn.history import History, Metrics, compute_metrics, render_trace
from adtxn.manager import TxnStatus
from adtxn.monitor import AdmitOutcome, ManagedObject
from adtxn.oracles import (
    HistoryReplayError,
    Observation,
    check_run,
    check_serializable,
    replay_serial,
    validate_run,
)
from adtxn.simulate import run_simulated
from adtxn.tables import commute_with_in, commute_with_in_out, try_deduce
from adtxn.values import UNIT, item, rational, report
from adtxn.workload import (ObjectDecl, RandomSchedule, TxnDecl, Workload,
                            make_step, parse_workload)
from helpers import count_kind, replay_history, txn_decl
from test_acceptance import (CARD_BLOCK_TRACE, CARD_BLOCK_WORKLOAD,
                             CROSSED_TRACE, CROSSED_WORKLOAD, DEDUCTION_TRACE,
                             DEDUCTION_WORKLOAD, INSERT_HINT_TRACE,
                             INSERT_HINT_WORKLOAD)
from test_manager import _stack_instance
from test_monitor import run_optimized
from test_values import _bench_workloads

OK = report("Ok")

CONTENTIOUS = """\
object s stack ()
txn T1
  op s PUSH a
end commit
txn T2
  op s POP
end commit
schedule steps T1 T2 T2 T1 T1
"""

DEADLOCK = """\
object A stack ()
object B stack ()
txn T1
  op A PUSH a
  op B PUSH x
end commit
txn T2
  op B PUSH b
  op A PUSH d
end commit
schedule steps T1 T2 T1 T2 T1 T1
"""

NULL_OP = """\
object r real 5
txn T1
  op r MULTIPLY 1
end commit
schedule steps T1 T1
"""


def doctored(history, mutate):
    """Copy a history, applying `mutate(events) -> events`."""
    events = mutate(list(history.events))
    return History([e._replace(index=i) for i, e in enumerate(events)])


# ---------------------------------------------------------- serial replay

def test_replay_serial_is_order_sensitive():
    w = parse_workload(CONTENTIOUS)
    states, obs = replay_serial(w, [txn_decl(w, "T1"), txn_decl(w, "T2")])
    assert states == {"s": ()}
    assert obs["T2"] == [Observation("s", "POP", (), (item("a"), OK))]
    states, obs = replay_serial(w, [txn_decl(w, "T2"), txn_decl(w, "T1")])
    assert states == {"s": ("a",)}
    assert obs["T2"] == [Observation("s", "POP", (), (UNIT, report("EmptyStack")))]


def test_replay_serial_records_each_step_as_the_history_does():
    # a NULL step by its public call and outs, any other by its private
    # call and private outs, hidden before-image included
    w = parse_workload("""\
object r real 5
txn T1
  op r MULTIPLY 0
  op r MULTIPLY 1
  op r ADD -2
end commit
schedule steps T1 T1 T1 T1
""")
    res = run_simulated(w)
    _, obs = replay_serial(w, [txn_decl(w, "T1")])
    assert obs["T1"] == [(e.obj, e.op, e.ins, e.outs) for e in res.history
                         if e.kind in (hist.NULLOP, hist.DEDUCE, hist.EXEC)]
    assert [o.op for o in obs["T1"]] == ["SETTO", "MULTIPLY", "SUB"]
    assert obs["T1"][0].outs != ()


def test_check_serializable_accepts_and_names_a_witness():
    res = run_simulated(parse_workload(CONTENTIOUS))
    verdict = check_serializable(res)
    assert verdict.ok and verdict.witness == ("T1", "T2")


def test_check_serializable_rejects_a_wrong_final_state():
    res = run_simulated(parse_workload(CONTENTIOUS))
    res.final_states["s"] = ("z",)
    assert not check_serializable(res).ok


def test_check_serializable_rejects_a_wrong_observation():
    # the answers are the history's: T2's EXEC now says its POP got b
    res = run_simulated(parse_workload(CONTENTIOUS))
    history = doctored(res.history, lambda ev: [
        e._replace(outs=(item("b"), OK))
        if e.kind == hist.EXEC and e.txn == "T2" else e for e in ev])
    verdict = check_serializable(dataclasses.replace(res, history=history))
    assert not verdict.ok
    assert verdict.detail.endswith("T2 step 0 saw s POP [] -> [b,Ok], the serial "
                                   "replay gives s POP [] -> [a,Ok]")


def commit_order(result):
    return tuple(e.txn for e in result.history if e.kind == hist.COMMIT)


def test_a_failed_commit_order_is_reported_when_another_order_passes():
    res = run_simulated(parse_workload(CONTENTIOUS))
    assert commit_order(res) == ("T1", "T2")

    def swap(ev):
        names = iter(reversed(commit_order(res)))
        return [e._replace(txn=next(names))
                if e.kind == hist.COMMIT else e for e in ev]

    res = dataclasses.replace(res, history=doctored(res.history, swap))
    # T1 then T2 still explains the run, but the commit order is the contract
    verdict = check_serializable(res)
    assert not verdict.ok and verdict.witness is None
    assert verdict.detail == ("commit order ['T2', 'T1'] is no witness: T2 step 0 "
                              "saw s POP [] -> [a,Ok], the serial replay gives "
                              "s POP [] -> [_,EmptyStack]")


def test_transparency_accepts_a_real_rollback():
    # abort transparency is the serializability check: only the committed
    # txns take part, so the aborted T2 must leave no trace
    res = run_simulated(parse_workload(DEADLOCK))
    assert res.statuses["T2"] is TxnStatus.ABORTED
    verdict = check_serializable(res)
    assert verdict.ok and verdict.witness == ("T1",)


def test_transparency_rejects_visible_residue():
    # claim T1 aborted even though its push committed and is visible: the
    # statuses must be the history's, which commits T1
    res = run_simulated(parse_workload(CONTENTIOUS))
    res.statuses["T1"] = TxnStatus.ABORTED
    stage, verdict = check_run(res)
    assert stage == "replay" and not verdict.ok
    assert verdict.detail == "the run says T1 is aborted, its replay committed"
    res.final_states["s"] = ("a",)
    assert check_run(res)[0] == "replay"
    # plant the aborted T2's undone push back on B: the committed T1 alone
    # does not explain it
    res = run_simulated(parse_workload(DEADLOCK))
    res.final_states["B"] = ("b",) + res.final_states["B"]
    verdict = check_serializable(res)
    assert not verdict.ok
    assert verdict.detail == ("commit order ['T1'] is no witness: the run's final "
                              "state of B is not the serial replay's")


# --------------------------------------------------------- history replay

def test_replay_returns_the_final_states():
    res = run_simulated(parse_workload(DEADLOCK))
    assert replay_history(res.workload, res.history) == res.final_states


def test_replay_rejects_a_missing_block_line():
    res = run_simulated(parse_workload(CONTENTIOUS))
    bad = doctored(res.history, lambda ev: [e for e in ev if e.kind != hist.BLOCK])
    with pytest.raises(HistoryReplayError, match="owed BLOCK txn=T2 "):
        replay_history(res.workload, bad)


def test_replay_rejects_forged_execution_outs():
    res = run_simulated(parse_workload(CONTENTIOUS))

    def forge(ev):
        out = []
        for e in ev:
            if e.kind == hist.EXEC and e.op == "POP":
                e = e._replace(outs=(item("b"), OK))
            out.append(e)
        return out

    with pytest.raises(HistoryReplayError, match=r"owed EXEC .* out=\[a,Ok\]"):
        replay_history(res.workload, doctored(res.history, forge))


def test_replay_rejects_a_phantom_wake():
    res = run_simulated(parse_workload(CONTENTIOUS))
    wake = next(e for e in res.history if e.kind == hist.WAKE)
    bad = doctored(res.history, lambda ev: ev + [wake])
    # nothing is owed, so the WAKE opens a quantum of T2, which has committed
    with pytest.raises(HistoryReplayError, match="WAKE .*: T2 is committed, not active$"):
        replay_history(res.workload, bad)


def test_replay_rejects_a_suppressed_wake():
    res = run_simulated(parse_workload(CONTENTIOUS))
    bad = doctored(res.history, lambda ev: [e for e in ev if e.kind != hist.WAKE])
    with pytest.raises(HistoryReplayError, match="EXEC .* owed WAKE txn=T2 "):
        replay_history(res.workload, bad)


def test_replay_rejects_exec_where_deduction_was_forced():
    # the deduction run, with its DEDUCE line rewritten as an EXEC
    res = run_simulated(parse_workload("""\
object s stack ()
txn T1
  op s EMPTY
end commit
txn T2
  op s POP
end commit
schedule steps T1 T2 T2 T1 T2
"""))

    def forge(ev):
        return [e._replace(kind=hist.EXEC)
                if e.kind == hist.DEDUCE else e for e in ev]

    with pytest.raises(HistoryReplayError, match="owed DEDUCE txn=T2 "):
        replay_history(res.workload, doctored(res.history, forge))


def test_replay_rejects_reordered_inverses():
    res = run_simulated(parse_workload("""\
object s stack a
txn T1
  op s PUSH b
  op s POP
end abort
schedule steps T1 T1 T1
"""))

    def swap(ev):
        idx = [i for i, e in enumerate(ev) if e.kind == hist.INVERSE]
        assert len(idx) == 2
        ev[idx[0]], ev[idx[1]] = ev[idx[1]], ev[idx[0]]
        return ev

    with pytest.raises(HistoryReplayError, match=r"owed INVERSE txn=T1 obj=s op=PUSH in=\[b\]"):
        replay_history(res.workload, doctored(res.history, swap))


@pytest.mark.parametrize("kind,message", [
    (hist.WITHDRAW, "INVERSE .* owed WITHDRAW txn=T2 "),
    (hist.INVERSE, "WAKE .* owed INVERSE txn=T2 "),
], ids=["WITHDRAW-inverse not due", "INVERSE-wake out of thin air"])
def test_replay_rejects_a_dropped_abort_step(kind, message):
    # the victim T2 withdraws its blocked push, then undoes its executed one
    res = run_simulated(parse_workload(DEADLOCK))
    assert count_kind(res.history, kind) == 1
    bad = doctored(res.history, lambda ev: [e for e in ev if e.kind != kind])
    with pytest.raises(HistoryReplayError, match=message):
        replay_history(res.workload, bad)


def test_replay_rejects_a_forged_victim():
    res = run_simulated(parse_workload(DEADLOCK))

    def forge(ev):
        out = []
        for e in ev:
            if e.kind == hist.VICTIM:
                e = e._replace(txn="T1")
            out.append(e)
        return out

    with pytest.raises(HistoryReplayError, match="VICTIM .* owed VICTIM txn=T2 "):
        replay_history(res.workload, doctored(res.history, forge))


def _insert_after(history, index, event):
    return doctored(history, lambda ev: ev[:index + 1] + [event] + ev[index + 1:])


def test_replay_rejects_a_victim_where_the_graph_is_acyclic():
    # T2 waits for T1, and T1 waits for nobody
    res = run_simulated(parse_workload(CONTENTIOUS))
    block = next(e for e in res.history if e.kind == hist.BLOCK)
    bad = _insert_after(res.history, block.index,
                        block._replace(kind=hist.VICTIM, obj=None, op=None, ins=()))
    # nothing is owed, so the VICTIM opens a quantum of T2, which is blocked
    with pytest.raises(HistoryReplayError, match="VICTIM .*: T2 is blocked$"):
        replay_history(res.workload, bad)


@pytest.mark.parametrize("after,message", [
    (hist.WITHDRAW, "owed INVERSE txn=T2 "),
    (hist.WAKE, "T2 is aborted, not active"),
], ids=[hist.WITHDRAW, hist.WAKE])
def test_replay_rejects_a_second_victim_once_the_cycle_is_resolved(after, message):
    # after the withdrawal the victim's inverse is still owed; after the
    # wake the resolution is over, nothing is owed, and the VICTIM opens a
    # quantum of the aborted T2
    res = run_simulated(parse_workload(DEADLOCK))
    victim = next(e for e in res.history if e.kind == hist.VICTIM)
    index = next(e.index for e in res.history if e.kind == after)
    with pytest.raises(HistoryReplayError, match=message):
        replay_history(res.workload, _insert_after(res.history, index, victim))


@pytest.mark.parametrize("make,kind,forged,owed", [
    (lambda: generate_workload(random.Random(derive_seed(20260816, 0))),
     hist.COMMIT, "BOGUS", "COMMIT txn=T1 obj=- op=- in=[] out=[]"),
    (lambda: parse_workload(NULL_OP), hist.NULLOP, "nullop",
     "NULLOP txn=T1 obj=r op=MULTIPLY in=[1] out=[]"),
], ids=["BOGUS", "nullop"])
def test_check_run_refuses_an_unknown_event_kind_at_replay(make, kind, forged, owed):
    # the first acceptance-corpus instance, and a run with a NULLOP line:
    # the forged line opens its txn's quantum, whose event it is not
    res = run_simulated(make())
    assert check_run(res)[0] is None
    res.history = doctored(res.history, lambda ev: [
        e._replace(kind=forged) if e.kind == kind else e for e in ev])
    stage, verdict = check_run(res)
    assert stage == "replay" and not verdict.ok
    assert f" {forged} txn=T1 " in verdict.detail
    assert verdict.detail.endswith(f"): owed {owed}"), verdict


def test_a_history_naming_an_unbegun_txn_fails_the_replay(mixed_results):
    # delete each BEGIN in turn: the txn's next event opens its first
    # quantum, which owes the BEGIN, and check_run reports it, raising nothing
    deleted = 0
    for res in mixed_results:
        for begin in [e for e in res.history if e.kind == hist.BEGIN]:
            at = begin.index
            history = doctored(res.history, lambda ev: ev[:at] + ev[at + 1:])
            stage, verdict = check_run(dataclasses.replace(res, history=history))
            assert stage == "replay" and verdict.detail.startswith(f"event {at} ("), verdict
            assert verdict.detail.endswith(f"owed BEGIN txn={begin.txn} obj=- op=- "
                                           "in=[] out=[]"), verdict
            deleted += 1
    assert deleted == 1_502


BLOCKED_THEN_NULL = """\
object s stack ()
object r real 5
txn T1
  op s PUSH a
end commit
txn T2
  op s POP
  op r MULTIPLY 1
end commit
schedule steps T1 T2 T2 T1 T1 T2 T2 T2
"""


def _move_nullop(kind, txn):
    """Move the history's one NULLOP to just after `txn`'s event of `kind`."""
    def mutate(ev):
        null = next(e for e in ev if e.kind == hist.NULLOP)
        ev = [e for e in ev if e is not null]
        i = next(i for i, e in enumerate(ev) if e.kind == kind and e.txn == txn)
        return ev[:i + 1] + [null] + ev[i + 1:]
    return mutate


@pytest.mark.parametrize("mutate,message", [
    (lambda ev: [e._replace(txn="T99") if e.kind == hist.NULLOP else e
                 for e in ev], "NULLOP txn=T99 obj=r op=MULTIPLY in=[1] out=[]): "
                               "T99 is not a declared txn"),
    (_move_nullop(hist.BLOCK, "T2"), "NULLOP txn=T2 obj=r op=MULTIPLY in=[1] out=[]): "
                                     "T2 is blocked"),
    (_move_nullop(hist.WAKE, "T2"), "NULLOP txn=T2 obj=r op=MULTIPLY in=[1] out=[]): "
                                    "owed EXEC txn=T2 obj=s op=POP in=[] out=[a,Ok], "
                                    "invocation 2"),
    (_move_nullop(hist.COMMIT, "T2"), "COMMIT txn=T2 obj=- op=- in=[] out=[]): "
                                      "owed NULLOP txn=T2 obj=r op=MULTIPLY in=[1] out=[]"),
], ids=["unknown txn", "blocked txn", "woken txn", "after its COMMIT"])
def test_a_nullop_must_name_a_txn_free_to_step(mutate, message):
    # T2's NULLOP follows its wake. The txn an event names takes the next
    # quantum: an undeclared or blocked one takes none, a woken one runs its
    # woken op, and one whose NULL step is still to come cannot commit
    res = run_simulated(parse_workload(BLOCKED_THEN_NULL))
    assert check_run(res)[0] is None
    history = doctored(res.history, mutate)
    stage, verdict = check_run(dataclasses.replace(res, history=history))
    assert stage == "replay" and message in verdict.detail, verdict


def _first_woken_exec(events, i):
    # an EXEC that does not answer the INVOKE right before it ran a woken op
    return events[i].kind == hist.EXEC and events[i - 1].kind != hist.INVOKE


# {name: (the test for the event that is relabelled, the runs where a txn
# other than the event's had begun before it)}; each names an invocation
RELABELS = {
    "DEDUCE": (lambda ev, i: ev[i].kind == hist.DEDUCE, 94),
    "EXEC": (lambda ev, i: ev[i].kind == hist.EXEC, 10),
    "woken EXEC": (_first_woken_exec, 334),
    "WAKE": (lambda ev, i: ev[i].kind == hist.WAKE, 334),
    "BLOCK": (lambda ev, i: ev[i].kind == hist.BLOCK, 334),
}


@pytest.mark.parametrize("name", sorted(RELABELS))
def test_an_event_naming_another_txn_than_its_invocations_fails_the_replay(
        mixed_results, name):
    # relabel the run's first such event with the txn begun first before it,
    # other than its own: the invocation it names belongs to another txn
    matches, runs = RELABELS[name]
    relabelled = 0
    for res in mixed_results:
        events, begun = res.history.events, []
        for i, event in enumerate(events):
            if event.kind == hist.BEGIN:
                begun.append(event.txn)
            elif matches(events, i):
                break
        else:
            continue
        other = next((t for t in begun if t != event.txn), None)
        if other is None:
            continue
        history = doctored(res.history, lambda ev: [
            e._replace(txn=other) if e.index == i else e for e in ev])
        stage, verdict = check_run(dataclasses.replace(res, history=history))
        assert stage == "replay", (name, verdict)
        assert verdict.detail.startswith(f"event {i} ("), verdict
        relabelled += 1
    assert relabelled == runs


# the kinds a quantum opens with, and the ABORT a VICTIM owes
QUANTUM_KINDS = (hist.BEGIN, hist.NULLOP, hist.INVOKE, hist.EXEC, hist.COMMIT, hist.ABORT)


def test_every_quantum_event_relabelled_to_another_txn_fails_the_replay(mixed_results):
    # the history names which txn moves next, and the txn's declared steps
    # say what it does; so each such event of the 400 small runs, relabelled
    # to each other declared txn, must fail at replay, and none may raise
    tally = Counter()
    for res in mixed_results[:400]:
        names = [decl.name for decl in res.workload.txns]
        events = res.history.events
        for e in events:
            if e.kind not in QUANTUM_KINDS:
                continue
            for other in names:
                if other != e.txn:
                    forged = History(events[:e.index] + [e._replace(txn=other)]
                                     + events[e.index + 1:])
                    stage, _ = check_run(dataclasses.replace(res, history=forged))
                    tally[e.kind, stage] += 1
    assert tally == {
        (hist.BEGIN, "replay"): 2_676, (hist.NULLOP, "replay"): 454,
        (hist.INVOKE, "replay"): 6_406, (hist.EXEC, "replay"): 5_190,
        (hist.COMMIT, "replay"): 1_526, (hist.ABORT, "replay"): 1_150,
    }


# the events a deadlock resolution emits: each VICTIM, its ABORT, the
# WITHDRAW and INVERSE of the erase, and the WAKEs they cause
RESOLUTION = {hist.VICTIM, hist.ABORT, hist.WITHDRAW, hist.INVERSE, hist.WAKE}


def _self_admitted_exec(events, i):
    """Is events[i] the EXEC of an op its own BLOCK's resolution admitted:
    the txn's BLOCK, then one resolution, with no asked-for ABORT, then it?"""
    if events[i].kind != hist.EXEC:
        return False
    j = i - 1
    while events[j].kind in RESOLUTION:
        if events[j].kind == hist.ABORT and events[j - 1].kind != hist.VICTIM:
            return False
        j -= 1
    return (j < i - 1 and events[j].kind == hist.BLOCK and events[j].txn == events[i].txn
            and events[j + 1].kind == hist.VICTIM)


def _chosen(events, i):
    """Is events[i] an event its txn or the scheduler chose?"""
    kind = events[i].kind
    if kind == hist.ABORT:
        return events[i - 1].kind != hist.VICTIM
    if kind == hist.EXEC:
        return _first_woken_exec(events, i) and not _self_admitted_exec(events, i)
    return kind in (hist.BEGIN, hist.NULLOP, hist.INVOKE, hist.COMMIT)


def test_an_exec_its_own_resolution_admitted_is_owed_at_once(mixed_results):
    # a call that closes a deadlock and is admitted by its resolution runs
    # in the same step: its EXEC is owed right after the resolution. Swap
    # that EXEC, with the wakes it caused, and the next chosen event of
    # another txn, with the events it caused: the replay must refuse the
    # history at that event, naming the EXEC it owes
    swapped = 0
    for res in mixed_results:
        events = res.history.events
        for i in range(len(events)):
            if not _self_admitted_exec(events, i):
                continue
            nxt = next((j for j in range(i + 1, len(events)) if _chosen(events, j)), None)
            if nxt is None or events[nxt].txn == events[i].txn:
                continue
            end = next((j for j in range(nxt + 1, len(events)) if _chosen(events, j)),
                       len(events))
            history = doctored(res.history, lambda ev: (
                ev[:i] + ev[nxt:end] + ev[i:nxt] + ev[end:]))
            stage, verdict = check_run(dataclasses.replace(res, history=history))
            assert stage == "replay", verdict
            assert verdict.detail.startswith(f"event {i} ("), verdict
            assert f"owed EXEC txn={events[i].txn} " in verdict.detail, verdict
            swapped += 1
    assert swapped == 57


@pytest.mark.parametrize("kind,text,owed", [
    (hist.INVOKE, CONTENTIOUS, "INVOKE txn=T1 obj=s op=PUSH in=[a] out=[], invocation 1"),
    (hist.NULLOP, NULL_OP, "NULLOP txn=T1 obj=r op=MULTIPLY in=[1] out=[]"),
], ids=["INVOKE", "NULLOP"])
def test_a_history_naming_an_unknown_object_fails_the_replay(kind, text, owed):
    # the replay issues the declared step, on its declared object
    res = run_simulated(parse_workload(text))
    first = next(e.index for e in res.history if e.kind == kind)
    res.history = doctored(res.history, lambda ev: [
        e._replace(obj="nowhere") if e.index == first else e for e in ev])
    stage, verdict = check_run(res)
    assert stage == "replay" and f"{kind} txn=T1 obj=nowhere " in verdict.detail
    assert verdict.detail.endswith(f"): owed {owed}"), verdict


@pytest.mark.parametrize("forge", [
    lambda e: e._replace(ins=(rational(2),)),
    lambda e: e._replace(outs=(rational(1),)),
], ids=["not-null", "wrong-outs"])
def test_a_forged_nullop_fails_the_replay_naming_the_owed_event(forge):
    # the replay's engine issues the declared step, MULTIPLY 1, through
    # `issue` as the run did; it answers nothing, so a NULLOP with other
    # ins or with outs differs from the one it owes
    owed = "owed NULLOP txn=T1 obj=r op=MULTIPLY in=[1] out=[]"
    res = run_simulated(parse_workload(NULL_OP))
    history = doctored(res.history, lambda ev: [
        forge(e) if e.kind == hist.NULLOP else e for e in ev])
    stage, verdict = check_run(dataclasses.replace(res, history=history))
    assert stage == "replay"
    assert verdict.detail.startswith("event 1 (1 NULLOP txn=T1 obj=r op=MULTIPLY ")
    assert verdict.detail.endswith(f": {owed}"), verdict


def test_the_statuses_and_the_commits_are_the_historys():
    # T2 renamed T9 in every event: T9 is not declared, so it takes no
    # quantum; and a run's status for a txn its history never began fails
    res = run_simulated(parse_workload(CONTENTIOUS))
    renamed = dataclasses.replace(res, history=doctored(res.history, lambda ev: [
        e._replace(txn="T9") if e.txn == "T2" else e for e in ev]))
    stage, verdict = check_run(renamed)
    assert (stage, verdict.detail) == (
        "replay", "event 3 (3 BEGIN txn=T9 obj=- op=- in=[] out=[]): "
                  "T9 is not a declared txn")
    extra = dataclasses.replace(res, statuses={**res.statuses, "T9": TxnStatus.COMMITTED})
    stage, verdict = check_run(extra)
    assert (stage, verdict.detail) == (
        "replay", "the run says T9 is committed, its replay absent")
    # the committed txns are those the COMMIT events name, each declared
    # and named once
    assert check_serializable(renamed).detail == (
        "COMMIT events ['T1', 'T9'] do not each name a declared txn once")
    twice = dataclasses.replace(res, history=doctored(res.history, lambda ev: [
        e._replace(txn="T1") if e.kind == hist.COMMIT else e for e in ev]))
    assert check_serializable(twice).detail == (
        "COMMIT events ['T1', 'T1'] do not each name a declared txn once")


def test_replay_rejects_a_history_that_never_begins_a_declared_txn():
    # with every T2 event deleted, the rest is T1's run alone, on an object
    # T2 never touches, so every event is the one owed; only the account at
    # the end of the history, which asks each declared txn to have ended,
    # sees T2 missing, and it needs no run to compare with
    res = run_simulated(parse_workload("""\
object a stack ()
object b stack ()
txn T1
  op a PUSH x
end commit
txn T2
  op b PUSH y
end commit
schedule steps T1 T1 T2 T2
"""))
    bad = doctored(res.history, lambda ev: [e for e in ev if e.txn != "T2"])
    with pytest.raises(HistoryReplayError,
                       match="^end of history: T2 did not commit or abort$"):
        replay_history(res.workload, bad)
    assert check_run(dataclasses.replace(res, history=bad))[0] == "replay"


def test_replay_rejects_a_reused_invocation_id():
    # the monitors key their live ops by invocation id, so an id names one
    # invocation for the whole history; the replay's engine numbers them
    # 1, 2, 3, and each INVOKE owes its id as one of its fields
    res = run_simulated(parse_workload(CONTENTIOUS))

    def forge(ev):
        first, second = [i for i, e in enumerate(ev) if e.kind == hist.INVOKE]
        ev[second] = ev[second]._replace(inv_id=ev[first].inv_id)
        return ev

    with pytest.raises(HistoryReplayError, match=r"owed INVOKE txn=T2 .*, invocation 2$"):
        replay_history(res.workload, doctored(res.history, forge))


def test_replay_rejects_an_invocation_id_below_the_last():
    # renumber T1's push, everywhere it appears, above T2's pop: the trace is
    # consistent but for arrival order, which the monitors' forward edges
    # need; the first id must already be 1
    res = run_simulated(parse_workload(CONTENTIOUS))
    first = next(e for e in res.history if e.kind == hist.INVOKE).inv_id

    def forge(ev):
        return [e._replace(inv_id=99) if e.inv_id == first else e
                for e in ev]

    with pytest.raises(HistoryReplayError, match=r"owed INVOKE txn=T1 .*, invocation 1$"):
        replay_history(res.workload, doctored(res.history, forge))


def test_an_event_naming_another_invocation_fails_at_that_event(mixed_results):
    # the replay owes every event whole, its invocation id included:
    # renumber each event but an INVOKE that names an invocation, in the
    # 400 small runs
    tally = Counter()
    for res in mixed_results[:400]:
        events = res.history.events
        for e in events:
            if e.inv_id is None or e.kind == hist.INVOKE:
                continue
            forged = History(events[:e.index] + [e._replace(inv_id=e.inv_id + 1)]
                             + events[e.index + 1:])
            stage, verdict = check_run(dataclasses.replace(res, history=forged))
            assert stage == "replay", verdict
            assert verdict.detail.startswith(f"event {e.index} ("), verdict
            tally[e.kind] += 1
    assert tally == {hist.DEDUCE: 164, hist.BLOCK: 918, hist.EXEC: 2_405,
                     hist.WAKE: 551, hist.WITHDRAW: 367, hist.INVERSE: 294}


def test_replay_rejects_a_truncated_history():
    res = run_simulated(parse_workload(CONTENTIOUS))
    bad = doctored(res.history, lambda ev: ev[:-1])   # drop T2's COMMIT
    with pytest.raises(HistoryReplayError, match="end of history"):
        replay_history(res.workload, bad)


def test_replay_rejects_a_truncated_history_under_optimization():
    # python -O strips asserts; the replay's own checks must not go with them
    script = textwrap.dedent("""\
        import sys
        sys.path.insert(0, "tests")
        from test_oracles import CONTENTIOUS, doctored
        from adtxn.oracles import HistoryReplayError
        from helpers import replay_history
        from adtxn.simulate import run_simulated
        from adtxn.workload import parse_workload
        assert False, "asserts are live: not running under -O"
        res = run_simulated(parse_workload(CONTENTIOUS))
        try:
            replay_history(res.workload, doctored(res.history, lambda ev: ev[:-1]))
        except HistoryReplayError as exc:
            print("rejected:", exc)
        """)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "rejected: end of history" in proc.stdout


# ------------------------------- replay: each monitor checked once per change

def _sets_instance(rng, txns=50, sets=3):
    spec = get_adt("set")
    decls, total = [], 0
    for t in range(txns):
        steps = []
        for _ in range(rng.randint(2, 4)):
            op = rng.choice(("INSERT", "DELETE", "IN", "CARD"))
            ins = () if op == "CARD" else (item(rng.choice("abcd")),)
            steps.append(make_step(spec, f"s{rng.randint(1, sets)}", op, ins))
        total += len(steps)
        decls.append(TxnDecl(f"T{t + 1}", tuple(steps), "commit"))
    objects = tuple(ObjectDecl(f"s{i + 1}", "set", "{}") for i in range(sets))
    return Workload(objects, tuple(decls),
                    RandomSchedule(rng.randrange(2 ** 31), 20 * total + 20))


def _bookkeeping(obj):
    live = {i: (inv.lifecycle, inv.outs, inv.executions)
            for i, inv in obj.live.items()}
    return (live, obj.running, {b: set(w) for b, w in obj.blocks.items()},
            {w: set(b) for w, b in obj.blocked_by.items()})


def _mixed_workloads():
    """400 acceptance-corpus instances (200 and their abort twins), then
    three 50-txn single-stack and three 50-txn three-set instances."""
    workloads = []
    for i in range(200):
        rng = random.Random(derive_seed(20260816, i))
        workload = generate_workload(rng)
        workloads += [workload, flip_random_abort(workload, rng)]
    rng = random.Random(11)
    workloads += [_stack_instance(rng) for _ in range(3)]
    workloads += [_sets_instance(rng) for _ in range(3)]
    return workloads


@pytest.fixture(scope="module")
def mixed_results():
    return [run_simulated(w) for w in _mixed_workloads()]


# sha256 over each run's trace bytes, then its rendered metrics, in
# `_mixed_workloads()` order; any changed admission, wake or victim moves it
MIXED_DIGEST = "9bdaed6657d2343765c1919bf2d1595436b5a40c0a0cc597b874f019ea404e10"


def _mixed_digest(results):
    digest = hashlib.sha256()
    for res in results:
        digest.update(render_trace(res.history).encode())
        digest.update(res.metrics.render().encode())
    return digest.hexdigest()


def test_mixed_workloads_keep_their_golden_digest(mixed_results):
    assert _mixed_digest(mixed_results) == MIXED_DIGEST


def test_the_mixed_digest_holds_under_other_hash_seeds():
    # string hashing differs between processes, so set and dict orders can
    # too; the traces and metrics must not move with them
    script = textwrap.dedent("""\
        import sys
        sys.path.insert(0, "tests")
        from test_oracles import _mixed_digest, _mixed_workloads
        from adtxn.simulate import run_simulated
        print(_mixed_digest([run_simulated(w) for w in _mixed_workloads()]))
        """)
    root = Path(__file__).resolve().parent.parent
    for hashseed in ("0", "12345"):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{MIXED_DIGEST}\n", f"PYTHONHASHSEED={hashseed}"


def test_golden_traces_hold_with_the_translation_memo_cold_and_warm():
    goldens = [(DEDUCTION_WORKLOAD, DEDUCTION_TRACE),
               (INSERT_HINT_WORKLOAD, INSERT_HINT_TRACE),
               (CARD_BLOCK_WORKLOAD, CARD_BLOCK_TRACE),
               (CROSSED_WORKLOAD, CROSSED_TRACE)]
    specs = [get_adt(name) for name in builtin_names()]

    def clear():
        for spec in specs:
            spec.translated.clear()

    for warm in (False, True):
        if not warm:
            clear()
        results = [run_simulated(w) for w in _mixed_workloads()]
        assert _mixed_digest(results) == MIXED_DIGEST, f"warm={warm}"
        for text, trace in goldens:
            if not warm:
                clear()
            assert run_simulated(parse_workload(text)).trace == trace, f"warm={warm}"
    assert all(spec.translated for spec in specs)


def test_mixed_workloads_are_serializable_in_commit_order(mixed_results):
    committed = []
    for res in mixed_results:
        verdict = check_serializable(res)
        assert verdict.ok and verdict.witness == commit_order(res), verdict.detail
        if len(res.workload.txns) == 50:
            committed.append(len(verdict.witness))
    # of the six 50-txn instances, the three set ones commit more txns than
    # a search over every order could afford
    assert len(committed) == 6 and sum(n > 8 for n in committed) == 3


def test_a_duplicated_nullop_fails_the_replay(mixed_results):
    # the forged run counts what its history holds, but the replay issues
    # each txn's declared steps once and in order, in committed and aborted
    # txns alike: the copy opens a quantum that owes the txn's next step.
    # Where that step is the same NULL call again, the copy matches it and
    # the history fails one step later
    at_the_copy = later = 0
    for res in mixed_results:
        for null in [e for e in res.history if e.kind == hist.NULLOP]:
            at = null.index
            history = doctored(res.history, lambda ev: ev[:at + 1] + ev[at:])
            metrics = compute_metrics(history, res.metrics.max_in_execution)
            stage, verdict = check_run(
                dataclasses.replace(res, history=history, metrics=metrics))
            assert stage == "replay", verdict
            where = int(re.match(r"event (\d+) ", verdict.detail)[1])
            assert where > at, verdict
            if where == at + 1:
                at_the_copy += 1
            else:
                later += 1
    assert (at_the_copy, later) == (194, 4)


def test_a_tampered_final_state_fails_naming_its_object(mixed_results):
    res = next(r for r in mixed_results if len(commit_order(r)) > 8)
    name = next(iter(res.final_states))
    res = dataclasses.replace(res, final_states={**res.final_states, name: "tampered"})
    verdict = check_serializable(res)
    assert not verdict.ok
    assert verdict.detail.endswith(f"is no witness: the run's final state of {name} "
                                   f"is not the serial replay's")


def test_replay_leaves_every_monitor_as_it_was_last_checked(monkeypatch, mixed_results):
    # The replay runs no invariant sweep of its own: it relies on each strict
    # entry section ending with _check and on nothing else changing a
    # monitor's bookkeeping. Require that after every event.
    empty = _bookkeeping(ManagedObject("x", 0, get_adt("set"), frozenset()))
    checked = {}
    events = 0
    check, step = ManagedObject._check, oracles._Replayer._step

    def recorded(obj, *scope):
        check(obj, *scope)
        checked[obj] = _bookkeeping(obj)

    def compared(replayer, event):
        nonlocal events
        step(replayer, event)
        events += 1
        for obj in replayer.manager.objects.values():
            assert obj.strict
            assert _bookkeeping(obj) == checked.get(obj, empty), \
                f"event {event.index}: {obj.name} changed since its last check"

    monkeypatch.setattr(ManagedObject, "_check", recorded)
    monkeypatch.setattr(oracles._Replayer, "_step", compared)
    for res in mixed_results:
        assert replay_history(res.workload, res.history) == res.final_states
    assert events > 10_000 and len(checked) > 700


def test_scoped_checks_see_what_the_whole_checks_see(monkeypatch):
    # Each strict entry section checks only the ops and edges it touched, and
    # a direct admission is certified by admit's own conflict queries. Redo
    # both the long way after every section: re-test each direct admission
    # against the pools, and check the whole monitor.
    sections = 0

    def whole(section):
        def checked(obj, inv, *args):
            nonlocal sections
            result = section(obj, inv, *args)
            if result is AdmitOutcome.ADMITTED:
                obj._admission_safety(inv)
            obj._check()
            sections += 1
            return result
        return checked

    for name in ("admit", "complete", "finish", "withdraw"):
        monkeypatch.setattr(ManagedObject, name, whole(getattr(ManagedObject, name)))
    for workload in _mixed_workloads():
        run_simulated(workload)
    assert sections > 9_000


def test_the_release_hook_runs_once_per_section_that_shed(monkeypatch):
    # the manager's steps call `complete`, `finish` and `withdraw` directly
    # and hand a report to `_release` only when it names a shed edge: right
    # after that section, once, with the section's own (woken, shed), in
    # the run's manager and in the history replay's alike
    sections, hooks, pending = Counter(), Counter(), []

    def reported(section):
        def run(obj, inv, *args):
            assert not pending, "a shed report never reached the hook"
            report = section(obj, inv, *args)
            sections[bool(report[1])] += 1
            if report[1]:
                pending.append((obj, inv, *report))
            return report
        return run

    def handed(hook):
        def run(mgr, obj, inv, woken, shed):
            assert len(pending) == 1, "a hook call without a shed report"
            assert all(a is b for a, b in zip(pending.pop(), (obj, inv, woken, shed)))
            # the run's manager emits into a History, the replay's owes
            hooks["engine" if isinstance(mgr.history, History) else "replay"] += 1
            return hook(mgr, obj, inv, woken, shed)
        return run

    for name in ("complete", "finish", "withdraw"):
        monkeypatch.setattr(ManagedObject, name, reported(getattr(ManagedObject, name)))
    monkeypatch.setattr(manager.TransactionManager, "_release",
                        handed(manager.TransactionManager._release))
    for workload in _mixed_workloads():
        result = run_simulated(workload)
        assert not pending
        assert replay_history(workload, result.history) == result.final_states
        assert not pending
    # the replay runs every section the engine ran, so each side hooks half
    # of the sections that shed; most sections shed nothing and hook nothing
    assert sections == Counter({True: 2 * 1_091, False: 2 * 5_104})
    assert hooks == Counter({"engine": 1_091, "replay": 1_091})


def _full_scan_admission(obj, inv):
    """The reference keyed admission must match: deduction over every live
    op, then a conflict query against every live op of another txn.
    Returns (outcome, conflicts, deduced outs)."""
    live = obj.live.values()
    executed = [o for o in live if o.lifecycle is Lifecycle.EXECUTED]
    pending = [o for o in live if o.lifecycle is not Lifecycle.EXECUTED]
    tables = obj.spec.tables
    deduced = try_deduce(tables, inv, executed, pending)
    if deduced is not None:
        return AdmitOutcome.DEDUCED, set(), deduced
    conflicts = {o.id for o in pending
                 if o.txn != inv.txn and not commute_with_in(tables, o, inv)}
    conflicts |= {o.id for o in executed
                  if o.txn != inv.txn and not commute_with_in_out(tables, o, inv)}
    return (AdmitOutcome.BLOCKED if conflicts else AdmitOutcome.ADMITTED,
            conflicts, None)


def test_keyed_admission_matches_a_full_scan(monkeypatch, capsys):
    # Keyed admission queries no op under another key and no ALWAYS pair,
    # and asks try_deduce about an op with a key only when its key's and
    # the unkeyed ops hold every executed op. Each must be exact: the same
    # outcome, conflict set and deduced outs as a query of every live op.
    # The batch: the mixed workloads, and the bench instances at both seeds
    # (the corpus at 20260816 is the two acceptance corpora).
    tally = Counter()
    admit = ManagedObject.admit

    def checked(obj, inv):
        expect = _full_scan_admission(obj, inv)
        conflict_key = obj.spec.conflict_key
        key = None if conflict_key is None else conflict_key(inv.op, inv.ins)
        outcome = admit(obj, inv)
        got = (outcome, obj.blocked_by.get(inv.id, set()),
               inv.outs if outcome is AdmitOutcome.DEDUCED else None)
        assert got == expect, inv
        if key is None:
            tally["unkeyed"] += 1
        elif outcome is AdmitOutcome.DEDUCED:
            tally["keyed, deduced"] += 1
        elif any(o.key not in (None, key) for o in obj.live.values()
                 if o.lifecycle is Lifecycle.EXECUTED and o is not inv):
            tally["keyed, another key executed"] += 1
        else:
            tally["keyed, not deduced"] += 1
        return outcome

    monkeypatch.setattr(ManagedObject, "admit", checked)
    bench = _bench_workloads(monkeypatch)
    batch = _mixed_workloads()
    for seed in (20260816, 4242):
        for kind in bench.WORKLOADS.values():
            batch += kind.generate(seed)
    for workload in batch:
        run_simulated(workload)
    with capsys.disabled():
        print(f"\nkeyed vs full-scan admission: {len(batch)} runs, {dict(tally)}")
    assert len(batch) == 406 + 2 * (2_000 + 64 + 16)
    assert tally["keyed, deduced"] > 200 and tally["keyed, not deduced"] > 1_000
    assert tally["keyed, another key executed"] > 10_000 and tally["unkeyed"] > 10_000


# -------------------------------------------------------------- validate_run

def test_validate_run_passes_and_catches_state_drift():
    res = run_simulated(parse_workload(DEADLOCK))
    assert validate_run(res).ok
    res.final_states["A"] = ("zzz",)
    assert not validate_run(res).ok


def test_validate_run_refuses_broken_metrics_under_optimization():
    # python -O strips asserts; the accounting identities must not go with
    # them. They run where the counts are taken from a history, and a run's
    # metrics must be its history's counts.
    out = run_optimized("""\
        import dataclasses
        from test_oracles import DEADLOCK
        from adtxn.history import History, MetricIdentityError, compute_metrics
        from adtxn.oracles import check_run, validate_run
        from adtxn.simulate import run_simulated
        from adtxn.workload import parse_workload
        res = run_simulated(parse_workload(DEADLOCK))
        wake = next(e for e in res.history if e.kind == "WAKE")
        try:
            compute_metrics(History([wake]))
        except MetricIdentityError as exc:
            print("rejected:", exc)
        res.metrics = dataclasses.replace(res.metrics, wakeups=res.metrics.blocks + 1)
        print("verdict:", validate_run(res).detail)
        print("stage:", check_run(res)[0])
        """)
    assert "rejected: blocks are not wakeups plus withdrawals" in out
    assert "verdict: the run says the count of wakeups is 3, its replay 1" in out
    assert "stage: replay" in out


def test_a_forged_high_water_mark_fails_the_replay_naming_its_object():
    # each object's max_in_execution is compared with what the replay's own
    # monitors counted, not copied from the run
    res = run_simulated(parse_workload(DEADLOCK))
    assert res.metrics.max_in_execution == {"A": 1, "B": 1}
    for forged, detail in (({"A": 6, "B": 1}, "A is 6, its replay 1"),
                           ({"A": 1, "B": 0}, "B is 0, its replay 1"),
                           ({"A": 1}, "B is absent, its replay 1"),
                           ({"A": 1, "B": 1, "C": 2}, "C is 2, its replay absent")):
        metrics = dataclasses.replace(res.metrics, max_in_execution=forged)
        stage, verdict = check_run(dataclasses.replace(res, metrics=metrics))
        assert (stage, verdict.detail) == (
            "replay", f"the run says max_in_execution on {detail}")


def test_metrics_are_the_history_counted_kind_by_kind(mixed_results):
    # compute_metrics fills the frozen Metrics without its __init__; it must
    # build what the constructor builds from a count of each kind
    for res in mixed_results:
        kinds = [e.kind for e in res.history]
        want = Metrics(**{name: kinds.count(kind) for name, kind in hist.METRIC_COUNTS},
                       max_in_execution=dict(res.metrics.max_in_execution))
        got = compute_metrics(res.history, res.metrics.max_in_execution)
        assert got == want == res.metrics
        assert repr(got) == repr(want) and got.render() == want.render()
        assert got.max_in_execution is not res.metrics.max_in_execution
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.wakeups = 0


@pytest.mark.parametrize("kind,error,message,runs", [
    (hist.WAKE, hist.MetricIdentityError, "^blocks are not wakeups plus withdrawals: ", 334),
    (hist.INVERSE, manager.ManagerInvariantError,
     r"^0 INVERSE events for [1-9]\d* undo entries of aborted txns$", 170),
], ids=["WAKE", "INVERSE"])
def test_a_run_whose_sink_drops_a_kind_fails_its_own_account(
        monkeypatch, mixed_results, kind, error, message, runs):
    # each BLOCK ends in exactly one WAKE or one WITHDRAW, and each undo
    # entry of an aborted txn lands as one INVERSE; a run whose history
    # loses every event of either kind fails at the run, in `account`,
    # exactly where the kind occurs, and runs on unchanged elsewhere
    emit = History.emit

    def dropping(self, k, *fields):
        if k != kind:
            return emit(self, k, *fields)

    monkeypatch.setattr(History, "emit", dropping)
    failed = 0
    for res in mixed_results:
        if count_kind(res.history, kind):
            failed += 1
            with pytest.raises(error, match=message):
                run_simulated(res.workload)
        else:
            assert run_simulated(res.workload).trace == res.trace
    assert failed == runs


# ------------------------------------------------------------------ check_run

def test_a_planted_table_lie_fails_serializability_and_raises_nothing(monkeypatch):
    # set INSERT/IN pairs always commute, in admission, wakes and the
    # replay's rebuilt monitors alike, so only the serial replay can see the
    # lie; each run it shows in must fail there, naming the txn and step,
    # however many txns committed
    def lie(query):
        return lambda tables, a, b: (
            {a.op, b.op} == {"INSERT", "IN"} or query(tables, a, b))

    monkeypatch.setattr(monitor, "commute_with_in", lie(commute_with_in))
    monkeypatch.setattr(monitor, "commute_with_in_out", lie(commute_with_in_out))
    failed = []
    for i in range(40):
        rng = random.Random(derive_seed(7, i))
        ok, stage, detail = run_pipeline(generate_workload(rng, ["set"], (6, 12)))
        if not ok:
            assert stage == "serializability", detail
            assert re.search(r"is no witness: T\d+ step \d+ saw ", detail), detail
            failed.append(i)
    assert failed[0] == 10 and len(failed) == 5


def test_a_fault_in_a_shared_step_is_caught_only_by_the_serial_replay(monkeypatch):
    # the engine and the history replay erase a txn through the same
    # `abort_plan`, so a plan that undoes oldest first moves both alike and
    # the history replay passes every run; only the serial replay, which
    # shares nothing with the engine, sees the states or answers it leaves
    def oldest_first(rec):
        # `abort_plan` without the `reversed`
        plan = [(hist.WITHDRAW, *rec.blocked_on, None)] if rec.blocked_on else []
        plan += [(hist.INVERSE, u.obj, u.inv, u.call) for u in rec.undo]
        undone = {u.inv.id for u in rec.undo}
        plan += [(manager.RELEASE, obj, inv, None) for obj, inv in rec.release_order()
                 if inv.id not in undone]
        return plan

    monkeypatch.setattr(manager, "abort_plan", oldest_first)
    stages = Counter()
    for workload in _mixed_workloads():
        stage, verdict = check_run(run_simulated(workload))
        stages[stage] += 1
        if stage is not None:
            assert "is no witness" in verdict.detail, verdict.detail
    assert stages == Counter({None: 376, "serializability": 30})


def test_check_run_replays_serially_once_per_run(monkeypatch):
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return replay_serial(*args)

    monkeypatch.setattr(oracles, "replay_serial", counted)
    results = []
    for i in range(30):
        rng = random.Random(derive_seed(20260816, i))
        results.append(run_simulated(flip_random_abort(generate_workload(rng), rng)))
    for res in results:
        assert TxnStatus.ABORTED in res.statuses.values()
        assert check_serializable(res).ok
    alone, calls = calls, 0
    for res in results:
        assert check_run(res)[0] is None
    assert calls == alone


def _substitutes(res):
    """(event, forgery) for each op event of `res`: the event naming
    another op of its object's type, and another object where the workload
    declares one, each picked in turn by the event's index. A NULLOP names
    a public op, every other op event a private one."""
    specs = {o.name: get_adt(o.adt) for o in res.workload.objects}
    for e in res.history:
        if e.op is None:
            continue
        spec = specs[e.obj]
        ops = sorted(spec.public_ops if e.kind == hist.NULLOP else spec.private_ops)
        ops.remove(e.op)
        yield e, e._replace(op=ops[e.index % len(ops)])
        others = [name for name in specs if name != e.obj]
        if others:
            yield e, e._replace(obj=others[e.index % len(others)])


def test_an_op_event_naming_another_op_or_object_fails_and_raises_nothing(
        mixed_results):
    # every op event must name its invocation's object, op and in-params,
    # and a NULLOP its declared step's, and none escapes as a raise. Every
    # op event of the 400 small runs is forged; of the six 50-txn runs,
    # every fifth.
    tally = Counter()
    for n, res in enumerate(mixed_results):
        events = res.history.events
        for e, forged in _substitutes(res):
            if n >= 400 and e.index % 5:
                continue
            history = History(events[:e.index] + [forged] + events[e.index + 1:])
            stage, _ = check_run(dataclasses.replace(res, history=history))
            tally[e.kind, stage] += 1
    assert tally == {
        (hist.INVOKE, "replay"): 5_205, (hist.DEDUCE, "replay"): 306,
        (hist.BLOCK, "replay"): 1_633, (hist.EXEC, "replay"): 4_280,
        (hist.WAKE, "replay"): 965, (hist.WITHDRAW, "replay"): 658,
        (hist.INVERSE, "replay"): 521, (hist.NULLOP, "replay"): 336,
    }


def test_a_deleted_or_duplicated_victim_fails_the_replay(mixed_results):
    # the BLOCK that closes a cycle owes its VICTIM, and the VICTIM its
    # txn's ABORT; so a deleted VICTIM leaves the ABORT where the VICTIM is
    # owed, and a duplicated one stands where the ABORT is owed. The replay
    # refuses both at the event, before the run's counts are compared.
    mutated = 0
    for res in mixed_results:
        for at in [e.index for e in res.history if e.kind == hist.VICTIM]:
            for mutate, message in ((lambda ev: ev[:at] + ev[at + 1:], "owed VICTIM txn="),
                                    (lambda ev: ev[:at + 1] + ev[at:], "owed ABORT ")):
                history = doctored(res.history, mutate)
                with pytest.raises(HistoryReplayError, match=message):
                    replay_history(res.workload, history)
                stage, verdict = check_run(dataclasses.replace(res, history=history))
                assert stage == "replay" and message in verdict.detail, verdict
                mutated += 1
    assert mutated == 1_206


def test_every_deleted_or_duplicated_event_fails_and_raises_nothing(mixed_results):
    # each event of the 400 small runs deleted, and duplicated in place; of
    # the six 50-txn runs, every tenth event. Every one must fail at a named
    # stage, and none may escape check_run as a raise. The events keep
    # their indices, which no oracle reads but to name a failing event.
    mutated = 0
    for n, res in enumerate(mixed_results):
        events = res.history.events
        for at in range(0, len(events), 1 if n < 400 else 10):
            for cut in (events[:at] + events[at + 1:], events[:at + 1] + events[at:]):
                stage, verdict = check_run(dataclasses.replace(res, history=History(cut)))
                assert stage is not None, (n, at, verdict)
                mutated += 1
    assert mutated == 21_208 + 530
