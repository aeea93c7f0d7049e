"""Transaction manager driven by hand: strictness, undo, wakes, deadlocks.

perform() is a generator over issue(); these tests step it directly instead
of going through the scheduler, which pins the protocol a coroutine caller
must follow.
"""

import itertools
import random
from fractions import Fraction

import pytest

from adtxn import history as hist
from adtxn import manager
from adtxn.adts import get_adt
from adtxn.core import (Lifecycle, PrivateCall, PrivateInvocation, PublicCall,
                        Translation, translate_public)
from adtxn.fuzz import derive_seed, flip_random_abort, generate_workload
from adtxn.manager import (
    RELEASE,
    ManagerInvariantError,
    TransactionAborted,
    TransactionManager,
    TransactionRecord,
    TxnStatus,
    UndoEntry,
    abort_plan,
    find_cycle,
)
from adtxn.monitor import AdmitOutcome, ManagedObject
from adtxn.oracles import Observation
from adtxn.simulate import run_simulated
from adtxn.values import item, rational, report
from adtxn.workload import (ObjectDecl, RandomSchedule, TxnDecl, Workload,
                            make_step, parse_workload)
from helpers import count_kind, replay_history, waits_for_graph
from test_monitor import run_optimized

OK = report("Ok")


def start(mgr, rec, obj, op, *ins):
    """Issue a call; returns ("done", outs) or ("wait", gen, inv)."""
    gen = mgr.perform(rec, obj, PublicCall(op, tuple(ins)))
    try:
        step = next(gen)
    except StopIteration as stop:
        return ("done", stop.value)
    kind, inv = step
    assert kind == "wait"
    return ("wait", gen, inv)


def finish_wait(gen):
    try:
        gen.send(None)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("perform yielded twice")


def run_op(mgr, rec, obj, op, *ins):
    got = start(mgr, rec, obj, op, *ins)
    assert got[0] == "done", f"{op} unexpectedly blocked"
    return got[1]


def kinds(mgr):
    return [e.kind for e in mgr.history]


# ---------------------------------------------------------------- basic flow

def test_two_phase_visibility():
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"))
    t1, t2 = mgr.begin("T1"), mgr.begin("T2")
    assert run_op(mgr, t1, "s", "PUSH", item("a")) == (OK,)
    got = start(mgr, t2, "s", "POP")
    assert got[0] == "wait"
    mgr.commit(t1)
    assert t1.status is TxnStatus.COMMITTED
    # the wake cleared blocked_on before the waiter even resumed
    assert t2.blocked_on is None
    assert finish_wait(got[1]) == (item("a"), OK)
    mgr.commit(t2)
    assert [e.outs for e in mgr.history
            if e.kind == hist.EXEC and e.txn == "T2"] == [(item("a"), OK)]


def test_null_direct_op_has_no_footprint():
    mgr = TransactionManager()
    mgr.add_object("r", get_adt("real"), Fraction(5))
    t1 = mgr.begin("T1")
    assert run_op(mgr, t1, "r", "MULTIPLY", rational(1)) == ()
    assert t1.invocations == [] and t1.undo == []
    assert kinds(mgr) == [hist.BEGIN, hist.NULLOP]
    null = mgr.history.events[-1]
    assert (null.op, null.ins, null.outs) == ("MULTIPLY", (rational(1),), ())
    mgr.commit(t1)


def test_abort_undoes_across_objects_in_reverse():
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"), ("x",))
    mgr.add_object("r", get_adt("real"), Fraction(10))
    t1 = mgr.begin("T1")
    run_op(mgr, t1, "s", "PUSH", item("a"))
    run_op(mgr, t1, "r", "ADD", rational(7))
    run_op(mgr, t1, "s", "POP")
    run_op(mgr, t1, "s", "POP")
    mgr.abort(t1)
    assert t1.status is TxnStatus.ABORTED
    assert mgr.objects["s"].state == ("x",)
    assert mgr.objects["r"].state == Fraction(10)
    inverses = [(e.obj, e.op) for e in mgr.history if e.kind == hist.INVERSE]
    # undo log runs backwards: the last pop goes back first
    assert inverses == [("s", "PUSH"), ("s", "PUSH"), ("r", "SUB"), ("s", "POP")]


def test_deduced_ops_hold_their_edges_until_release():
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"))
    t1, t2, t3 = mgr.begin("T1"), mgr.begin("T2"), mgr.begin("T3")
    run_op(mgr, t1, "s", "EMPTY")
    run_op(mgr, t2, "s", "POP")             # deduced from T1's answer
    assert count_kind(mgr.history, hist.DEDUCE) == 1
    assert t2.undo == []                    # deduced: nothing to undo
    got = start(mgr, t3, "s", "PUSH", item("a"))
    assert got[0] == "wait"
    obj = mgr.objects["s"]
    probe, pop = t1.invocations[0][1], t2.invocations[0][1]
    assert obj.blocked_by[got[2].id] == {probe.id, pop.id}
    mgr.commit(t1)
    assert got[2].lifecycle is Lifecycle.BLOCKED
    mgr.commit(t2)                          # deduced op released here
    assert finish_wait(got[1]) == (OK,)
    mgr.commit(t3)


def test_withdraw_on_abort_of_a_blocked_transaction():
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"))
    t1, t2 = mgr.begin("T1"), mgr.begin("T2")
    run_op(mgr, t1, "s", "PUSH", item("a"))
    got = start(mgr, t2, "s", "POP")
    assert got[0] == "wait"
    mgr.abort(t2)
    tail = kinds(mgr)[-2:]
    assert tail == [hist.ABORT, hist.WITHDRAW]
    assert count_kind(mgr.history, hist.INVERSE) == 0
    obj = mgr.objects["s"]
    assert got[2].id not in obj.live and obj.blocked_by == {}
    mgr.commit(t1)


def test_abort_plan_withdraws_then_undoes_backwards_then_releases():
    mgr = TransactionManager()
    for name, adt in (("s", "stack"), ("r", "real"), ("q", "stack")):
        mgr.add_object(name, get_adt(adt))
    t1, t2 = mgr.begin("T1"), mgr.begin("T2")
    run_op(mgr, t1, "r", "ADD", rational(7))
    run_op(mgr, t1, "s", "EMPTY")             # a query: NULL inverse
    run_op(mgr, t1, "s", "PUSH", item("a"))
    run_op(mgr, t2, "q", "PUSH", item("b"))
    assert start(mgr, t1, "q", "POP")[0] == "wait"
    plan = abort_plan(t1)
    assert [(kind, obj.name, inv.op, call and call.op)
            for kind, obj, inv, call in plan] == [
        (hist.WITHDRAW, "q", "POP", None),
        (hist.INVERSE, "s", "PUSH", "POP"),
        (hist.INVERSE, "r", "ADD", "SUB"),
        (RELEASE, "s", "EMPTY", None)]
    mgr.abort(t1)
    tail = [(e.kind, e.obj, e.op) for e in mgr.history][-4:]
    assert tail == [(hist.ABORT, None, None), (hist.WITHDRAW, "q", "POP"),
                    (hist.INVERSE, "s", "POP"), (hist.INVERSE, "r", "SUB")]
    assert all(inv.lifecycle is Lifecycle.FINISHED for _, _, inv, _ in plan)
    mgr.commit(t2)


def test_commit_releases_by_object_then_invocation():
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"))
    mgr.add_object("q", get_adt("stack"))
    t1, t2, t3 = mgr.begin("T1"), mgr.begin("T2"), mgr.begin("T3")
    run_op(mgr, t1, "q", "PUSH", item("a"))   # the older invocation
    run_op(mgr, t1, "s", "PUSH", item("b"))
    assert start(mgr, t2, "q", "POP")[0] == "wait"
    assert start(mgr, t3, "s", "POP")[0] == "wait"
    assert [(obj.name, inv.id) for obj, inv in t1.release_order()] == [("s", 2), ("q", 1)]
    mgr.commit(t1)
    assert [e.txn for e in mgr.history if e.kind == hist.WAKE] == ["T3", "T2"]


# T1 read p and q through queries, whose inverses are NULL, and T3 and T2
# wait on those reads. The abort must land T1's inverse first, then release
# the queries by object (p before q, though q's read is older).
NULL_RELEASE = """\
object p stack ()
object q stack ()
object s stack ()
txn T1
  op q EMPTY
  op p EMPTY
  op s PUSH a
end abort
txn T2
  op q PUSH b
end commit
txn T3
  op p PUSH c
end commit
schedule steps T1 T1 T1 T2 T3 T1 T2 T2 T3 T3
"""

NULL_RELEASE_TRACE = """\
0 BEGIN txn=T1 obj=- op=- in=[] out=[]
1 INVOKE txn=T1 obj=q op=EMPTY in=[] out=[]
2 EXEC txn=T1 obj=q op=EMPTY in=[] out=[true]
3 INVOKE txn=T1 obj=p op=EMPTY in=[] out=[]
4 EXEC txn=T1 obj=p op=EMPTY in=[] out=[true]
5 INVOKE txn=T1 obj=s op=PUSH in=[a] out=[]
6 EXEC txn=T1 obj=s op=PUSH in=[a] out=[Ok]
7 BEGIN txn=T2 obj=- op=- in=[] out=[]
8 INVOKE txn=T2 obj=q op=PUSH in=[b] out=[]
9 BLOCK txn=T2 obj=q op=PUSH in=[b] out=[]
10 BEGIN txn=T3 obj=- op=- in=[] out=[]
11 INVOKE txn=T3 obj=p op=PUSH in=[c] out=[]
12 BLOCK txn=T3 obj=p op=PUSH in=[c] out=[]
13 ABORT txn=T1 obj=- op=- in=[] out=[]
14 INVERSE txn=T1 obj=s op=POP in=[] out=[a,Ok]
15 WAKE txn=T3 obj=p op=PUSH in=[c] out=[]
16 WAKE txn=T2 obj=q op=PUSH in=[b] out=[]
17 EXEC txn=T2 obj=q op=PUSH in=[b] out=[Ok]
18 COMMIT txn=T2 obj=- op=- in=[] out=[]
19 EXEC txn=T3 obj=p op=PUSH in=[c] out=[Ok]
20 COMMIT txn=T3 obj=- op=- in=[] out=[]
"""


def test_abort_releases_null_inverse_ops_after_the_inverses():
    result = run_simulated(parse_workload(NULL_RELEASE))
    assert result.trace == NULL_RELEASE_TRACE
    assert result.rendered_states() == {"p": "c", "q": "b", "s": "()"}


def test_commit_refused_while_blocked_or_settled():
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"))
    t1, t2 = mgr.begin("T1"), mgr.begin("T2")
    run_op(mgr, t1, "s", "PUSH", item("a"))
    got = start(mgr, t2, "s", "POP")
    assert got[0] == "wait"
    with pytest.raises(ManagerInvariantError, match="T2 is blocked"):
        mgr.commit(t2)                      # still parked
    mgr.abort(t2)
    with pytest.raises(ManagerInvariantError, match="T2 is aborted"):
        mgr.commit(t2)                      # already aborted
    mgr.commit(t1)


# ------------------------------------------------------------------ deadlock

def cross_push(mgr):
    """T1 holds A and wants B; T2 holds B and wants A."""
    mgr.add_object("A", get_adt("stack"))
    mgr.add_object("B", get_adt("stack"))
    t1, t2 = mgr.begin("T1"), mgr.begin("T2")
    run_op(mgr, t1, "A", "PUSH", item("a"))
    run_op(mgr, t2, "B", "PUSH", item("b"))
    return t1, t2


def test_deadlock_victim_is_the_youngest_and_raises_in_its_own_flow():
    mgr = TransactionManager()
    t1, t2 = cross_push(mgr)
    got = start(mgr, t1, "B", "PUSH", item("c"))
    assert got[0] == "wait"
    gen = mgr.perform(t2, "A", PublicCall("PUSH", (item("d"),)))
    with pytest.raises(TransactionAborted):
        next(gen)
    assert t2.status is TxnStatus.ABORTED
    assert count_kind(mgr.history, hist.VICTIM) == 1
    assert next(e.txn for e in mgr.history if e.kind == hist.VICTIM) == "T2"
    assert mgr.objects["B"].state == ()     # T2's push rolled back
    assert finish_wait(got[1]) == (OK,)     # T1 was woken by the rollback
    mgr.commit(t1)
    assert mgr.objects["B"].state == ("c",)


def test_deadlock_closed_by_the_survivor_never_parks_it():
    # T2 blocks first; T1's own call closes the cycle, T2 dies, and T1's
    # perform must notice it was admitted during resolution and skip the wait.
    mgr = TransactionManager()
    t1, t2 = cross_push(mgr)
    got = start(mgr, t2, "A", "PUSH", item("d"))
    assert got[0] == "wait"
    result = start(mgr, t1, "B", "PUSH", item("c"))
    assert result[0] == "done" and result[1] == (OK,)
    assert t2.status is TxnStatus.ABORTED
    assert got[2].lifecycle is Lifecycle.FINISHED   # withdrawn, not admitted
    got[1].close()     # the scheduler would throw into it; see the next test
    mgr.commit(t1)


def test_issue_executes_a_call_its_own_resolution_admitted():
    # T1's call closes the cycle and T2's abort admits it: `issue` returns
    # it executed, its EXEC right after the resolution, and T1 owes nothing
    mgr = TransactionManager()
    t1, t2 = cross_push(mgr)
    _, blocked = mgr.issue(t2, "A", PublicCall("PUSH", (item("d"),)))
    assert blocked.lifecycle is Lifecycle.BLOCKED
    _, inv = mgr.issue(t1, "B", PublicCall("PUSH", (item("c"),)))
    assert inv.lifecycle is Lifecycle.EXECUTED and inv.outs == (OK,)
    assert t2.status is TxnStatus.ABORTED
    assert t1.blocked_on is None and t1.woken is None
    assert [(e.kind, e.txn) for e in mgr.history][-6:] == [
        (hist.VICTIM, "T2"), (hist.ABORT, "T2"), (hist.WITHDRAW, "T2"),
        (hist.INVERSE, "T2"), (hist.WAKE, "T1"), (hist.EXEC, "T1")]
    mgr.commit(t1)


def test_a_woken_op_is_owed_before_any_other_step():
    # the record holds the op from its BLOCK to its WAKE, then as the woken
    # op until `resume` runs it; no other step may come in between
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"))
    t1, t2 = mgr.begin("T1"), mgr.begin("T2")
    run_op(mgr, t1, "s", "PUSH", item("a"))
    _, pop = mgr.issue(t2, "s", PublicCall("POP", ()))
    assert t2.blocked_on == (mgr.objects["s"], pop) and t2.woken is None
    with pytest.raises(ManagerInvariantError, match="T2 has no woken op to execute"):
        mgr.resume(t2)                      # blocked, not woken
    with pytest.raises(ManagerInvariantError, match="T2 is blocked"):
        mgr.issue(t2, "s", PublicCall("EMPTY", ()))
    mgr.commit(t1)
    assert t2.blocked_on is None and t2.woken == (mgr.objects["s"], pop)
    for step in (lambda: mgr.issue(t2, "s", PublicCall("EMPTY", ())),
                 lambda: mgr.commit(t2), lambda: mgr.abort(t2)):
        with pytest.raises(ManagerInvariantError,
                           match="T2 owes the EXEC of its woken op"):
            step()
    invokes = count_kind(mgr.history, hist.INVOKE)
    mgr.resume(t2)
    assert pop.lifecycle is Lifecycle.EXECUTED and t2.woken is None
    assert count_kind(mgr.history, hist.INVOKE) == invokes   # the refusals emitted nothing
    with pytest.raises(ManagerInvariantError, match="T2 has no woken op to execute"):
        mgr.resume(t2)
    mgr.commit(t2)


def test_victims_generator_sees_the_abort_when_resumed():
    # When the loser is parked, resuming its generator must raise inside it.
    mgr = TransactionManager()
    t1, t2 = cross_push(mgr)
    got = start(mgr, t2, "A", "PUSH", item("d"))
    start(mgr, t1, "B", "PUSH", item("c"))
    with pytest.raises(TransactionAborted):
        got[1].throw(TransactionAborted(t2.name))


# ------------------------------------------------------------- graph plumbing

def test_waits_for_edges_derive_from_the_monitors():
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"))
    t1, t2, t3 = mgr.begin("T1"), mgr.begin("T2"), mgr.begin("T3")
    run_op(mgr, t1, "s", "PUSH", item("a"))
    assert start(mgr, t2, "s", "POP")[0] == "wait"
    assert start(mgr, t3, "s", "EMPTY")[0] == "wait"
    assert waits_for_graph(mgr.txns.values()) == {t2.id: {t1.id},
                                                 t3.id: {t1.id, t2.id}}
    # walking back from T2 reaches T3 alone, and keeps the edges between them
    assert mgr.waits_for_edges(t2.id) == {t3.id: {t2.id}}


def test_waits_for_graph_reads_each_blockers_owner_from_its_monitor():
    # T3 waits on r for T1's executed ADD and for T2's ADD, which is still in
    # execution and not yet registered; T1 waits on s for T3's push
    r = ManagedObject("r", 0, get_adt("real"), Fraction(0))
    s = ManagedObject("s", 1, get_adt("stack"), ())
    t1, t2, t3 = (TransactionRecord(i, f"T{i}") for i in (1, 2, 3))
    ids = itertools.count(1)

    def invoke(txn, obj, op, *ins):
        inv = PrivateInvocation(id=next(ids), txn=txn.id, obj=obj.name,
                                op=op, ins=ins)
        outcome = obj.admit(inv)
        if outcome is AdmitOutcome.BLOCKED:
            txn.blocked_on = (obj, inv)
        return inv, outcome

    def run(txn, obj, op, *ins):
        inv, outcome = invoke(txn, obj, op, *ins)
        assert outcome is AdmitOutcome.ADMITTED
        obj.complete(inv, obj.execute(inv))
        txn.register(obj, inv)

    run(t1, r, "ADD", rational(1))
    run(t3, s, "PUSH", item("a"))
    running, outcome = invoke(t2, r, "ADD", rational(2))
    assert outcome is AdmitOutcome.ADMITTED and t2.invocations == []
    assert invoke(t3, r, "MULTIPLY", rational(2))[1] is AdmitOutcome.BLOCKED
    assert invoke(t1, s, "POP")[1] is AdmitOutcome.BLOCKED
    assert r.blocked_by[t3.blocked_on[1].id] == {1, running.id}
    assert waits_for_graph([t1, t2, t3]) == {t3.id: {t1.id, t2.id},
                                            t1.id: {t3.id}}


def test_waits_for_graph_refuses_a_self_edge_under_optimization():
    # the walk the engine and the replay share refuses the edge, rather
    # than make the txn a cycle of one and its own victim
    out = run_optimized("""\
        from adtxn.manager import (ManagerInvariantError, TransactionRecord,
                                   waits_for_edges)
        obj, ids = make_object(), Ids()
        push, pop = ids.inv(1, "PUSH", item("a")), ids.inv(2, "POP")
        obj.admit(push)
        obj.complete(push, obj.execute(push))
        obj.admit(pop)
        push.txn = 2     # lie: the blocker claims its waiter's transaction
        waiter = TransactionRecord(2, "T2", invocations=[(obj, push)],
                                   blocked_on=(obj, pop))
        try:
            waits_for_edges({2: waiter}, 2)
        except ManagerInvariantError as exc:
            print("rejected:", exc)
        """)
    assert "rejected: self-edge on 2 in the waits-for graph" in out


def test_find_cycle():
    assert find_cycle({}) is None
    assert find_cycle({1: {2}, 2: {3}}) is None
    assert find_cycle({1: {2}, 2: {3}, 3: {1}}) == [1, 2, 3]
    assert find_cycle({1: {1}}) == [1]
    assert find_cycle({2: {1}, 1: {2}}) == [1, 2]
    # only the reachable cycle comes back
    assert find_cycle({1: {2}, 3: {4}, 4: {3}}) == [3, 4]
    # the smallest node is only a target, so it is never a root
    assert find_cycle({3: {1, 2}, 2: {1, 3}, 4: {1}}) == [2, 3]


def find_cycle_all_nodes(adj):
    """The search as it was: every node a root, targets included."""
    nodes = sorted(set(adj) | {v for vs in adj.values() for v in vs})
    color = dict.fromkeys(nodes, 0)
    for n in nodes:
        if color[n]:
            continue
        color[n] = 1
        path = [n]
        pending = [iter(sorted(adj.get(n, ())))]
        while pending:
            for v in pending[-1]:
                if color[v] == 1:
                    return path[path.index(v):]
                if color[v] == 0:
                    color[v] = 1
                    path.append(v)
                    pending.append(iter(sorted(adj.get(v, ()))))
                    break
            else:
                color[path.pop()] = 2
                pending.pop()
    return None


def test_find_cycle_roots_at_keys_as_all_nodes_would():
    rng = random.Random(20260816)
    kinds = dict.fromkeys(("cycle", "none", "several", "self-loop", "sink-only"), 0)
    for _ in range(3000):
        # keys from a wider range than their count, so some nodes are only
        # targets; a key may list itself, and the denser graphs hold several
        # cycles
        nodes = range(rng.randint(1, 14))
        keys = rng.sample(nodes, rng.randint(0, len(nodes)))
        adj = {k: set(rng.sample(nodes, rng.randint(0, min(3, len(nodes)))))
               for k in keys}
        cycle = find_cycle(adj)
        assert cycle == find_cycle_all_nodes(adj), adj
        kinds["cycle" if cycle else "none"] += 1
        if cycle:
            rest = {k: vs - set(cycle) for k, vs in adj.items() if k not in cycle}
            kinds["several"] += find_cycle(rest) is not None
        kinds["self-loop"] += any(k in vs for k, vs in adj.items())
        kinds["sink-only"] += any(v not in adj for vs in adj.values() for v in vs)
    assert min(kinds.values()) > 200, kinds


RING = 5000


def test_find_cycle_on_a_long_ring_does_not_recurse():
    ring = {i: {i + 1} for i in range(RING - 1)}
    ring[RING - 1] = {0}
    assert find_cycle(ring) == list(range(RING))


def test_deadlock_ring_of_thousands_of_transactions():
    # T_i holds o_i and waits for o_{i-1}; T_0 closes the ring on o_{N-1}
    mgr = TransactionManager()
    stack = get_adt("stack")
    for i in range(RING):
        mgr.add_object(f"o{i}", stack)
    txns = [mgr.begin(f"T{i}") for i in range(RING)]
    for i, rec in enumerate(txns):
        run_op(mgr, rec, f"o{i}", "PUSH", item("a"))
    for i in range(1, RING):
        assert start(mgr, txns[i], f"o{i - 1}", "PUSH", item("b"))[0] == "wait"
    assert count_kind(mgr.history, hist.VICTIM) == 0
    got = start(mgr, txns[0], f"o{RING - 1}", "PUSH", item("b"))
    assert got == ("done", (OK,))          # woken while resolving, never parked
    victims = [e.txn for e in mgr.history if e.kind == hist.VICTIM]
    assert victims == [f"T{RING - 1}"]
    assert txns[-1].status is TxnStatus.ABORTED
    wakes = [e.txn for e in mgr.history if e.kind == hist.WAKE]
    assert wakes == ["T0"]
    assert mgr.objects[f"o{RING - 1}"].state == ("b",)


# ------------------------------------------------- rooted vs whole-graph search

def _stack_instance(rng, txns=50):
    spec = get_adt("stack")
    decls, total = [], 0
    for t in range(txns):
        steps = []
        for _ in range(rng.randint(2, 4)):
            op = rng.choice(("PUSH", "POP", "EMPTY", "CLEAR"))
            ins = (item(rng.choice("abc")),) if op == "PUSH" else ()
            steps.append(make_step(spec, "s", op, ins))
        total += len(steps)
        decls.append(TxnDecl(f"T{t + 1}", tuple(steps), "commit"))
    return Workload((ObjectDecl("s", "stack", "()"),), tuple(decls),
                    RandomSchedule(rng.randrange(2 ** 31), 20 * total + 20))


def test_rooted_search_finds_the_whole_graph_cycle(monkeypatch):
    # every search of a resolution, on the walked graph or on one pruned
    # after a victim, must meet the cycle a search of the whole graph,
    # derived afresh, meets first; in the engine, and in the history replay
    # on its own monitors, which must search exactly as the engine did
    # per side: (found a cycle, searches before it in its resolution)
    by_side = {"engine": [], "replay": []}
    resolving = []         # [txns, searches so far] per open resolution
    side = "engine"
    resolve = TransactionManager._resolve

    def compared(adj):
        txns, before = resolving[-1]
        whole = waits_for_graph(txns.values())
        nodes = set(adj).union(*adj.values())
        for t, waits in adj.items():
            # the current graph induced on the searched nodes: no stale node
            # or edge, and no live edge between them left out
            assert t in whole and whole[t] & nodes <= waits <= whole[t]
        cycle = find_cycle(adj)
        assert cycle == find_cycle(whole)
        by_side[side].append((cycle is not None, before))
        resolving[-1][1] += 1
        return cycle

    def resolved(mgr, rec):
        resolving.append([mgr.txns, 0])
        try:
            resolve(mgr, rec)
        finally:
            resolving.pop()
        # what the rooted search relies on: resolution leaves no cycle
        assert find_cycle(waits_for_graph(mgr.txns.values())) is None

    monkeypatch.setattr(manager, "find_cycle", compared)
    # once for both sides: the replay drives a manager of its own
    monkeypatch.setattr(TransactionManager, "_resolve", resolved)
    workloads = []
    for i in range(200):
        rng = random.Random(derive_seed(20260816, i))
        workload = generate_workload(rng)
        workloads += [workload, flip_random_abort(workload, rng)]
    rng = random.Random(11)
    workloads += [_stack_instance(rng) for _ in range(4)]
    for workload in workloads:
        side = "engine"
        res = run_simulated(workload)
        side = "replay"
        assert replay_history(res.workload, res.history) == res.final_states
    searches = by_side["engine"]
    assert by_side["replay"] == searches
    found = sum(cycle for cycle, _ in searches)
    pruned = [cycle for cycle, before in searches if before]
    assert found > 100 and len(searches) > found
    # searches after a victim, some of which find a further cycle
    assert len(pruned) > 50 and any(pruned)


WAITING_ON_A_DEADLOCK = """\
object A stack ()
object B stack ()
object C stack ()
txn T1
  op A PUSH a
  op B PUSH x
end commit
txn T2
  op B PUSH b
  op A PUSH d
end commit
txn T3
  op C PUSH c
end commit
schedule steps T3 T1 T2 T1 T2
"""


def test_a_victim_chosen_off_the_cycle_is_refused(monkeypatch):
    # a planted resolution that aborts T3, free to run, for T1 and T2's
    # cycle: nothing unwinds T3, so the scheduler resumes it, and the
    # manager refuses the aborted txn's next call
    def off_the_cycle(mgr, rec):
        if find_cycle(mgr.waits_for_edges(rec.id)) is not None:
            victim = next(t for t in mgr.txns.values() if t.name == "T3")
            assert victim.status is TxnStatus.ACTIVE and victim.blocked_on is None
            mgr.history.emit(hist.VICTIM, victim.name)
            mgr.abort(victim)

    monkeypatch.setattr(TransactionManager, "_resolve", off_the_cycle)
    with pytest.raises(ManagerInvariantError, match="T3 is aborted"):
        run_simulated(parse_workload(WAITING_ON_A_DEADLOCK))


def test_a_committed_victim_is_refused_by_abort(monkeypatch):
    # a planted search that names a committed txn as the cycle: the
    # resolution names it VICTIM, and `abort` refuses to erase it
    mgr = TransactionManager()
    mgr.add_object("s", get_adt("stack"))
    t1 = mgr.begin("T1")
    mgr.commit(t1)
    t2, t3 = mgr.begin("T2"), mgr.begin("T3")
    assert start(mgr, t2, "s", "PUSH", item("a"))[0] == "done"
    monkeypatch.setattr(manager, "find_cycle", lambda adj: [t1.id])
    with pytest.raises(ManagerInvariantError, match="^T1 is committed, not active$"):
        start(mgr, t3, "s", "PUSH", item("b"))
    assert mgr.history.events[-1].kind == hist.VICTIM
    assert t1.status is TxnStatus.COMMITTED


def test_transaction_status_checks_hold_under_optimization():
    # python -O strips asserts; the manager's preconditions must not go with them
    out = run_optimized("""\
        from adtxn.adts import get_adt
        from adtxn.core import PublicCall
        from adtxn.manager import ManagerInvariantError, TransactionManager
        mgr = TransactionManager()
        mgr.add_object("s", get_adt("stack"))
        rec = mgr.begin("T1")
        mgr.commit(rec)
        for again in (lambda: mgr.commit(rec), lambda: mgr.abort(rec),
                      lambda: next(mgr.perform(rec, "s", PublicCall("EMPTY", ())))):
            try:
                again()
            except ManagerInvariantError as exc:
                print("rejected:", exc)
        print("events:", len(mgr.history.events))
        """)
    assert out.count("rejected: T1 is committed") == 3
    assert "events: 2" in out


def test_history_refuses_an_unknown_event_kind_under_optimization():
    out = run_optimized("""\
        from adtxn.history import EventKindError, History
        history = History()
        try:
            history.emit("LAUNCH", txn="T1")
        except EventKindError as exc:
            print("rejected:", exc)
        print("events:", len(history))
        """)
    assert "rejected: unknown event kind 'LAUNCH'" in out
    assert "events: 0" in out


# ---------------------------------------------------------------- records

def test_per_call_records_refuse_every_write():
    stack = get_adt("stack")
    push = PublicCall("PUSH", (item("a"),))
    tr = translate_public(stack, push)
    inv = PrivateInvocation(id=1, txn=1, obj="s", op="PUSH", ins=push.ins)
    obj = ManagedObject("s", 0, stack, ())
    records = [hist.Event(0, hist.BEGIN, "T1"),
               Observation("s", "PUSH", push.ins, (OK,)),
               push, tr, PrivateCall("POP", ()),
               UndoEntry(obj, inv, PrivateCall("POP", ()))]
    assert isinstance(tr, Translation) and not tr.null
    for rec in records:
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)


def test_mutable_records_refuse_a_misspelt_field():
    inv = PrivateInvocation(id=1, txn=1, obj="s", op="PUSH", ins=(item("a"),))
    rec = TransactionRecord(1, "T1")
    inv.lifecycle = Lifecycle.BLOCKED
    rec.status = TxnStatus.ABORTED
    with pytest.raises(AttributeError):
        inv.lifecyle = Lifecycle.EXECUTED
    with pytest.raises(AttributeError):
        rec.stauts = TxnStatus.COMMITTED
    assert inv.lifecycle is Lifecycle.BLOCKED and rec.status is TxnStatus.ABORTED
