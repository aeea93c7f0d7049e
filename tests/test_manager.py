"""Transaction manager driven by hand: strictness, undo, wakes, deadlocks.

perform() is a generator; these tests step it directly instead of going
through the scheduler, which pins the protocol a scheduler must follow.
"""

import random
from fractions import Fraction

import pytest

from adtxn import history as hist
from adtxn.adts import get_adt
from adtxn.core import Lifecycle, PublicCall
from adtxn.fuzz import derive_seed, flip_random_abort, generate_workload
from adtxn.manager import (
    RELEASE,
    TransactionAborted,
    TransactionManager,
    TxnStatus,
    abort_plan,
    find_cycle,
)
from adtxn.simulate import run_simulated
from adtxn.values import item, rational, report
from adtxn.workload import (ObjectDecl, RandomSchedule, TxnDecl, Workload,
                            make_step, parse_workload)

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
    assert [o.outs for o in t2.observations] == [(item("a"), OK)]


def test_null_direct_op_has_no_footprint():
    mgr = TransactionManager()
    mgr.add_object("r", get_adt("real"), Fraction(5))
    t1 = mgr.begin("T1")
    assert run_op(mgr, t1, "r", "MULTIPLY", rational(1)) == ()
    assert t1.invocations == [] and t1.undo == []
    assert kinds(mgr) == [hist.BEGIN, hist.NULLOP]
    assert t1.observations[0].op == "MULTIPLY"
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
    assert mgr.history.count(hist.DEDUCE) == 1
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
    assert mgr.history.count(hist.INVERSE) == 0
    assert mgr.objects["s"].blocked == {}
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
    with pytest.raises(AssertionError):
        mgr.commit(t2)                      # still parked
    mgr.abort(t2)
    with pytest.raises(AssertionError):
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
    assert mgr.history.count(hist.VICTIM) == 1
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
    assert mgr.waits_for_edges() == {t2.id: {t1.id}, t3.id: {t1.id, t2.id}}


def test_find_cycle():
    assert find_cycle({}) is None
    assert find_cycle({1: {2}, 2: {3}}) is None
    assert find_cycle({1: {2}, 2: {3}, 3: {1}}) == [1, 2, 3]
    assert find_cycle({1: {1}}) == [1]
    assert find_cycle({2: {1}, 1: {2}}) == [1, 2]
    # only the reachable cycle comes back
    assert find_cycle({1: {2}, 3: {4}, 4: {3}}) == [3, 4]


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
    assert mgr.history.count(hist.VICTIM) == 0
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
    found = []
    edges = TransactionManager.waits_for_edges
    resolve = TransactionManager._resolve_deadlocks

    def compared(mgr, root=None):
        adj = edges(mgr, root)
        if root is not None:
            cycle = find_cycle(adj)
            assert cycle == find_cycle(edges(mgr))
            found.append(cycle is not None)
        return adj

    def resolved(mgr, rec):
        resolve(mgr, rec)
        # what the rooted search relies on: resolution leaves no cycle
        assert find_cycle(edges(mgr)) is None

    monkeypatch.setattr(TransactionManager, "waits_for_edges", compared)
    monkeypatch.setattr(TransactionManager, "_resolve_deadlocks", resolved)
    workloads = []
    for i in range(200):
        rng = random.Random(derive_seed(20260816, i))
        workload = generate_workload(rng)
        workloads += [workload, flip_random_abort(workload, rng)]
    rng = random.Random(11)
    workloads += [_stack_instance(rng) for _ in range(4)]
    for workload in workloads:
        run_simulated(workload)
    assert sum(found) > 100 and len(found) > sum(found)
