"""Whole-package acceptance gates, one test per numbered criterion.

Everything here is end to end: the commutativity tables are swept by brute
force, two 1000-workload fuzz corpora are simulated and checked against the
serial oracles, traces are replayed through the monitor reconstructor, and
the frozen golden traces pin the deduction, blocking, deadlock, and undo
behaviour byte for byte.

The two corpora share one master seed so the abort corpus reruns exactly the
workloads of the commit corpus with a single terminal flipped. They are
cached at module scope; the first criterion that needs a corpus pays for its
construction, and the recorded build time is charged against the wall-clock
budget no matter which test triggered it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import permutations

from adtxn.adts import get_adt
from adtxn.cli import main
from adtxn.fuzz import derive_seed, flip_random_abort, generate_workload
from adtxn.history import BLOCK, COMMIT, DEDUCE, EXEC, INVERSE, INVOKE, \
    NULLOP, WITHDRAW, check_metric_identities
from adtxn.manager import TxnStatus
from adtxn.oracles import check_abort_transparency, check_serializable, \
    replay_serial
from adtxn.simulate import run_simulated
from adtxn.validate import validate_adt
from adtxn.workload import parse_workload, render_workload
from helpers import replay_history

MASTER_SEED = 20260816
CORPUS_RUNS = 1000

TABLE_BUDGET_SECS = 10.0
SERIALIZABLE_BUDGET_SECS = 120.0
TRANSPARENCY_BUDGET_SECS = 180.0

# mode -> (list of (workload, RunResult), seconds spent building)
_corpus_cache: dict[str, tuple[list, float]] = {}


def corpus(mode):
    assert mode in ("commit", "abort")
    if mode not in _corpus_cache:
        t0 = time.monotonic()
        pairs = []
        for i in range(CORPUS_RUNS):
            rng = random.Random(derive_seed(MASTER_SEED, i))
            workload = generate_workload(rng)
            if mode == "abort":
                workload = flip_random_abort(workload, rng)
            pairs.append((workload, run_simulated(workload)))
        _corpus_cache[mode] = (pairs, time.monotonic() - t0)
    return _corpus_cache[mode]


# --- criterion 1: table soundness by brute force ---

def test_criterion_01_tables_sound_by_brute_force(capsys):
    # depth 3 sweeps every stack over {a,b} up to three items and every
    # subset of a three-item universe; the real grid gets >= 10^3 states
    jobs = [("stack", 3), ("set", 3), ("boolean", 3), ("real", 1000)]
    t0 = time.monotonic()
    for adt, depth in jobs:
        rc = main(["verify-tables", adt, "--depth", str(depth)])
        assert rc == 0, f"verify-tables {adt} reported violations"
    elapsed = time.monotonic() - t0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    # four checks per type, and the set's conflict keys
    assert len(lines) == 4 * len(jobs) + 1
    assert any(l.startswith("PASS set keys ") for l in lines)
    for line in lines:
        assert line.startswith("PASS "), line
        assert line.endswith("violations=0"), line
        cases = int(line.split("cases=")[1].split()[0])
        assert cases > 0, f"vacuous sweep: {line}"
    assert elapsed < TABLE_BUDGET_SECS, f"table sweep took {elapsed:.1f}s"


# --- criterion 2: serializability at fuzz scale ---

def test_criterion_02_thousand_workloads_serializable():
    pairs, build_secs = corpus("commit")
    t0 = time.monotonic()
    failures = []
    for i, (workload, result) in enumerate(pairs):
        verdict = check_serializable(result)
        if not verdict.ok:
            failures.append(f"run {i}: {verdict.detail}")
    elapsed = build_secs + (time.monotonic() - t0)
    assert not failures, "\n".join(failures[:5])
    assert elapsed < SERIALIZABLE_BUDGET_SECS, f"{elapsed:.1f}s for {CORPUS_RUNS} runs"


# --- criterion 3: abort transparency on the same workloads ---

def test_criterion_03_thousand_aborting_workloads_transparent():
    commit_pairs, _ = corpus("commit")
    pairs, build_secs = corpus("abort")

    # same master seed, so each abort run is its commit twin with exactly
    # one terminal flipped
    for (base, _), (flipped, _) in zip(commit_pairs, pairs):
        diff = [(a, b)
                for a, b in zip(render_workload(base).splitlines(),
                                render_workload(flipped).splitlines())
                if a != b]
        assert diff == [("end commit", "end abort")]

    t0 = time.monotonic()
    failures = []
    for i, (workload, result) in enumerate(pairs):
        assert any(s is TxnStatus.ABORTED for s in result.statuses.values())
        verdict = check_abort_transparency(result)
        if not verdict.ok:
            failures.append(f"run {i}: {verdict.detail}")
    elapsed = build_secs + (time.monotonic() - t0)
    assert not failures, "\n".join(failures[:5])
    assert elapsed < TRANSPARENCY_BUDGET_SECS, f"{elapsed:.1f}s for {CORPUS_RUNS} runs"


# --- criteria 2 and 3 against the exhaustive search ---

EXHAUSTIVE_MAX_TXNS = 6


def exhaustively_serializable(result):
    """The reference for the oracle's commit-order shortcut: replay every
    order of the committed txns until one explains the run."""
    committed = [t for t in result.workload.txns
                 if result.statuses[t.name] is TxnStatus.COMMITTED]
    seen = {}                           # the history's answers, per txn
    for e in result.history:
        if e.kind in (NULLOP, DEDUCE, EXEC):
            seen.setdefault(e.txn, []).append((e.obj, e.op, e.ins, e.outs))
    for order in permutations(committed):
        states, observations = replay_serial(result.workload, order)
        if states == result.final_states and all(
                observations.get(t.name, []) == seen.get(t.name, [])
                for t in committed):
            return True
    return False


def test_commit_order_witness_agrees_with_the_exhaustive_search():
    searched = 0
    for mode in ("commit", "abort"):
        for i, (workload, result) in enumerate(corpus(mode)[0]):
            verdict = check_serializable(result)
            commits = tuple(e.txn for e in result.history if e.kind == COMMIT)
            assert verdict.witness == commits, f"{mode} run {i}: {verdict.detail}"
            if len(commits) <= EXHAUSTIVE_MAX_TXNS:
                assert exhaustively_serializable(result) == verdict.ok, \
                    f"{mode} run {i}"
                searched += 1
    assert searched == 2 * CORPUS_RUNS


# --- criterion 4: exactly-once execution, straight off the traces ---

def test_criterion_04_exactly_once_across_both_corpora():
    runs = corpus("commit")[0] + corpus("abort")[0]
    for workload, result in runs:
        invoked, executed, deduced, withdrawn = set(), [], set(), set()
        for ev in result.history:
            if ev.kind == INVOKE:
                invoked.add(ev.inv_id)
            elif ev.kind == EXEC:
                executed.append(ev.inv_id)
            elif ev.kind == DEDUCE:
                deduced.add(ev.inv_id)
            elif ev.kind == WITHDRAW:
                withdrawn.add(ev.inv_id)
            elif ev.kind == NULLOP:
                # null direct ops never reach a monitor, so they have no
                # invocation identity at all
                assert ev.inv_id is None, ev.render()
        # execution counter <= 1 for every invocation
        assert len(executed) == len(set(executed)), "an invocation ran twice"
        # deduced invocations never execute, withdrawn ones never did
        assert deduced.isdisjoint(executed)
        assert withdrawn.isdisjoint(executed)
        assert deduced.isdisjoint(withdrawn)
        # every invocation resolves in exactly one of the three ways
        assert invoked == set(executed) | deduced | withdrawn
        check_metric_identities(result.metrics)


# --- criterion 5: a pending answer lets a second reader skip execution ---

DEDUCTION_WORKLOAD = """\
object s stack ()
txn T1
  op s EMPTY
end commit
txn T2
  op s POP
end commit
schedule steps T1 T2 T2 T1
"""

DEDUCTION_TRACE = """\
0 BEGIN txn=T1 obj=- op=- in=[] out=[]
1 INVOKE txn=T1 obj=s op=EMPTY in=[] out=[]
2 EXEC txn=T1 obj=s op=EMPTY in=[] out=[true]
3 BEGIN txn=T2 obj=- op=- in=[] out=[]
4 INVOKE txn=T2 obj=s op=POP in=[] out=[]
5 DEDUCE txn=T2 obj=s op=POP in=[] out=[_,EmptyStack]
6 COMMIT txn=T2 obj=- op=- in=[] out=[]
7 COMMIT txn=T1 obj=- op=- in=[] out=[]
"""


def test_criterion_05_pop_deduced_from_uncommitted_empty():
    result = run_simulated(parse_workload(DEDUCTION_WORKLOAD))
    assert result.trace == DEDUCTION_TRACE
    deduces = [e for e in result.history if e.kind == DEDUCE]
    assert [e.op for e in deduces] == ["POP"]
    assert result.trace.splitlines()[5].endswith("op=POP in=[] out=[_,EmptyStack]")
    assert not any(e.kind == BLOCK for e in result.history)
    # the deduced POP never reached an executor
    assert not any(e.kind == EXEC and e.op == "POP" for e in result.history)
    assert result.metrics.executions == 1 and result.metrics.deductions == 1


# --- criterion 6: set answers deduced or blocked depending on the pending op ---

INSERT_HINT_WORKLOAD = """\
object s set x
txn T1
  op s INSERT x
end commit
txn T2
  op s INSERT x
  op s IN x
end commit
schedule steps T1 T2 T2 T1 T2
"""

INSERT_HINT_TRACE = """\
0 BEGIN txn=T1 obj=- op=- in=[] out=[]
1 INVOKE txn=T1 obj=s op=INSERT in=[x] out=[]
2 EXEC txn=T1 obj=s op=INSERT in=[x] out=[AlreadyIn]
3 BEGIN txn=T2 obj=- op=- in=[] out=[]
4 INVOKE txn=T2 obj=s op=INSERT in=[x] out=[]
5 DEDUCE txn=T2 obj=s op=INSERT in=[x] out=[AlreadyIn]
6 INVOKE txn=T2 obj=s op=IN in=[x] out=[]
7 DEDUCE txn=T2 obj=s op=IN in=[x] out=[true]
8 COMMIT txn=T1 obj=- op=- in=[] out=[]
9 COMMIT txn=T2 obj=- op=- in=[] out=[]
"""

CARD_BLOCK_WORKLOAD = """\
object s set x
txn T1
  op s CARD
end commit
txn T2
  op s INSERT y
end commit
schedule steps T1 T2 T1 T2 T2
"""

CARD_BLOCK_TRACE = """\
0 BEGIN txn=T1 obj=- op=- in=[] out=[]
1 INVOKE txn=T1 obj=s op=CARD in=[] out=[]
2 EXEC txn=T1 obj=s op=CARD in=[] out=[1]
3 BEGIN txn=T2 obj=- op=- in=[] out=[]
4 INVOKE txn=T2 obj=s op=INSERT in=[y] out=[]
5 BLOCK txn=T2 obj=s op=INSERT in=[y] out=[]
6 COMMIT txn=T1 obj=- op=- in=[] out=[]
7 WAKE txn=T2 obj=s op=INSERT in=[y] out=[]
8 EXEC txn=T2 obj=s op=INSERT in=[y] out=[Ok]
9 COMMIT txn=T2 obj=- op=- in=[] out=[]
"""


def test_criterion_06_set_result_hints():
    # a concurrent duplicate INSERT must report AlreadyIn without running
    hint = run_simulated(parse_workload(INSERT_HINT_WORKLOAD))
    assert hint.trace == INSERT_HINT_TRACE
    assert hint.metrics.deductions == 2 and hint.metrics.blocks == 0

    # an uncommitted CARD answer pins the size, so INSERT has to wait
    card = run_simulated(parse_workload(CARD_BLOCK_WORKLOAD))
    assert card.trace == CARD_BLOCK_TRACE
    kinds = [e.kind for e in card.history]
    assert kinds.index(BLOCK) < kinds.index("COMMIT") < kinds.index("WAKE")
    assert card.metrics.deductions == 0 and card.metrics.blocks == 1


# --- criterion 7: crossed lock order, one victim, survivor commits ---

CROSSED_WORKLOAD = """\
object A stack ()
object B stack ()
txn T1
  op A PUSH a
  op B PUSH b
end commit
txn T2
  op B PUSH c
  op A PUSH d
end commit
schedule steps T1 T2 T1 T2 T1 T1
"""

CROSSED_TRACE = """\
0 BEGIN txn=T1 obj=- op=- in=[] out=[]
1 INVOKE txn=T1 obj=A op=PUSH in=[a] out=[]
2 EXEC txn=T1 obj=A op=PUSH in=[a] out=[Ok]
3 BEGIN txn=T2 obj=- op=- in=[] out=[]
4 INVOKE txn=T2 obj=B op=PUSH in=[c] out=[]
5 EXEC txn=T2 obj=B op=PUSH in=[c] out=[Ok]
6 INVOKE txn=T1 obj=B op=PUSH in=[b] out=[]
7 BLOCK txn=T1 obj=B op=PUSH in=[b] out=[]
8 INVOKE txn=T2 obj=A op=PUSH in=[d] out=[]
9 BLOCK txn=T2 obj=A op=PUSH in=[d] out=[]
10 VICTIM txn=T2 obj=- op=- in=[] out=[]
11 ABORT txn=T2 obj=- op=- in=[] out=[]
12 WITHDRAW txn=T2 obj=A op=PUSH in=[d] out=[]
13 INVERSE txn=T2 obj=B op=POP in=[] out=[c,Ok]
14 WAKE txn=T1 obj=B op=PUSH in=[b] out=[]
15 EXEC txn=T1 obj=B op=PUSH in=[b] out=[Ok]
16 COMMIT txn=T1 obj=- op=- in=[] out=[]
"""

CROSSED_SEEDED = CROSSED_WORKLOAD.replace(
    "schedule steps T1 T2 T1 T2 T1 T1", "schedule seed 4 steps 60")


def test_criterion_07_deadlock_picks_the_younger_victim():
    result = run_simulated(parse_workload(CROSSED_WORKLOAD))
    assert result.trace == CROSSED_TRACE
    victims = [e for e in result.history if e.kind == "VICTIM"]
    assert [e.txn for e in victims] == ["T2"]  # the younger transaction
    assert result.statuses["T1"] is TxnStatus.COMMITTED
    assert result.statuses["T2"] is TxnStatus.ABORTED
    assert result.rendered_states() == {"A": "a", "B": "b"}
    assert check_serializable(result).ok

    # same story under a seeded random schedule, bit for bit reproducible
    first = run_simulated(parse_workload(CROSSED_SEEDED))
    second = run_simulated(parse_workload(CROSSED_SEEDED))
    assert first.trace == second.trace
    assert first.metrics.victims == 1
    assert [e.txn for e in first.history if e.kind == "VICTIM"] == ["T2"]
    assert check_serializable(first).ok


# --- criterion 8: abort leaves no residue, every private op covered ---

RESTORATION_WORKLOADS = {
    "stack": ("s", "a,b", """\
object s stack a,b
txn T1
  op s PUSH c
  op s POP
  op s POP
  op s CLEAR
  op s EMPTY
  op s PUSH z
end abort
schedule steps T1 T1 T1 T1 T1 T1 T1
"""),
    "set": ("s", "x", """\
object s set x
txn T1
  op s INSERT y
  op s INSERT x
  op s DELETE x
  op s DELETE z
  op s IN y
  op s CARD
end abort
schedule steps T1 T1 T1 T1 T1 T1 T1
"""),
    "real": ("r", "4/7", """\
object r real 4/7
txn T1
  op r ADD 3
  op r ADD -3
  op r MULTIPLY -2
  op r MULTIPLY 1/2
  op r SETTO 9
  op r READ
end abort
schedule steps T1 T1 T1 T1 T1 T1 T1
"""),
    "boolean": ("b", "true", """\
object b boolean true
txn T1
  op b XOR true
  op b AND false
  op b READ
end abort
schedule steps T1 T1 T1 T1
"""),
}


def test_criterion_08_abort_restores_every_builtin_exactly():
    for adt, (obj, initial, text) in RESTORATION_WORKLOADS.items():
        result = run_simulated(parse_workload(text))
        assert result.statuses["T1"] is TxnStatus.ABORTED
        assert result.rendered_states() == {obj: initial}, adt
        touched = {e.op for e in result.history if e.kind in (EXEC, INVERSE)}
        missing = set(get_adt(adt).private_ops) - touched
        assert not missing, f"{adt}: {sorted(missing)} never ran"
    # the rational value comes back as the same exact fraction, not a float
    real = run_simulated(parse_workload(RESTORATION_WORKLOADS["real"][2]))
    assert real.final_states["r"] == Fraction(4, 7)
    assert isinstance(real.final_states["r"], Fraction)


# --- criterion 9: every trace replays through the monitor reconstructor ---

def test_criterion_09_all_corpus_traces_replay_clean():
    # replay_history re-decides every admission, deduction, wake, and undo
    # from the event stream alone and re-checks the monitor invariants
    # after every single event
    failures = []
    for mode in ("commit", "abort"):
        for i, (workload, result) in enumerate(corpus(mode)[0]):
            try:
                states = replay_history(workload, result.history)
            except AssertionError as exc:
                failures.append(f"{mode} run {i}: {exc}")
                continue
            if states != result.final_states:
                failures.append(f"{mode} run {i}: replayed states diverge")
    assert not failures, "\n".join(failures[:5])


# --- criterion 10: identical inputs give byte-identical trace files ---

def test_criterion_10_run_is_bytewise_deterministic(tmp_path):
    rng = random.Random(424242)
    for i in range(100):
        workload = generate_workload(random.Random(rng.randrange(2 ** 31)))
        source = tmp_path / f"w{i}.wl"
        source.write_text(render_workload(workload))
        traces = []
        for attempt in ("first", "second"):
            out = tmp_path / f"w{i}.{attempt}.trace"
            rc = main(["run", str(source), "--trace", str(out)])
            assert rc == 0
            traces.append(out.read_bytes())
        assert traces[0] == traces[1], f"workload {i} diverged between runs"
