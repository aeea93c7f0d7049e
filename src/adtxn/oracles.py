"""Brute-force correctness oracles.

These deliberately share no cleverness with the machinery they judge:

* the serializability check replays the committed transactions, those
  the COMMIT events name (each a declared txn, once), one at a time in the
  order of those events, through the pure reference semantics, and demands
  that replay reproduce both the final states and every answer each
  committed transaction saw. Those answers are read from
  the history, the events the history replay has judged, and nowhere else:
  a NULLOP's public outs, and each DEDUCE's or EXEC's private outs. The
  private outs decide the public ones, through the step's translation
  rule, and they are what `verify-tables` proves the tables on, hidden
  before-images included; so comparing them is the stricter test. Strict
  two-phase locking promises that the commit order is a serial witness, so
  that order is the contract: one replay settles a run at any size, and a
  run it does not explain fails, naming the first divergence. No other
  order is searched: a witness found elsewhere would hide a broken
  promise, and searching for one is NP-complete in general;
* abort transparency is that same check: only the txns the COMMIT events
  name take part in it, so on a run that aborted transactions it demands
  that the survivors tell a serial story in which the aborted ones never
  existed. `check_abort_transparency` is another name for it;
* the history replay rebuilds every monitor from the event stream alone,
  re-deciding each admission, deduction, wake, inverse and victim with the
  same pure table functions and the engine's own deadlock resolution, and
  checks the run's decisions against the trace at every event.

The replay drives its own `TransactionManager`, with each declared object
on a fresh strict monitor and the map from each declared txn's name to
its cursor, built by the simulator's own `engine` with a sink in place of
a `History`; a workload that declares one name twice fails there. The sink
appends each event that engine emits to one queue, `due`, as an Event's
fields but its index, and the history owes it. The history supplies the
picks, the declared steps supply the calls. The replay takes each of a
txn's quanta on its cursor through the simulator's own `quantum`: its
BEGIN and first step, its next step, the EXEC of an op a wake admitted,
or the commit or abort its declaration ends with. An event that
comes while nothing is owed opens a quantum: it names the txn the
schedule picked, and the replay runs that txn's quantum, which emits the
quantum's own event and then every event it causes. The monitors
determine those completely: the DEDUCE, BLOCK or EXEC that answers an
INVOKE, each WAKE, the VICTIMs that resolve a BLOCK's deadlocks and each
victim's ABORT, the EXEC of the blocked op when that resolution admitted
it, and each WITHDRAW and INVERSE of an abort, which runs its whole
`abort_plan` at once. Each event must equal the head of `due` in every
field but its index. So no event can go missing, come twice, come out of
order or differ in any field; each txn's NULLOP and INVOKE events follow
its declared steps in order, object, op and ins; its COMMIT or ABORT
comes after its last step, as declared, or as the owed ABORT of its
VICTIM; and no quantum opens while an event is owed: a missing, extra or
wrong VICTIM fails at the event itself. The invocation ids are the
engine's counter's, compared as one field of each event, so an id names
one invocation for the whole history, and the monitors' edges, which run
from a smaller id to a larger one, follow arrival order. The replay reads
an event's id only to render a failure.

An event that opens a quantum of a txn the workload does not declare
fails the replay, and so does one whose quantum is refused: a blocked
txn takes none, which `quantum` checks, because `abort` would take it,
and the manager's steps refuse a txn that is not ACTIVE. An event that
names an object or an op other than the declared step's differs from the
event owed, as does one naming a txn that has not begun, whose quantum
owes its BEGIN, or a woken txn, whose quantum owes its woken op's EXEC.
The calls the replay's engine makes are the declared steps, which the
workload's parser typed, so none is malformed; a `FrameworkError` would
still fail the replay, rather than escape `check_run`.

At the end of the history nothing may still be owed. Then the replay
closes the history through the simulator's own `account`, which says what
a finished run is: every object drained, every declared txn committed
or aborted, and one INVERSE per undo entry of an aborted txn, so a
history that never begins a declared txn fails there, with no run to
compare against. Its result is the replay's account of the
run: final states, txn statuses, and metrics, the event counts and each
object's `max_in_execution` as the replay's monitors counted it.
`validate_run` compares that account with the run's as one value, and
only when they differ names the first fact that does.

The replay keeps no waits-for graph of its own. When an INVOKE's admission
blocks, its manager runs `_resolve` at once, as the engine does, on the
graph `waits_for_edges` walks back from the blocked txn over the rebuilt
monitors; it reads nothing of the run's. The search is rooted, which is
exact only while the graph is acyclic before each BLOCK. That holds by
induction on the replay's own monitors: only `admit` adds edges, and every
resolution ends with no cycle through the blocked txn, the only place a
new cycle can run. The release sections `complete`, `finish` and
`withdraw` run only in the manager's steps, which hand each section's
report, (woken, shed), to `_release` whenever the section shed an edge.
Each woken txn owes its WAKE, and its next quantum is then its woken
op's EXEC, which the manager's record holds until then; between
events the only op in execution is one a wake admitted. The strict
monitors check that the report names exactly the waiters whose edge to
the op is gone.

The replay's monitors are strict, so each of their entry sections (`admit`,
`complete`, `finish`, `withdraw`) ends by checking the ops and edges it
changed; the `monitor` docstring shows why that keeps the monitor's whole
structural invariant. Nothing else changes a monitor's bookkeeping:
`execute` and `apply_inverse` touch only the state and the execution
counter, and the same event always follows them with `complete` or
`finish`. So after every event each monitor has been checked since its last
change, which is every state the run passes through; checking every monitor
again after every event would only re-read bookkeeping that has not moved.

The history replay shares the engine itself, and nothing else: the
`TransactionManager` class, with `TransactionRecord`, `abort_plan`, the
walk `waits_for_edges` and the search `find_cycle`, and the simulator's
`engine`, `quantum` over its cursor, and `account`. So the run and the
replay set up, take each quantum and each step, build each event, judge
whether a txn is free to take it and say what a finished run is through
one definition, and keep no state about a txn's ops but the cursor they
share. The steps fix orders, event shapes and the victim
rule, not outcomes: the replay's manager starts empty and sees only the
history, so every admission, wake, inverse result and waits-for edge is
re-decided by fresh `ManagedObject`s, and every event the replay owes is
built from those, not copied from the run's. A fault in the manager moves the run and the
replay alike, so the history replay cannot see it; only the serial-replay
checks, which share nothing with the engine, the golden traces and the
bench digests can, and for `_resolve` the test that checks each of its
searches against the whole graph derived afresh. An inverse out of order,
or an op released before its inverse lands, leaves states or answers no
serial order explains: an `abort_plan` that undoes oldest first fails 30
of the 406 mixed runs of tests/test_oracles.py, all at serializability.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .adts import get_adt
from .core import FrameworkError, PublicCall, translate_public
from . import history as hist
from .history import History
from .manager import ManagerInvariantError
# kept for bench/tracer.py, which times this binding apart from manager's
# (ROADMAP item 8); `_resolve` searches through manager's
from .manager import find_cycle  # noqa: F401
from .simulate import RunResult, account, engine, quantum
from .values import Value, render_params
from .workload import Workload, initial_state

_new_tuple = tuple.__new__


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str
    witness: tuple[str, ...] | None = None


class Observation(NamedTuple):
    """One step of a transaction and the answer it got, as the history
    records it: the public call and outs of a NULL step, the private call
    and outs of any other."""
    obj: str
    op: str
    ins: tuple[Value, ...]
    outs: tuple[Value, ...]


# the events that record a step's answer
_ANSWERS = frozenset({hist.NULLOP, hist.DEDUCE, hist.EXEC})


def replay_serial(workload: Workload, order) -> tuple[dict, dict]:
    """Run whole transactions back to back through the reference semantics.

    Returns ({object: final state}, {txn: [Observation]}). No monitor, no
    blocking, no undo: this is the meaning concurrent runs are measured
    against.
    """
    specs = {o.name: get_adt(o.adt) for o in workload.objects}
    states = {o.name: initial_state(o) for o in workload.objects}
    observations: dict[str, list] = {}
    for decl in order:
        seen = observations.get(decl.name)
        if seen is None:
            seen = observations[decl.name] = []
        for step in decl.steps:
            spec = specs[step.obj]
            tr = translate_public(spec, _new_tuple(PublicCall, (step.op, step.ins)))
            if tr.call is None:
                seen.append(_new_tuple(Observation, (step.obj, step.op, step.ins,
                                                     tr.public_outs)))
                continue
            op, ins = tr.call
            states[step.obj], outs = spec.apply(states[step.obj], op, ins)
            seen.append(_new_tuple(Observation, (step.obj, op, ins, outs)))
    return states, observations


def _observed(history: History) -> dict[str, list]:
    """{txn: [Observation]}: every answer each txn got, in history order."""
    seen: dict[str, list] = {}
    for e in history:
        if e.kind in _ANSWERS:
            answer = _new_tuple(Observation, (e.obj, e.op, e.ins, e.outs))
            answers = seen.get(e.txn)
            if answers is None:
                seen[e.txn] = [answer]
            else:
                answers.append(answer)
    return seen


def _rendered_step(observations, step) -> str:
    """One observation as a failure detail shows it."""
    if step >= len(observations):
        return "no step"
    obj, op, ins, outs = observations[step]
    return f"{obj} {op} {render_params(ins)} -> {render_params(outs)}"


def check_serializable(result: RunResult) -> Verdict:
    """Does the order of the COMMIT events explain the run's final states
    and every committed transaction's answers?

    It passes, with that order as its witness, exactly when the COMMIT
    events name declared txns, each once, and one serial replay in their
    order reproduces every answer a committed txn got, as its NULLOP,
    DEDUCE and EXEC events record it, and every final state.
    Otherwise the detail names the first divergence: the txn and step whose
    answer differs from the serial replay's, or else the object whose final
    state does."""
    declared = {t.name: t for t in result.workload.txns}
    order = tuple(e.txn for e in result.history if e.kind == hist.COMMIT)
    if len(set(order)) != len(order) or not declared.keys() >= set(order):
        return Verdict(False, f"COMMIT events {list(order)} do not each name "
                              f"a declared txn once")
    states, observations = replay_serial(
        result.workload, [declared[name] for name in order])
    answers = _observed(result.history)
    failure = f"commit order {list(order)} is no witness"
    for name in order:
        seen, serial = answers.get(name, []), observations[name]
        if seen != serial:
            step = next((i for i, (a, b) in enumerate(zip(seen, serial))
                         if a != b), min(len(seen), len(serial)))
            return Verdict(False, f"{failure}: {name} step {step} saw "
                                  f"{_rendered_step(seen, step)}, the serial "
                                  f"replay gives {_rendered_step(serial, step)}")
    if states != result.final_states:
        obj = next(o for o in {**states, **result.final_states}
                   if states.get(o) != result.final_states.get(o))
        return Verdict(False, f"{failure}: the run's final state of {obj} "
                              f"is not the serial replay's")
    return Verdict(True, "serializable in commit order", order)


# kept for bench/workloads.py, which calls it by this name (ROADMAP item 8)
check_abort_transparency = check_serializable


# -- history replay -----------------------------------------------------------


class HistoryReplayError(AssertionError):
    pass


class _Due(deque):
    """The replay's event sink: the events its engine has emitted that the
    history still owes, each an Event's fields but its index."""

    def emit(self, *event):
        self.append(event)


class _Replayer:
    """Second, independent run of every monitor decision in a history."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.due = _Due()
        self.manager, self.cursors = engine(workload, self.due)

    def _fail(self, event, msg):
        # callers test their condition first, so a message is only
        # formatted for a check that failed
        where = f"event {event.index} ({event.render()})" if event else "end of history"
        raise HistoryReplayError(f"{where}: {msg}")

    def replay(self, history: History) -> RunResult:
        """The run this history records, by the simulator's own account,
        or a `HistoryReplayError` naming the first event, or the end of
        the history, where it strays."""
        # no invariant sweep here: every entry section of the strict
        # monitors ends with its own check (see the module docstring)
        for event in history:
            self._step(event)
        if self.due:
            self._fail(None, f"owed {_owed_line(self.due[0])}")
        try:
            return account(self.workload, history, self.manager, self.cursors)
        except AssertionError as exc:
            self._fail(None, str(exc))

    def _step(self, e):
        """When nothing is owed, `e` opens a quantum: run one quantum of
        the txn it names, as the simulator would have. Then `e` must be
        the head of `due` in every field but its index. A quantum the
        manager refuses fails at `e`."""
        due = self.due
        if not due:
            cursor = self.cursors.get(e.txn)
            if cursor is None:
                self._fail(e, f"{e.txn} is not a declared txn")
            try:
                quantum(self.manager, cursor)
            except ManagerInvariantError as exc:
                self._fail(e, str(exc))
        owed = due.popleft()
        if e[1:] != owed:
            self._fail(e, f"owed {_owed_line(owed)}")

    # kept because bench/tracer.py patches it by name (ROADMAP item 8); since
    # the replay's manager resolves deadlocks, nothing calls it
    def _waits_for_edges(self, root):
        return self.manager.waits_for_edges(root)


def _owed_line(owed) -> str:
    """A caused event the replay owes, as a failure detail shows it: its
    trace line less the index, then its invocation id."""
    *fields, inv = owed
    line = hist.Event(0, *fields).render().partition(" ")[2]
    return line if inv is None else f"{line}, invocation {inv}"


def validate_run(result: RunResult) -> Verdict:
    """Everything short of serializability: the history replays, and the
    replay's account of it, its final states, txn statuses and metrics,
    is the run's. The metrics include each object's most ops in execution
    at once, which the replay's own monitors count."""
    replayed = _Replayer(result.workload).replay(result.history)
    if (result.final_states, result.statuses, result.metrics) == (
            replayed.final_states, replayed.statuses, replayed.metrics):
        return Verdict(True, "history replays cleanly")
    said, seen = _facts(result), _facts(replayed)
    fact = next(f for f in {**said, **seen} if said.get(f) != seen.get(f))
    return Verdict(False, f"the run says {fact} is {said.get(fact, 'absent')}, "
                          f"its replay {seen.get(fact, 'absent')}")


def _facts(result: RunResult) -> dict[str, object]:
    """A run's account fact by fact, under the names a failed
    `validate_run` shows. A status is named by its txn alone, which holds
    no space, and every other name holds one, so no two collide."""
    metrics = result.metrics
    facts = {f"the final state of {name}": state
             for name, state in result.final_states.items()}
    facts.update((name, status.value) for name, status in result.statuses.items())
    facts.update((f"the count of {name}", getattr(metrics, name))
                 for name, _ in hist.METRIC_COUNTS)
    facts.update((f"max_in_execution on {name}", high)
                 for name, high in metrics.max_in_execution.items())
    return facts


def check_run(result: RunResult) -> tuple[str | None, Verdict]:
    """(first failing stage, its verdict), or (None, the serializability
    verdict) if all pass. Stages: replay, where a raise of a failed check or
    of a malformed call is a failure, then serializability, which is the
    abort transparency check too, so it runs once whether or not anything
    aborted."""
    try:
        verdict = validate_run(result)
    except (AssertionError, FrameworkError) as exc:
        return "replay", Verdict(False, str(exc))
    if not verdict.ok:
        return "replay", verdict
    verdict = check_serializable(result)
    if not verdict.ok:
        return "serializability", verdict
    return None, verdict
