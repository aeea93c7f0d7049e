"""Spans and counters recorded around adtxn's functions, from outside.

Nothing under src/ knows about tracing. `install` replaces module-level
functions and class methods of the adtxn package with thin wrappers, and
`uninstall` puts the originals back. Every binding of a wrapped function is
replaced, including the ones other modules took with `from .x import y`, and
`install` refuses to run if a binding was missed.

Three kinds of wrapper, cheapest last:

* span: a timed interval with a parent. Its self time is its duration minus
  the time of its child spans and leaves. The first `SPAN_CAP` spans of a
  run are kept in memory as (id, parent, instance, stage, name, start, end)
  and written out by the caller when the run ends.
* leaf: a timed counter for very hot calls that never contain a span (the
  table queries, `spec.apply`, `History.emit`). It adds its time to the
  enclosing span's child time and records calls and time, but no span.
* count: a bare call counter (`find_invocation`, the scheduler's `_pick`).

Every record is keyed by the stage it happened in: the root span opened
by `Tracer.stage_span` (`setup`, `sim`, `check` or `validate`). The engine
and the replay oracle share `monitor`, `tables`, `core` and `adts`, and the
stage tells them apart.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from contextlib import contextmanager

_now = time.perf_counter_ns

SPAN_CAP = 50_000


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stage = "-"
        self.inst = -1
        self._stack: list[list] = []   # open spans: [name, start, child_ns, id]
        self._next_id = 0
        self.reset()

    def reset(self):
        """Start new aggregates; kept spans are not touched."""
        self.stats: dict[tuple[str, str], list[int]] = {}
        self.leaves: dict[tuple[str, str], list[int]] = {}
        self.counts: dict[tuple[str, str], int] = {}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def stage_span(self, stage: str, inst: int = -1):
        assert not self._stack, "stages do not nest"
        self.stage, self.inst = stage, inst
        self.enter(stage)
        try:
            yield
        finally:
            self.exit()
            self.stage, self.inst = "-", -1

    def enter(self, name: str):
        self._stack.append([name, _now(), 0, self._next_id])
        self._next_id += 1

    def exit(self):
        end = _now()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        key = (self.stage, name)
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0, 0]
        st[0] += 1
        st[1] += dur - child
        st[2] += dur
        parent = None
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent, self.inst, self.stage, name,
                               start, end))

    def leaf(self, name: str, dur: int):
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.stage, name)
        lf = self.leaves.get(key)
        if lf is None:
            lf = self.leaves[key] = [0, 0]
        lf[0] += 1
        lf[1] += dur

    def count(self, name: str, n: int = 1):
        key = (self.stage, name)
        self.counts[key] = self.counts.get(key, 0) + n

    # -- reading -------------------------------------------------------------

    def calls(self, stage: str, name: str) -> int:
        return self.stats.get((stage, name), (0, 0, 0))[0]

    def self_ns(self, stage: str, name: str) -> int:
        return self.stats.get((stage, name), (0, 0, 0))[1]

    def total_ns(self, stage: str, name: str) -> int:
        return self.stats.get((stage, name), (0, 0, 0))[2]

    def leaf_calls(self, stage: str, name: str) -> int:
        return self.leaves.get((stage, name), (0, 0))[0]

    def leaf_ns(self, stage: str, name: str) -> int:
        return self.leaves.get((stage, name), (0, 0))[1]

    def counted(self, stage: str, name: str) -> int:
        return self.counts.get((stage, name), 0)


# -- wrappers -----------------------------------------------------------------


def _span(tracer, name, fn, observe=None):
    enter, exit_ = tracer.enter, tracer.exit
    if observe is None:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    else:
        def wrapper(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            observe(tracer, result)
            return result
    return wrapper


def _traced_generator(tracer, name, gen):
    """Drive `gen`, timing each resumption as one segment of span `name`.

    A suspended generator holds no open span, so segments nest correctly
    inside whatever resumed them. Values sent and exceptions thrown in are
    forwarded, which keeps `yield from` delegation intact.
    """
    sent, thrown = None, None
    while True:
        tracer.enter(name)
        try:
            out = gen.send(sent) if thrown is None else gen.throw(thrown)
        except StopIteration as stop:
            return stop.value
        finally:
            tracer.exit()
        sent, thrown = None, None
        try:
            sent = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:     # forwarded into gen, which decides
            thrown = exc


def _gen_span(tracer, name, fn, observe=None):
    def wrapper(*args, **kwargs):
        return _traced_generator(tracer, name, fn(*args, **kwargs))
    return wrapper


def _leaf(tracer, name, fn, observe=None):
    leaf = tracer.leaf
    if observe is None:
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                leaf(name, _now() - start)
    else:
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                leaf(name, _now() - start)
            observe(tracer, result)
            return result
    return wrapper


def _counter(tracer, name, fn, observe=None):
    def wrapper(*args, **kwargs):
        counts, key = tracer.counts, (tracer.stage, name)
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


_KINDS = {"span": _span, "gen": _gen_span, "leaf": _leaf, "count": _counter}


# -- observers: counts read off return values ---------------------------------


def _admit_outcome(tracer, outcome):
    tracer.count("monitor." + outcome.value)


def _edges_returned(tracer, adj):
    tracer.count("manager.waits_for_edges", sum(len(v) for v in adj.values()))


def _cycle_found(prefix):
    def observe(tracer, cycle):
        if cycle is not None:
            tracer.count(prefix + ".cycles")
    return observe


def _null_translation(tracer, tr):
    if tr.null:
        tracer.count("core.null")


def _deduce_hit(tracer, outs):
    if outs is not None:
        tracer.count("tables.deduce_hits")


# (owner, attribute, kind, name, observer). An owner "module:Class" is
# patched on the class. A bare module owner names where the function is
# defined, and every module of the package that binds it under that
# attribute is patched; `_NAME_BY_MODULE` names bindings apart.
_TARGETS = (
    ("adtxn.simulate:_Simulation", "run", "span", "simulate.run", None),
    ("adtxn.simulate:_Simulation", "_pick", "count", "simulate.steps", None),
    ("adtxn.manager:TransactionManager", "perform", "gen", "manager.perform", None),
    ("adtxn.manager:TransactionManager", "commit", "span", "manager.commit", None),
    ("adtxn.manager:TransactionManager", "abort", "span", "manager.abort", None),
    ("adtxn.manager:TransactionManager", "waits_for_edges", "span",
     "manager.waits_for", _edges_returned),
    ("adtxn.monitor:ManagedObject", "admit", "span", "monitor.admit", _admit_outcome),
    ("adtxn.monitor:ManagedObject", "complete", "span", "monitor.complete", None),
    ("adtxn.monitor:ManagedObject", "finish", "span", "monitor.finish", None),
    ("adtxn.monitor:ManagedObject", "withdraw", "span", "monitor.withdraw", None),
    ("adtxn.monitor:ManagedObject", "_check", "span", "monitor.check", None),
    ("adtxn.monitor:ManagedObject", "_admission_safety", "span",
     "monitor.admission_safety", None),
    ("adtxn.monitor:ManagedObject", "find_invocation", "count",
     "monitor.find_invocation", None),
    ("adtxn.history:History", "emit", "leaf", "history.emit", None),
    ("adtxn.oracles:_Replayer", "replay", "span", "oracles.replay", None),
    ("adtxn.oracles:_Replayer", "_waits_for_edges", "span",
     "oracles.replay_waits_for", None),
    ("adtxn.manager", "find_cycle", "span", "find_cycle", None),
    ("adtxn.tables", "commute_with_in", "leaf", "tables.in", None),
    ("adtxn.tables", "commute_with_in_out", "leaf", "tables.out", None),
    ("adtxn.tables", "try_deduce", "leaf", "tables.deduce", _deduce_hit),
    ("adtxn.core", "translate_public", "span", "core.translate", _null_translation),
    ("adtxn.core", "determine_inverse", "span", "core.inverse", None),
    ("adtxn.oracles", "replay_serial", "span", "oracles.serial", None),
    ("adtxn.fuzz", "generate_workload", "span", "fuzz.generate", None),
)

# The engine and the replay oracle each bind find_cycle; keep them apart.
_NAME_BY_MODULE = {
    ("find_cycle", "adtxn.manager"): ("manager.find_cycle", _cycle_found("manager")),
    ("find_cycle", "adtxn.oracles"): ("oracles.find_cycle", _cycle_found("oracles")),
}

# Inside tables, commute_with_in_out and try_deduce call commute_with_in
# through their own module: that call is part of the enclosing leaf, so the
# tables module keeps its original bindings.
_UNPATCHED_BINDINGS = {("adtxn.tables", "commute_with_in"),
                       ("adtxn.tables", "commute_with_in_out"),
                       ("adtxn.tables", "try_deduce")}


def _adtxn_modules():
    return [(name, mod) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "adtxn" or name.startswith("adtxn."))]


def _resolve(owner):
    modname, _, clsname = owner.partition(":")
    mod = sys.modules[modname]
    return getattr(mod, clsname) if clsname else mod


class Installation:
    """The patches `install` made, so `uninstall` can undo exactly them."""

    def __init__(self):
        self.saved: list[tuple[object, str, object]] = []

    def patch(self, target, attr, value):
        self.saved.append((target, attr, getattr(target, attr)))
        _assign(target, attr, value)

    def uninstall(self):
        for target, attr, original in reversed(self.saved):
            _assign(target, attr, original)
        self.saved.clear()


def _assign(target, attr, value):
    if dataclasses.is_dataclass(target) and not isinstance(target, type):
        object.__setattr__(target, attr, value)    # a frozen AdtSpec
    else:
        setattr(target, attr, value)


def install(tracer: Tracer) -> Installation:
    import adtxn  # noqa: F401 - loads every module the scan below walks
    from adtxn.adts import get_adt, builtin_names

    inst = Installation()
    modules = _adtxn_modules()
    module_functions = {}
    for owner, attr, kind, name, observe in _TARGETS:
        target = _resolve(owner)
        original = getattr(target, attr)
        if ":" in owner:
            inst.patch(target, attr, _KINDS[kind](tracer, name, original, observe))
            continue
        module_functions[id(original)] = attr
        for modname, mod in modules:
            if getattr(mod, attr, None) is not original:
                continue
            if (modname, attr) in _UNPATCHED_BINDINGS:
                continue
            bname, bobserve = _NAME_BY_MODULE.get((attr, modname), (name, observe))
            inst.patch(mod, attr, _KINDS[kind](tracer, bname, original, bobserve))
    for adt in builtin_names():
        spec = get_adt(adt)
        inst.patch(spec, "apply", _leaf(tracer, "adts.apply", spec.apply))
    _refuse_missed_bindings(module_functions, modules)
    return inst


def _refuse_missed_bindings(functions, modules):
    """A function bound somewhere under another name would escape the
    trace silently; fail instead."""
    for modname, mod in modules:
        for attr, value in vars(mod).items():
            if id(value) in functions and (modname, attr) not in _UNPATCHED_BINDINGS:
                raise RuntimeError(f"{modname}.{attr} still binds an untraced "
                                   f"{functions[id(value)]}")
