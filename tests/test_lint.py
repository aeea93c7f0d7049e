"""Source-level rules that no behavioural test would notice breaking."""

import ast
from pathlib import Path

from adtxn.history import KINDS
from adtxn.values import UNIT, Value
from adtxn.workload import parse_workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "adtxn"


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so a check written as one would vanish there;
    # the package raises its own AssertionError subclasses instead
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) > 10      # the walk found the package
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_in_the_package_searches_permutations():
    # the serializability contract is the commit order; the exhaustive
    # search over every order is a test-only cross-check
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module == "itertools"
                    and any(a.name == "permutations" for a in node.names)
                    or isinstance(node, ast.Attribute) and node.attr == "permutations"
                    and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []


def _is_fraction_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction")


def test_every_true_division_has_a_fraction_operand():
    # an integral rational is an int, and int / int is a float, which would
    # make undo inexact; a direct Fraction(...) operand keeps the quotient exact
    found, divisions = [], 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                operands = (node.value,)
            else:
                continue
            divisions += 1
            if not any(map(_is_fraction_call, operands)):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
    assert divisions >= 2        # the real type's DIVIDE and its small-factor translation


def _is_self_check(stmt):
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr == "_check"
            and isinstance(stmt.value.func.value, ast.Name)
            and stmt.value.func.value.id == "self")


def test_every_entry_section_checks_right_before_it_returns():
    # the history replay trusts each monitor to have been checked since its
    # last change, so every way out of an entry section is `self._check(...)`
    # then `return`; a section also may not fall off its end unchecked
    tree = ast.parse((SRC / "monitor.py").read_text(encoding="utf-8"))
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "ManagedObject")
    sections = {node.name: node for node in cls.body if isinstance(node, ast.FunctionDef)
                and node.name in ("admit", "complete", "finish", "withdraw")}
    assert len(sections) == 4
    bad, returns = [], 0
    for name, func in sections.items():
        if not isinstance(func.body[-1], ast.Return):
            bad.append(f"{name} ends without a return")
        for node in ast.walk(func):
            for field in ("body", "orelse", "finalbody"):
                body = getattr(node, field, None)
                if not isinstance(body, list):
                    continue
                for i, stmt in enumerate(body):
                    if isinstance(stmt, ast.Return):
                        returns += 1
                        if i == 0 or not _is_self_check(body[i - 1]):
                            bad.append(f"{name}:{stmt.lineno} returns unchecked")
    assert bad == []
    assert returns >= 6          # admit returns three ways, each other section at least once


def _assigned_attributes(func):
    """The `self.<name>` targets `func` assigns, augments or deletes."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for sub in ast.walk(target):
                if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"):
                    names.add(sub.attr)
    return names


def test_the_monitor_counts_move_only_where_their_ops_change_stage():
    # keyed deduction trusts `executed` and the metric trusts `running`;
    # only the whole-object check compares them with the stages, so each
    # may move only in the sections that move an op into or out of its stage
    tree = ast.parse((SRC / "monitor.py").read_text(encoding="utf-8"))
    movers = {"executed": set(), "running": set()}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for name in _assigned_attributes(node) & movers.keys():
                movers[name].add(node.name)
    assert movers == {"executed": {"admit", "complete", "finish"},
                      "running": {"_enter_execution", "complete"}}


# the calls that change a dict in place
MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__"}


def _map_writes(func, attrs):
    """The names in `attrs` whose map `func` writes: an attribute of that
    name rebound, or an entry of it or of a group it holds set, deleted or
    changed by a mutating call. The map may be reached directly or through
    a local name bound to it, to an entry of it (a subscript, `get` or
    `pop`), to a tuple holding one, or to a loop over its `values()` or
    `items()`."""
    aliases = {}

    def roots(expr):
        if isinstance(expr, ast.Attribute) and expr.attr in attrs:
            return {expr.attr}
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id, set())
        if isinstance(expr, ast.Subscript):
            return roots(expr.value)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return set().union(*map(roots, expr.elts))
        if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in ("get", "pop", "setdefault", "values", "items")):
            return roots(expr.func.value)
        return set()

    def bind(target, value):
        if (isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                and len(target.elts) == len(value.elts)):
            for t, v in zip(target.elts, value.elts):
                bind(t, v)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                bind(elt, value)
        elif isinstance(target, ast.Name) and roots(value):
            aliases.setdefault(target.id, set()).update(roots(value))

    def target_writes(target):
        if isinstance(target, ast.Attribute):
            return {target.attr} & attrs
        if isinstance(target, ast.Subscript):
            return roots(target.value)
        if isinstance(target, (ast.Tuple, ast.List)):
            return set().union(*map(target_writes, target.elts))
        return set()

    before = None
    while before != aliases:     # until a name bound from another stops growing
        before = {name: set(found) for name, found in aliases.items()}
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bind(target, node.value)
            elif isinstance(node, (ast.For, ast.comprehension)):
                bind(node.target, node.iter)
    written = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS):
            written |= roots(node.func.value)
            continue
        else:
            continue
        for target in targets:
            written |= target_writes(target)
    return written


def test_the_live_ops_and_their_index_each_have_one_writer_per_change():
    # `live` changes only when an op is admitted or dropped, and the key
    # index only when an op is filed or unfiled; no module outside the
    # monitor writes either, and the index has one map, an op without a
    # key filed under None
    writers = {"live": set(), "by_key": set()}
    stale = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name in _map_writes(node, set(writers)):
                    writers[name].add(f"{path.name}:{node.name}")
            if (isinstance(node, ast.Attribute) and node.attr == "unkeyed"
                    or isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "unkeyed"):
                stale.append(f"{path.name}:{node.lineno}")
    assert writers == {"live": {"monitor.py:admit", "monitor.py:_drop"},
                       "by_key": {"monitor.py:_file", "monitor.py:_unfile"}}
    assert stale == []


def _module(name):
    return ast.parse((SRC / name).read_text(encoding="utf-8"))


def _function(body, name):
    return next(node for node in body
                if isinstance(node, ast.FunctionDef) and node.name == name)


# the events a monitor decision causes, and the `TransactionManager` steps
# that emit them, for the run and for the replay's own manager alike;
# `abort_plan` names its steps' kinds
CAUSED = {"DEDUCE", "BLOCK", "EXEC", "WAKE", "WITHDRAW", "INVERSE", "VICTIM"}
SHARED_STEPS = {"invoke", "_execute", "_release", "abort", "commit", "_resolve"}
RELEASES = ("complete", "finish", "withdraw")


def _manager_methods(tree):
    return next(node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "TransactionManager").body


def _hands_on(stmt):
    """Is `stmt` `if shed: self._release(<obj>, <inv>, woken, shed)`?"""
    if not (isinstance(stmt, ast.If) and not stmt.orelse and len(stmt.body) == 1
            and ast.unparse(stmt.test) == "shed" and isinstance(stmt.body[0], ast.Expr)):
        return False
    call = stmt.body[0].value
    return (isinstance(call, ast.Call) and ast.unparse(call.func) == "self._release"
            and not call.keywords and len(call.args) == 4
            and [ast.unparse(a) for a in call.args[2:]] == ["woken", "shed"])


def _reaches_release(parents, assign):
    """Does every path on from `assign` reach `_hands_on` before leaving the
    loop body or the function, with nothing between that jumps away or
    touches `woken` or `shed`?"""
    node = assign
    while True:
        parent = parents[node]
        body = next(b for b in (getattr(parent, f, None) for f in ("body", "orelse"))
                    if isinstance(b, list) and node in b)
        for stmt in body[body.index(node) + 1:]:
            if _hands_on(stmt):
                return True
            if any(isinstance(sub, (ast.Continue, ast.Break, ast.Return))
                   or isinstance(sub, ast.Name) and sub.id in ("woken", "shed")
                   for sub in ast.walk(stmt)):
                return False
        if isinstance(parent, (ast.FunctionDef, ast.For, ast.While)):
            return False
        node = parent


def test_the_release_sections_run_only_in_the_shared_steps_and_report_to_the_hook():
    # `TransactionManager._release` wakes what `complete`, `finish` and
    # `withdraw` admit, for the run and for the replay's own manager. It
    # learns it only from the (woken, shed) a section returns, so a release
    # section may be named only in a step of the manager, nowhere in
    # `oracles`, and each call's report is unpacked and handed on by
    # `if shed: self._release(obj, inv, woken, shed)` before anything else
    # can read, rebind or jump past it
    found = [f"oracles.py:{node.lineno} {node.attr}" for node in ast.walk(_module("oracles.py"))
             if isinstance(node, ast.Attribute) and node.attr in RELEASES]
    tree = _module("manager.py")
    methods = _manager_methods(tree)
    steps = {id(node) for step in SHARED_STEPS for node in ast.walk(_function(methods, step))}
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    called = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr in RELEASES):
            continue
        call, assign = parents[node], parents.get(parents[node])
        if not (id(node) in steps and isinstance(call, ast.Call) and call.func is node
                and isinstance(assign, ast.Assign) and len(assign.targets) == 1
                and isinstance(assign.targets[0], ast.Tuple)
                and [ast.unparse(t) for t in assign.targets[0].elts] == ["woken", "shed"]
                and _reaches_release(parents, assign)):
            found.append(f"manager.py:{node.lineno} {node.attr}")
        called.add(node.attr)
    assert found == []
    assert called == set(RELEASES)      # the steps run each of them


def test_the_release_hooks_take_the_report_and_nothing_more():
    # the one hook, `_release`, takes (obj, inv, woken, shed) and runs no
    # section itself, and the steps call it only with those four; no
    # function of `manager` takes a sink or a hook as a parameter
    tree = _module("manager.py")
    args = _function(_manager_methods(tree), "_release").args
    assert [a.arg for a in args.args] == ["self", "obj", "inv", "woken", "shed"]
    assert args.vararg is None and args.kwarg is None and not args.kwonlyargs
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and ast.unparse(node.func) == "self._release"]
    assert len(calls) == 3
    assert all(len(c.args) == 4 and not c.keywords
               and not any(isinstance(a, ast.Starred) for a in c.args) for c in calls)
    params = [f"manager.py:{func.name}({a.arg})" for func in ast.walk(tree)
              if isinstance(func, ast.FunctionDef)
              for a in func.args.args + func.args.kwonlyargs if a.arg in ("emit", "release")]
    assert params == []


def _enclosing_function(parents, node):
    while not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        node = parents[node]
    return node


def test_the_simulator_steps_plain_calls_and_perform_is_written_over_issue():
    # the simulator steps each txn through a cursor over the manager's
    # plain steps, so no generator is made on its path: `simulate` neither
    # yields, nor builds a generator, nor names `perform`. In `manager`,
    # `perform` is the one generator, kept for coroutine callers; it takes
    # its call through `issue`, and only `issue` translates, so a call has
    # one definition
    sim = _module("simulate.py")
    found = [f"simulate.py:{node.lineno} {type(node).__name__}" for node in ast.walk(sim)
             if isinstance(node, (ast.Yield, ast.YieldFrom, ast.GeneratorExp))]
    found += [f"simulate.py:{node.lineno} perform" for node in ast.walk(sim)
              if isinstance(node, ast.Attribute) and node.attr == "perform"
              or isinstance(node, ast.Name) and node.id == "perform"]
    tree = _module("manager.py")
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    generators = {_enclosing_function(parents, node).name for node in ast.walk(tree)
                  if isinstance(node, (ast.Yield, ast.YieldFrom))}
    found += [f"manager.py: {name} is a generator" for name in generators - {"perform"}]
    found += [f"manager.py:{node.lineno} translate_public in "
              f"{_enclosing_function(parents, node).name}" for node in ast.walk(tree)
              if isinstance(node, ast.Name) and node.id == "translate_public"
              and _enclosing_function(parents, node).name != "issue"]
    perform = _function(_manager_methods(tree), "perform")
    issues = [node for node in ast.walk(perform)
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "self.issue"]
    assert found == []
    assert generators == {"perform"} and len(issues) == 1


def test_only_the_manager_writes_the_op_a_record_waits_on():
    # a record's `blocked_on` and `woken` decide whether its txn is free to
    # step, and the manager's steps move them: no other module writes
    # either, by assignment, `del`, `setattr` or a constructor keyword
    fields = {"blocked_on", "woken"}
    found, writes = [], 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr in fields
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    or isinstance(node, ast.keyword) and node.arg in fields
                    or isinstance(node, ast.Call) and ast.unparse(node.func) == "setattr"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in fields):
                continue
            if path == SRC / "manager.py":
                writes += 1
            else:
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert found == []
    assert writes >= 4          # the BLOCK, the WAKE, the EXEC and the WITHDRAW


def test_only_commit_and_abort_end_a_transaction():
    # a transaction ends in one of two steps of the manager: `commit` emits
    # every COMMIT and `abort` every ABORT, a deadlock victim's included,
    # and no other function of the package writes a record's `status`, by
    # assignment, `del`, `setattr` or a constructor keyword
    ends = {"ABORT": set(), "COMMIT": set()}
    writers = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.args and _kind(node.args[0], set(ends)):
                where = ends[node.args[0].attr]
            elif (isinstance(node, ast.Attribute) and node.attr == "status"
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    or isinstance(node, ast.keyword) and node.arg == "status"
                    or isinstance(node, ast.Call) and ast.unparse(node.func) == "setattr"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "status"):
                where = writers
            else:
                continue
            where.add(f"{path.relative_to(SRC)}:{_enclosing_function(parents, node).name}")
    assert ends == {"ABORT": {"manager.py:abort"}, "COMMIT": {"manager.py:commit"}}
    assert writers == {"manager.py:abort", "manager.py:commit"}


# the manager's steps a quantum takes; `issue` invokes a non-NULL call
QUANTUM_STEPS = {"begin", "issue", "invoke", "resume", "commit", "abort"}


def test_oracles_reaches_the_steps_only_through_the_shared_quantum():
    # a txn's quantum has one definition, `simulate.quantum`, over its
    # declared steps: the run's scheduler and the history replay each call
    # it once, and the history supplies only which txn moves next. So
    # `oracles` names no step a quantum takes and keeps no handler per
    # event kind, and in `simulate` only `quantum` names a step
    oracles, sim = _module("oracles.py"), _module("simulate.py")
    found = [f"oracles.py:{node.lineno} {node.attr}" for node in ast.walk(oracles)
             if isinstance(node, ast.Attribute) and node.attr in QUANTUM_STEPS]
    found += [f"oracles.py:{node.lineno} {node.name}" for node in ast.walk(oracles)
              if isinstance(node, ast.FunctionDef) and node.name.startswith("_on_")]
    found += [f"oracles.py:{node.lineno} {node.id}" for node in ast.walk(oracles)
              if isinstance(node, ast.Name) and node.id == "_HANDLERS"]
    parents = {child: node for node in ast.walk(sim) for child in ast.iter_child_nodes(node)}
    named = {node.attr for node in ast.walk(_function(sim.body, "quantum"))
             if isinstance(node, ast.Attribute) and node.attr in QUANTUM_STEPS}
    found += [f"simulate.py:{node.lineno} {node.attr}" for node in ast.walk(sim)
              if isinstance(node, ast.Attribute) and node.attr in QUANTUM_STEPS
              and _enclosing_function(parents, node).name != "quantum"]
    calls = sorted(f"{path}:{func.name}" for path, tree in (("oracles", oracles), ("simulate", sim))
                   for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                   for node in ast.walk(func)
                   if isinstance(node, ast.Call) and ast.unparse(node.func) == "quantum")
    assert found == []
    assert named == QUANTUM_STEPS - {"invoke"}
    assert calls == ["oracles:_step", "simulate:run"]

def _calls_to(root, names):
    """The calls under `root` of a function or method named in `names`."""
    return [node for node in ast.walk(root) if isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1] in names]


def test_a_run_and_its_replay_share_one_setup_and_one_account():
    # `simulate.engine` builds the manager, each object at its initial
    # state and a cursor per declared txn; `simulate.account` says what a
    # finished run is: all drained, every declared txn ended, and the
    # states, statuses and metrics that follow. The scheduler and the
    # history replay each call both once, and `oracles` builds and counts
    # none of it itself. `engine` builds the one map of a run's txn names
    # to their cursors, so neither caller builds a map of its own, and the
    # run has no end rule but the account's: in `simulate` only `account`
    # reads a txn's status. `engine` builds the one list of picks too,
    # `quantum` alone appends to it and `account` closes it, so neither
    # driver stores a list of picks but `engine`'s. A schedule is read once,
    # into a pick policy: in `simulate` only `pick_policy` reads a
    # schedule's fields or keeps an rng, and the run loop counts no steps
    own = {"TransactionManager", "_Activity", "add_object", "compute_metrics"}
    oracles = _module("oracles.py")
    found = [f"oracles.py:{node.lineno} {ast.unparse(node.func)}"
             for node in _calls_to(oracles, own)]
    found += [f"oracles.py:{node.lineno} imports {alias.name}" for node in ast.walk(oracles)
              if isinstance(node, ast.ImportFrom) for alias in node.names if alias.name in own]
    calls, inside, appends = 0, [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += len(_calls_to(tree, ("engine", "account")))
        inside += [f"{path.name}:{cls.name}.{ast.unparse(node.func)}" for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef)
                   for node in _calls_to(cls, ("engine", "account"))]
        up = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        appends += [f"{path.name}:{_enclosing_function(up, node).name}"
                    for node in _calls_to(tree, ("append", "extend", "insert"))
                    if ast.unparse(node.func.value).split(".")[-1] == "picks"]
    sim = _module("simulate.py")
    for path, tree, name in (("oracles.py", oracles, "_Replayer"),
                             ("simulate.py", sim, "_Simulation")):
        cls = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        found += [f"{path}:{node.lineno} {name} builds a map" for node in ast.walk(cls)
                  if isinstance(node, (ast.Dict, ast.DictComp))
                  or isinstance(node, ast.Call) and ast.unparse(node.func) == "dict"]
        stores = [node for node in ast.walk(cls) if isinstance(node, ast.Assign)
                  and any(isinstance(target, (ast.Name, ast.Attribute))
                          and ast.unparse(target).split(".")[-1] == "picks"
                          for top in node.targets for target in ast.walk(top))]
        found += [f"{path}:{node.lineno} {name} stores picks" for node in stores
                  if not (isinstance(node.value, ast.Call)
                          and ast.unparse(node.value.func) == "engine")]
        found += [f"{path}: {name} stores no picks"] * (len(stores) != 1)
    run = _function(cls.body, "run")        # `_Simulation.run`
    found += [f"simulate.py:{node.lineno} _Simulation.run counts" for node in ast.walk(run)
              if isinstance(node, ast.AugAssign)
              or node in _calls_to(run, ("count", "enumerate", "range"))]
    parents = {child: node for node in ast.walk(sim) for child in ast.iter_child_nodes(node)}
    found += [f"simulate.py:{node.lineno} reads .status" for node in ast.walk(sim)
              if isinstance(node, ast.Attribute) and node.attr == "status"
              and _enclosing_function(parents, node).name != "account"]
    policy = {id(node) for node in ast.walk(_function(sim.body, "pick_policy"))}
    found += [f"simulate.py:{node.lineno} reads .{node.attr}" for node in ast.walk(sim)
              if isinstance(node, ast.Attribute)
              and node.attr in ("seed", "max_steps", "tokens", "rng") and id(node) not in policy]
    assert found == []
    assert appends == ["simulate.py:quantum"]
    assert sorted(inside) == ["oracles.py:_Replayer.account", "oracles.py:_Replayer.engine",
                              "simulate.py:_Simulation.account", "simulate.py:_Simulation.engine"]
    assert calls == len(inside)


def _kind(node, kinds):
    return (isinstance(node, ast.Attribute) and node.attr in kinds
            and isinstance(node.value, ast.Name) and node.value.id == "hist")


def test_caused_events_are_built_only_in_the_shared_steps():
    # the run and the replay emit each caused event through one step of
    # `TransactionManager`, so both build it the same way: no call with a
    # caused kind first, and no tuple starting with one, anywhere else in
    # `manager`. `oracles` builds no event at all, of any kind, and imports
    # no step or record of the engine: its own manager emits every event
    # the history owes, and the replay renders one only to name a failure
    found, inside = [], set()
    tree = _module("manager.py")
    allowed = {id(node) for step in SHARED_STEPS
               for node in ast.walk(_function(_manager_methods(tree), step))}
    allowed |= {id(node) for node in ast.walk(_function(tree.body, "abort_plan"))}
    for name, tree, forbidden in (("manager.py", tree, CAUSED),
                                  ("oracles.py", _module("oracles.py"), KINDS)):
        for node in ast.walk(tree):
            first = (node.args[0] if isinstance(node, ast.Call) and node.args
                     else node.elts[0] if isinstance(node, ast.Tuple) and node.elts
                     else None)
            if first is None or not _kind(first, forbidden):
                continue
            if id(node) in allowed:
                inside.add(first.attr)
            else:
                found.append(f"{name}:{node.lineno} {first.attr}")
    oracles = _module("oracles.py")
    renders = {id(node) for node in ast.walk(_function(oracles.body, "_owed_line"))}
    found += [f"oracles.py:{node.lineno} {ast.unparse(node.func)}" for node in ast.walk(oracles)
              if isinstance(node, ast.Call) and (
                  ast.unparse(node.func).split(".")[-1] == "emit"
                  or ast.unparse(node.func) in ("Event", "hist.Event") and id(node) not in renders)]
    engine = SHARED_STEPS | {"admit", "execute", "wake", "erase", "resolve", "TransactionRecord",
                             "ManagedObject", "AdmitOutcome", "PrivateInvocation"}
    found += [f"oracles.py:{node.lineno} imports {alias.name}" for node in ast.walk(oracles)
              if isinstance(node, ast.ImportFrom)
              for alias in node.names if alias.name in engine]
    assert found == []
    assert inside == CAUSED             # the steps build every one


def test_oracles_reads_an_events_invocation_id_only_to_render_a_failure():
    # the replay's engine numbers the invocations, and every event's id is
    # compared as one field of the whole event, so no check reads the id the
    # v1 trace line leaves out; only the failure messages may show it
    tree = _module("oracles.py")
    allowed = {id(node) for node in ast.walk(_function(tree.body, "_owed_line"))}
    replayer = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "_Replayer")
    allowed |= {id(node) for node in ast.walk(_function(replayer.body, "_fail"))}
    found = [f"oracles.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "inv_id"
             and id(node) not in allowed]
    assert found == []


def test_function_bodies_read_enum_members_through_module_globals():
    # on Python 3.11 `Lifecycle.BLOCKED` goes through the enum metaclass's
    # __getattr__, ten times the cost of a global, so the engine and the
    # oracles bind each member they read once at module level (see the
    # `core` docstring); class-level defaults and module-level code may
    # still read the class
    enums = {"Lifecycle", "Origin", "AdmitOutcome", "TxnStatus", "Tag"}
    found, functions = [], 0
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            functions += 1
            found += [f"{path.relative_to(SRC)}:{node.lineno} {node.value.id}.{node.attr}"
                      for node in ast.walk(func)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in enums]
    assert functions > 100      # the walk found the package's functions
    assert found == []


def _names_value(node):
    return (isinstance(node, ast.Name) and node.id == "Value"
            or isinstance(node, ast.Attribute) and node.attr == "Value")


def test_values_are_identity_compared_and_built_only_through_their_constructor():
    # each (tag, payload) has one live Value (see the `values` docstring), so
    # == and hash are object identity; there is no __init__ to run again on a
    # table hit, and nothing outside values.py makes a Value through
    # object.__new__ or Value.__new__, which would skip the table
    assert Value.__eq__ is object.__eq__ and Value.__hash__ is object.__hash__
    assert "__init__" not in vars(Value) and Value.__init__ is object.__init__
    assert Value.__bases__ == (object,) and not hasattr(UNIT, "__dict__")
    paths = [path for root in (SRC, ROOT / "tests", ROOT / "bench", ROOT / "demos")
             for path in sorted(root.rglob("*.py")) if path != SRC / "values.py"]
    found, new_calls = [], 0
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        # `_new = object.__new__` and the like
        aliases = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   and isinstance(node.value, ast.Attribute) and node.value.attr == "__new__"
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and _names_value(node.value)):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
            elif isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
                    or isinstance(node.func, ast.Name) and node.func.id in aliases):
                new_calls += 1
                if any(map(_names_value, node.args)):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []
    assert new_calls >= 5       # the per-op records' tuple.__new__ and Metrics' object.__new__


def test_the_workload_declarations_have_no_instance_dict():
    # a corpus holds thousands of them; each distinct step is one object
    # (see the `workload` docstring)
    random_w = parse_workload("object s stack\ntxn T\n op s POP\nend commit\n"
                              "schedule seed 1 steps 9\n")
    explicit_w = parse_workload("object s stack\ntxn T\n op s POP\nend commit\n"
                                "schedule steps T\n")
    decls = (random_w.objects[0], random_w.txns[0].steps[0], random_w.txns[0],
             random_w.schedule, explicit_w.schedule, random_w)
    assert sorted(type(d).__name__ for d in decls) == [
        "ExplicitSchedule", "ObjectDecl", "OpStep", "RandomSchedule", "TxnDecl", "Workload"]
    assert [d for d in decls if hasattr(d, "__dict__")] == []
