"""Brute-force validation of a data type's declarative surface.

Commutativity tables, inverse rules and translation rules are data, and
data can lie. These sweeps enumerate every bounded state against every
probe invocation (every ordered pair of them, for the tables) and check the
claims by executing the reference semantics:

* translation: every public probe resolves to exactly one rule, and the
  projected public outs have the declared shape in every state;
* inverses: every executed probe selects exactly one rule; NULL rules only
  ever fire when the state did not move, and applying a named inverse
  restores the pre-state exactly;
* in-table: when the in-query says two calls commute, both execution
  orders must agree on the final state and on both calls' out-params;
* out-table: same two-sided agreement under the entry's condition, plus any
  deduction must equal, pointwise, what executing would have returned;
* keys, for a type that declares `conflict_key`: two calls under distinct
  keys must commute by the in-query, no deducing out-entry may match them
  for any result, and both execution orders must agree. The monitor skips
  such pairs on this claim. The in-query's verdict covers the out-query's
  too, which falls back to the in-table (see `tables`).

The last three come from one sweep, `check_pairs`, over every query the
monitor can make: each ordered probe pair in each bounded state, running
both orders at most once and each apply once: p from the state, then q
after p, q from the state and p after q. Two entries can never answer one
pair, since `CommutTables` refuses them when built.

Costs are exponential in the bound and that is fine; bounds stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (AdtSpec, FrameworkError, determine_inverse,
                   public_outs_from_private, translate_public)
from .tables import commute_with_in
from .values import Tag, render_params

_UNIT = Tag.UNIT


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str


@dataclass(frozen=True)
class CheckReport:
    check: str
    cases: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _shape_ok(sig, outs) -> bool:
    if len(outs) != len(sig.outs):
        return False
    return all(v.tag is t or v.tag is _UNIT for v, t in zip(outs, sig.outs))


def check_translation(spec: AdtSpec, bound: int) -> CheckReport:
    violations = []
    cases = 0
    states = list(spec.enumerate_states(bound))
    for call in spec.probe_public_calls(bound):
        cases += 1
        try:
            tr = translate_public(spec, call)
        except FrameworkError as exc:
            violations.append(Violation("translation", f"{call!r}: {exc}"))
            continue
        sig = spec.public_ops[call.op]
        if tr.null:
            if not _shape_ok(sig, tr.public_outs):
                violations.append(Violation(
                    "translation", f"{call!r}: NULL outs have the wrong shape"))
            continue
        for s in states:
            _, pouts = spec.apply(s, tr.call.op, tr.call.ins)
            pub = public_outs_from_private(tr.rule, call.ins, pouts)
            if not _shape_ok(sig, pub):
                violations.append(Violation(
                    "translation",
                    f"{call!r} from {spec.render_state(s)}: projected outs "
                    f"{render_params(pub)} have the wrong shape"))
                break
    return CheckReport("translation", cases, tuple(violations))


def check_inverses(spec: AdtSpec, bound: int) -> CheckReport:
    violations = []
    cases = 0
    for s in spec.enumerate_states(bound):
        for call in spec.probe_calls(bound):
            cases += 1
            after, outs = spec.apply(s, call.op, call.ins)
            try:
                inverse = determine_inverse(spec, call.op, call.ins, outs)
            except FrameworkError as exc:
                violations.append(Violation("inverses", f"{call!r}: {exc}"))
                continue
            if inverse is None:
                if after != s:
                    violations.append(Violation(
                        "inverses",
                        f"{call!r} from {spec.render_state(s)} got a NULL inverse "
                        f"but moved the state to {spec.render_state(after)}"))
                continue
            restored, _ = spec.apply(after, inverse.op, inverse.ins)
            if restored != s:
                violations.append(Violation(
                    "inverses",
                    f"{call!r} from {spec.render_state(s)}: inverse {inverse!r} "
                    f"landed on {spec.render_state(restored)}"))
    return CheckReport("inverses", cases, tuple(violations))


def _both_orders_agree(spec, s, p, q, s1, p_first):
    """Run q after p, whose apply from s gave (s1, p_first), and p after q
    from s. Returns (ok, detail, q's outs after p)."""
    s2, q_second = spec.apply(s1, q.op, q.ins)
    t1, q_first = spec.apply(s, q.op, q.ins)
    t2, p_second = spec.apply(t1, p.op, p.ins)
    detail = ""
    if s2 != t2:
        detail = f"states diverge: {spec.render_state(s2)} vs {spec.render_state(t2)}"
    elif p_first != p_second:
        detail = (f"{p.op} answers depend on order: "
                  f"{render_params(p_first)} vs {render_params(p_second)}")
    elif q_first != q_second:
        detail = (f"{q.op} answers depend on order: "
                  f"{render_params(q_second)} vs {render_params(q_first)}")
    return not detail, detail, q_second


def check_pairs(spec: AdtSpec, bound: int) -> list[CheckReport]:
    """The in-table, out-table and, for a type with conflict keys, keys
    reports, from one sweep over each ordered probe pair p, q in each
    bounded state. The in-table and keys reports stop sweeping a pair at
    its first violation; the out-table report sweeps on. A pair under
    distinct keys must be claimed by the in-query, so the keys report reads
    the in-table's run of both orders."""
    tables, key, render = spec.tables, spec.conflict_key, spec.render_state
    states = list(spec.enumerate_states(bound))
    probes = spec.probe_calls(bound)
    names = ("in-table", "out-table") + (("keys",) if key is not None else ())
    cases = dict.fromkeys(names, 0)
    found: list[Violation] = []
    for p in probes:
        for q in probes:
            in_open = commute_with_in(tables, p, q)
            entry = tables.out_by_pair.get((p.op, q.op))
            kp, kq = (key(p.op, p.ins), key(q.op, q.ins)) if key else (None, None)
            keys_open = kp is not None and kq is not None and kp != kq
            pair = f"{p!r} (key {kp!r}) vs {q!r} (key {kq!r})" if keys_open else ""
            if keys_open and not in_open:
                found.append(Violation("keys", f"{pair}: the in-query says conflict"))
                keys_open = False
            if not in_open and entry is None:
                continue
            for s in states:
                s1, p_outs = spec.apply(s, p.op, p.ins)
                matched = entry is not None and entry.when(p.ins, p_outs, q.ins)
                if not (in_open or matched):
                    continue
                ok, detail, q_outs = _both_orders_agree(spec, s, p, q, s1, p_outs)
                if in_open:
                    cases["in-table"] += 1
                    if not ok:
                        found.append(Violation(
                            "in-table", f"{p!r} vs {q!r} from {render(s)}: {detail}"))
                        in_open = False
                if matched:
                    cases["out-table"] += 1
                    if not ok:
                        found.append(Violation(
                            "out-table",
                            f"executed {p!r} vs incoming {q!r} from {render(s)}: {detail}"))
                    elif entry.deduce is not None:
                        deduced = entry.deduce(p.ins, p_outs, q.ins)
                        if deduced != q_outs:
                            found.append(Violation(
                                "out-table",
                                f"deduction for {q!r} after {p!r} from {render(s)} says "
                                f"{render_params(deduced)}, execution says "
                                f"{render_params(q_outs)}"))
                if keys_open:
                    cases["keys"] += 1
                    if matched and entry.deduce is not None:
                        ok, detail = False, "a deducing entry matches"
                    if not ok:
                        found.append(Violation("keys", f"{pair} after {render_params(p_outs)} "
                                                       f"from {render(s)}: {detail}"))
                        keys_open = False
    return [CheckReport(name, cases[name], tuple(v for v in found if v.check == name))
            for name in names]


def validate_adt(spec: AdtSpec, bound: int = 3) -> list[CheckReport]:
    return [check_translation(spec, bound), check_inverses(spec, bound),
            *check_pairs(spec, bound)]
