"""Brute-force validation of a data type's declarative surface.

Commutativity tables, inverse rules and translation rules are data, and
data can lie. These sweeps enumerate every bounded state against every
probe invocation (pairs of them, in both orders, for the tables) and check
the claims by executing the reference semantics:

* translation: every public probe resolves to exactly one rule, and the
  projected public outs have the declared shape in every state;
* inverses: every executed probe selects exactly one rule; NULL rules only
  ever fire when the state did not move, and applying a named inverse
  restores the pre-state exactly;
* in-table: when an entry says two calls commute, both execution orders
  must agree on the final state and on both calls' out-params;
* out-table: same two-sided agreement under the entry's condition, plus any
  deduction must equal, pointwise, what executing would have returned;
* keys, for a type that declares `conflict_key`: two calls under distinct
  keys must commute by the in-query, no deducing out-entry may match them
  for any result, and both execution orders must agree. The monitor skips
  such pairs on this claim. The in-query's verdict covers the out-query's
  too, which falls back to the in-table (see `tables`).

Costs are exponential in the bound and that is fine; bounds stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

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


def _fmt(state, spec):
    return spec.render_state(state)


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
                    f"{call!r} from {_fmt(s, spec)}: projected outs "
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
                        f"{call!r} from {_fmt(s, spec)} got a NULL inverse "
                        f"but moved the state to {_fmt(after, spec)}"))
                continue
            restored, _ = spec.apply(after, inverse.op, inverse.ins)
            if restored != s:
                violations.append(Violation(
                    "inverses",
                    f"{call!r} from {_fmt(s, spec)}: inverse {inverse!r} "
                    f"landed on {_fmt(restored, spec)}"))
    return CheckReport("inverses", cases, tuple(violations))


def _both_orders_agree(spec, s, p, q):
    """Run p;q and q;p from s. Returns (ok, detail)."""
    s1, p_first = spec.apply(s, p.op, p.ins)
    s2, q_second = spec.apply(s1, q.op, q.ins)
    t1, q_first = spec.apply(s, q.op, q.ins)
    t2, p_second = spec.apply(t1, p.op, p.ins)
    if s2 != t2:
        return False, f"states diverge: {_fmt(s2, spec)} vs {_fmt(t2, spec)}"
    if p_first != p_second:
        return False, (f"{p.op} answers depend on order: "
                       f"{render_params(p_first)} vs {render_params(p_second)}")
    if q_first != q_second:
        return False, (f"{q.op} answers depend on order: "
                       f"{render_params(q_second)} vs {render_params(q_first)}")
    return True, ""


def check_in_table(spec: AdtSpec, bound: int) -> CheckReport:
    violations = []
    cases = 0
    probes = spec.probe_calls(bound)
    for p, q in combinations_with_replacement(probes, 2):
        if (p.op, q.op) not in spec.tables.in_by_pair:
            continue
        if not commute_with_in(spec.tables, p, q):
            continue
        for s in spec.enumerate_states(bound):
            cases += 1
            ok, detail = _both_orders_agree(spec, s, p, q)
            if not ok:
                violations.append(Violation(
                    "in-table",
                    f"{p!r} vs {q!r} from {_fmt(s, spec)}: {detail}"))
                break
    return CheckReport("in-table", cases, tuple(violations))


def check_out_table(spec: AdtSpec, bound: int) -> CheckReport:
    violations = []
    cases = 0
    probes = spec.probe_calls(bound)
    for p in probes:
        for q in probes:
            entries = spec.tables.out_by_pair.get((p.op, q.op))
            if entries is None:
                continue
            for s in spec.enumerate_states(bound):
                s1, p_outs = spec.apply(s, p.op, p.ins)
                matches = [e for e in entries if e.when(p.ins, p_outs, q.ins)]
                if len(matches) > 1:
                    violations.append(Violation(
                        "out-table",
                        f"{len(matches)} entries overlap on executed {p!r} "
                        f"-> {render_params(p_outs)} vs incoming {q!r}"))
                    continue
                if not matches:
                    continue
                cases += 1
                entry = matches[0]
                ok, detail = _both_orders_agree(spec, s, p, q)
                if not ok:
                    violations.append(Violation(
                        "out-table",
                        f"executed {p!r} vs incoming {q!r} from "
                        f"{_fmt(s, spec)}: {detail}"))
                    continue
                if entry.deduce is not None:
                    deduced = entry.deduce(p.ins, p_outs, q.ins)
                    _, actual = spec.apply(s1, q.op, q.ins)
                    if deduced != actual:
                        violations.append(Violation(
                            "out-table",
                            f"deduction for {q!r} after {p!r} from "
                            f"{_fmt(s, spec)} says {render_params(deduced)}, "
                            f"execution says {render_params(actual)}"))
    return CheckReport("out-table", cases, tuple(violations))


def check_keys(spec: AdtSpec, bound: int) -> CheckReport:
    violations = []
    cases = 0
    tables, key = spec.tables, spec.conflict_key
    probes = spec.probe_calls(bound)
    for p in probes:
        for q in probes:
            kp, kq = key(p.op, p.ins), key(q.op, q.ins)
            if kp is None or kq is None or kp == kq:
                continue
            pair = f"{p!r} (key {kp!r}) vs {q!r} (key {kq!r})"
            if not commute_with_in(tables, p, q):
                violations.append(Violation("keys", f"{pair}: the in-query says conflict"))
                continue
            entries = tables.out_by_pair.get((p.op, q.op), ())
            for s in spec.enumerate_states(bound):
                cases += 1
                _, p_outs = spec.apply(s, p.op, p.ins)
                ok, detail = _both_orders_agree(spec, s, p, q)
                if any(e.deduce is not None and e.when(p.ins, p_outs, q.ins)
                       for e in entries):
                    ok, detail = False, "a deducing entry matches"
                if not ok:
                    violations.append(Violation(
                        "keys", f"{pair} after {render_params(p_outs)} "
                                f"from {_fmt(s, spec)}: {detail}"))
                    break
    return CheckReport("keys", cases, tuple(violations))


def validate_adt(spec: AdtSpec, bound: int = 3) -> list[CheckReport]:
    reports = [
        check_translation(spec, bound),
        check_inverses(spec, bound),
        check_in_table(spec, bound),
        check_out_table(spec, bound),
    ]
    if spec.conflict_key is not None:
        reports.append(check_keys(spec, bound))
    return reports
