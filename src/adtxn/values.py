"""Tagged immutable values.

Every parameter that crosses an operation boundary is a Value: a tag plus a
payload. Rationals are exact, and each has one form: an int when it is
integral, otherwise a fractions.Fraction whose denominator is not 1. An
int and a Fraction of one number compare equal and hash alike, but int
arithmetic and comparison run in C where Fraction's run in Python. Floats
are rejected outright so that replaying a history can compare states with ==.

Report values carry a symbolic outcome name (Ok, EmptyStack, AlreadyIn, ...)
rather than an error channel: operations always return normally and the
outcome is data, which is what lets inverse selection and commutativity
conditions read it.

Values are dict keys wherever a call is memoized (`core.translate_public`
and `core.determine_inverse` key their memos by calls), and every table
condition and oracle comparison tests them with ==. So each value has one
live object: constructing a Value returns the object already filed for its
`(tag, payload)`, and == and hash are object identity, which runs in C. A
Python `__eq__` and `__hash__` on Python 3.11 cost several times that. Each
tag member keeps its own table, `tag.interned`, keyed by payload, beside its
payload type, `tag.payload_type`: a dict keyed by tag would hash the member
on every construction. A table hit counts only if the payloads have the same
type, since `True == 1` and `Fraction(2) == 2`; a miss checks the payload,
then files the new object. A rational's payload type is int; the check lets
a non-integral Fraction through as well. The tables never evict: dropping a
Value that is still alive would leave two equal values that compare
unequal. The class has slots, no `__dict__` and no `__init__` (which would
run again on every hit), and stays frozen: assigning or deleting any
attribute raises `FrozenInstanceError`. A copy or a pickle is rebuilt
through the constructor, so it is the same object.

Python refuses to convert an int of more than `sys.get_int_max_str_digits()`
digits to or from text. A rational that large still renders and parses,
through `decimal.Decimal`, which that limit does not cover; the limit itself
is left alone, since it is the whole process's.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from decimal import Decimal
from enum import Enum
from fractions import Fraction


class Tag(Enum):
    ITEM = "item"
    RATIONAL = "rational"
    BOOLEAN = "boolean"
    REPORT = "report"
    UNIT = "unit"
    SEQ = "seq"


_ITEM, _RATIONAL, _BOOLEAN, _REPORT, _UNIT, _SEQ = (
    Tag.ITEM, Tag.RATIONAL, Tag.BOOLEAN, Tag.REPORT, Tag.UNIT, Tag.SEQ)

# each tag's payload type and table of Values, kept on the member itself
# (`tag.payload_type`, `tag.interned`)
for _tag, _type in ((_ITEM, str), (_RATIONAL, int), (_BOOLEAN, bool),
                    (_REPORT, str), (_UNIT, type(None)), (_SEQ, tuple)):
    _tag.payload_type = _type
    _tag.interned = {}
del _tag, _type


class Value:
    """A tag and a payload; one live object per pair (see above)."""

    __slots__ = ("tag", "payload")

    def __new__(cls, tag: Tag, payload):
        interned = tag.interned
        v = interned.get(payload)
        if v is not None and type(v.payload) is type(payload):
            return v
        want = tag.payload_type
        if type(payload) is not want and not (
                want is int and type(payload) is Fraction and payload.denominator != 1):
            what = "an int or a non-integral Fraction" if want is int else want.__name__
            raise TypeError(f"{tag.value} payload must be {what}, "
                            f"got {type(payload).__name__}")
        if tag is _SEQ:
            for elem in payload:
                if not isinstance(elem, Value):
                    raise TypeError("seq elements must be Values")
        v = object.__new__(cls)
        object.__setattr__(v, "tag", tag)
        object.__setattr__(v, "payload", payload)
        interned[payload] = v
        return v

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through the constructor, so a copy is the interned object
        return Value, (self.tag, self.payload)

    def __repr__(self):
        return f"Value({render(self)})"


UNIT = Value(_UNIT, None)
TRUE = Value(_BOOLEAN, True)
FALSE = Value(_BOOLEAN, False)


def item(token: str) -> Value:
    return Value(_ITEM, token)


def canonical(x):
    """The one form of the exact number `x` (an int or a Fraction): an int
    when it is integral, else the Fraction."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def rational(x) -> Value:
    # an int or a Fraction; never a float, and never a bool
    if type(x) is not int and type(x) is not Fraction:
        raise TypeError(f"rational values are ints or Fractions, not {type(x).__name__}")
    return Value(_RATIONAL, canonical(x))


def boolean(b: bool) -> Value:
    return TRUE if b else FALSE


def report(name: str) -> Value:
    return Value(_REPORT, name)


def seq(values) -> Value:
    return Value(_SEQ, tuple(values))


def render(v: Value) -> str:
    """Canonical single-token text form, used in traces and workload files."""
    tag = v.tag
    if tag is _UNIT:
        return "_"
    if tag is _BOOLEAN:
        return "true" if v.payload else "false"
    if tag is _SEQ:
        return "(" + ",".join(render(e) for e in v.payload) + ")"
    if tag is _RATIONAL:
        return render_rational(v.payload)
    return str(v.payload)


def render_rational(x) -> str:
    """`str(x)` of a rational in its one form, however many digits it has."""
    try:
        return str(x)
    except ValueError:          # past sys.get_int_max_str_digits()
        if type(x) is int:
            return str(Decimal(x))
        return f"{render_rational(x.numerator)}/{render_rational(x.denominator)}"


def render_params(params) -> str:
    return "[" + ",".join(render(v) for v in params) + "]"


# Item names: letters, digits, "_", "." and "-". Commas and parens are
# structural in container literals and seq renderings, so item names must
# stay clear of them. `\w` is exactly `str.isalnum()` plus "_", so a token
# matches iff it is non-empty and each character passes
# `c.isalnum() or c in "_.-"`; the regex engine runs that loop in C.
_ITEM_TOKEN = re.compile(r"[\w.-]+")


def is_item_token(text: str) -> bool:
    return _ITEM_TOKEN.fullmatch(text) is not None


# Item tokens joined by single commas, as a set or stack literal holds them:
# one match tests every item, where a test per item would cost a call each.
_ITEM_LIST = re.compile(r"[\w.-]+(?:,[\w.-]+)*")


def is_item_list(text: str) -> bool:
    return _ITEM_LIST.fullmatch(text) is not None


# A rational as render writes it, "-7" or "-7/2", though a denominator of 1
# or a fraction not in lowest terms is read too. Fraction() would also take
# "0.5", "1e3", "+4" and "1_000", which render never writes back.
_RATIONAL_TOKEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def parse_rational(text: str):
    """The number a rational literal writes, in its one form."""
    m = _RATIONAL_TOKEN.fullmatch(text)
    if m is None or m[2] is not None and _int(m[2]) == 0:
        raise ValueError(f"bad rational literal {text!r}")
    num, den = m.groups()
    return _int(num) if den is None else canonical(Fraction(_int(num), _int(den)))


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:          # past sys.get_int_max_str_digits()
        return int(Decimal(digits))


def parse_token(tag: Tag, text: str) -> Value:
    """Inverse of render for the literal tags a workload file may contain."""
    if tag is _RATIONAL:
        return Value(_RATIONAL, parse_rational(text))
    if tag is _BOOLEAN:
        if text == "true":
            return TRUE
        if text == "false":
            return FALSE
        raise ValueError(f"bad boolean literal {text!r}")
    if tag is _ITEM:
        if not is_item_token(text):
            raise ValueError(f"bad item literal {text!r}")
        return item(text)
    raise ValueError(f"no literal syntax for {tag.value} parameters")
