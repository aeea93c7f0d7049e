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
and `core.determine_inverse` key their memos by calls), so a Value hashes
once. A frozen dataclass would hash `(tag, payload)` on every call, and on
Python 3.11 both that tuple and `Enum.__hash__` run in Python, about
0.4 us per hash. `Value` keeps the hash in a slot that `__init__` never
sets: the first `__hash__` fills it, and each later one reads it. The
number is still `hash((tag, payload))`, so equal Values hash alike. The
class has slots and no `__dict__`, and stays frozen: assigning any
attribute raises `FrozenInstanceError`. For the same reason the payload
check reads each tag's payload type off the member, where a dict keyed by
tag would hash the member on every construction. A rational's payload type
is int; the check lets a non-integral Fraction through as well.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, field
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

# each tag's payload type, kept on the member itself (`tag.payload_type`)
for _tag, _type in ((_ITEM, str), (_RATIONAL, int), (_BOOLEAN, bool),
                    (_REPORT, str), (_UNIT, type(None)), (_SEQ, tuple)):
    _tag.payload_type = _type
del _tag, _type


@dataclass(frozen=True, slots=True)
class Value:
    tag: Tag
    payload: object
    # hash((tag, payload)), filled by the first __hash__
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        payload, want = self.payload, self.tag.payload_type
        if type(payload) is not want and not (
                want is int and type(payload) is Fraction and payload.denominator != 1):
            what = "an int or a non-integral Fraction" if want is int else want.__name__
            raise TypeError(f"{self.tag.value} payload must be {what}, "
                            f"got {type(payload).__name__}")
        if self.tag is _SEQ:
            for elem in self.payload:
                if not isinstance(elem, Value):
                    raise TypeError("seq elements must be Values")

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.tag, self.payload))
            object.__setattr__(self, "_hash", h)
            return h

    def __reduce__(self):
        # copied and pickled as the pair: the generated state would read
        # the hash slot, which may be unset
        return Value, (self.tag, self.payload)

    def __eq__(self, other):
        # written out because the generated one builds a (tag, payload)
        # tuple per side on every call
        if self is other:
            return True
        if not isinstance(other, Value):
            return NotImplemented
        return self.tag is other.tag and self.payload == other.payload

    def __repr__(self):
        return f"Value({render(self)})"


def _frozen(self, name, *value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


# The generated pair refuses the fields, but on Python 3.11 a frozen
# dataclass with slots answers any other name with a TypeError from
# `super()`, as it still names the class the slots replaced.
Value.__setattr__ = Value.__delattr__ = _frozen


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
    return str(v.payload)


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
    if m is None or m[2] is not None and int(m[2]) == 0:
        raise ValueError(f"bad rational literal {text!r}")
    num, den = m.groups()
    return int(num) if den is None else canonical(Fraction(int(num), int(den)))


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
