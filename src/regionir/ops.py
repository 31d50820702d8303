"""Simple-node operations, their signatures, and what each pure
operation computes.

`SEMANTICS` is the one table of pure operations: each entry, keyed by
operation name and operand kind, is the function from the operation's
type and operand values to its result.  Both interpreters evaluate and
RED folds through it, and `SimpleOp.signature` accepts exactly the
(operation, type) pairs it holds, so the checker rejects every other.

Integer arithmetic wraps in two's complement at the operand width.
Division truncates toward zero and traps on a zero divisor; f64
division by zero gives +inf, -inf or nan by the sign of the dividend.
Shifts use the shift amount modulo the width; right shift is
arithmetic.  A comparison yields the i1 0 or 1.
"""

import functools
from dataclasses import dataclass, field

from .types import Ty, I1, I64, PTR, MEM, ctl, sizeof
from .source import CMP

COMMUTATIVE = frozenset(("add", "mul", "and", "or", "xor", "eq", "ne"))

# Operations that can neither trap nor touch state; safe to speculate.
_STATEFUL = frozenset(("alloca", "load", "store", "apply"))
_TRAPPING = frozenset(("div", "rem"))


class Trap(Exception):
    def __init__(self, kind, detail=""):
        super().__init__("%s%s" % (kind, ": " + detail if detail else ""))
        self.kind = kind


def wrap_int(v, width):
    if width == 1:
        return v & 1
    m = 1 << width
    v &= m - 1
    if v >= m >> 1:
        v -= m
    return v


def coerce_literal(value, ty):
    if ty.kind == "f64":
        return float(value)
    if ty.kind == "int":
        return wrap_int(int(value), ty.width)
    return value


def _idiv(a, b):
    if b == 0:
        raise Trap("div0", "division by zero")
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _fdiv(t, a, b):
    if b == 0.0:
        return float("inf") if a > 0 else float("-inf") if a < 0 \
            else float("nan")
    return a / b


def _gep(t, p, i):
    return p + i * sizeof(t)


_COMPARE = {
    "eq": lambda t, a, b: int(a == b),
    "ne": lambda t, a, b: int(a != b),
    "lt": lambda t, a, b: int(a < b),
    "le": lambda t, a, b: int(a <= b),
    "gt": lambda t, a, b: int(a > b),
    "ge": lambda t, a, b: int(a >= b),
}

# (operation, operand kind) -> f(ty, *operands), ty the operation's type
SEMANTICS = {
    ("add", "int"): lambda t, a, b: wrap_int(a + b, t.width),
    ("sub", "int"): lambda t, a, b: wrap_int(a - b, t.width),
    ("mul", "int"): lambda t, a, b: wrap_int(a * b, t.width),
    ("div", "int"): lambda t, a, b: wrap_int(_idiv(a, b), t.width),
    ("rem", "int"): lambda t, a, b: wrap_int(a - _idiv(a, b) * b, t.width),
    ("shl", "int"): lambda t, a, b: wrap_int(a << (b % t.width), t.width),
    ("shr", "int"): lambda t, a, b: wrap_int(a >> (b % t.width), t.width),
    ("and", "int"): lambda t, a, b: wrap_int(a & b, t.width),
    ("or", "int"): lambda t, a, b: wrap_int(a | b, t.width),
    ("xor", "int"): lambda t, a, b: wrap_int(a ^ b, t.width),
    ("neg", "int"): lambda t, a: wrap_int(-a, t.width),
    ("add", "f64"): lambda t, a, b: a + b,
    ("sub", "f64"): lambda t, a, b: a - b,
    ("mul", "f64"): lambda t, a, b: a * b,
    ("div", "f64"): _fdiv,
    ("neg", "f64"): lambda t, a: -a,
    **{(n, kind): f for n, f in _COMPARE.items()
       for kind in ("int", "f64", "ptr")},
    ("eq", "fn"): _COMPARE["eq"],
    ("ne", "fn"): _COMPARE["ne"],
    **{("gep", kind): _gep for kind in ("int", "f64", "ptr", "fn")},
}


@dataclass(frozen=True, eq=False)
class SimpleOp:
    """Payload of a simple node.

    `ty` is the operation's primary type: the operand type for arithmetic
    and comparisons, the element type for alloca/load/store/gep, the
    function type for apply, and the literal type for const/undef.

    Two operations are equal when they compute the same thing.  An f64
    literal is compared by `float.hex`, so -0.0 and 0.0 stay apart
    although they are `==`; every NaN reads "nan", as no operation of
    the IR tells NaNs apart.
    """

    name: str
    ty: Ty = None
    value: object = None                 # const literal
    table: tuple = field(default=())     # match: ((key, case), ...)
    default: int = 0                     # match fall-through case
    k: int = 0                           # match alternative count

    def _key(self):
        value = self.value
        if self.name == "const" and self.ty.kind == "f64":
            value = float(value).hex()
        return (self.name, self.ty, value, self.table, self.default, self.k)

    def __eq__(self, other):
        return isinstance(other, SimpleOp) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def is_stateful(self):
        return self.name in _STATEFUL

    @property
    def can_trap(self):
        return self.name in _TRAPPING

    @property
    def commutative(self):
        return self.name in COMMUTATIVE

    def signature(self):
        """(input types, output types) of any node carrying this op.
        A pure operation has one only on the types `SEMANTICS` holds."""
        n, t = self.name, self.ty
        if (n, t.kind) in SEMANTICS:
            if n in CMP:
                return (t, t), (I1,)
            if n == "neg":
                return (t,), (t,)
            if n == "gep":
                return (PTR, I64), (PTR,)
            return (t, t), (t,)
        if n in ("const", "undef"):
            return (), (t,)
        if n == "match":
            return (t,), (ctl(self.k),)
        if n == "alloca":
            return (MEM,), (PTR, MEM)
        if n == "load":
            return (PTR, MEM), (t, MEM)
        if n == "store":
            return (PTR, t, MEM), (MEM,)
        if n == "apply":
            return (t,) + t.params, t.results
        raise ValueError("%s is not defined on %s" % (n, t))

    def select(self, key):
        """The case a match picks for `key`: the first table entry for
        it, else the default."""
        for k, case in self.table:
            if k == key:
                return case
        return self.default

    def __str__(self):
        if self.name == "const":
            return "const(%s:%s)" % (self.value, self.ty)
        if self.name == "match":
            body = ",".join("%d>%d" % kv for kv in self.table)
            return "match[%s|%d]%d" % (body, self.default, self.k)
        return self.name


def const(value, ty):
    return SimpleOp("const", ty, value=value)


def undef(ty):
    return SimpleOp("undef", ty)


def identity_match(in_ty, k):
    """The selector produced for a dense k-way branch: i maps to i, the
    rest falls through to the last alternative."""
    return SimpleOp("match", in_ty, table=tuple((i, i) for i in range(k)),
                    default=k - 1, k=k)


def apply_op(fn_ty):
    return SimpleOp("apply", fn_ty)


def node_order(name, operands):
    """An instruction's value operands in the order of its node's value
    inputs, or back: a store names its value before its address, but
    its node takes the address first.  The swap is its own inverse."""
    if name == "store":
        value, ptr = operands
        return [ptr, value]
    return list(operands)


@functools.lru_cache(maxsize=None)
def operand_types(name, ty):
    """The types of a simple instruction's operands, in its operand
    order: its node's value inputs by `SimpleOp.signature`, put back by
    `node_order`.  A copy takes the type it declares.  Raises ValueError
    as the signature does."""
    if name == "copy":
        return (ty,)
    ins = SimpleOp(name, ty).signature()[0]
    return tuple(node_order(name, [t for t in ins if t.is_value]))


@functools.lru_cache(maxsize=None)
def result_type(name, ty):
    """The type of the value a simple instruction defines: its node's
    value output by `SimpleOp.signature`.  A copy or a call defines the
    type it declares.  Raises ValueError as the signature does."""
    if name in ("copy", "call"):
        return ty
    outs = SimpleOp(name, ty).signature()[1]
    return next(t for t in outs if t.is_value)
