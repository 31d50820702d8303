"""Simple-node operations and their signatures."""

from dataclasses import dataclass, field

from .types import Ty, I1, I64, PTR, MEM, IO, ctl
from .source import ARITH, CMP

COMMUTATIVE = frozenset(("add", "mul", "and", "or", "xor", "eq", "ne"))

# Operations that can neither trap nor touch state; safe to speculate.
_STATEFUL = frozenset(("alloca", "load", "store", "apply"))
_TRAPPING = frozenset(("div", "rem"))


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
        """(input types, output types) of any node carrying this op."""
        n, t = self.name, self.ty
        if n in ARITH:
            return (t, t), (t,)
        if n in CMP:
            return (t, t), (I1,)
        if n == "neg":
            return (t,), (t,)
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
        if n == "gep":
            return (PTR, I64), (PTR,)
        if n == "apply":
            return (t,) + t.params, t.results
        raise ValueError("unknown operation %r" % n)

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


def binop(name, ty):
    """An arithmetic or comparison operation on operands of type `ty`."""
    return SimpleOp(name, ty)


def const(value, ty):
    return SimpleOp("const", ty, value=value)


def undef(ty):
    return SimpleOp("undef", ty)


def match(in_ty, table, default, k):
    return SimpleOp("match", in_ty, table=tuple(sorted(table)), default=default, k=k)


def identity_match(in_ty, k):
    """The selector produced for a dense k-way branch: i maps to i, the
    rest falls through to the last alternative."""
    return match(in_ty, [(i, i) for i in range(k)], k - 1, k)


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
