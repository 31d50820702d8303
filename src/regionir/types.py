"""Port and value types shared by the source IR and the region graph.

Types are interned: there is one object per type.  `intty`, `ctl`,
`fnty`, `lift` and `lower` return that object, and no other module
constructs a `Ty`.  So `==`, `is` and hashing all mean identity, and a
type compare, or a compare of two type lists, costs a pointer test per
element.
"""

from dataclasses import dataclass, field

INT_WIDTHS = (1, 8, 16, 32, 64)


@dataclass(frozen=True, eq=False)
class Ty:
    """A port type.

    kind is one of 'int', 'f64', 'ptr', 'fn', 'ctl', 'mem', 'io'.
    'mem' and 'io' are the two state kinds; everything else is a value kind.
    """

    kind: str
    width: int = 0                      # int only
    k: int = 0                          # ctl only: alternative count
    params: tuple = field(default=())   # fn only
    results: tuple = field(default=())  # fn only

    @property
    def is_state(self):
        return self.kind in ("mem", "io")

    @property
    def is_value(self):
        return not self.is_state

    def __str__(self):
        if self.kind == "int":
            return "i%d" % self.width
        if self.kind == "ctl":
            return "ctl%d" % self.k
        if self.kind == "fn":
            ps = ", ".join(str(t) for t in self.params)
            if len(self.results) == 1:
                rs = str(self.results[0])
            else:
                rs = "(%s)" % ", ".join(str(t) for t in self.results)
            return "fn(%s) -> %s" % (ps, rs)
        return self.kind


# the canonical objects: fixed ones here, control and function types on
# first request (their tables only grow; a program has few distinct ones)
INT_TYPES = {w: Ty("int", width=w) for w in INT_WIDTHS}
I1, I8, I16, I32, I64 = (INT_TYPES[w] for w in INT_WIDTHS)
F64 = Ty("f64")
PTR = Ty("ptr")
MEM = Ty("mem")
IO = Ty("io")
_CTL_TYPES = {}
_FN_TYPES = {}


def intty(width):
    return INT_TYPES[width]


def ctl(k):
    if k < 1:
        raise ValueError("control type needs k >= 1, got %d" % k)
    ty = _CTL_TYPES.get(k)
    if ty is None:
        ty = _CTL_TYPES[k] = Ty("ctl", k=k)
    return ty


def fnty(params, results):
    key = (tuple(params), tuple(results))
    ty = _FN_TYPES.get(key)
    if ty is None:
        ty = _FN_TYPES[key] = Ty("fn", params=key[0], results=key[1])
    return ty


def narrowest_int(k):
    """Smallest integer type whose value range covers [0, k)."""
    for w in INT_WIDTHS:
        if k <= (1 << (w - 1)) or w == 1 and k <= 2:
            return INT_TYPES[w]
    return I64


def lift(ty):
    """Graph-level view of a source function type: the two state kinds
    are appended to both the parameters and the results."""
    if ty.kind != "fn":
        return ty
    return fnty([lift(t) for t in ty.params] + [MEM, IO],
                [lift(t) for t in ty.results] + [MEM, IO])


def lower(ty):
    """Undo `lift`."""
    if ty.kind != "fn":
        return ty
    params, results = list(ty.params), list(ty.results)
    if params[-2:] == [MEM, IO]:
        params = params[:-2]
    if results[-2:] == [MEM, IO]:
        results = results[:-2]
    return fnty([lower(t) for t in params], [lower(t) for t in results])


def sizeof(ty):
    if ty.kind == "int":
        return max(1, ty.width // 8)
    if ty.kind in ("f64", "ptr", "fn"):
        return 8
    raise ValueError("type %s has no size" % ty)
