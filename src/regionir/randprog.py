"""Seeded random program generator for differential testing.

The programs are deliberately boring in the details and wild in the
control flow: a pool of variables is defined once in the entry block so
every use is dominated by a definition, and from then on blocks
reassign pool members freely.  Every backward edge is guarded by a
shared fuel counter whose exhausted side falls strictly forward, so any
tangle of edges -- including irreducible ones -- terminates within a
bounded number of block executions.

Two properties matter for differential testing against the region
graph, which evaluates by demand while the block interpreter executes
everything it reaches: generated code never traps (divisors are forced
odd with `or 1`) and never loads memory it has not stored, so the two
evaluators cannot diverge on code that one of them skips.
"""

import random

from .source import CMP
from .types import F64

FUEL_LIMIT = 20

_BIN = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr")


class _Gen:
    def __init__(self, rng):
        self.rng = rng
        self.lines = []
        self.tmp = 0

    def fresh(self):
        self.tmp += 1
        return "t%d" % self.tmp

    def emit(self, text):
        self.lines.append("  " + text)

    def int_operand(self):
        if self.rng.random() < 0.25:
            return str(self.rng.randrange(-64, 64))
        return "%" + self.rng.choice(self.ints)

    def bool_var(self):
        return "%" + self.rng.choice(self.bools)


def _helper(g, name):
    """A small loop-free function: straight line or one diamond."""
    rng = g.rng
    g.lines.append("define i64 @%s(i64 %%a, i64 %%b) {" % name)
    g.lines.append("e:")
    g.emit("%%x = %s i64 %%a, %%b" % rng.choice(_BIN))
    if rng.random() < 0.5:
        g.emit("%c = lt i64 %x, %a")
        g.emit("branch i1 %c, [%l, %r]")
        g.lines.append("l:")
        g.emit("%%y = %s i64 %%x, %%a" % rng.choice(_BIN))
        g.emit("ret i64 %y")
        g.lines.append("r:")
        g.emit("%%y = %s i64 %%x, %%b" % rng.choice(_BIN))
        g.emit("ret i64 %y")
    else:
        g.emit("%%y = %s i64 %%x, %%a" % rng.choice(_BIN))
        g.emit("ret i64 %y")
    g.lines.append("}")


def _instr(g, helpers, externals):
    rng = g.rng
    roll = rng.random()
    if roll < 0.45:
        dest = rng.choice(g.ints)
        op = rng.choice(_BIN + ("div", "rem"))
        a, b = g.int_operand(), g.int_operand()
        if op in ("div", "rem"):
            safe = g.fresh()
            g.emit("%%%s = or i64 %s, 1" % (safe, b))
            b = "%" + safe
        g.emit("%%%s = %s i64 %s, %s" % (dest, op, a, b))
    elif roll < 0.6:
        dest = rng.choice(g.bools)
        g.emit("%%%s = %s i64 %s, %s"
               % (dest, rng.choice(CMP), g.int_operand(), g.int_operand()))
    elif roll < 0.7:
        dest = rng.choice(g.bools)
        g.emit("%%%s = %s i1 %s, %s"
               % (dest, rng.choice(("and", "or", "xor")),
                  g.bool_var(), g.bool_var()))
    elif roll < 0.8 and g.cells:
        if rng.random() < 0.5:
            g.emit("store i64 %s, %%%s" % (g.int_operand(),
                                           rng.choice(g.cells)))
        else:
            g.emit("%%%s = load i64, %%%s" % (rng.choice(g.ints),
                                              rng.choice(g.cells)))
    elif roll < 0.9 and helpers:
        g.emit("%%%s = call i64 @%s(i64 %s, i64 %s)"
               % (rng.choice(g.ints), rng.choice(helpers),
                  g.int_operand(), g.int_operand()))
    elif externals:
        g.emit("call () @%s(i64 %s)" % (rng.choice(externals),
                                        g.int_operand()))
    else:
        g.emit("%%%s = copy i64 %s" % (rng.choice(g.ints), g.int_operand()))


def _terminator(g, i, labels):
    """End block i; labels[i + 1:] are strictly forward."""
    rng = g.rng
    forward = labels[i + 1:]
    roll = rng.random()
    if roll < 0.2:
        g.emit("br label %%%s" % forward[0])
    elif roll < 0.75 or len(forward) < 2:
        ok, sel = g.fresh(), g.fresh()
        g.emit("%fuel = add i64 %fuel, 1")
        g.emit("%%%s = lt i64 %%fuel, %d" % (ok, FUEL_LIMIT))
        g.emit("%%%s = and i1 %%%s, %s" % (sel, ok, g.bool_var()))
        g.emit("branch i1 %%%s, [%%%s, %%%s]"
               % (sel, forward[0], rng.choice(labels)))
    else:
        k = min(len(forward), rng.randrange(2, 4))
        targets = ", ".join("%" + rng.choice(forward) for _ in range(k))
        g.emit("branch i64 %s, [%s]" % (g.int_operand(), targets))


def generate(seed, size=1):
    """Produce the source text of one random module.  size scales the
    block count of the exported function, leaving everything else to
    the seed."""
    rng = random.Random(seed)
    g = _Gen(rng)

    helpers = ["h%d" % i for i in range(rng.randrange(3))]
    externals = ["ext%d" % i for i in range(rng.randrange(2))]
    n_globals = rng.randrange(2)
    for name in externals:
        g.lines.append("external @%s : fn(i64) -> ()" % name)
    for i in range(n_globals):
        g.lines.append("global i64 @g%d = { e: ret i64 %d }"
                       % (i, rng.randrange(-50, 50)))
    for name in helpers:
        _helper(g, name)

    n_params = rng.randrange(2, 5)
    params = ", ".join("i64 %%p%d" % i for i in range(n_params))
    g.lines.append("export define i64 @main(%s) {" % params)

    g.ints = ["v%d" % i for i in range(4)]
    g.bools = ["c%d" % i for i in range(3)]
    g.cells = ["q%d" % i for i in range(rng.randrange(3))]

    g.lines.append("entry:")
    g.emit("%fuel = copy i64 0")
    for i, v in enumerate(g.ints):
        g.emit("%%%s = copy i64 %%p%d" % (v, i % n_params))
    for i in range(n_globals):
        if rng.random() < 0.8:
            g.emit("%%%s = load i64, @g%d" % (rng.choice(g.ints), i))
    for c in g.bools:
        g.emit("%%%s = %s i64 %s, %s"
               % (c, rng.choice(CMP), g.int_operand(), g.int_operand()))
    for q in g.cells:
        g.emit("%%%s = alloca i64" % q)
        g.emit("store i64 %s, %%%s" % (g.int_operand(), q))

    n_blocks = rng.randrange(3 * size, 8 * size)
    labels = ["b%d" % i for i in range(n_blocks)] + ["done"]
    g.emit("br label %%%s" % labels[0])
    for i in range(n_blocks):
        g.lines.append(labels[i] + ":")
        for _ in range(rng.randrange(1, 5)):
            _instr(g, helpers, externals)
        _terminator(g, i, labels)
    g.lines.append("done:")
    g.emit("%%r = %s i64 %%%s, %%%s"
           % (rng.choice(_BIN), g.ints[0], g.ints[-1]))
    g.emit("ret i64 %r")
    g.lines.append("}")
    return "\n".join(g.lines) + "\n"


def random_args(rng, params):
    """Random arguments for a function's (name, type) parameters:
    integers in [-2**16, 2**16) narrowed to the type's range, f64 in
    [-100, 100]; None if a parameter is a pointer or a function."""
    vals = []
    for _, ty in params:
        if ty is F64:
            vals.append(round(rng.uniform(-100.0, 100.0), 3))
        elif ty.kind == "int":
            hi = min(2 ** (ty.width - 1), 2 ** 16)
            vals.append(rng.randrange(-hi, hi) if ty.width > 1
                        else rng.randrange(2))
        else:
            return None             # pointers/functions: nothing sensible
    return vals
