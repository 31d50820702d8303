"""Interpreter tests for both evaluation levels.

[DERIVED] results were computed by hand from the operational rules;
[TRIVIAL] tests assert definitional behavior (trap kinds, masking);
[PINNED] step counts were recorded from each interpreter as it was
before its plans were cached, and must not drift.
"""

import gc
import math
import weakref

import pytest

from regionir.parser import parse, check_module
from regionir.build import construct
from regionir.graph import Graph
from regionir.interp import (DEFAULT_FUEL, Machine, eval_cfg, eval_rvsdg,
                             run_to_outcome)
from regionir.ops import SimpleOp, coerce_literal, const
from regionir.passes import dne, red
from regionir.destruct import destruct
from regionir.passes.pipeline import PASSES, run_pipeline
from regionir.source import CMP
from regionir.types import I64

from conftest import bits, load_corpus, outcome_cfg, outcome_rvsdg


def _both(src, name, args, fuel=10 ** 7, externals=None):
    mod = parse(src)
    check_module(mod)
    g = construct(mod)
    ref = run_to_outcome(lambda: eval_cfg(mod, name, list(args), fuel=fuel,
                                          externals=externals))
    got = run_to_outcome(lambda: eval_rvsdg(g, name, list(args), fuel=fuel,
                                            externals=externals))
    assert ref == got
    return ref


def test_gcd_values():
    """[DERIVED] gcd(48,18)=6, gcd(17,5)=1, gcd(0,9)=0 (loop skipped)."""
    mod = load_corpus("gcd.ir")
    g = construct(mod)
    for args, want in (((48, 18), 6), ((17, 5), 1), ((0, 9), 9),
                       ((9, 0), 9)):
        assert outcome_cfg(mod, "gcd", args) == ("ok", [want], [])
        assert outcome_rvsdg(g, "gcd", args) == ("ok", [want], [])


def test_fib_iter_values():
    """[DERIVED] Iterative Fibonacci: fib(10)=55, fib(0)=0, fib(1)=1."""
    mod = load_corpus("fib_iter.ir")
    for n, want in ((0, 0), (1, 1), (10, 55)):
        assert outcome_cfg(mod, "fib", [n]) == ("ok", [want], [])


def test_trace_records_external_calls_in_order():
    """[DERIVED] Three loop iterations emit alternating emit/poll
    events in program order, on both evaluation levels."""
    mod = load_corpus("externals.ir")
    g = construct(mod)
    ref = outcome_cfg(mod, "chatter", [3])
    assert ref[0] == "ok"
    calls = [(ev[1], ev[2]) for ev in ref[2]]
    assert calls == [("emit", (0,)), ("poll", ()),
                     ("emit", (1,)), ("poll", ()),
                     ("emit", (2,)), ("poll", ())]
    assert outcome_rvsdg(g, "chatter", [3]) == ref


def test_unbound_external_returns_zero():
    """[TRIVIAL] An unbound external yields zeros but still traces."""
    out = _both("external @probe : fn(i64) -> i64\n"
                "export define i64 @f(i64 %a) {\n"
                "e:\n  %r = call i64 @probe(i64 %a)\n  ret i64 %r\n}",
                "f", [5])
    assert out[1] == [0]
    assert [ev[1] for ev in out[2]] == ["probe"]


def test_bound_external_supplies_results():
    """[TRIVIAL] A bound external's return value reaches the caller."""
    out = _both("external @probe : fn(i64) -> i64\n"
                "export define i64 @f(i64 %a) {\n"
                "e:\n  %r = call i64 @probe(i64 %a)\n  ret i64 %r\n}",
                "f", [5], externals={"probe": lambda v: [v * 10]})
    assert out[1] == [50]


def test_division_traps_only_on_zero():
    """[TRIVIAL] div by zero traps as div0; otherwise truncates."""
    src = ("export define i64 @d(i64 %a, i64 %b) {\n"
           "e:\n  %q = div i64 %a, %b\n  ret i64 %q\n}")
    assert _both(src, "d", [7, 0]) == ("trap", "div0")
    assert _both(src, "d", [7, 2]) == ("ok", [3], [])
    assert _both(src, "d", [-7, 2]) == ("ok", [-3], [])


def test_shift_amounts_are_masked():
    """[TRIVIAL] Shift counts wrap modulo the width, never trap."""
    src = ("export define i64 @s(i64 %a, i64 %b) {\n"
           "e:\n  %q = shl i64 %a, %b\n  ret i64 %q\n}")
    assert _both(src, "s", [1, 64]) == ("ok", [1], [])
    assert _both(src, "s", [1, 65]) == ("ok", [2], [])


INF, NAN = float("inf"), float("nan")
_FN = "fn(i64) -> i64"

# (operation, type, literal operands, result or ("trap", kind))
SEMANTICS_CASES = [
    # i8 and i1 wrap around
    ("add", "i8", ("100", "100"), -56),
    ("sub", "i8", ("-128", "1"), 127),
    ("mul", "i8", ("16", "16"), 0),
    ("neg", "i8", ("-128",), -128),
    ("xor", "i8", ("-1", "127"), -128),
    ("add", "i1", ("1", "1"), 0),
    # division truncates toward zero, the remainder takes the sign of
    # the dividend, and a zero divisor traps
    ("div", "i64", ("-7", "2"), -3),
    ("div", "i64", ("7", "-2"), -3),
    ("div", "i64", ("-7", "-2"), 3),
    ("rem", "i64", ("-7", "2"), -1),
    ("rem", "i64", ("7", "-2"), 1),
    ("rem", "i64", ("-7", "-2"), -1),
    ("div", "i8", ("-128", "-1"), -128),
    ("div", "i64", ("7", "0"), ("trap", "div0")),
    ("rem", "i64", ("7", "0"), ("trap", "div0")),
    # shift amounts are taken modulo the width; shr is arithmetic
    ("shl", "i64", ("1", "64"), 1),
    ("shl", "i64", ("1", "65"), 2),
    ("shl", "i32", ("3", "-1"), -2147483648),
    ("shr", "i8", ("-128", "9"), -64),
    ("shr", "i64", ("-1", "63"), -1),
    # f64 division by zero: the dividend's sign picks +inf, -inf or nan
    ("div", "f64", ("1.0", "0.0"), INF),
    ("div", "f64", ("1.0", "-0.0"), INF),
    ("div", "f64", ("-1.0", "0.0"), -INF),
    ("div", "f64", ("-1.0", "-0.0"), -INF),
    ("div", "f64", ("0.0", "0.0"), NAN),
    ("div", "f64", ("0.0", "-0.0"), NAN),
    ("neg", "f64", ("0.0",), -0.0),
    # comparisons on f64, ptr and fn yield the i1 0 or 1
    ("lt", "f64", ("-0.0", "0.0"), 0),
    ("eq", "f64", ("-0.0", "0.0"), 1),
    ("ge", "f64", ("1.0", "2.5"), 0),
    ("lt", "ptr", ("5", "7"), 1),
    ("ge", "ptr", ("5", "7"), 0),
    ("eq", "ptr", ("8", "8"), 1),
    ("eq", _FN, ("@f", "@f"), 1),
    ("eq", _FN, ("@f", "@h"), 0),
    ("ne", _FN, ("@f", "@h"), 1),
    # gep scales the index by the element size; its literals are a ptr
    # and an i64 whatever the element type
    ("gep", "i32", ("1000", "3"), 1012),
    ("gep", "f64", ("1000", "2"), 1016),
    ("gep", "i8", ("1000", "300"), 1300),
]


@pytest.mark.parametrize("op,ty,operands,want", SEMANTICS_CASES)
def test_semantics_table(op, ty, operands, want):
    """[DERIVED] Each pure operation computes the hand-derived value in
    both interpreters, and RED folds it (DNE then drops the operation)
    to a const carrying that value -- or leaves it when it traps, or
    when the value is an f64 infinity or NaN, which no literal spells.
    Function values have no literal, so an fn comparison is evaluated
    but has nothing for RED to fold."""
    rty = "i1" if op in CMP else "ptr" if op == "gep" else ty
    mod = parse("export define %s @k() {\ne:\n  %%r = %s %s %s\n"
                "  ret %s %%r\n}\n"
                "define i64 @f(i64 %%a) {\ne:\n  ret i64 %%a\n}\n"
                "define i64 @h(i64 %%a) {\ne:\n  ret i64 %%a\n}\n"
                % (rty, op, ty, ", ".join(operands), rty))
    g = construct(mod)
    outcome = want if isinstance(want, tuple) else ("ok", [want], [])
    assert bits(outcome_cfg(mod, "k", ())) == bits(outcome)
    assert bits(outcome_rvsdg(g, "k", ())) == bits(outcome)
    red.run(g)
    dne.run(g)
    body = g.export_origin("k").node.subregions[0]
    node = body.results[0].origin.node
    if isinstance(want, tuple) or operands[0].startswith("@") \
            or not math.isfinite(want):
        assert node.op.name == op
    else:
        assert [n.op.name for n in body.nodes] == ["const"]
        assert bits(coerce_literal(node.op.value, node.op.ty)) == bits(want)


def test_fuel_exhaustion_traps():
    """[TRIVIAL] An endless loop runs out of fuel on both levels."""
    mod = load_corpus("endless.ir")
    g = construct(mod)
    assert outcome_cfg(mod, "spin", [1], fuel=3000) == ("trap", "fuel")
    assert outcome_rvsdg(g, "spin", [1], fuel=3000) == ("trap", "fuel")
    # the other arm returns normally
    assert outcome_cfg(mod, "spin", [0], fuel=3000) == ("ok", [0], [])
    assert outcome_rvsdg(g, "spin", [0], fuel=3000) == ("ok", [0], [])


def test_narrow_arithmetic_wraps():
    """[DERIVED] i8 arithmetic wraps to [-128, 128): 100+100 = -56."""
    src = ("export define i8 @w(i64 %a) {\n"
           "e:\n  %x = copy i8 100\n  %y = add i8 %x, %x\n"
           "  ret i8 %y\n}")
    assert _both(src, "w", [0])[1] == [-56]


def test_memory_cells_and_gep():
    """[DERIVED] fillsum(10) stores 10, 100, 5 at offsets 0, 1, 2 and
    reads them back: 115.  Memory events appear in program order."""
    mod = load_corpus("memory.ir")
    out = outcome_cfg(mod, "fillsum", [10])
    assert out[0] == "ok" and out[1] == [115]
    kinds = [ev[0] for ev in out[2]]
    assert kinds == ["store"] * 3 + ["load"] * 3
    g = construct(mod)
    assert outcome_rvsdg(g, "fillsum", [10]) == out


def test_indirect_calls_dispatch_by_value():
    """[DERIVED] tot(x) = f(x) + g(x) + f(g(x)) style composition picks
    the function values passed in at runtime."""
    mod = load_corpus("indirect_calls.ir")
    g = construct(mod)
    for x in (0, 3, -5):
        assert outcome_cfg(mod, "tot", [x]) == outcome_rvsdg(g, "tot", [x])


def test_recursion_via_phi():
    """[DERIVED] fac(5) = 120 through the recursive binding."""
    mod = load_corpus("self_rec.ir")
    g = construct(mod)
    out = outcome_cfg(mod, "fac", [5])
    assert out[1] == [120]
    assert outcome_rvsdg(g, "fac", [5]) == out


def test_globals_initialized_once():
    """[DERIVED] The computed initializer runs before main entry and
    stores persist across calls within one machine."""
    mod = load_corpus("globals.ir")
    g = construct(mod)
    out = outcome_cfg(mod, "next", [1])
    assert out[0] == "ok"
    assert outcome_rvsdg(g, "next", [1]) == out


# (fixture, export, args, fuel, outcome without the trace, fuel used)
PINNED_STEPS = [
    ("collatz.ir", "collatz", (27,), DEFAULT_FUEL, ("ok", [111]), 2204),
    ("collatz.ir", "collatz", (1000,), DEFAULT_FUEL, ("ok", [142]), 2813),
    ("fib_rec.ir", "fib", (10,), DEFAULT_FUEL, ("ok", [55]), 1678),
    ("fib_rec.ir", "fib", (15,), DEFAULT_FUEL, ("ok", [610]), 18740),
    ("mutual.ir", "parity", (7,), DEFAULT_FUEL, ("ok", [0]), 57),
    ("mutual.ir", "parity", (40,), DEFAULT_FUEL, ("ok", [1]), 288),
    ("nested_loops.ir", "grid", (5, 6), DEFAULT_FUEL, ("ok", [150]), 357),
    ("nested_loops.ir", "grid", (7, 7), DEFAULT_FUEL, ("ok", [441]), 567),
    ("endless.ir", "spin", (1,), 3000, ("trap", "fuel"), 3001),
    ("endless.ir", "spin", (0,), 3000, ("ok", [0]), 5),
]


def _run_counted(g, name, args, fuel):
    machine = Machine(fuel)
    out = run_to_outcome(lambda: eval_rvsdg(g, name, list(args),
                                            machine=machine))
    return out, fuel - machine.fuel


def test_graph_step_counts_pinned():
    """[PINNED] One step is one live node evaluated or one theta
    iteration: fuel used, results and trap kinds stay exactly as
    recorded, on a cold plan cache (fresh graph) and a warm one."""
    for fixture, name, args, fuel, want, steps in PINNED_STEPS:
        g = construct(load_corpus(fixture))
        cold = _run_counted(g, name, args, fuel)
        warm = _run_counted(g, name, args, fuel)
        assert cold == warm
        assert (cold[0][:2], cold[1]) == (want, steps), fixture


# fuel used per PINNED_STEPS row by `eval_cfg`: on the source, and on
# `destruct` of the graph after the default schedule
PINNED_CFG_STEPS = [(1047, 1464), (1336, 1870), (1148, 1236), (12822, 13808),
                    (41, 48), (206, 246), (181, 224), (286, 361),
                    (3001, 3001), (3, 3)]


def _cfg_counted(mod, name, args, fuel):
    machine = Machine(fuel)
    out = run_to_outcome(lambda: eval_cfg(mod, name, list(args),
                                          machine=machine))
    return out, fuel - machine.fuel


def test_cfg_step_counts_pinned():
    """[PINNED] One CFG step is one instruction or one terminator run:
    results, trap kinds and fuel used stay exactly as recorded, on the
    source and on its destruction, on a cold plan cache (the module's
    first run) and a warm one (the same module object again)."""
    for row, src_back in zip(PINNED_STEPS, PINNED_CFG_STEPS):
        fixture, name, args, fuel, want, _ = row
        mod = load_corpus(fixture)
        g = construct(mod)
        run_pipeline(g)
        for m, steps in zip((mod, destruct(g)), src_back):
            cold = _cfg_counted(m, name, args, fuel)
            warm = _cfg_counted(m, name, args, fuel)
            assert cold == warm
            assert (cold[0][:2], cold[1]) == (want, steps), fixture


DEAD_DIV = """
export define i64 @f(i64 %x) {
entry:
  %c = eq i64 %x, 0
  branch i1 %c, [%live, %dead]
dead:
  %a = add i64 %x, 1
  %q = div i64 %a, 0
  ret i64 %q
live:
  ret i64 %x
}
"""


def test_cfg_plan_evaluates_nothing():
    """[DERIVED] A division by the literal zero in a block that does not
    run does not trap, before or after the block first runs; reached,
    it traps at its own step: eq, branch, add, div."""
    mod = parse(DEAD_DIV)
    for _ in range(2):
        assert _cfg_counted(mod, "f", (5,), 100) == (("ok", [5], []), 3)
        assert _cfg_counted(mod, "f", (0,), 100) == (("trap", "div0"), 4)


def test_plan_cache_does_not_keep_modules_alive():
    """[TRIVIAL] CFG plans are cached per module without keeping it
    alive: calls, function values, globals and phis included."""
    for fixture, name, args in (("fib_rec.ir", "fib", (6,)),
                                ("indirect_calls.ir", "tot", (4,)),
                                ("globals.ir", "next", (1,)),
                                ("collatz.ir", "collatz", (6,))):
        mod = load_corpus(fixture)
        g = construct(mod)
        run_pipeline(g)
        back = destruct(g)
        assert outcome_cfg(mod, name, args)[0] == "ok"
        assert outcome_cfg(back, name, args)[0] == "ok"
        refs = [weakref.ref(mod), weakref.ref(back)]
        del mod, back
        gc.collect()
        assert [r() for r in refs] == [None, None], fixture


def test_non_function_export_is_not_callable():
    """[TRIVIAL] Both interpreters refuse to call an exported global by
    its name, with the same KeyError."""
    mod = parse("export global i64 @g = { e: ret i64 5 }")
    g = construct(mod)
    for run, target in ((eval_cfg, mod), (eval_rvsdg, g)):
        with pytest.raises(KeyError) as err:
            run(target, "g", [])
        assert err.value.args == ("no function @g",)


def test_plan_cache_follows_pass_edits():
    """[DERIVED] A graph evaluated, then changed in place by passes,
    is evaluated by its new plans: it still agrees with the source."""
    for fixture, name, passes in (("deadcode.ir", "live", "DNE CNE"),
                                  ("select_chain.ir", "clamp3",
                                   "RED INV DNE"),
                                  ("nested_loops.ir", "grid",
                                   "URL INV CNE DNE")):
        mod = load_corpus(fixture)
        g = construct(mod)
        inputs = [(3, 4), (-7, 2), (150, 5), (9, 0)]
        inputs = [a[:len(mod.functions[name].params)] for a in inputs]
        for p in [None] + passes.split():
            if p is not None:
                PASSES[p](g)
                assert g.validate() == []
            for args in inputs:
                assert outcome_rvsdg(g, name, args) == \
                    outcome_cfg(mod, name, args), (fixture, p, args)


def test_plan_cache_sees_a_diverted_result():
    """[DERIVED] live(a, b) = a + b; diverting the sum's users to a new
    a * b node makes the next evaluation return the product, which a
    stale plan could not."""
    g = construct(load_corpus("deadcode.ir"))
    assert outcome_rvsdg(g, "live", (3, 4)) == ("ok", [7], [])
    body = g.export_origin("live").node.subregions[0]
    add = body.results[0].origin.node
    a, b = (u.origin for u in add.inputs)
    mul = g.add_simple(body, SimpleOp("mul", I64), [a, b])
    g.divert_users(add.outputs[0], mul.outputs[0])
    assert outcome_rvsdg(g, "live", (3, 4)) == ("ok", [12], [])


def test_graph_version_counts_every_edit():
    """[TRIVIAL] connect, disconnect, divert_users, node creation,
    remove_node and batch port removal each raise Graph.version."""
    g = Graph()
    seen = [g.version]

    def bumped():
        assert g.version > seen[-1]
        seen.append(g.version)

    lam = g.begin_lambda(g.root, "f")                   # _new_node
    bumped()
    body = lam.subregions[0]
    one = g.add_simple(body, const(1, I64), [])         # _new_node
    bumped()
    two = g.add_simple(body, const(2, I64), [])
    bumped()
    g.lambda_finish(lam, [one.outputs[0]])              # _splice
    bumped()
    res = body.results[0]
    g.connect(res, two.outputs[0])
    bumped()
    g.divert_users(two.outputs[0], one.outputs[0])
    bumped()
    g.disconnect(res)
    bumped()
    g.remove_node(two)
    bumped()
    g.omega_add_import("x", I64)
    g.omega_remove_imports({0})                         # _drop_ports
    bumped()


def test_plan_cache_does_not_keep_graphs_alive():
    """[TRIVIAL] Plans are cached per graph without keeping it alive."""
    g = construct(load_corpus("gcd.ir"))
    assert outcome_rvsdg(g, "gcd", (48, 18)) == ("ok", [6], [])
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None
