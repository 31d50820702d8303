"""Interpreter tests for both evaluation levels.

[DERIVED] results were computed by hand from the operational rules;
[TRIVIAL] tests assert definitional behavior (trap kinds, masking).
"""

from regionir.parser import parse, check_module
from regionir.build import construct
from regionir.interp import eval_cfg, eval_rvsdg, run_to_outcome

from conftest import load_corpus, outcome_cfg, outcome_rvsdg


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
