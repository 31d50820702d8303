"""Destruction tests: region graph back to source form.

[DERIVED] oracles are the interpreter comparison; [TRIVIAL] oracles
assert the output is well-formed source.
"""

from regionir import randprog
from regionir.parser import check_module, parse, print_module
from regionir.destruct import destruct
from regionir.passes.pipeline import PASSES
from regionir.source import ARITH, CMP, validate_cfg

from conftest import assert_closes, assert_equivalent, build, load_corpus


def test_roundtrip_output_is_checkable(fixture_name):
    """[TRIVIAL] destruct(construct(m)) parses, checks, and is valid
    SSA again."""
    mod = load_corpus(fixture_name)
    back = destruct(build(mod))
    check_module(back)
    reparsed = parse(print_module(back))
    check_module(reparsed)
    for fn in back.functions.values():
        assert validate_cfg(fn, mode="ssa") == []


def test_roundtrip_preserves_behavior(fixture_name):
    """[DERIVED] Source, graph, and reconstructed source agree on
    random inputs, traces included."""
    mod = load_corpus(fixture_name)
    g = build(mod)
    assert_equivalent(mod, g, fixture_name, back=destruct(g))


def test_signatures_survive_the_roundtrip(fixture_name):
    """[TRIVIAL] Function names, export flags, param and result types
    are unchanged by the roundtrip."""
    mod = load_corpus(fixture_name)
    back = destruct(build(mod))
    assert set(back.functions) == set(mod.functions)
    for name, fn in mod.functions.items():
        bfn = back.functions[name]
        assert bfn.export == fn.export
        assert [t for _, t in bfn.params] == [t for _, t in fn.params]
        assert bfn.ret_ty == fn.ret_ty
    assert set(back.externals) == set(mod.externals)
    assert set(back.globals_) == set(mod.globals_)


def test_roundtrip_is_deterministic(fixture_name):
    """[DERIVED] Two independent construct/destruct runs over the same
    module print byte-identical text."""
    a = print_module(destruct(build(load_corpus(fixture_name))))
    b = print_module(destruct(build(load_corpus(fixture_name))))
    assert a == b


EVERY_OP = """\
external @emit : fn(i64) -> ()
external @poll : fn() -> i64

define i64 @sq(i64 %v) {
e:
  %r = mul i64 %v, %v
  ret i64 %r
}

define () @note(i64 %v) {
e:
  call () @emit(i64 %v)
  ret
}

define i64 @ind(fn(i64) -> i64 %f, fn(i64) -> () %g, i64 %x) {
e:
  call () %g(i64 %x)
  %y = call i64 %f(i64 %x)
  ret i64 %y
}

export define i64 @all(i64 %a, i64 %b, f64 %c) {
e:
  %p = alloca i64
  %q = gep i64 %p, 1
  store i64 %a, %q
  store i64 7, %p
  %l = load i64, %q
  %m = load i64, %p
  %n = neg i64 %l
  %fn = neg f64 %c
  %fa = add f64 %fn, 1.5
  %fs = sub f64 %fa, %c
  %fm = mul f64 %fs, 2.0
  %fd = div f64 %fm, 4.0
  %d = or i64 %b, 1
  %s1 = add i64 %a, %m
  %s2 = sub i64 %s1, 3
  %s3 = mul i64 %s2, %n
  %s4 = div i64 %s3, %d
  %s5 = rem i64 %s4, %d
  %s6 = shl i64 %s5, 2
  %s7 = shr i64 %s6, 1
  %s8 = and i64 %s7, %a
  %s9 = xor i64 %s8, %b
  %c1 = eq i64 %a, %b
  %c2 = ne i64 %s9, 0
  %c3 = lt i64 %s9, %a
  %c4 = le f64 %fd, 0.0
  %c5 = gt i64 %s4, %s5
  %c6 = ge f64 %fd, %c
  %u = undef i64
  %z = add i64 %u, %s9
  %t = call i64 @sq(i64 %z)
  call () @note(i64 %t)
  %i = call i64 @ind(fn(i64) -> i64 @sq, fn(i64) -> () @emit, i64 %a)
  %o = call i64 @poll()
  %r = add i64 %i, %o
  ret i64 %r
}
"""


def _op_multiset(mod):
    return sorted((i.op, str(i.ty)) for fn in mod.functions.values()
                  for b in fn.blocks for i in b.instrs if i.op != "copy")


def test_every_instruction_survives_the_roundtrip():
    """[DERIVED] Construction and destruction translate every simple
    operation through its signature and back: alloca, load, store (a
    variable and a literal value), gep, neg on i64 and f64, every
    arithmetic and comparison operation, undef, and direct and
    indirect calls with and without a result come back as the same
    (operation, type) multiset, check, and agree with the source."""
    mod = parse(EVERY_OP)
    ops_seen = {op for op, _ in _op_multiset(mod)}
    assert ops_seen >= set(ARITH) | set(CMP) | {
        "alloca", "load", "store", "gep", "neg", "undef", "call"}
    g = build(mod)
    back = destruct(g)
    check_module(back)
    assert _op_multiset(back) == _op_multiset(mod)
    assert_equivalent(mod, g, "every_op", back=back)


def test_unrolled_round_trip_closes():
    """[DERIVED] After unrolling, a loop variable carries an i1
    selector on one path and a ctl literal on another.  Destruction
    declares it at the selector's type, so its output constructs again
    with the source's exported types (seed 1000 under URL, factor 4)."""
    mod = parse(randprog.generate(1000, size=1))
    g = build(mod)
    PASSES["URL"](g, factor=4)
    back = destruct(g)
    check_module(back)
    assert_closes(mod, back)
