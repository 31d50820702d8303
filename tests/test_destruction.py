"""Destruction tests: region graph back to source form.

[DERIVED] oracles are the interpreter comparison; [TRIVIAL] oracles
assert the output is well-formed source.
"""

import pytest

from regionir import ops, randprog
from regionir.graph import Graph
from regionir.parser import canonical, check_module, parse, print_module
from regionir.destruct import destruct
from regionir.passes import DEFAULT_ORDER, PassConfig, run_pipeline
from regionir.passes.pipeline import PASSES
from regionir.source import (ARITH, CMP, Br, Branch, Function, Ret, idoms,
                             predecessors, validate_cfg)
from regionir.types import I1, I64

from conftest import (LADDER, assert_closes, assert_equivalent, build,
                      corpus_files, load_corpus, load_source, random_size)


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


# The corpus programs whose round trip reaches a fixpoint both with no
# passes and after the default schedule.
FIXPOINTS = """deadcode div_guard fib_rec floats globals indirect_calls
    inline_target kway loads_state max_puts memory mul_chain mutual
    narrow_ints select_chain self_rec shifty straightline undef_path
    void_fn""".split()
# The same for random programs: Tier-1 seeds at their Tier-1 sizes, and
# two rungs of the benchmark ladder (seed 7 at sizes 4 and 5).
RANDOM_FIXPOINTS = [(seed, random_size(seed))
                    for seed in (3, 16, 33, 51, 53, 66, 79, 97)] \
    + [(7, 4), (7, 5)]


def _fixpoint_source(case):
    if isinstance(case, str):
        return load_corpus(case + ".ir")
    seed, size = case
    return parse(randprog.generate(seed, size=size))


@pytest.mark.parametrize("schedule", ["", DEFAULT_ORDER],
                         ids=["no_passes", "default"])
@pytest.mark.parametrize(
    "case", FIXPOINTS + RANDOM_FIXPOINTS,
    ids=FIXPOINTS + ["seed%d_size%d" % c for c in RANDOM_FIXPOINTS])
def test_second_round_trip_is_a_fixpoint(case, schedule):
    """[DERIVED] With P1 = destruct(construct(P)), after `schedule`,
    destruct(construct(P1)) is P1 up to renaming."""
    g = build(_fixpoint_source(case))
    run_pipeline(g, PassConfig(passes=schedule.split()))
    first = destruct(g)
    assert canonical(destruct(build(first))) == canonical(first)


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


def test_a_value_only_passed_on_unread_gets_no_phi():
    """[DERIVED] A loop variable that only a gamma entry no alternative
    reads and a match with no user take (RED leaves such uses for DNE)
    gets no header phi; the counter beside it gets one."""
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    n = g.lambda_add_params(lam, [I64])[0]
    th = g.begin_theta(lam.subregions[0])
    (count, passed), (out, _) = g.theta_add_loopvars(th, [n, n])
    body = th.subregions[0]
    one = g.add_simple(body, ops.const(1, I64), []).outputs[0]
    dec = g.add_simple(body, ops.SimpleOp("sub", I64), [count, one]).outputs[0]
    zero = g.add_simple(body, ops.const(0, I64), []).outputs[0]
    c = g.add_simple(body, ops.SimpleOp("ne", I64), [dec, zero]).outputs[0]
    m = g.add_simple(body, ops.identity_match(I1, 2), [c]).outputs[0]
    gamma = g.begin_gamma(body, m, 2)
    g.gamma_add_entries(gamma, [passed], [(0, 1)])
    g.add_simple(body, ops.identity_match(I64, 2), [passed])
    g.theta_set_predicate(th, m)
    g.theta_set_result(th, 0, dec)
    g.theta_set_result(th, 1, one)
    g.lambda_finish(lam, [out])
    assert g.validate() == []
    back = destruct(g)
    check_module(back)
    fn = back.functions["f"]
    assert validate_cfg(fn, mode="ssa") == []
    assert [len(b.phis) for b in fn.blocks if b.phis] == [1]


# -- empty alternatives ----------------------------------------------------

def _branching(fn):
    """The one block of `fn` that ends in a `Branch`."""
    [head] = [b for b in fn.blocks if isinstance(b.term, Branch)]
    return head


def _br_only(fn):
    return [b for b in fn.blocks
            if not b.phis and not b.instrs and isinstance(b.term, Br)]


IF_WITHOUT_ELSE = """\
export define i64 @f(i64 %x) {
entry:
  %c = lt i64 %x, 0
  branch i1 %c, [%join, %neg]
neg:
  %n = sub i64 0, %x
  br label %join
join:
  %r = phi i64 [%x, %entry], [%n, %neg]
  ret i64 %r
}
"""


def test_an_empty_alternative_is_an_edge_to_the_join():
    """[DERIVED] The empty arm of an if without an else becomes the
    branch's edge to the join, and the join's phi takes that arm's
    value from the branching block."""
    mod = parse(IF_WITHOUT_ELSE)
    g = build(mod)
    back = destruct(g)
    fn = back.functions["f"]
    head = _branching(fn)
    [join] = [b for b in fn.blocks if b.phis]
    assert join.name in head.term.targets
    assert head.name in [lbl for _, lbl in join.phis[0].entries]
    assert _br_only(fn) == []
    assert validate_cfg(fn, mode="ssa") == []
    assert_equivalent(mod, g, "if_without_else", back=back)


TWO_EMPTY_ARMS = """\
export define i64 @f(i64 %s, i64 %x) {
entry:
  %k = and i64 %s, 3
  branch i64 %k, [%a, %b, %c]
a:
  %y = add i64 %x, 1
  br label %j
b:
  br label %j
c:
  br label %j
j:
  %r = phi i64 [%y, %a], [%x, %b], [%s, %c]
  ret i64 %r
}
"""


def test_only_one_empty_alternative_goes_direct_to_a_join_with_phis():
    """[DERIVED] Of two empty arms feeding a phi, the first becomes the
    edge to the join and the second keeps its `br`-only block: a phi
    has one entry per predecessor block."""
    mod = parse(TWO_EMPTY_ARMS)
    g = build(mod)
    back = destruct(g)
    fn = back.functions["f"]
    head = _branching(fn)
    [join] = [b for b in fn.blocks if b.phis]
    [kept] = _br_only(fn)
    assert head.term.targets.count(join.name) == 1
    assert kept.name in head.term.targets and kept.term.target == join.name
    assert validate_cfg(fn, mode="ssa") == []
    assert_equivalent(mod, g, "two_empty_arms", back=back)


ONE_CALLING_ARM = """\
external @emit : fn(i64) -> ()

export define i64 @f(i64 %s, i64 %x) {
entry:
  %k = and i64 %s, 3
  branch i64 %k, [%a, %b, %c, %d]
a:
  br label %j
b:
  call () @emit(i64 %x)
  br label %j
c:
  br label %j
d:
  br label %j
j:
  ret i64 %x
}
"""


def test_every_empty_alternative_goes_direct_to_a_join_without_phis():
    """[DERIVED] With no used exit, each of the three empty arms is an
    edge to the join, so the branch names the join three times; the
    result checks, constructs again and emits the same traces."""
    mod = parse(ONE_CALLING_ARM)
    g = build(mod)
    back = destruct(g)
    check_module(back)
    fn = back.functions["f"]
    head = _branching(fn)
    [join] = [b for b in fn.blocks if isinstance(b.term, Ret)]
    assert head.term.targets.count(join.name) == 3
    assert _br_only(fn) == []
    assert_closes(mod, back)
    assert_equivalent(mod, g, "one_calling_arm", back=back)


NOTHING_TO_JOIN = """\
export define i64 @f(i64 %x) {
entry:
  %c = lt i64 %x, 0
  branch i1 %c, [%a, %b]
a:
  br label %j
b:
  br label %j
j:
  ret i64 %x
}
"""


def test_a_gamma_that_emits_nothing_emits_no_branch():
    """[DERIVED] Both arms empty and no value joined: the branch and its
    join are left out, and the body is one block."""
    mod = parse(NOTHING_TO_JOIN)
    g = build(mod)
    back = destruct(g)
    assert [isinstance(b.term, Ret) for b in back.functions["f"].blocks] \
        == [True]
    assert_equivalent(mod, g, "nothing_to_join", back=back)


def _loop_edges(fn):
    """The headers of `fn`'s loops, and the blocks that end one (a
    latch branches back to a block that dominates it)."""
    idom = idoms(fn)

    def dominates(d, n):
        while n is not None and n != d:
            n = idom.get(n)
        return n == d

    preds = predecessors(fn.blocks)
    back_edges = [(p, h) for h in preds for p in preds[h] if dominates(h, p)]
    return {h for _, h in back_edges}, {p for p, _ in back_edges}


@pytest.mark.parametrize("schedule", ["", DEFAULT_ORDER],
                         ids=["no_passes", "default"])
@pytest.mark.parametrize("source", corpus_files() + LADDER)
def test_a_br_only_block_is_a_second_empty_arm(source, schedule):
    """[DERIVED] Apart from an entry block and a block on a loop's way
    in (it jumps to a header) or out (a latch branches to it), a block
    holding only a `br` is an empty gamma alternative that could not be
    an edge: a `Branch` targets it, and its own target is a join with
    phis that the same `Branch` already targets directly."""
    g = build(load_source(source))
    run_pipeline(g, PassConfig(passes=schedule.split()))
    back = destruct(g)
    bodies = list(back.functions.values()) + [
        Function(v.name, [], v.ty, blocks=v.blocks)
        for v in back.globals_.values()]
    for fn in bodies:
        bmap = fn.block_map()
        preds = predecessors(fn.blocks)
        headers, latches = _loop_edges(fn)
        for b in _br_only(fn):
            if b is fn.blocks[0] or b.term.target in headers \
                    or latches & set(preds[b.name]):
                continue
            [head] = preds[b.name]
            term = bmap[head].term
            assert isinstance(term, Branch), (fn.name, b.name)
            assert bmap[b.term.target].phis, (fn.name, b.name)
            assert b.term.target in term.targets, (fn.name, b.name)
