"""Construction tests: source module to region graph.

The oracle for behavioral claims is the twin-interpreter comparison
from conftest [DERIVED]; structural claims are [TRIVIAL].
"""

import random
import re

import pytest

from regionir import randprog, render
from regionir.parser import parse, check_module, print_module
from regionir.build import construct, prepare_tree, MEMVAR, IOVAR
from regionir.controltree import (CTBlock, CTLinear, CTBranch, CTLoop,
                                  build_control_tree, IrreducibleError)
from regionir.restructure import restructure
from regionir.types import I64, IO, MEM

from conftest import (assert_equivalent, build, corpus_files, load_corpus,
                      random_size)


def test_corpus_constructs_and_validates(fixture_name):
    """[TRIVIAL] Every corpus program builds a graph with zero
    structural violations, and construction leaves the module as it
    was: it rewrites copies of the function bodies."""
    mod = load_corpus(fixture_name)
    text = print_module(mod)
    build(mod)
    assert print_module(mod) == text


def test_corpus_construction_is_behavior_preserving(fixture_name):
    """[DERIVED] Source and graph agree on random inputs."""
    mod = load_corpus(fixture_name)
    assert_equivalent(mod, build(mod), fixture_name)


_LOCAL = re.compile(r"%([A-Za-z_.][A-Za-z0-9_.]*)|^([A-Za-z_][A-Za-z0-9_.]*):",
                    re.M)


# The stems of the names construction makes, without their '.'.
_COMPILER_STEMS = ("r", "e", "lt", "rv", "t", "s", "d", "q", "x", "lx", "lh",
                   "lr", "le", "ln", "n", "p", "j", "a", "ret")


def _renamed(text, seed, scheme):
    """`text` with every local variable and label renamed: each gets a
    distinct number drawn by a seeded shuffle, so neither the names'
    string order nor their lengths follow the old ones.  The "shuffle"
    scheme spells a name `w` and its number; the "compiler" scheme
    spells the first two 'mem' and 'io' and the rest as a stem of
    construction's own names and its number."""
    names = sorted({m.group(1) or m.group(2) for m in _LOCAL.finditer(text)})
    numbers = random.Random(seed).sample(range(10 * len(names)), len(names))
    if scheme == "shuffle":
        spellings = ["w%d" % k for k in numbers]
    else:
        spellings = ["mem", "io"] + [
            "%s%d" % (_COMPILER_STEMS[k % len(_COMPILER_STEMS)], k)
            for k in numbers]
    new = dict(zip(names, spellings))

    def rename(m):
        return "%" + new[m.group(1)] if m.group(1) else new[m.group(2)] + ":"

    return _LOCAL.sub(rename, text)


_SOURCES = corpus_files() + ["seed%d" % s for s in range(40)]


@pytest.mark.parametrize("source,scheme", [
    pytest.param(source, scheme, id=source + suffix)
    for scheme, suffix in (("shuffle", ""), ("compiler", "-compiler"))
    for source in _SOURCES])
def test_construction_does_not_depend_on_names(source, scheme):
    """[TRIVIAL] Renaming every local variable and label leaves the
    graph as it was: construction orders ports and blocks by the
    program's structure, not by how its names are spelled, and its own
    fresh names cannot meet a source name, even one spelled like them
    without the '.'."""
    if source.startswith("seed"):
        seed = int(source[4:])
        text = randprog.generate(seed, size=random_size(seed))
    else:
        text = print_module(load_corpus(source))
    renamed = _renamed(text, seed=len(text), scheme=scheme)
    assert renamed != text
    assert render.dump(build(parse(renamed))) == render.dump(build(parse(text)))


def test_unreachable_blocks_are_dropped():
    """[DERIVED] Blocks no path reaches do not confuse construction,
    and their phi entries vanish with them."""
    mod = parse(
        "export define i64 @f(i64 %a) {\n"
        "e:\n  br label %out\n"
        "dead:\n  %x = add i64 %a, 1\n  br label %out\n"
        "out:\n  %v = phi i64 [%a, %e], [%x, %dead]\n  ret i64 %v\n}")
    check_module(mod)
    g = build(mod)
    assert_equivalent(mod, g, "unreachable")


def test_irreducible_cfg_restructures():
    """[DERIVED] A two-entry cycle still builds (the restructurer
    funnels it) and behaves identically."""
    mod = load_corpus("irreducible.ir")
    assert_equivalent(mod, build(mod), "irreducible.ir")


def test_control_tree_rejects_leftover_tangles():
    """[TRIVIAL] build_control_tree refuses a CFG it cannot reduce;
    restructuring first makes the same CFG reducible."""
    mod = load_corpus("irreducible.ir")
    fn = mod.functions["weave"]
    try:
        build_control_tree(fn)
    except IrreducibleError:
        pass
    else:
        raise AssertionError("expected IrreducibleError on the raw CFG")


def test_control_tree_takes_one_loop_tail_shape():
    """[TRIVIAL] A self loop folds only if it branches to [exit, repeat],
    the tail restructuring makes; the reversed tail is rejected."""
    text = ("export define i64 @f(i64 %n) {\n"
            "e:\n  br label %h\n"
            "h:\n  %n = sub i64 %n, 1\n  %c = gt i64 %n, 0\n"
            "  branch i1 %c, [TARGETS]\n"
            "x:\n  ret i64 %n\n}")
    fn = parse(text.replace("TARGETS", "%x, %h")).functions["f"]
    assert isinstance(build_control_tree(fn).children[1], CTLoop)
    fn = parse(text.replace("TARGETS", "%h, %x")).functions["f"]
    with pytest.raises(IrreducibleError, match=r"\[exit, repeat\]"):
        build_control_tree(fn)


def test_gcd_tree_shape():
    """[DERIVED] gcd reduces to: entry block, tail-controlled loop
    around the compare/remainder diamond, then the exit blocks."""
    mod = load_corpus("gcd.ir")
    _, tree = prepare_tree(mod.functions["gcd"], {MEMVAR, IOVAR})
    assert isinstance(tree, CTLinear)
    assert isinstance(tree.children[0], CTBlock)
    assert tree.children[0].block.name == "entry"
    assert isinstance(tree.children[1], CTLoop)
    loop = tree.children[1]
    assert isinstance(loop.body, CTLinear)
    assert any(isinstance(c, CTBranch) for c in loop.body.children)


def test_gcd_demand_annotation():
    """[DERIVED] The loop node demands exactly the live loop state:
    x and y plus the threaded memory and io pseudo-variables."""
    mod = load_corpus("gcd.ir")
    _, tree = prepare_tree(mod.functions["gcd"], {MEMVAR, IOVAR})
    loop = tree.children[1]
    assert sorted(loop.demand_in) == [IOVAR, MEMVAR, "x", "y"]
    assert sorted(loop.reads) == ["x", "y"]


def _one_sided(extra):
    """A two-way branch where only `t` writes x and neither side writes
    y; both are used after the join.  `extra` goes into `t`."""
    mod = parse(
        "export define i64 @f(i64 %a, i64 %b) {\n"
        "e:\n  %p = alloca i64\n  %x = add i64 %a, 1\n"
        "  %y = add i64 %b, 1\n  %c = lt i64 %a, 0\n"
        "  branch i1 %c, [%t, %u]\n"
        "t:\n  %x = mul i64 %a, 3\n" + extra + "  br label %j\n"
        "u:\n  %z = add i64 %b, 2\n  br label %j\n"
        "j:\n  %r = add i64 %x, %y\n  ret i64 %r\n}")
    check_module(mod)
    g = build(mod)
    (gamma,) = [n for n in g.all_nodes() if n.kind == "gamma"]
    return mod, g, gamma


def test_gamma_routes_only_what_an_alternative_writes():
    """[DERIVED] The gamma gets one exit, for x, the only demanded
    variable an alternative writes.  Its entries are x (u passes it
    on) and what the alternatives read; y's user after the join takes
    y's port from before the gamma.  Without stateful operations in the
    alternatives no state port touches the gamma; a store in one adds
    the memory exit and no io exit."""
    mod, g, gamma = _one_sided("")
    assert [o.ty for o in gamma.outputs] == [I64]
    a, b = gamma.region.args[:2]
    adds = {n.inputs[0].origin: n for n in gamma.region.nodes
            if n.kind == "simple" and n.op.name == "add"}
    x_before, y_before, joined = adds[a], adds[b], adds[gamma.outputs[0]]
    assert [u.origin for u in gamma.inputs[1:]] == [a, b,
                                                   x_before.outputs[0]]
    assert joined.inputs[1].origin is y_before.outputs[0]
    assert_equivalent(mod, g, "one-sided write")

    mod, g, gamma = _one_sided("  store i64 %x, %p\n")
    assert sorted(str(o.ty) for o in gamma.outputs) == ["i64", "mem"]
    tys = [u.ty for u in gamma.inputs]
    assert MEM in tys and IO not in tys
    assert_equivalent(mod, g, "one-sided store")


def test_mutual_recursion_shares_one_phi():
    """[TRIVIAL] is_even/is_odd land in a single recursion node."""
    mod = load_corpus("mutual.ir")
    g = build(mod)
    phis = [n for n in g.all_nodes() if n.kind == "phi"]
    assert len(phis) == 1
    lams = [n for n in g.all_nodes() if n.kind == "lambda"]
    assert len(lams) == 3   # is_even, is_odd, parity


def test_globals_become_delta_nodes():
    """[TRIVIAL] Each global turns into one delta in the root region."""
    mod = load_corpus("globals.ir")
    g = build(mod)
    deltas = [n for n in g.root.nodes if n.kind == "delta"]
    assert len(deltas) == len(mod.globals_)


def test_externals_become_imports():
    """[TRIVIAL] Declared externals show up as omega arguments."""
    mod = load_corpus("externals.ir")
    g = build(mod)
    assert len(g.root.args) == len(mod.externals)


def test_restructure_output_is_branch_free_of_cycles():
    """[TRIVIAL] After restructuring, the control tree always builds
    for every corpus function."""
    for name in ("irreducible.ir", "multi_exit.ir", "collatz.ir",
                 "nested_loops.ir"):
        mod = load_corpus(name)
        for fn in mod.functions.values():
            restructure(fn)
            build_control_tree(fn)
