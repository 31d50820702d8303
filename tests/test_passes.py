"""Per-pass unit tests.

Each optimization claim is checked two ways: structurally, against the
documented effect of the pass on a fixture crafted to exercise it, and
behaviorally through the twin-interpreter oracle [DERIVED].  Counting
helpers are [TRIVIAL].
"""

import pytest

from regionir.build import construct
from regionir.graph import Graph
from regionir.interp import eval_rvsdg
from regionir.ops import SimpleOp, const
from regionir.parser import parse, check_module
from regionir.types import F64, I64, IO, MEM
from regionir.render import dump
from regionir.passes import PassConfig, PassError, run_pipeline
from regionir.passes.pipeline import (DEFAULT_ORDER, PASSES, format_stats,
                                      node_count, parse_passes)
from regionir.passes import cne, dne, iln, inv, ivt, pll, psh, red, url

from conftest import (LADDER, assert_equivalent, bits, build, corpus_files,
                      load_corpus, load_source, outcome_cfg, outcome_rvsdg)


def _ops(graph, name, region_pred=None):
    return [n for n in graph.all_nodes()
            if n.kind == "simple" and n.op.name == name
            and (region_pred is None or region_pred(n.region))]


def _inside(kind):
    def pred(region):
        while region is not None and region.owner is not None:
            if region.owner.kind == kind:
                return True
            region = region.owner.region
        return False
    return pred


def _checked(mod, graph, fixture):
    assert graph.validate() == []
    assert_equivalent(mod, graph, fixture)


# -- DNE --------------------------------------------------------------------

def test_dne_removes_exactly_the_dead_chain():
    """[DERIVED] deadcode.ir has a two-node dead chain; DNE removes
    both and nothing else."""
    mod = load_corpus("deadcode.ir")
    g = build(mod)
    before = node_count(g)
    dne.run(g)
    assert node_count(g) == before - 2
    assert _ops(g, "mul") == []
    assert len(_ops(g, "add")) == 1
    _checked(mod, g, "deadcode.ir")


def test_dne_is_idempotent():
    """[DERIVED] A second run changes nothing, byte for byte."""
    g = build(load_corpus("loop_motion.ir"))
    dne.run(g)
    once = dump(g)
    dne.run(g)
    assert dump(g) == once


def test_dne_keeps_a_loop_nobody_reads():
    """[DERIVED] A possibly-endless loop whose outputs are dead still
    runs: deleting it would turn non-termination into termination."""
    mod = load_corpus("endless.ir")
    g = build(mod)
    dne.run(g)
    assert any(n.kind == "theta" for n in g.all_nodes())
    from conftest import outcome_cfg, outcome_rvsdg
    assert outcome_rvsdg(g, "spin", [1], fuel=3000) == ("trap", "fuel")
    assert outcome_rvsdg(g, "spin", [0], fuel=3000) == ("ok", [0], [])


_SPIN = ("t:\n  %b = copy i64 %a\n  br label %h\n"
         "h:\n  %b = sub i64 %b, 1\n  %go = lt i64 %b, 1\n"
         "  branch i1 %go, [%j, %h]\n"
         "j:\n  ret i64 %a\n}")
_SPIN_IN_GAMMA = {
    # the loop sits in one alternative and writes nothing read later
    "flat": "e:\n  %c = lt i64 %a, 1\n  branch i1 %c, [%j, %t]\n",
    # the same, one gamma further in
    "nested": "e:\n  %c = lt i64 %a, 1\n  branch i1 %c, [%j, %s]\n"
              "s:\n  %d = lt i64 %a, -5\n  branch i1 %d, [%t, %j]\n",
    # a loop in an outer loop's body, spinning for every %a < 1, whose
    # counter nothing reads; past the outer loop, %a < -5 skips the
    # loop at %t, so only this one spins for -9
    "in_loop": "e:\n  %k = copy i64 0\n  br label %o\n"
               "o:\n  %d = copy i64 %a\n  br label %s\n"
               "s:\n  %d = sub i64 %d, 1\n  %g = lt i64 %d, 1\n"
               "  branch i1 %g, [%x, %s]\n"
               "x:\n  %k = add i64 %k, 1\n  %m = lt i64 %k, 2\n"
               "  branch i1 %m, [%y, %o]\n"
               "y:\n  %c = lt i64 %a, -5\n  branch i1 %c, [%t, %j]\n",
}


@pytest.mark.parametrize("shape", sorted(_SPIN_IN_GAMMA))
def test_a_loop_in_a_gamma_nobody_reads_still_runs(shape):
    """[DERIVED] A gamma or a loop whose outputs nothing uses still runs
    when it holds a loop, since the loop may never terminate: the graph spins
    where the source does after construction, after DNE, and after INV
    and DNE."""
    mod = parse("export define i64 @f(i64 %a) {\n"
                + _SPIN_IN_GAMMA[shape] + _SPIN)
    check_module(mod)
    expect = {a: outcome_cfg(mod, "f", [a], fuel=3000) for a in (0, 5, -9)}
    assert expect[0] == ("trap", "fuel")
    for steps in ((), (dne,), (inv, dne)):
        g = build(mod)
        for p in steps:
            p.run(g)
        assert g.validate() == []
        assert any(n.kind == "theta" for n in g.all_nodes())
        for a, want in expect.items():
            assert outcome_rvsdg(g, "f", [a], fuel=3000) == want, (steps, a)


def test_dne_mark_matches_sweep():
    """[DERIVED] After one sweep every surviving node is demanded or
    pinned: a fresh mark finds zero dead nodes."""
    for fixture in ("deadcode.ir", "loop_motion.ir", "mutual.ir"):
        g = build(load_corpus(fixture))
        dne.run(g)
        demanded, kept = dne.mark(g)
        dead = [n for n in g.all_nodes()
                if n.outputs and n not in kept
                and not any(o in demanded for o in n.outputs)]
        assert dead == []


def _gamma_args(graph):
    """Every gamma of `graph` with its alternatives' arguments."""
    return [(n, [a for sub in n.subregions for a in sub.args])
            for n in graph.all_nodes() if n.kind == "gamma"]


@pytest.mark.parametrize("source", ["ladder:3", "ladder:7"] + corpus_files())
def test_default_schedule_leaves_only_read_alternative_arguments(source):
    """[DERIVED] An alternative binds only the entries it reads.  After
    the default schedule, on every corpus program and on the ladder
    programs of seeds 3 and 7 at every size from 1 to 16, every argument
    of a gamma alternative has a user, and every entry is bound by at
    least one alternative."""
    if source.startswith("ladder:"):
        mods = [load_source("%s:%d" % (source, size))
                for size in range(1, 17)]
    else:
        mods = [load_corpus(source)]
    for mod in mods:
        g = construct(mod)
        run_pipeline(g)
        for gamma, args in _gamma_args(g):
            assert all(a.users for a in args), (source, gamma)
            assert {a.index for a in args} == \
                set(range(len(gamma.inputs) - 1)), (source, gamma)


# -- CNE --------------------------------------------------------------------

def test_cne_merges_congruent_multiplications():
    """[DERIVED] The four-multiplication kernel has two congruent
    products; CNE plus DNE leaves exactly three."""
    mod = load_corpus("mul_chain.ir")
    g = build(mod)
    assert len(_ops(g, "mul")) == 4
    cne.run(g)
    dne.run(g)
    assert len(_ops(g, "mul")) == 3
    _checked(mod, g, "mul_chain.ir")


def test_cne_never_merges_loads_across_a_store():
    """[DERIVED] Two loads of the same address separated by a store
    have different memory-state origins and must both survive."""
    mod = load_corpus("loads_state.ir")
    g = build(mod)
    n_loads = len(_ops(g, "load"))
    cne.run(g)
    dne.run(g)
    assert len(_ops(g, "load")) == n_loads
    _checked(mod, g, "loads_state.ir")


def test_cne_dedupes_constants_per_region():
    """[TRIVIAL] Two identical literals in one region end up shared."""
    mod = parse("export define i64 @f(i64 %a) {\n"
                "e:\n  %x = add i64 %a, 7\n  %y = mul i64 %a, 7\n"
                "  %z = add i64 %x, %y\n  ret i64 %z\n}")
    check_module(mod)
    g = build(mod)
    cne.run(g)
    dne.run(g)
    assert len(_ops(g, "const")) == 1
    _checked(mod, g, "two sevens")


def test_cne_keeps_signed_zero_literals_apart():
    """[DERIVED] -0.0 == 0.0, but x * -0.0 - x * 0.0 is -0.0 for a
    positive x; merging the two literals would make it 0.0."""
    assert const(-0.0, F64) != const(0.0, F64)
    assert const(0, F64) == const(0.0, F64)
    assert hash(const(0, F64)) == hash(const(0.0, F64))
    mod = parse("export define f64 @f(f64 %x) {\n"
                "e:\n  %a = mul f64 %x, -0.0\n  %b = mul f64 %x, 0.0\n"
                "  %c = sub f64 %a, %b\n  ret f64 %c\n}")
    check_module(mod)
    g = build(mod)
    cne.run(g)
    dne.run(g)
    assert len(_ops(g, "mul")) == 2
    assert bits(outcome_rvsdg(g, "f", [2.0])) == bits(("ok", [-0.0], []))
    _checked(mod, g, "signed zeros")


# -- INV --------------------------------------------------------------------

def test_inv_diverts_unchanging_loop_variables():
    """[DERIVED] The loop reads %k and never writes it, so %k's loop
    variable feeds itself back; INV makes the use of %k after the loop
    read the theta input instead.  DNE then trims a loop variable that
    only passes its value through, added here by hand."""
    mod = parse("export define i64 @f(i64 %n, i64 %k) {\n"
                "e:\n  %i = copy i64 0\n  %s = copy i64 0\n"
                "  %m = and i64 %n, 15\n  br label %h\n"
                "h:\n  %s = add i64 %s, %k\n  %i = add i64 %i, 1\n"
                "  %c = lt i64 %i, %m\n  branch i1 %c, [%x, %h]\n"
                "x:\n  %r = mul i64 %s, %k\n  ret i64 %r\n}")
    check_module(mod)
    g = build(mod)
    theta = next(n for n in g.all_nodes() if n.kind == "theta")
    body = theta.subregions[0]
    fixed = [theta.outputs[l] for l in range(len(theta.inputs))
             if body.results[l + 1].origin is body.args[l]]
    assert any(out.users for out in fixed)
    inv.run(g)
    assert not any(out.users for out in fixed)
    _checked(mod, g, "invariant read")

    (arg,), _ = g.theta_add_loopvars(theta, [theta.inputs[0].origin])
    g.theta_set_result(theta, len(theta.inputs) - 1, arg)
    before = len(theta.inputs)
    dne.run(g)
    assert len(theta.inputs) == before - 1
    _checked(mod, g, "invariant read")


# -- RED --------------------------------------------------------------------

def test_red_folds_constants():
    """[DERIVED] 2+3 folds away; x*1 and x+0 reduce to x."""
    mod = parse("export define i64 @f(i64 %a) {\n"
                "e:\n  %c = add i64 2, 3\n  %d = mul i64 %a, 1\n"
                "  %e = add i64 %d, 0\n  %r = add i64 %e, %c\n"
                "  ret i64 %r\n}")
    check_module(mod)
    g = build(mod)
    red.run(g)
    dne.run(g)
    # only the final %r addition survives
    assert len(_ops(g, "add")) == 1
    assert _ops(g, "mul") == []
    _checked(mod, g, "folding")


def test_red_inlines_constant_predicate_gamma():
    """[DERIVED] A branch on a constant selector disappears."""
    mod = parse("export define i64 @f(i64 %a) {\n"
                "e:\n  %c = lt i64 0, 1\n  branch i1 %c, [%x, %y]\n"
                "x:\n  ret i64 0\ny:\n  ret i64 %a\n}")
    check_module(mod)
    g = build(mod)
    red.run(g)
    dne.run(g)
    assert not any(n.kind == "gamma" for n in g.all_nodes())
    _checked(mod, g, "const branch")


def test_red_inlines_nested_constant_branches_in_one_run():
    """[DERIVED] Six branches on the literal 1, each nested in the
    taken arm of the one before: RED inlines every inlined copy's
    constant gamma in the same run, so none is left after DNE."""
    blocks = "".join("b%d:\n  branch i1 1, [%%r%d, %%b%d]\nr%d:\n"
                     "  ret i64 %d\n" % (i, i, i + 1, i, i)
                     for i in range(6))
    mod = _fn(blocks + "b6:\n  ret i64 %a\n", params="i64 %a")
    g = build(mod)
    red.run(g)
    dne.run(g)
    assert not any(n.kind == "gamma" for n in g.all_nodes())
    _checked(mod, g, "nested const branches")


def test_red_reads_a_constant_through_region_arguments():
    """[DERIVED] %k = 5 reaches the arm as a gamma entry, and the loop
    body in the other arm as an entry and then an invariant loop
    variable: RED folds k+1 and k*2 through both."""
    mod = _fn("e:\n  %k = add i64 2, 3\n  %c = lt i64 %a, 0\n"
              "  branch i1 %c, [%h, %t]\n"
              "t:\n  %x = add i64 %k, 1\n  ret i64 %x\n"
              "h:\n  %i = phi i64 [%a, %e], [%j, %h]\n"
              "  %m = mul i64 %k, 2\n  %j = sub i64 %i, %m\n"
              "  %d = gt i64 %j, 0\n  branch i1 %d, [%o, %h]\n"
              "o:\n  ret i64 %j\n", params="i64 %a")
    g = build(mod)
    red.run(g)
    dne.run(g)
    assert _ops(g, "add") == [] and _ops(g, "mul") == []
    _checked(mod, g, "constant through arguments")


def test_red_leaves_division_by_zero_alone():
    """[TRIVIAL] Folding 1/0 would erase the trap; RED must not."""
    mod = parse("export define i64 @f() {\n"
                "e:\n  %q = div i64 1, 0\n  ret i64 %q\n}")
    check_module(mod)
    g = build(mod)
    red.run(g)
    assert len(_ops(g, "div")) == 1
    _checked(mod, g, "div0 kept")


def test_match_with_a_repeated_key_takes_the_first_entry():
    """[DERIVED] A match table may name a key twice; the first entry
    wins in the graph interpreter and in RED's fold alike.  Key 1 maps
    to case 1 (then 0), so f() selects the alternative returning 20."""
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    mem, io = g.lambda_add_params(lam, [MEM, IO])
    body = lam.subregions[0]
    one = g.add_simple(body, const(1, I64), [])
    sel = g.add_simple(body, SimpleOp("match", I64, table=((1, 1), (1, 0)),
                                      default=0, k=2), one.outputs)
    gamma = g.begin_gamma(body, sel.outputs[0], 2)
    picks = [g.add_simple(sub, const(v, I64), []).outputs[0]
             for sub, v in zip(gamma.subregions, (10, 20))]
    out, = g.gamma_add_exits(gamma, [picks])
    g.lambda_finish(lam, [out, mem, io])
    g.omega_add_export("f", lam.outputs[0])
    assert g.validate() == []
    assert eval_rvsdg(g, "f", []) == ([20], [])
    red.run(g)
    dne.run(g)
    assert g.validate() == []
    assert _ops(g, "match") == [] and \
        not any(n.kind == "gamma" for n in g.all_nodes())
    assert eval_rvsdg(g, "f", []) == ([20], [])


# -- PSH --------------------------------------------------------------------

def test_psh_hoists_invariant_work_out_of_the_loop():
    """[DERIVED] The loop kernel computes b+c and b-d afresh every
    iteration; PSH recomputes them once outside the theta."""
    mod = load_corpus("loop_motion.ir")
    g = build(mod)
    in_theta = _inside("theta")
    inv.run(g)
    n_before = len(_ops(g, "add", in_theta)) + len(_ops(g, "sub", in_theta))
    psh.run(g)
    dne.run(g)
    n_after = len(_ops(g, "add", in_theta)) + len(_ops(g, "sub", in_theta))
    assert n_after < n_before
    _checked(mod, g, "loop_motion.ir")


def test_psh_does_not_hoist_trapping_ops_out_of_gamma():
    """[TRIVIAL] A division guarded by a branch stays guarded."""
    mod = load_corpus("div_guard.ir")
    g = build(mod)
    in_gamma = _inside("gamma")
    n_before = len(_ops(g, "div", in_gamma))
    assert n_before >= 1
    psh.run(g)
    assert len(_ops(g, "div", in_gamma)) == n_before
    _checked(mod, g, "div_guard.ir")


def _copies(node):
    """The nodes created after `node` in its region, by name; in the
    programs below, these are what PSH hoisted out of it."""
    nodes = node.region.nodes
    return sorted(n.opname for n in nodes[nodes.index(node) + 1:])


def test_psh_shares_one_copy_and_one_entry_per_gamma_value():
    """[DERIVED] Both alternatives compute e+1 and the literals 1 and
    7; PSH leaves one copy of each outside the gamma and adds one entry
    per value, not one per alternative."""
    mod = parse("export define i64 @f(i64 %e, i64 %p) {\n"
                "e:\n  %c = lt i64 %p, 0\n  branch i1 %c, [%t, %u]\n"
                "t:\n  %x = add i64 %e, 1\n  %y = div i64 %x, 7\n"
                "  ret i64 %y\n"
                "u:\n  %v = add i64 %e, 1\n  %w = rem i64 %v, 7\n"
                "  ret i64 %w\n}")
    check_module(mod)
    g = build(mod)
    (gamma,) = [n for n in g.all_nodes() if n.kind == "gamma"]
    entries = len(gamma.inputs)
    psh.run(g)
    assert _copies(gamma) == ["add", "const(1:i64)", "const(7:i64)"]
    assert len(gamma.inputs) == entries + 3
    dne.run(g)
    _checked(mod, g, "shared gamma hoists")


def test_psh_shares_one_copy_and_one_loopvar_per_theta_value():
    """[DERIVED] The loop body computes e+1 twice and uses the literal
    7 twice; PSH leaves one copy of e+1, 1 and 7 outside the theta and
    adds one loop variable for each.  The two i1 literals of the exit
    test's gamma move out with them."""
    mod = parse("export define i64 @f(i64 %e, i64 %n) {\n"
                "e:\n  %i = copy i64 0\n  %s = copy i64 0\n"
                "  %m = and i64 %n, 63\n  br label %h\n"
                "h:\n  %a = add i64 %e, 1\n  %b = add i64 %e, 1\n"
                "  %s = add i64 %s, %a\n  %s = xor i64 %s, %b\n"
                "  %s = mul i64 %s, 7\n  %i = add i64 %i, 7\n"
                "  %go = lt i64 %i, %m\n  branch i1 %go, [%x, %h]\n"
                "x:\n  ret i64 %s\n}")
    check_module(mod)
    g = build(mod)
    inv.run(g)
    (theta,) = [n for n in g.all_nodes() if n.kind == "theta"]
    loopvars = len(theta.inputs)
    psh.run(g)
    assert _copies(theta) == ["add", "const(0:i1)", "const(1:i1)",
                              "const(1:i64)", "const(7:i64)"]
    assert len(theta.inputs) == loopvars + 5
    dne.run(g)
    _checked(mod, g, "shared theta hoists")


def _psh_new_nodes(mod):
    """The graph of `mod` after INV and PSH, its node count before PSH,
    and the nodes PSH made."""
    g = build(mod)
    inv.run(g)
    built, last = node_count(g), max(n.id for n in g.all_nodes())
    psh.run(g)
    return g, built, [n for n in g.all_nodes() if n.id > last]


def test_psh_hoists_a_value_invariant_two_levels_deep_once():
    """[DERIVED] In a loop, a branch adds the parameter %p to 5.  That
    value is invariant in both the gamma and the theta, so PSH makes one
    copy of it, in the lambda body, and none in the loop body; s + x,
    which reads the loop's %s, gets one copy in the loop body.  After
    DNE the graph has 21 nodes, the count that hoisting one level at a
    time also reaches."""
    mod = parse("export define i64 @f(i64 %p, i64 %n) {\n"
                "e:\n  %i = copy i64 0\n  %s = copy i64 0\n"
                "  %m = and i64 %n, 7\n  br label %h\n"
                "h:\n  %c = lt i64 %i, 3\n  branch i1 %c, [%j, %t]\n"
                "t:\n  %x = add i64 %p, 5\n  %s = add i64 %s, %x\n"
                "  br label %j\n"
                "j:\n  %i = add i64 %i, 1\n  %go = lt i64 %i, %m\n"
                "  branch i1 %go, [%x, %h]\n"
                "x:\n  ret i64 %s\n}")
    g, built, made = _psh_new_nodes(mod)
    (lam,) = [n for n in g.all_nodes() if n.kind == "lambda"]
    (theta,) = [n for n in g.all_nodes() if n.kind == "theta"]
    adds = [n for n in made if n.op.name == "add"]
    in_body = [n for n in adds if n.region is lam.subregions[0]]
    in_loop = [n for n in adds if n.region is theta.subregions[0]]
    assert len(adds) == 2 and len(in_body) == len(in_loop) == 1
    assert in_body[0].inputs[0].origin is lam.subregions[0].args[0]
    dne.run(g)
    assert built == node_count(g) == 21
    _checked(mod, g, "two-level hoist")


def test_psh_moves_a_trapping_op_out_of_a_loop_but_not_a_branch():
    """[DERIVED] A loop inside a branch divides %p by %q.  The division
    is invariant in both, but it may trap, so PSH copies it out of the
    theta into the gamma alternative and no further.  After DNE the one
    division left is that copy, and the graph has 20 nodes, the count
    that hoisting one level at a time also reaches."""
    mod = parse("export define i64 @f(i64 %p, i64 %q, i64 %n) {\n"
                "e:\n  %i = copy i64 0\n  %s = copy i64 0\n"
                "  %m = and i64 %n, 7\n"
                "  %c = lt i64 %q, 0\n  branch i1 %c, [%h, %x]\n"
                "h:\n  %d = div i64 %p, %q\n  %s = add i64 %s, %d\n"
                "  %i = add i64 %i, 1\n  %go = lt i64 %i, %m\n"
                "  branch i1 %go, [%x, %h]\n"
                "x:\n  ret i64 %s\n}")
    g, built, made = _psh_new_nodes(mod)
    (theta,) = [n for n in g.all_nodes() if n.kind == "theta"]
    (copy,) = [n for n in made if n.op.name == "div"]
    assert copy.region is theta.region
    assert copy.region.owner.kind == "gamma"
    dne.run(g)
    assert _ops(g, "div") == [copy]
    assert built == node_count(g) == 20
    _checked(mod, g, "trapping two-level hoist")


def test_psh_routes_a_value_into_one_alternative_of_four():
    """[DERIVED] Only the second of four alternatives computes p + q.
    PSH copies it out of the gamma and routes it back through one new
    entry, which that alternative alone binds: one entry and one
    argument, where binding every alternative would add four."""
    mod = parse("export define i64 @f(i64 %s, i64 %p, i64 %q) {\n"
                "e:\n  branch i64 %s, [%a, %b, %c, %d]\n"
                "a:\n  ret i64 %p\n"
                "b:\n  %x = add i64 %p, %q\n  ret i64 %x\n"
                "c:\n  ret i64 %q\n"
                "d:\n  ret i64 %s\n}")
    check_module(mod)
    g = build(mod)
    ((gamma, args),) = _gamma_args(g)
    assert len(gamma.subregions) == 4
    entries = len(gamma.inputs)
    psh.run(g)
    assert _copies(gamma) == ["add"]
    assert len(gamma.inputs) == entries + 1
    ((_, after),) = _gamma_args(g)
    assert len(after) == len(args) + 1
    (new,) = set(after) - set(args)
    assert new.region is gamma.subregions[1]
    assert new.index == entries - 1
    dne.run(g)
    _checked(mod, g, "one of four alternatives")


def test_psh_second_run_adds_nothing(fixture_name):
    """[DERIVED] The originals a run hoists lose their users, and PSH
    copies no unused node, so a second run leaves the graph as is."""
    g = build(load_corpus(fixture_name))
    psh.run(g)
    once = dump(g)
    psh.run(g)
    assert dump(g) == once


# -- PLL --------------------------------------------------------------------

def test_pll_moves_single_branch_work_into_the_branch():
    """[DERIVED] A value consumed by exactly one gamma alternative is
    recomputed inside it, so the untaken path never pays for it."""
    mod = parse("export define i64 @f(i64 %a, i64 %b) {\n"
                "e:\n  %w = mul i64 %a, %b\n  %c = lt i64 %a, 0\n"
                "  branch i1 %c, [%t, %u]\n"
                "t:\n  ret i64 %b\n"
                "u:\n  %r = add i64 %w, 1\n  ret i64 %r\n}")
    check_module(mod)
    g = build(mod)
    in_gamma = _inside("gamma")
    assert _ops(g, "mul", in_gamma) == []
    pll.run(g)
    dne.run(g)
    assert len(_ops(g, "mul", in_gamma)) == 1
    assert len(_ops(g, "mul")) == 1
    _checked(mod, g, "pull")


def _fn(body, params="i64 %a, i64 %b"):
    mod = parse("export define i64 @f(%s) {\n%s}" % (params, body))
    check_module(mod)
    return mod


def test_pll_sinks_a_chain_in_one_run():
    """[DERIVED] Only one arm reads w+3, and w = a*b feeds nothing else:
    a single run moves both into that arm and removes the originals and
    the entries it emptied, so DNE finds nothing left to remove."""
    mod = _fn("e:\n  %w = mul i64 %a, %b\n  %v = add i64 %w, 3\n"
              "  %c = lt i64 %a, 0\n  branch i1 %c, [%t, %u]\n"
              "t:\n  ret i64 %b\n"
              "u:\n  %r = xor i64 %v, %a\n  ret i64 %r\n")
    g = build(mod)
    in_gamma = _inside("gamma")
    pll.run(g)
    assert len(_ops(g, "mul", in_gamma)) == len(_ops(g, "mul")) == 1
    assert len(_ops(g, "add", in_gamma)) == len(_ops(g, "add")) == 1
    once = dump(g)
    dne.run(g)
    assert dump(g) == once
    _checked(mod, g, "pulled chain")


def test_pll_sinks_through_nested_gammas():
    """[DERIVED] w is read only in one alternative of the inner gamma,
    so one run carries it through the outer gamma into that
    alternative, beside its reader."""
    mod = _fn("e:\n  %w = mul i64 %a, %b\n  %c = lt i64 %a, 0\n"
              "  branch i1 %c, [%t, %u]\n"
              "t:\n  ret i64 %b\n"
              "u:\n  %d = lt i64 %b, 0\n  branch i1 %d, [%v, %x]\n"
              "v:\n  %r = add i64 %w, 1\n  ret i64 %r\n"
              "x:\n  ret i64 %a\n")
    g = build(mod)
    pll.run(g)
    (mul,), (add,) = _ops(g, "mul"), _ops(g, "add")
    inner = mul.region.owner
    assert inner.kind == "gamma" and inner.region.owner.kind == "gamma"
    assert mul.region is add.region
    _checked(mod, g, "pulled twice")


def test_pll_reuses_the_entries_of_an_operand():
    """[DERIVED] a and b already enter the gamma for the other arm, so
    sinking w = a*b reads those entries: the entry of w goes and none is
    added."""
    mod = _fn("e:\n  %w = mul i64 %a, %b\n  %c = lt i64 %a, 0\n"
              "  branch i1 %c, [%t, %u]\n"
              "t:\n  %s = sub i64 %a, %b\n  ret i64 %s\n"
              "u:\n  %r = add i64 %w, 1\n  ret i64 %r\n")
    g = build(mod)
    (gamma,) = [n for n in g.all_nodes() if n.kind == "gamma"]
    entries = len(gamma.inputs)
    pll.run(g)
    assert len(gamma.inputs) == entries - 1
    assert len(_ops(g, "mul", _inside("gamma"))) == 1
    _checked(mod, g, "reused entries")


_STAYS = {
    # a division may trap; inside the arm it would trap only when the
    # arm runs
    "div": "e:\n  %w = div i64 %a, %b\n  %c = lt i64 %a, 0\n"
           "  branch i1 %c, [%t, %u]\n"
           "t:\n  ret i64 %b\n"
           "u:\n  %r = add i64 %w, 1\n  ret i64 %r\n",
    # a load reads the memory state
    "load": "e:\n  %p = alloca i64\n  store i64 %a, %p\n"
            "  %w = load i64, %p\n  %c = lt i64 %a, 0\n"
            "  branch i1 %c, [%t, %u]\n"
            "t:\n  ret i64 %b\n"
            "u:\n  %r = add i64 %w, 1\n  ret i64 %r\n",
    # both arms read w
    "two_arms": "e:\n  %w = mul i64 %a, %b\n  %c = lt i64 %a, 0\n"
                "  branch i1 %c, [%t, %u]\n"
                "t:\n  %s = sub i64 %w, 1\n  ret i64 %s\n"
                "u:\n  %r = add i64 %w, 1\n  ret i64 %r\n",
    # w feeds the predicate as well as one arm
    "predicate": "e:\n  %w = and i64 %a, 7\n  %c = lt i64 %w, 3\n"
                 "  branch i1 %c, [%t, %u]\n"
                 "t:\n  ret i64 %b\n"
                 "u:\n  %r = add i64 %w, 1\n  ret i64 %r\n",
}


@pytest.mark.parametrize("case", sorted(_STAYS))
def test_pll_leaves_what_must_stay(case):
    """[DERIVED] A trapping or stateful node, a value two alternatives
    read, and a value the predicate needs stay where they are: PLL
    changes nothing."""
    mod = _fn(_STAYS[case])
    g = build(mod)
    before = dump(g)
    pll.run(g)
    assert dump(g) == before
    _checked(mod, g, case)


_SCHEDULE_SOURCES = corpus_files() + LADDER


@pytest.mark.parametrize("source", _SCHEDULE_SOURCES)
def test_pll_leaves_nothing_for_dne(source):
    """[DERIVED] Run the default schedule up to its PLL, then PLL: the
    originals it sank and the entries it emptied are gone already, so
    DNE changes nothing."""
    order = DEFAULT_ORDER.split()
    g = construct(load_source(source))
    run_pipeline(g, PassConfig(passes=order[:order.index("PLL")]))
    pll.run(g)
    once = dump(g)
    dne.run(g)
    assert dump(g) == once


@pytest.mark.parametrize("source", _SCHEDULE_SOURCES)
def test_pll_reaches_its_fixpoint_in_one_run(source):
    """[DERIVED] After the default schedule, one more PLL INV DNE finds
    nothing to sink: the schedule's one PLL run sank every chain."""
    g = construct(load_source(source))
    run_pipeline(g)
    once = dump(g)
    run_pipeline(g, PassConfig(passes=["PLL", "INV", "DNE"]))
    assert dump(g) == once


@pytest.mark.parametrize("source", _SCHEDULE_SOURCES)
def test_red_reaches_its_fixpoint_in_one_run(source):
    """[DERIVED] After the default schedule up to each of its RED steps,
    one more RED changes nothing: the walk folded every constant and
    inlined every constant gamma, nested ones included."""
    order = DEFAULT_ORDER.split()
    for step, name in enumerate(order):
        if name != "RED":
            continue
        g = construct(load_source(source))
        run_pipeline(g, PassConfig(passes=order[:step + 1]))
        once = dump(g)
        red.run(g)
        assert dump(g) == once, step


# -- ILN --------------------------------------------------------------------

def test_iln_inlines_small_callees():
    """[DERIVED] poly calls sq and twice; after inlining no apply node
    remains and behavior is unchanged."""
    mod = load_corpus("inline_target.ir")
    g = build(mod)
    assert len(_ops(g, "apply")) >= 2
    iln.run(g)
    dne.run(g)
    assert _ops(g, "apply") == []
    _checked(mod, g, "inline_target.ir")


def test_iln_leaves_recursive_functions_alone():
    """[TRIVIAL] Calls into a recursion environment are not inlined."""
    mod = load_corpus("mutual.ir")
    g = build(mod)
    n_apply = len(_ops(g, "apply"))
    iln.run(g)
    # the recursive calls inside the environment must all survive
    assert len(_ops(g, "apply", _inside("phi"))) >= 2
    _checked(mod, g, "mutual.ir")


def test_iln_follows_a_callee_past_a_branch_in_the_loop():
    """[DERIVED] The loop calls sq and holds a branch that does not
    touch sq, so the gamma does not route sq and the theta passes it
    through unchanged: ILN resolves the callee and inlines the call."""
    mod = parse("define i64 @sq(i64 %v) {\n"
                "e:\n  %r = mul i64 %v, %v\n  ret i64 %r\n}\n"
                "export define i64 @f(i64 %n) {\n"
                "e:\n  %i = copy i64 0\n  %s = copy i64 0\n"
                "  %m = and i64 %n, 63\n  br label %h\n"
                "h:\n  %t = call i64 @sq(i64 %i)\n  %s = add i64 %s, %t\n"
                "  %c = lt i64 %s, 100\n  branch i1 %c, [%a, %b]\n"
                "a:\n  %s = add i64 %s, 1\n  br label %k\n"
                "b:\n  %s = sub i64 %s, 1\n  br label %k\n"
                "k:\n  %i = add i64 %i, 1\n  %go = lt i64 %i, %m\n"
                "  branch i1 %go, [%x, %h]\n"
                "x:\n  ret i64 %s\n}")
    check_module(mod)
    g = build(mod)
    assert len(_ops(g, "apply", _inside("theta"))) == 1
    iln.run(g)
    assert _ops(g, "apply") == []
    _checked(mod, g, "call past a branch")


# -- URL --------------------------------------------------------------------

def test_url_factor_one_is_identity():
    """[TRIVIAL] Unrolling by one changes nothing, byte for byte."""
    g = build(load_corpus("counted17.ir"))
    before = dump(g)
    url.run(g, factor=1)
    assert dump(g) == before


def test_url_preserves_trip_counts():
    """[DERIVED] The counted loop agrees with its unrolled versions on
    every trip count from 0 to 17."""
    mod = load_corpus("counted17.ir")
    from conftest import outcome_cfg, outcome_rvsdg
    for factor in (2, 4):
        g = build(mod)
        url.run(g, factor=factor)
        assert g.validate() == []
        for n in range(18):
            assert (outcome_rvsdg(g, "count", [n])
                    == outcome_cfg(mod, "count", [n]))


# -- IVT --------------------------------------------------------------------

def test_ivt_turns_the_loop_inside_out():
    """[DERIVED] gcd's while loop is a theta around a gamma; inversion
    produces a gamma owning a theta, preserving behavior."""
    mod = load_corpus("gcd.ir")
    g = build(mod)

    def shape(graph):
        for n in graph.all_nodes():
            if n.kind == "theta":
                owner = n.region.owner
                yield ("theta-under-gamma" if owner is not None
                       and owner.kind == "gamma" else "theta-bare")

    assert "theta-under-gamma" not in set(shape(g))
    ivt.run(g)
    dne.run(g)
    assert "theta-under-gamma" in set(shape(g))
    _checked(mod, g, "gcd.ir")


# -- pipeline ---------------------------------------------------------------

def test_default_order_runs_every_pass():
    """[TRIVIAL] The default schedule mentions all nine passes."""
    assert set(DEFAULT_ORDER.split()) == set(PASSES)


def test_parse_passes_rejects_unknown_names():
    """[TRIVIAL]"""
    with pytest.raises(PassError):
        parse_passes("DNE NOPE")
    assert parse_passes("dne cne") == ["DNE", "CNE"]


def test_pipeline_reports_per_step_stats():
    """[TRIVIAL] One (name, before, after) triple per scheduled pass,
    rendered as stable key=value lines."""
    g = build(load_corpus("mul_chain.ir"))
    steps = run_pipeline(g, PassConfig(passes=["CNE", "DNE"]))
    assert [s[0] for s in steps] == ["CNE", "DNE"]
    text = format_stats(steps)
    assert "step00.pass=CNE" in text
    assert "step01.nodes_after=%d" % node_count(g) in text


def test_pipeline_names_the_step_that_broke_the_graph(monkeypatch):
    """[DERIVED] A pass that breaks the graph mid-schedule is caught by
    the changed-regions check right after it runs, and the error names
    its step as `format_stats` numbers it, since a schedule may run the
    same pass several times."""
    ran = []

    def breaking(g):
        gamma = next(n for n in g.all_nodes() if n.kind == "gamma")
        g._splice(gamma.subregions[0], "args", [I64])

    def counting(g):
        ran.append("DNE")
        dne.run(g)

    monkeypatch.setitem(PASSES, "PSH", breaking)
    monkeypatch.setitem(PASSES, "DNE", counting)
    g = build(load_corpus("collatz.ir"))
    schedule = DEFAULT_ORDER.split()
    with pytest.raises(PassError) as err:
        run_pipeline(g, PassConfig(passes=schedule))
    assert schedule.index("PSH") == 7
    assert str(err.value).startswith("step 07 (PSH) broke the graph: gamma ")
    assert ran == ["DNE"] * schedule[:7].count("DNE")


def test_full_pipeline_preserves_behavior_on_tricky_fixtures():
    """[DERIVED] The default schedule keeps the oracle happy on the
    fixtures that exercise every structural feature at once."""
    for fixture in ("loop_motion.ir", "nested_loops.ir", "externals.ir",
                    "endless.ir", "mutual.ir"):
        mod = load_corpus(fixture)
        g = build(mod)
        run_pipeline(g, PassConfig(unroll_factor=2))
        _checked(mod, g, fixture)
