"""Unit tests for the region graph data model.

Each test names its oracle: [TRIVIAL] asserts definitional behavior,
[DERIVED] values were computed by hand from the documented semantics.
"""

import heapq
from types import SimpleNamespace

import pytest

from regionir.build import construct
from regionir.graph import (Graph, GraphError, Port, Region, Use, carried,
                            entry_arg)
from regionir.parser import parse
from regionir.render import dump
from regionir.passes import PassConfig, run_pipeline
from regionir.passes.pipeline import PASSES
from regionir import ops, randprog
from regionir.types import I1, I32, I64, ctl, fnty

from conftest import (LADDER, corpus_files, load_corpus, load_source,
                      ports_and_uses)


def _simple_fn():
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    body = lam.subregions[0]
    a, b = g.lambda_add_params(lam, [I64, I64])
    n = g.add_simple(body, ops.SimpleOp("add", I64), [a, b])
    g.lambda_finish(lam, [n.outputs[0]])
    g.omega_add_export("f", lam.outputs[0])
    return g, lam, n


def test_validate_accepts_well_formed_graph():
    """[TRIVIAL] A hand-built add function has no violations."""
    g, lam, _ = _simple_fn()
    assert g.validate() == []
    assert lam.outputs[0].ty.kind == "fn"


def test_validate_reports_signature_mismatch():
    """[TRIVIAL] Feeding i64 values to an i32 operation is flagged."""
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    a = g.lambda_add_params(lam, [I64])[0]
    g.add_simple(lam.subregions[0], ops.SimpleOp("add", I32), [a, a])
    g.lambda_finish(lam, [])
    assert any("signature" in msg for msg in g.validate())


def test_cross_region_edge_rejected():
    """[TRIVIAL] connect refuses an origin from a different region."""
    g, lam, _ = _simple_fn()
    other = g.begin_lambda(g.root, "h")
    with pytest.raises(GraphError):
        g.add_simple(other.subregions[0], ops.SimpleOp("add", I64),
                     [lam.subregions[0].args[0]] * 2)


def test_divert_users_moves_every_edge():
    """[DERIVED] After diverting, the old port has no users and every
    former user points at the new port."""
    g, lam, n = _simple_fn()
    body = lam.subregions[0]
    c = g.add_simple(body, ops.const(1, I64), [])
    g.divert_users(n.outputs[0], c.outputs[0])
    assert n.outputs[0].users == []
    assert body.results[0].origin is c.outputs[0]
    assert g.validate() == []


def test_remove_node_detaches_it():
    """[TRIVIAL] A removed node leaves the region and its inputs are
    disconnected."""
    g, lam, n = _simple_fn()
    body = lam.subregions[0]
    c = g.add_simple(body, ops.const(0, I64), [])
    g.divert_users(n.outputs[0], c.outputs[0])
    g.remove_node(n)
    assert n.region is None
    assert n not in body.nodes
    assert g.validate() == []


def test_topological_order_respects_dependencies():
    """[DERIVED] Producers come before consumers; ties break by id."""
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    body = lam.subregions[0]
    a = g.lambda_add_params(lam, [I64])[0]
    x = g.add_simple(body, ops.const(3, I64), [])
    y = g.add_simple(body, ops.SimpleOp("mul", I64), [a, x.outputs[0]])
    z = g.add_simple(body, ops.SimpleOp("add", I64), [y.outputs[0], a])
    g.lambda_finish(lam, [z.outputs[0]])
    order = [n.id for n in g.topological_order(body)]
    assert order.index(x.id) < order.index(y.id) < order.index(z.id)


def test_gamma_shape():
    """[TRIVIAL] A two-way gamma has a ctl(2) predicate input, matching
    entry variables in both subregions, and typed exits."""
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    body = lam.subregions[0]
    a, v = g.lambda_add_params(lam, [I1, I64])
    m = g.add_simple(body, ops.identity_match(I1, 2), [a])
    gam = g.begin_gamma(body, m.outputs[0], 2)
    (e0,), (e1,) = g.gamma_add_entries(gam, [v], [(0, 1)])
    one = g.add_simple(gam.subregions[1], ops.const(1, I64), [])
    add = g.add_simple(gam.subregions[1], ops.SimpleOp("add", I64),
                       [e1, one.outputs[0]])
    out, = g.gamma_add_exits(gam, [[e0, add.outputs[0]]])
    g.lambda_finish(lam, [out])
    assert gam.inputs[0].origin.ty == ctl(2)
    assert len(gam.subregions) == 2
    assert g.validate() == []


def test_theta_shape():
    """[TRIVIAL] A theta's body result 0 is its ctl(2) predicate and
    loop variables line up input/argument/result/output."""
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    body = lam.subregions[0]
    v = g.lambda_add_params(lam, [I64])[0]
    th = g.begin_theta(body)
    (lv,), _ = g.theta_add_loopvars(th, [v])
    inner = th.subregions[0]
    one = g.add_simple(inner, ops.const(1, I64), [])
    dec = g.add_simple(inner, ops.SimpleOp("sub", I64), [lv, one.outputs[0]])
    zero = g.add_simple(inner, ops.const(0, I64), [])
    c = g.add_simple(inner, ops.SimpleOp("ne", I64),
                     [dec.outputs[0], zero.outputs[0]])
    m = g.add_simple(inner, ops.identity_match(I1, 2), [c.outputs[0]])
    g.theta_set_predicate(th, m.outputs[0])
    g.theta_set_result(th, 0, dec.outputs[0])
    g.lambda_finish(lam, [th.outputs[0]])
    assert inner.results[0].ty == ctl(2)
    assert len(th.inputs) == len(th.outputs) == len(inner.args)
    assert g.validate() == []


def test_validate_catches_dangling_result():
    """[TRIVIAL] A region result with no origin is a violation."""
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    g.lambda_add_params(lam, [I64])
    g.lambda_finish(lam, [lam.subregions[0].args[0]])
    g.disconnect(lam.subregions[0].results[0])
    assert g.validate() != []


# -- batch port removal ------------------------------------------------------

def _dense(*lists):
    return all([p.index for p in items] == list(range(len(items)))
               for items in lists)


def _lambda_with_params(g, n):
    lam = g.begin_lambda(g.root, "f")
    return lam, g.lambda_add_params(lam, [I64] * n)


def test_remove_gamma_entries_and_exits_in_one_batch():
    """[DERIVED] Dropping entries {1, 3} and exits {0, 2} of a 5-entry,
    4-exit gamma leaves entries v0, v2, v4 and exits 1, 3, in order,
    densely renumbered; a used entry or exit is refused untouched."""
    g = Graph()
    lam, vs = _lambda_with_params(g, 5)
    body = lam.subregions[0]
    sel = g.add_simple(body, ops.const(0, I1), [])
    m = g.add_simple(body, ops.identity_match(I1, 2), [sel.outputs[0]])
    gam = g.begin_gamma(body, m.outputs[0], 2)
    alts = g.gamma_add_entries(gam, vs, [(0, 1)] * 5)
    outs = g.gamma_add_exits(gam, [[args[e] for args in alts]
                                   for e in (0, 2, 4, 4)])
    g.lambda_finish(lam, [outs[1], outs[3]])
    with pytest.raises(GraphError):
        g.remove_gamma_entries(gam, {0, 1})
    with pytest.raises(GraphError):
        g.remove_gamma_exits(gam, {0, 1})
    assert len(gam.inputs) == 6 and len(gam.outputs) == 4
    assert g.validate() == []

    g.remove_gamma_exits(gam, {0, 2})
    g.remove_gamma_entries(gam, {1, 3})
    assert [u.origin for u in gam.inputs[1:]] == [vs[0], vs[2], vs[4]]
    assert gam.outputs == [outs[1], outs[3]]
    for sub in gam.subregions:
        assert [r.origin for r in sub.results] == [sub.args[1], sub.args[2]]
        assert _dense(sub.args, sub.results)
    assert _dense(gam.inputs, gam.outputs)
    assert g.validate() == []


def test_alternatives_bind_only_the_entries_they_read():
    """[DERIVED] A three-way gamma with four entries: alternative 0
    binds entries 0 and 2, alternative 1 binds entry 3, alternative 2
    none.  Each argument carries its entry's index, the arguments sit in
    entry order, `dump` prints them by entry, and the graph is valid.
    A later binding merges into that order; unbinding keeps the entries;
    dropping entries drops their arguments and lowers the later
    indices."""
    g = Graph()
    lam, vs = _lambda_with_params(g, 4)
    body = lam.subregions[0]
    sel = g.add_simple(body, ops.const(0, I64), [])
    m = g.add_simple(body, ops.identity_match(I64, 3), [sel.outputs[0]])
    gam = g.begin_gamma(body, m.outputs[0], 3)
    a0, a1, a2 = g.gamma_add_entries(gam, vs, [(0,), (), (0,), (1,)])
    sub0, sub1, sub2 = gam.subregions
    assert a0[1] is a0[3] is None and a1[:3] == [None] * 3
    assert a2 == [None] * 4
    assert sub0.args == [a0[0], a0[2]] and sub1.args == [a1[3]]
    assert [a.index for a in sub0.args + sub1.args] == [0, 2, 3]
    assert entry_arg(sub0, 2) is a0[2] and entry_arg(sub0, 1) is None
    k = g.add_simple(sub2, ops.const(5, I64), [])
    out, = g.gamma_add_exits(gam, [[a0[2], a1[3], k.outputs[0]]])
    g.lambda_finish(lam, [out])
    assert g.validate() == []
    assert "region r%d [a0:i64, a2:i64]" % sub0.id in dump(g)

    new, = g.gamma_add_args(gam, 0, [1])
    assert sub0.args == [a0[0], new, a0[2]] and new.index == 1
    assert g.validate() == []
    g.remove_gamma_args(gam, 0, [0, 1])
    assert sub0.args == [a0[2]] and a0[2].index == 2
    assert len(gam.inputs) == 5 and g.validate() == []
    g.remove_gamma_entries(gam, {0, 1})
    assert [u.origin for u in gam.inputs[1:]] == vs[2:]
    assert (a0[2].index, a1[3].index) == (0, 1)
    assert g.validate() == []


def test_remove_theta_loopvars_in_one_batch():
    """[DERIVED] Dropping loop variables {0, 2, 4} of five pass-through
    loop variables keeps 1 and 3, in order; while the dropped arguments
    still feed their results, the removal is refused untouched."""
    g = Graph()
    lam, vs = _lambda_with_params(g, 5)
    th = g.begin_theta(lam.subregions[0])
    for arg in g.theta_add_loopvars(th, vs)[0]:
        g.theta_set_result(th, arg.index, arg)
    inner = th.subregions[0]
    stop = g.add_simple(inner, ops.const(0, I1), [])
    m = g.add_simple(inner, ops.identity_match(I1, 2), [stop.outputs[0]])
    g.theta_set_predicate(th, m.outputs[0])
    g.lambda_finish(lam, [th.outputs[1], th.outputs[3]])
    with pytest.raises(GraphError):
        g.remove_theta_loopvars(th, {0, 2, 4})
    assert len(th.inputs) == 5 and g.validate() == []

    for l in (0, 2, 4):
        g.disconnect(inner.results[l + 1])
    g.remove_theta_loopvars(th, {0, 2, 4})
    assert [u.origin for u in th.inputs] == [vs[1], vs[3]]
    assert [r.origin for r in inner.results[1:]] == inner.args
    assert _dense(th.inputs, th.outputs, inner.args, inner.results)
    assert g.validate() == []


def test_remove_ctx_vars_and_imports_in_one_batch():
    """[DERIVED] A lambda capturing imports i0..i3 and using i1 and i3
    loses context variables {0, 2}; the then unused imports {0, 2} go
    too, keeping names i1, i3 in order.  A used context variable is
    refused."""
    g = Graph()
    imports = [g.omega_add_import("i%d" % k, I64) for k in range(4)]
    lam = g.begin_lambda(g.root, "f")
    ctx = g.add_ctx_vars(lam, imports)
    body = lam.subregions[0]
    n = g.add_simple(body, ops.SimpleOp("add", I64), [ctx[1], ctx[3]])
    g.lambda_finish(lam, [n.outputs[0]])
    g.omega_add_export("f", lam.outputs[0])
    with pytest.raises(GraphError):
        g.remove_ctx_vars(lam, {0, 1})
    assert lam.n_ctx == 4 and g.validate() == []

    g.remove_ctx_vars(lam, {0, 2})
    assert lam.n_ctx == 2
    assert [u.origin for u in lam.inputs] == [imports[1], imports[3]]
    assert n.inputs[0].origin is body.args[0]
    assert n.inputs[1].origin is body.args[1]
    g.omega_remove_imports({0, 2})
    assert g.import_names == ["i1", "i3"]
    assert _dense(lam.inputs, body.args, g.root.args)
    assert g.validate() == []


def test_remove_phi_recs_in_one_batch():
    """[DERIVED] In a phi with one context variable and recursion
    variables f0..f3, dropping {0, 2} keeps f1 and f3 in order, past the
    context variable; an exported recursion variable is refused."""
    g = Graph()
    imp = g.omega_add_import("x", I64)
    phi = g.begin_phi(g.root)
    g.add_ctx_vars(phi, [imp])
    g.phi_add_recs(phi, [fnty([], [I64])] * 4)
    body = phi.subregions[0]
    lams = []
    for l in range(4):
        lam = g.begin_lambda(body, "f%d" % l)
        c = g.add_simple(lam.subregions[0], ops.const(l, I64), [])
        g.lambda_finish(lam, [c.outputs[0]])
        g.phi_set_rec(phi, l, lam.outputs[0])
        lams.append(lam)
    g.omega_add_export("f1", phi.outputs[1])
    g.omega_add_export("f3", phi.outputs[3])
    with pytest.raises(GraphError):
        g.remove_phi_recs(phi, {0, 1})
    assert len(phi.outputs) == 4 and g.validate() == []

    g.remove_phi_recs(phi, {0, 2})
    assert [r.origin for r in body.results] == [lams[1].outputs[0],
                                                lams[3].outputs[0]]
    assert len(body.args) == 3 and phi.n_ctx == 1
    assert [r.origin for r in g.root.results] == phi.outputs
    assert _dense(phi.outputs, body.args, body.results)
    assert g.validate() == []


# -- every validate message ---------------------------------------------------

def _zoo():
    """A small valid graph with a node of every kind: a delta, a lambda
    holding a gamma and a theta, and a phi holding a lambda."""
    g = Graph()
    z = SimpleNamespace(g=g)
    z.imp = g.omega_add_import("x", I64)
    z.d = g.begin_delta(g.root, "d")
    z.dreg = z.d.subregions[0]
    z.c = g.add_simple(z.dreg, ops.const(7, I64), [])
    g.delta_finish(z.d, z.c.outputs[0])
    z.lam = g.begin_lambda(g.root, "f")
    ctx, = g.add_ctx_vars(z.lam, [z.imp])
    z.body = z.lam.subregions[0]
    p, z.v = g.lambda_add_params(z.lam, [I1, I64])
    z.m = g.add_simple(z.body, ops.identity_match(I1, 2), [p])
    z.gam = g.begin_gamma(z.body, z.m.outputs[0], 2)
    alts = g.gamma_add_entries(z.gam, [z.v, ctx], [(0, 1)] * 2)
    z.ev, z.ec = [list(args) for args in zip(*alts)]
    z.sub0, z.sub1 = z.gam.subregions
    z.add = g.add_simple(z.sub1, ops.SimpleOp("add", I64), [z.ev[1], z.ec[1]])
    gout, = g.gamma_add_exits(z.gam, [[z.ev[0], z.add.outputs[0]]])
    z.th = g.begin_theta(z.body)
    (lv,), (tout,) = g.theta_add_loopvars(z.th, [gout])
    z.inner = z.th.subregions[0]
    stop = g.add_simple(z.inner, ops.const(0, I1), [])
    tm = g.add_simple(z.inner, ops.identity_match(I1, 2), [stop.outputs[0]])
    g.theta_set_predicate(z.th, tm.outputs[0])
    g.theta_set_result(z.th, 0, lv)
    g.lambda_finish(z.lam, [tout])
    g.omega_add_export("f", z.lam.outputs[0])
    z.phi = g.begin_phi(g.root)
    g.add_ctx_vars(z.phi, [z.imp])
    (z.rarg,), (rout,) = g.phi_add_recs(z.phi, [fnty([], [I64])])
    z.pbody = z.phi.subregions[0]
    pl = g.begin_lambda(z.pbody, "r")
    k = g.add_simple(pl.subregions[0], ops.const(1, I64), [])
    g.lambda_finish(pl, [k.outputs[0]])
    g.phi_set_rec(z.phi, 0, pl.outputs[0])
    g.omega_add_export("r", rout)
    return z


def _extra_input(node, origin):
    use = Use(origin.ty, len(node.inputs), node=node, region=node.region)
    use.origin = origin
    origin.users.append(use)
    node.inputs.append(use)


def _break_argument(z):
    z.body.args[1].index = 9
    return ["argument bookkeeping broken in region %d" % z.body.id]


def _break_result(z):
    z.body.results[0].index = 9
    return ["result bookkeeping broken in region %d" % z.body.id]


def _break_input_index(z):
    z.add.inputs[0].index = 1
    return ["input index broken on node %d" % z.add.id]


def _break_output(z):
    z.add.outputs[0].index = 4
    return ["output bookkeeping broken on node %d" % z.add.id]


def _break_user_list(z):
    z.m.outputs[0].users.append(z.add.inputs[0])
    return ["user list broken on node %d" % z.m.id]


def _break_missing_user(z):
    z.ev[1].users.remove(z.add.inputs[0])
    return ["%r missing from its origin's user list" % z.add.inputs[0]]


def _break_missing_result_user(z):
    res = z.sub0.results[0]
    z.ev[0].users.remove(res)
    return ["%r missing from its origin's user list" % res]


def _break_wrong_region(z):
    z.add.region = z.body
    return ["node %d in wrong region" % z.add.id]


def _break_cross_region(z):
    use = z.add.inputs[1]
    z.ec[1].users.remove(use)
    use.origin = z.v
    z.v.users.append(use)
    return ["%r crosses regions from %r" % (use, z.v)]


def _break_type(z):
    use = z.add.inputs[0]
    use.ty = I32
    return ["type mismatch i32 vs i64 at %r" % use,
            "node %d signature does not match operation add" % z.add.id]


def _break_output_type(z):
    z.add.outputs[0].ty = I32
    return ["type mismatch i64 vs i32 at %r" % z.sub1.results[0],
            "node %d signature does not match operation add" % z.add.id]


def _break_dangling_use(z):
    z.g.disconnect(z.add.inputs[0])
    return ["%r is not the user of any edge" % z.add.inputs[0]]


def _break_subregion_owner(z):
    z.inner.owner = z.lam
    return ["subregion owner broken on node %d" % z.th.id]


def _break_gamma_owner(z):
    z.sub1.owner = z.lam
    return ["subregion owner broken on node %d" % z.gam.id]


def _break_simple_signature(z):
    z.add.op = ops.SimpleOp("add", I32)
    return ["node %d signature does not match operation add" % z.add.id]


def _break_simple_subregions(z):
    z.add.subregions.append(Region(99, owner=z.add))
    return ["simple node %d has subregions" % z.add.id]


def _break_gamma_count(z):
    z.gam.subregions.pop()
    return ["gamma %d has fewer than 2 subregions" % z.gam.id,
            "gamma %d predicate is not ctl1" % z.gam.id]


def _break_gamma_no_subregion(z):
    z.gam.subregions.clear()
    return ["gamma %d has fewer than 2 subregions" % z.gam.id,
            "gamma %d predicate is not ctl0" % z.gam.id,
            "gamma %d subregion signatures differ" % z.gam.id]


def _break_gamma_predicate(z):
    use = z.gam.inputs[0]
    use.ty = ctl(3)
    return ["type mismatch ctl3 vs ctl2 at %r" % use,
            "gamma %d predicate is not ctl2" % z.gam.id]


def _break_gamma_arg_type(z):
    z.ev[0].ty = I32
    return ["gamma %d argument %r typed unlike its entry" % (z.gam.id, z.ev[0]),
            "type mismatch i64 vs i32 at %r" % z.sub0.results[0]]


def _break_gamma_arg_entry(z):
    z.ec[1].index = 2
    return ["gamma %d argument %r names no entry" % (z.gam.id, z.ec[1])]


def _break_gamma_arg_twice(z):
    z.ec[1].index = 0
    return ["gamma %d arguments of region %d out of entry order"
            % (z.gam.id, z.sub1.id)]


def _break_gamma_arg_order(z):
    z.sub1.args.reverse()
    return ["gamma %d arguments of region %d out of entry order"
            % (z.gam.id, z.sub1.id)]


def _break_gamma_exits(z):
    z.sub1.results.pop()
    return ["gamma %d subregion signatures differ" % z.gam.id,
            "gamma %d exit variables malformed" % z.gam.id]


def _break_gamma_entry_types(z):
    for sub in z.gam.subregions:
        sub.args[0].ty = I32
    return ["gamma %d argument %r typed unlike its entry" % (z.gam.id, arg)
            for arg in z.ev] + [
        "type mismatch i64 vs i32 at %r" % z.sub0.results[0],
        "type mismatch i64 vs i32 at %r" % z.add.inputs[0]]


def _break_gamma_exit_types(z):
    z.gam.outputs[0].ty = I32
    return ["gamma %d exit variable types differ" % z.gam.id] * 2 + [
        "type mismatch i64 vs i32 at %r" % z.th.inputs[0]]


def _break_theta_count(z):
    z.th.subregions.append(Region(99, owner=z.th))
    return ["theta %d needs one subregion" % z.th.id]


def _break_theta_no_subregion(z):
    z.th.subregions.clear()
    return ["theta %d needs one subregion" % z.th.id]


def _break_theta_tuples(z):
    z.th.outputs.pop()
    return ["theta %d signature tuples disagree" % z.th.id]


def _break_theta_predicate(z):
    z.inner.results[0].ty = I1
    return ["theta %d result 0 is not the ctl2 predicate" % z.th.id,
            "type mismatch i1 vs ctl2 at %r" % z.inner.results[0]]


def _break_theta_loopvar(z):
    z.th.outputs[0].ty = I32
    return ["type mismatch i64 vs i32 at %r" % z.body.results[0],
            "theta %d loop variable 0 types disagree" % z.th.id]


def _break_lambda_shape(z):
    z.lam.outputs.append(Port(I64, 1, node=z.lam, region=z.g.root))
    return ["lambda %d shape broken" % z.lam.id]


def _break_lambda_no_subregion(z):
    z.lam.subregions.clear()
    return ["lambda %d shape broken" % z.lam.id]


def _break_lambda_type(z):
    ty = fnty([I64], [I64])
    old = z.lam.outputs[0].ty
    z.lam.outputs[0].ty = ty
    return ["type mismatch %s vs %s at %r" % (old, ty, z.g.root.results[0]),
            "lambda %d output type disagrees with its region" % z.lam.id]


def _break_lambda_inputs(z):
    _extra_input(z.lam, z.imp)
    return ["lambda %d has non-context inputs" % z.lam.id]


def _break_delta_shape(z):
    z.d.outputs[0].ty = I64
    return ["delta %d shape broken" % z.d.id]


def _break_delta_no_subregion(z):
    z.d.subregions.clear()
    return ["delta %d shape broken" % z.d.id]


def _break_delta_results(z):
    use = Use(I64, 1, region=z.dreg)
    z.g.connect(use, z.c.outputs[0])
    z.dreg.results.append(use)
    return ["delta %d must have exactly one result" % z.d.id]


def _break_delta_inputs(z):
    _extra_input(z.d, z.imp)
    return ["delta %d has non-context inputs" % z.d.id]


def _break_phi_count(z):
    z.phi.subregions.append(Region(99, owner=z.phi))
    return ["phi %d needs one subregion" % z.phi.id]


def _break_phi_no_subregion(z):
    z.phi.subregions.clear()
    return ["phi %d needs one subregion" % z.phi.id]


def _break_phi_recs(z):
    z.pbody.results.pop()
    return ["phi %d recursion variables malformed" % z.phi.id]


def _break_phi_args(z):
    z.pbody.args.pop()
    return ["phi %d arguments malformed" % z.phi.id]


def _break_phi_rec_types(z):
    z.rarg.ty = I64
    return ["phi %d recursion variable 0 types disagree" % z.phi.id]


def _break_phi_ctx_type(z):
    z.pbody.args[0].ty = I32
    return ["phi %d context variable types disagree" % z.phi.id]


def _break_phi_contents(z):
    z.g.add_simple(z.pbody, ops.const(0, I64), [])
    return ["phi %d contains a simple node" % z.phi.id]


def _break_stray_omega(z):
    n = z.g.add_simple(z.body, ops.const(0, I64), [])
    n.kind = "omega"
    return ["stray omega node %d" % n.id, "omega has ports"]


def _break_kind(z):
    n = z.g.add_simple(z.body, ops.const(0, I64), [])
    n.kind = "bogus"
    return ["unknown node kind bogus"]


def _break_cycle(z):
    n = z.g.add_simple(z.sub1, ops.SimpleOp("add", I64),
                       [z.add.outputs[0], z.ec[1]])
    z.g.connect(z.add.inputs[0], n.outputs[0])
    return ["cycle among nodes of region %d" % z.sub1.id]


def _break_id_order(z):
    nodes = z.body.nodes
    nodes[0], nodes[1] = nodes[1], nodes[0]
    return ["node %d out of id order in region %d" % (z.m.id, z.body.id)]


BREAKAGES = [
    _break_argument, _break_result, _break_input_index, _break_output,
    _break_user_list, _break_missing_user, _break_missing_result_user,
    _break_wrong_region, _break_cross_region, _break_type, _break_output_type,
    _break_dangling_use, _break_subregion_owner, _break_gamma_owner,
    _break_simple_signature, _break_simple_subregions,
    _break_gamma_count, _break_gamma_no_subregion, _break_gamma_predicate,
    _break_gamma_arg_type, _break_gamma_arg_entry, _break_gamma_arg_twice,
    _break_gamma_arg_order, _break_gamma_exits,
    _break_gamma_entry_types, _break_gamma_exit_types,
    _break_theta_count, _break_theta_no_subregion, _break_theta_tuples,
    _break_theta_predicate, _break_theta_loopvar,
    _break_lambda_shape, _break_lambda_no_subregion, _break_lambda_type,
    _break_lambda_inputs,
    _break_delta_shape, _break_delta_no_subregion, _break_delta_results,
    _break_delta_inputs,
    _break_phi_count, _break_phi_no_subregion, _break_phi_recs,
    _break_phi_args, _break_phi_rec_types, _break_phi_ctx_type,
    _break_phi_contents,
    _break_stray_omega, _break_kind, _break_cycle, _break_id_order,
]


def test_validate_accepts_the_zoo():
    """[TRIVIAL] The graph every breakage starts from is valid."""
    assert _zoo().g.validate() == []


@pytest.mark.parametrize("breakage", BREAKAGES,
                         ids=[f.__name__[len("_break_"):] for f in BREAKAGES])
def test_validate_reports_each_violation(breakage):
    """[DERIVED] Breaking one invariant by hand yields exactly the
    messages worked out from that invariant, in walk order: regions in
    preorder, in each region its arguments, results, then nodes by id."""
    z = _zoo()
    expected = breakage(z)
    assert z.g.validate() == expected


@pytest.mark.parametrize("ty", [I32, ctl(3)], ids=str)
def test_validate_reports_every_retyped_slot(ty):
    """[DERIVED] The zoo holds no `i32` and no `ctl3`, so giving any one
    port or use either type breaks a typing invariant: the edge's two
    ends, an operation's signature, a structural node's port lists or
    its context variables.  `validate` reports it, through whichever of
    its fast paths or checks sees it, and never raises."""
    for i in range(len(list(ports_and_uses(_zoo().g)))):
        z = _zoo()
        slot = list(ports_and_uses(z.g))[i]
        slot.ty = ty
        assert z.g.validate() != [], slot


# -- topological order ----------------------------------------------------------

def _kahn(region):
    """Reference order: Kahn's algorithm over the in-region edges with a
    min-heap of ready node ids."""
    pending = {}
    consumers = {}
    for n in region.nodes:
        deps = {u.origin.node.id for u in n.inputs
                if u.origin is not None and u.origin.node is not None
                and u.origin.node.region is region}
        pending[n.id] = deps
        for d in deps:
            consumers.setdefault(d, set()).add(n.id)
    by_id = {n.id: n for n in region.nodes}
    ready = [nid for nid, deps in pending.items() if not deps]
    heapq.heapify(ready)
    order = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(by_id[nid])
        for c in consumers.get(nid, ()):
            pending[c].discard(nid)
            if not pending[c]:
                heapq.heappush(ready, c)
    assert len(order) == len(region.nodes)
    return order


def _assert_orders_match(g, where):
    for region in g.regions():
        assert g.topological_order(region) == _kahn(region), \
            "%s: region %d" % (where, region.id)


def _checking_orders(name, fn):
    """Pass `fn`, asserting first that every cached order is fresh."""
    def run(graph, **kw):
        _assert_orders_match(graph, "before %s" % name)
        fn(graph, **kw)
    return run


@pytest.mark.parametrize("source", ["ladder:3", "ladder:7"] + corpus_files())
def test_topological_order_matches_kahn(source, monkeypatch):
    """[DERIVED] A region keeps its order until an edit in it drops the
    order.  On every region of every corpus program, and of the ladder
    programs of seeds 3 and 7 at every size from 1 to 16, after
    construction, after each step of the default schedule (with the
    pipeline's own checks between steps) and after the last, the order
    equals the reference min-heap Kahn computed from scratch."""
    for name, fn in list(PASSES.items()):
        monkeypatch.setitem(PASSES, name, _checking_orders(name, fn))
    if source.startswith("ladder:"):
        mods = [parse(randprog.generate(int(source[7:]), size=size))
                for size in range(1, 17)]
    else:
        mods = [load_corpus(source)]
    for mod in mods:
        g = construct(mod)
        run_pipeline(g)
        _assert_orders_match(g, "after the schedule")


def test_topological_order_puts_a_later_producer_first():
    """[DERIVED] A consumer wired to a producer created after it has the
    lower id, yet comes after that producer; ties still break by id."""
    g, lam, n = _simple_fn()
    body = lam.subregions[0]
    c = g.add_simple(body, ops.const(1, I64), [])
    g.connect(n.inputs[1], c.outputs[0])
    order = g.topological_order(body)
    assert order == [c, n] == _kahn(body)
    assert order != body.nodes
    assert g.validate() == []


def test_topological_order_rejects_a_two_node_cycle():
    """[TRIVIAL] Two nodes feeding each other have no order."""
    g, lam, n = _simple_fn()
    body = lam.subregions[0]
    m = g.add_simple(body, ops.SimpleOp("add", I64), [n.outputs[0], body.args[1]])
    g.connect(n.inputs[0], m.outputs[0])
    with pytest.raises(GraphError):
        g.topological_order(body)


def test_topological_order_sorts_a_node_list_out_of_id_order():
    """[DERIVED] The order does not take `region.nodes` on trust: with
    the list reversed by hand, two independent nodes still come out by
    ascending id, and validate names the misplaced node."""
    g, lam, n = _simple_fn()
    body = lam.subregions[0]
    c = g.add_simple(body, ops.const(1, I64), [])
    body.nodes.reverse()
    assert g.topological_order(body) == [n, c] == _kahn(body)
    assert g.validate() == ["node %d out of id order in region %d"
                            % (n.id, body.id)]


# -- validating what changed --------------------------------------------------

def _key(p):
    return None if p is None else (p.sort_key(), p.ty)


def _fingerprints(g):
    """Everything each region's checks read, by region id: its nodes with
    their port lists (input origins, output types and users), its
    arguments with their users and its results with their origins."""
    return {r.id: ([(n.id, n.kind, n.n_ctx, [_key(u.origin) for u in n.inputs],
                     [u.ty for u in n.inputs],
                     [(o.ty, [u.sort_key() for u in o.users])
                      for o in n.outputs]) for n in r.nodes],
                   [(a.ty, [u.sort_key() for u in a.users]) for a in r.args],
                   [(res.ty, _key(res.origin)) for res in r.results])
            for r in g.regions()}


@pytest.mark.parametrize("source", corpus_files() + LADDER)
def test_every_edited_region_is_marked(source):
    """[DERIVED] After each step of the default schedule, every region
    whose contents changed, and every new one, is marked as edited, and
    both forms of `validate` find the graph clean."""
    g = construct(load_source(source))
    assert g.validate() == []
    config = PassConfig()
    before = _fingerprints(g)
    for i, name in enumerate(config.passes):
        if name == "URL":
            PASSES[name](g, factor=config.unroll_factor)
        else:
            PASSES[name](g)
        after = _fingerprints(g)
        changed = {rid for rid, fp in after.items() if before.get(rid) != fp}
        marked = {r.id for r in g._dirty}
        assert changed <= marked, "step %d (%s): regions %s unmarked" % (
            i, name, sorted(changed - marked))
        assert g.validate(changed_only=True) == [], (i, name)
        assert g.validate() == [], (i, name)
        before = after


def _nest():
    """A lambda holding a theta holding a gamma: f(p, v) loops once,
    adding 1 to v when p holds."""
    g = Graph()
    z = SimpleNamespace(g=g)
    z.lam = g.begin_lambda(g.root, "f")
    z.body = z.lam.subregions[0]
    p, v = g.lambda_add_params(z.lam, [I1, I64])
    z.th = g.begin_theta(z.body)
    (lp, lv), (_, out) = g.theta_add_loopvars(z.th, [p, v])
    z.tbody = z.th.subregions[0]
    m = g.add_simple(z.tbody, ops.identity_match(I1, 2), [lp])
    z.gam = g.begin_gamma(z.tbody, m.outputs[0], 2)
    (e0,), (e1,) = g.gamma_add_entries(z.gam, [lv], [(0, 1)])
    z.sub0, z.sub1 = z.gam.subregions
    z.one = g.add_simple(z.sub1, ops.const(1, I64), [])
    z.add = g.add_simple(z.sub1, ops.SimpleOp("add", I64),
                         [e1, z.one.outputs[0]])
    gout, = g.gamma_add_exits(z.gam, [[e0, z.add.outputs[0]]])
    stop = g.add_simple(z.tbody, ops.const(0, I1), [])
    tm = g.add_simple(z.tbody, ops.identity_match(I1, 2), [stop.outputs[0]])
    g.theta_set_predicate(z.th, tm.outputs[0])
    g.theta_set_result(z.th, 0, lp)
    g.theta_set_result(z.th, 1, gout)
    g.lambda_finish(z.lam, [out])
    g.omega_add_export("f", z.lam.outputs[0])
    return z


# Each fault goes through one edit primitive and breaks an invariant.
FAULTS = {
    "arg_naming_no_entry": lambda z: z.g._splice(z.sub0, "args", [I64]),
    "second_arg_for_an_entry": lambda z: z.g._splice(z.sub1, "args", [I64],
                                                     indices=[0]),
    "arg_typed_unlike_its_entry": lambda z: (
        z.g.gamma_add_entries(z.gam, [z.tbody.args[0]], [()]),
        z.g._splice(z.sub0, "args", [I64], indices=[1])),
    "result_on_theta_body": lambda z: z.g._splice(z.tbody, "results",
                                                  [I64]),
    "disconnected_result": lambda z: z.g.disconnect(z.body.results[0]),
    "cycle_by_connect": lambda z: z.g.connect(z.add.inputs[0],
                                              z.add.outputs[0]),
    "cycle_by_divert": lambda z: z.g.divert_users(z.one.outputs[0],
                                                  z.add.outputs[0]),
    "gamma_output": lambda z: z.g._splice(z.gam, "outputs", [I64]),
    "extra_input": lambda z: z.g._splice(z.add, "inputs", [I64],
                                         origins=[z.one.outputs[0]]),
    "second_theta_region": lambda z: z.g._new_region(z.th, 1),
    "bare_node": lambda z: z.g._new_node(z.sub0, "simple",
                                         op=ops.const(2, I64)),
    "ctx_on_gamma": lambda z: z.g.add_ctx_vars(z.gam, [z.tbody.args[0]]),
    "alternative_result_dropped": lambda z: z.g._drop_ports(
        uses=[(z.sub1.results, {0})]),
}


# What the faults on a gamma alternative's arguments are reported as.
ARGUMENT_FAULT_MESSAGES = {
    "arg_naming_no_entry": lambda z: [
        "gamma %d argument %r names no entry" % (z.gam.id, z.sub0.args[1])],
    "second_arg_for_an_entry": lambda z: [
        "gamma %d arguments of region %d out of entry order"
        % (z.gam.id, z.sub1.id)],
    "arg_typed_unlike_its_entry": lambda z: [
        "gamma %d argument %r typed unlike its entry"
        % (z.gam.id, entry_arg(z.sub0, 1))],
}


@pytest.mark.parametrize("fault", sorted(ARGUMENT_FAULT_MESSAGES))
def test_changed_only_validate_words_each_argument_fault(fault):
    """[DERIVED] An alternative may bind any entries it likes, one
    argument each, in entry order and at the entry's type; a fault
    against that, made through an edit primitive, is reported by the
    changed-regions check in exactly its own words."""
    z = _nest()
    assert z.g.validate() == []
    FAULTS[fault](z)
    assert z.g.validate(changed_only=True) == \
        ARGUMENT_FAULT_MESSAGES[fault](z)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_changed_only_validate_reports_each_fault(fault):
    """[DERIVED] A fault made through an edit primitive on a clean graph
    is found by the changed-regions check, which then reports exactly
    what the full walk does, and keeps reporting it until it is gone."""
    z = _nest()
    assert z.g.validate() == []
    FAULTS[fault](z)
    bad = z.g.validate(changed_only=True)
    assert bad != []
    assert bad == z.g.validate()
    assert z.g.validate(changed_only=True) == bad


def test_add_ctx_vars_marks_the_node_region_and_its_body():
    """[TRIVIAL] A context variable adds an input to the lambda and an
    argument to its body, so both regions are marked."""
    z = _nest()
    imp = z.g.omega_add_import("x", I64)
    assert z.g.validate() == []
    z.g.add_ctx_vars(z.lam, [imp])
    assert z.g._dirty == {z.g.root, z.body}
    assert z.g.validate(changed_only=True) == []


def test_add_ctx_vars_splices_a_batch_ahead_of_the_parameters():
    """[DERIVED] Two context variables added in one batch to a lambda
    that has one context variable and two parameters land after the
    first one and ahead of the parameters, in order; inputs and
    arguments stay densely numbered, and the lambda's region and its
    body are the regions marked."""
    z = _nest()
    g = z.g
    imps = [g.omega_add_import("x%d" % k, I64) for k in range(3)]
    first, = g.add_ctx_vars(z.lam, imps[:1])
    params = z.body.args[1:]
    assert len(params) == 2 and g.validate() == []
    new = g.add_ctx_vars(z.lam, imps[1:])
    assert z.body.args == [first] + new + params
    assert [u.origin for u in z.lam.inputs] == imps
    assert [a.ty for a in new] == [I64, I64] and z.lam.n_ctx == 3
    assert _dense(z.lam.inputs, z.body.args)
    assert g._dirty == {g.root, z.body}
    assert g.validate(changed_only=True) == []


def test_carried_names_the_outer_value_an_argument_holds():
    """[DERIVED] A gamma argument holds its entry's origin, an invariant
    theta argument the theta's input, and a lambda or phi context
    argument the node's input; a changing loop variable, a parameter, a
    recursion variable, an import and a node output hold their own."""
    z = _zoo()
    assert carried(z.body.args[0]) is z.imp
    assert carried(z.ev[1]) is z.v
    assert carried(z.ec[0]) is z.body.args[0]
    assert carried(z.inner.args[0]) is z.th.inputs[0].origin
    assert carried(z.pbody.args[0]) is z.imp
    for port in (z.v, z.rarg, z.imp, z.add.outputs[0]):
        assert carried(port) is None
    n = _nest()
    assert carried(n.tbody.args[1]) is None


def test_changed_only_validate_skips_removed_regions():
    """[DERIVED] Edits inside a node that is then removed leave marks on
    regions no longer in the graph; those are not checked, and a clean
    check clears them."""
    z = _nest()
    assert z.g.validate() == []
    z.g._splice(z.sub0, "args", [I64])
    users = list(z.gam.outputs[0].users)
    for use in users:
        z.g.connect(use, z.tbody.args[1])
    z.g.remove_node(z.gam)
    assert z.sub0 in z.g._dirty
    assert z.g.validate(changed_only=True) == []
    assert z.g._dirty == set()
    assert z.g.validate() == []
