"""Unit tests for the region graph data model.

Each test names its oracle: [TRIVIAL] asserts definitional behavior,
[DERIVED] values were computed by hand from the documented semantics.
"""

import pytest

from regionir.graph import Graph, GraphError
from regionir import ops
from regionir.types import I1, I32, I64, ctl, fnty


def _simple_fn():
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    body = lam.subregions[0]
    a = g.lambda_add_param(lam, I64)
    b = g.lambda_add_param(lam, I64)
    n = g.add_simple(body, ops.binop("add", I64), [a, b])
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
    a = g.lambda_add_param(lam, I64)
    g.add_simple(lam.subregions[0], ops.binop("add", I32), [a, a])
    g.lambda_finish(lam, [])
    assert any("signature" in msg for msg in g.validate())


def test_cross_region_edge_rejected():
    """[TRIVIAL] connect refuses an origin from a different region."""
    g, lam, _ = _simple_fn()
    other = g.begin_lambda(g.root, "h")
    with pytest.raises(GraphError):
        g.add_simple(other.subregions[0], ops.binop("add", I64),
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
    a = g.lambda_add_param(lam, I64)
    x = g.add_simple(body, ops.const(3, I64), [])
    y = g.add_simple(body, ops.binop("mul", I64), [a, x.outputs[0]])
    z = g.add_simple(body, ops.binop("add", I64), [y.outputs[0], a])
    g.lambda_finish(lam, [z.outputs[0]])
    order = [n.id for n in g.topological_order(body)]
    assert order.index(x.id) < order.index(y.id) < order.index(z.id)


def test_gamma_shape():
    """[TRIVIAL] A two-way gamma has a ctl(2) predicate input, matching
    entry variables in both subregions, and typed exits."""
    g = Graph()
    lam = g.begin_lambda(g.root, "f")
    body = lam.subregions[0]
    a = g.lambda_add_param(lam, I1)
    v = g.lambda_add_param(lam, I64)
    m = g.add_simple(body, ops.identity_match(I1, 2), [a])
    gam = g.begin_gamma(body, m.outputs[0], 2)
    ev = g.gamma_add_entry(gam, v)
    one = g.add_simple(gam.subregions[1], ops.const(1, I64), [])
    add = g.add_simple(gam.subregions[1], ops.binop("add", I64),
                       [ev[1], one.outputs[0]])
    out = g.gamma_add_exit(gam, [ev[0], add.outputs[0]])
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
    v = g.lambda_add_param(lam, I64)
    th = g.begin_theta(body)
    lv, _ = g.theta_add_loopvar(th, v)
    inner = th.subregions[0]
    one = g.add_simple(inner, ops.const(1, I64), [])
    dec = g.add_simple(inner, ops.binop("sub", I64), [lv, one.outputs[0]])
    zero = g.add_simple(inner, ops.const(0, I64), [])
    c = g.add_simple(inner, ops.binop("ne", I64),
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
    g.lambda_add_param(lam, I64)
    g.lambda_finish(lam, [lam.subregions[0].args[0]])
    g.disconnect(lam.subregions[0].results[0])
    assert g.validate() != []


# -- batch port removal ------------------------------------------------------

def _dense(*lists):
    return all([p.index for p in items] == list(range(len(items)))
               for items in lists)


def _lambda_with_params(g, n):
    lam = g.begin_lambda(g.root, "f")
    return lam, [g.lambda_add_param(lam, I64) for _ in range(n)]


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
    evs = [g.gamma_add_entry(gam, v) for v in vs]
    outs = [g.gamma_add_exit(gam, evs[e]) for e in (0, 2, 4, 4)]
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


def test_remove_theta_loopvars_in_one_batch():
    """[DERIVED] Dropping loop variables {0, 2, 4} of five pass-through
    loop variables keeps 1 and 3, in order; while the dropped arguments
    still feed their results, the removal is refused untouched."""
    g = Graph()
    lam, vs = _lambda_with_params(g, 5)
    th = g.begin_theta(lam.subregions[0])
    for v in vs:
        arg, _ = g.theta_add_loopvar(th, v)
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
    ctx = [g.add_ctx(lam, p) for p in imports]
    body = lam.subregions[0]
    n = g.add_simple(body, ops.binop("add", I64), [ctx[1], ctx[3]])
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
    g.add_ctx(phi, imp)
    ty = fnty([], [I64])
    for _ in range(4):
        g.phi_add_rec(phi, ty)
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
