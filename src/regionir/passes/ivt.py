"""Loop inversion: turn a do-while around its embedded branch.

Applies to a theta whose body is a single two-way gamma plus stateless
glue, where the theta's continuation predicate is decided by which
gamma alternative ran: alternative 0 reports "stop" and alternative 1
reports "continue".  That is exactly the shape loop restructuring
produces for a while loop, and the inversion recovers it: a gamma in
the parent region tests the condition on the incoming values; its
untaken side runs the exit iteration directly, its taken side runs a
new theta whose body is the continue iteration followed by a
recomputation of the condition, and finally the exit iteration as an
epilogue.

The glue is recomputed up to three times (outside, per iteration, and
in the epilogue), but always on values the original loop evaluated it
on, so even a trapping division in the condition behaves identically.
"""

from ..graph import producers
from ..rewrite import copy_nodes, inline_region


def run(graph):
    for node in list(graph.all_nodes()):
        if node.region is None or node.kind != "theta":
            continue
        gamma = _invertible(graph, node)
        if gamma is not None:
            _invert(graph, node, gamma)


def _invertible(graph, node):
    body = node.subregions[0]
    gamma = None
    for inner in body.nodes:
        if inner.kind == "gamma":
            if gamma is not None or len(inner.subregions) != 2:
                return None
            gamma = inner
        elif inner.kind != "simple" or inner.op.is_stateful:
            return None
    if gamma is None:
        return None
    if _branch_values(body, gamma) != [0, 1]:
        return None
    if _condition_nodes(graph, body, gamma) is None:
        return None
    return gamma


def _branch_values(body, gamma):
    """The theta predicate as a per-alternative constant, or None."""

    def resolve(port, sub):
        n = port.node
        if n is gamma:
            return resolve(gamma.subregions[sub].results[port.index].origin,
                           sub)
        if n is None or n.kind != "simple":
            return None
        if n.op.name == "const":
            return n.op.value
        if n.op.name == "match":
            v = resolve(n.inputs[0].origin, sub)
            return None if v is None else n.op.select(v)
        return None

    return [resolve(body.results[0].origin, sub) for sub in (0, 1)]


def _condition_nodes(graph, body, gamma):
    """The glue computing the gamma's predicate, in topological order;
    None if the predicate depends on the gamma itself."""
    need = producers(body, [gamma.inputs[0].origin])
    if gamma in need:
        return None
    return [n for n in graph.topological_order(body) if n in need]


def _copy_iteration(graph, nodes, gamma, sub_index, dst, portmap):
    """Copy the theta body into `dst` with the gamma resolved to one
    alternative."""
    for node in nodes:
        if node is gamma:
            outs = inline_region(graph, gamma.subregions[sub_index], dst,
                                 [portmap[u.origin] for u in gamma.inputs[1:]])
            portmap.update(zip(gamma.outputs, outs))
        else:
            copy_nodes(graph, [node], dst, portmap)
    return portmap


def _invert(graph, node, gamma):
    body = node.subregions[0]
    nodes = graph.topological_order(body)
    cond = _condition_nodes(graph, body, gamma)
    pred_port = gamma.inputs[0].origin
    results = [r.origin for r in body.results]
    n = len(node.inputs)
    parent = node.region

    # the first iteration's condition, computed on the incoming values
    seed = {body.args[l]: node.inputs[l].origin for l in range(n)}
    p0 = copy_nodes(graph, cond, parent, dict(seed))[pred_port]

    outer = graph.begin_gamma(parent, p0, 2)
    stop, go = outer.subregions
    # the exit iteration reads what the body reads; the loop takes all
    args0, args1 = graph.gamma_add_entries(
        outer, [u.origin for u in node.inputs],
        [(0, 1) if a.users else (1,) for a in body.args])
    entry0 = {a: a0 for a, a0 in zip(body.args, args0) if a0 is not None}

    # condition false on entry: the loop runs its exit iteration once
    map0 = _copy_iteration(graph, nodes, gamma, 0, stop, entry0)
    stop_vals = [map0[results[l + 1]] for l in range(n)]

    # condition true: iterate the continue alternative, then run the
    # exit iteration on the final values
    inner = graph.begin_theta(go)
    ibody = inner.subregions[0]
    map1 = dict(zip(body.args, graph.theta_add_loopvars(inner, args1)[0]))
    _copy_iteration(graph, nodes, gamma, 1, ibody, map1)
    nvals = {body.args[l]: map1[results[l + 1]] for l in range(n)}
    pnext = copy_nodes(graph, cond, ibody, dict(nvals))[pred_port]
    graph.theta_set_predicate(inner, pnext)
    for l in range(n):
        graph.theta_set_result(inner, l, nvals[body.args[l]])

    map3 = {body.args[l]: inner.outputs[l] for l in range(n)}
    map3 = _copy_iteration(graph, nodes, gamma, 0, go, map3)
    go_vals = [map3[results[l + 1]] for l in range(n)]

    outs = graph.gamma_add_exits(outer, list(zip(stop_vals, go_vals)))
    for old, out in zip(node.outputs, outs):
        graph.divert_users(old, out)
    graph.remove_node(node)
