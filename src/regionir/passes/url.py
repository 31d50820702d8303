"""Loop unrolling.

Innermost thetas (no theta anywhere below them) get their body
replicated `factor` times.  Replica j+1 sits inside a gamma guarded by
replica j's continuation predicate, so each replica only runs when the
loop would actually have reached that iteration; the untaken side of
the guard passes the current values through and reports "stop".  The
theta itself stays in place and its predicate becomes the innermost
replica's, so the iteration count is preserved exactly.  A factor of
one is the identity.
"""

from ..types import ctl
from ..ops import const
from ..rewrite import copy_nodes


def run(graph, factor=4):
    if factor < 1:
        raise ValueError("unroll factor must be positive, got %d" % factor)
    if factor == 1:
        return
    for node in list(graph.all_nodes()):
        if node.kind == "theta" and not any(
                n.kind == "theta" for n in graph.all_nodes(node.subregions[0])):
            _unroll(graph, node, factor)


def _unroll(graph, node, factor):
    body = node.subregions[0]
    nodes = graph.topological_order(body)
    origins = [r.origin for r in body.results]
    n = len(node.inputs)

    vals = {l: origins[l + 1] for l in range(n)}
    pred = origins[0]
    vals, pred = _expand(graph, body, body, nodes, origins, vals, pred,
                         1, factor)
    graph.theta_set_predicate(node, pred)
    for l in range(n):
        graph.theta_set_result(node, l, vals[l])


def _expand(graph, body, region, nodes, origins, vals, pred, depth, factor):
    """Guard one more replica of the body behind `pred` inside `region`;
    returns the values and continuation predicate after it."""
    if depth == factor:
        return vals, pred
    gamma = graph.begin_gamma(region, pred, 2)
    stop, go = gamma.subregions
    ls = sorted(vals)
    # the stop side passes every value through; the replica reads what
    # the body reads
    stop_args, go_args = graph.gamma_add_entries(
        gamma, [vals[l] for l in ls],
        [(0, 1) if body.args[l].users else (0,) for l in ls])
    zero = graph.add_simple(stop, const(0, ctl(2)), []).outputs[0]

    portmap = {body.args[l]: arg for l, arg in zip(ls, go_args)
               if arg is not None}
    copy_nodes(graph, nodes, go, portmap)
    nvals = {l: portmap[origins[l + 1]] for l in vals}
    npred = portmap[origins[0]]
    nvals, npred = _expand(graph, body, go, nodes, origins, nvals, npred,
                           depth + 1, factor)

    *outs, pred_out = graph.gamma_add_exits(
        gamma, [[arg, nvals[l]] for l, arg in zip(ls, stop_args)]
        + [[zero, npred]])
    return dict(zip(ls, outs)), pred_out
