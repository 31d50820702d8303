"""Shared rewriting helpers for the optimization passes.

`copy_nodes` clones a set of nodes (simple, gamma, theta) into a target
region, resolving inputs through a port map; `route_to_region` threads a
port from an enclosing region down into a nested one by growing context
variables, entry variables, or pass-through loop variables along the way.
"""


class RewriteError(Exception):
    pass


def copy_nodes(graph, nodes, dst, portmap):
    """Clone `nodes` (already in topological order, all from one region)
    into region `dst`.  `portmap` maps ports of the originals to ports
    visible in `dst`; it is seeded with the free inputs and extended with
    every port the copies define.  Returns `portmap`."""
    for node in nodes:
        if node.kind == "simple":
            n2 = graph.add_simple(dst, node.op,
                                  [portmap[u.origin] for u in node.inputs])
            for old, new in zip(node.outputs, n2.outputs):
                portmap[old] = new
        elif node.kind == "gamma":
            copy_gamma(graph, node, dst, portmap)
        elif node.kind == "theta":
            copy_theta(graph, node, dst, portmap)
        else:
            raise RewriteError("cannot copy a %s node" % node.kind)
    return portmap


def copy_gamma(graph, node, dst, portmap):
    k = len(node.subregions)
    n2 = graph.begin_gamma(dst, portmap[node.inputs[0].origin], k)
    for use in node.inputs[1:]:
        args = graph.gamma_add_entry(n2, portmap[use.origin])
        l = len(n2.inputs) - 2
        for sub, arg in zip(node.subregions, args):
            portmap[sub.args[l]] = arg
    for sub, sub2 in zip(node.subregions, n2.subregions):
        copy_nodes(graph, graph.topological_order(sub), sub2, portmap)
    for l, out in enumerate(node.outputs):
        origins = [portmap[sub.results[l].origin] for sub in node.subregions]
        portmap[out] = graph.gamma_add_exit(n2, origins)
    return n2


def copy_theta(graph, node, dst, portmap):
    body = node.subregions[0]
    n2 = graph.begin_theta(dst)
    for l, use in enumerate(node.inputs):
        arg, out = graph.theta_add_loopvar(n2, portmap[use.origin])
        portmap[body.args[l]] = arg
        portmap[node.outputs[l]] = out
    copy_nodes(graph, graph.topological_order(body), n2.subregions[0], portmap)
    graph.theta_set_predicate(n2, portmap[body.results[0].origin])
    for l in range(len(node.inputs)):
        graph.theta_set_result(n2, l, portmap[body.results[l + 1].origin])
    return n2


def route_to_region(graph, port, region):
    """Make `port` available inside `region`, which must be nested
    (possibly deeply) inside the port's region.  Returns the port to use
    there.  For a gamma on the path the value enters every alternative;
    for a theta it becomes a pass-through loop variable."""
    path = []
    r = region
    while r is not port.region:
        if r.owner is None:
            raise RewriteError("target region does not enclose the port")
        path.append(r)
        r = r.owner.region
    cur = port
    for sub in reversed(path):
        owner = sub.owner
        if owner.kind in ("lambda", "delta", "phi"):
            cur = graph.insert_ctx(owner, cur)
        elif owner.kind == "gamma":
            args = graph.gamma_add_entry(owner, cur)
            cur = args[sub.owner_index]
        elif owner.kind == "theta":
            arg, _ = graph.theta_add_loopvar(owner, cur)
            graph.theta_set_result(owner, len(owner.inputs) - 1, arg)
            cur = arg
        else:
            raise RewriteError("cannot route through a %s node" % owner.kind)
    return cur
