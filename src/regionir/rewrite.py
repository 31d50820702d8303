"""Shared rewriting helpers for the optimization passes.

`copy_nodes` clones a set of nodes (simple, gamma, theta) into a target
region, resolving inputs through a port map; `inline_region` copies a
whole region with its arguments bound, the one way a pass inlines a
gamma alternative, a loop body or a function; `route_to_region` threads a
port from an enclosing region down into a nested one by growing context
variables, entry variables, or pass-through loop variables along the way,
one level at a time through `enter`.  A gamma on the way gains an entry
that only the alternative on the path binds.
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


def inline_region(graph, region, dst, args):
    """Copy the nodes of `region` into region `dst`, with each argument
    of the region bound to the port of `dst` that `args` holds at the
    argument's index (for a gamma alternative, its entry's index).
    Returns the ports of `dst` that the region's results map to."""
    portmap = {a: args[a.index] for a in region.args}
    copy_nodes(graph, graph.topological_order(region), dst, portmap)
    return [portmap[res.origin] for res in region.results]


def copy_gamma(graph, node, dst, portmap):
    n2 = graph.begin_gamma(dst, portmap[node.inputs[0].origin],
                           len(node.subregions))
    readers = [[] for _ in node.inputs[1:]]
    for c, sub in enumerate(node.subregions):
        for a in sub.args:
            readers[a.index].append(c)
    alts = graph.gamma_add_entries(
        n2, [portmap[u.origin] for u in node.inputs[1:]], readers)
    exits = [inline_region(graph, sub, sub2, args)
             for sub, sub2, args in zip(node.subregions, n2.subregions, alts)]
    outs = graph.gamma_add_exits(n2, list(zip(*exits)))
    portmap.update(zip(node.outputs, outs))
    return n2


def copy_theta(graph, node, dst, portmap):
    n2 = graph.begin_theta(dst)
    _, outs = graph.theta_add_loopvars(
        n2, [portmap[u.origin] for u in node.inputs])
    portmap.update(zip(node.outputs, outs))
    body = n2.subregions[0]
    pred, *results = inline_region(graph, node.subregions[0], body, body.args)
    graph.theta_set_predicate(n2, pred)
    for l, origin in enumerate(results):
        graph.theta_set_result(n2, l, origin)
    return n2


def route_to_region(graph, port, region):
    """Make `port` available inside `region`, which must be nested
    (possibly deeply) inside the port's region.  Returns the port to use
    there.  For a gamma on the path the value enters the alternative on
    the path alone; for a theta it becomes a pass-through loop
    variable."""
    path = []
    r = region
    while r is not port.region:
        if r.owner is None:
            raise RewriteError("target region does not enclose the port")
        path.append(r)
        r = r.owner.region
    cur = port
    for sub in reversed(path):
        cur = enter(graph, sub, cur)
    return cur


def enter(graph, region, port):
    """Pass `port`, a port of the region around `region`'s owner, into
    `region`: as a context variable of a lambda, delta or phi, an entry
    variable of a gamma that `region` alone binds, or a pass-through
    loop variable of a theta.  Returns the argument of `region` that
    carries it."""
    node = region.owner
    if node.kind in ("lambda", "delta", "phi"):
        return graph.add_ctx_vars(node, [port])[0]
    if node.kind == "gamma":
        c = region.owner_index
        return graph.gamma_add_entries(node, [port], [[c]])[c][0]
    if node.kind == "theta":
        args, _ = graph.theta_add_loopvars(node, [port])
        graph.theta_set_result(node, len(node.inputs) - 1, args[0])
        return args[0]
    raise RewriteError("cannot route through a %s node" % node.kind)
