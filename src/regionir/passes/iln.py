"""Function call inlining.

Resolves each apply node's callee through the plumbing that carries
function values around -- context variables, gamma entries, and
pass-through theta loop variables -- and replaces the call with a copy
of the target body when the target is not (mutually) recursive and is
either called from exactly one site or small.  Context values of the
target re-enter the call site through `route_to_region`.

Recursive functions live inside a recursion environment node, which the
resolver treats as opaque, so they are never inlined.
"""

from ..graph import carried
from ..rewrite import inline_region, route_to_region

SMALL = 16


def run(graph):
    sites = []
    for node in graph.all_nodes():
        if node.kind == "simple" and node.op.name == "apply":
            lam = _resolve(node.inputs[0].origin)
            if lam is not None:
                sites.append((node, lam))
    callers = {}
    for _, lam in sites:
        callers[lam] = callers.get(lam, 0) + 1
    for node, lam in sites:
        body = list(graph.all_nodes(lam.subregions[0]))
        small = sum(n.kind == "simple" for n in body) <= SMALL
        inlinable = lam.region.owner.kind != "phi" and all(
            n.kind in ("simple", "gamma", "theta") for n in body)
        if (callers[lam] == 1 or small) and inlinable \
                and not _encloses(lam, node):
            _inline(graph, node, lam)


def _resolve(port):
    """Chase a function value back to the lambda that produced it."""
    while port.node is None:
        port = carried(port)
        if port is None:
            return None     # an import, a parameter, a recursion variable
    return port.node if port.node.kind == "lambda" else None


def _encloses(lam, node):
    region = node.region
    while region is not None:
        if region.owner is lam:
            return True
        region = None if region.owner is None else region.owner.region
    return False


def _inline(graph, site, lam):
    args = [route_to_region(graph, use.origin, site.region)
            for use in lam.inputs[:lam.n_ctx]]
    args += [use.origin for use in site.inputs[1:]]
    outs = inline_region(graph, lam.subregions[0], site.region, args)
    for out, origin in zip(site.outputs, outs):
        graph.divert_users(out, origin)
    graph.remove_node(site)
