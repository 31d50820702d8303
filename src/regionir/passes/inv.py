"""Invariant value diversion.

A theta loop variable whose body result is its own argument never
changes, so users of the theta output can read the input directly.
Likewise a gamma exit variable that routes the same entry variable's
argument out of every alternative just reproduces the entry's input.

One walk reaches the fixpoint.  Whether a node's output can be diverted
depends only on its own subregions' results, so each node is handled
after its subregions.  A diversion moves the node's users onto one of
its operands, so each region is walked consumers first: the producer of
that operand, whose output has just gained users, comes later.
"""

from ..graph import carried


def run(graph):
    _walk(graph, graph.root)


def _walk(graph, region):
    for node in reversed(graph.topological_order(region)):
        for sub in node.subregions:
            _walk(graph, sub)
        if node.kind == "theta":
            _divert_theta(graph, node)
        elif node.kind == "gamma":
            _divert_gamma(graph, node)


def _divert_theta(graph, node):
    for arg, out in zip(node.subregions[0].args, node.outputs):
        origin = carried(arg)
        if origin is not None and out.users:
            graph.divert_users(out, origin)


def _divert_gamma(graph, node):
    for l, out in enumerate(node.outputs):
        if not out.users:
            continue
        entry = _common_entry(node, l)
        if entry is not None:
            graph.divert_users(out, node.inputs[entry + 1].origin)


def _common_entry(node, l):
    """The entry variable index every alternative routes to exit l,
    or None."""
    entry = None
    for sub in node.subregions:
        origin = sub.results[l].origin
        if origin.node is not None or origin.region is not sub:
            return None
        if entry is None:
            entry = origin.index
        elif origin.index != entry:
            return None
    return entry
