"""Local reductions: constant folding and algebraic simplification.

Folds every pure operation whose inputs are all constants, through its
`ops.SEMANTICS` function, unless the result is an f64 infinity or NaN,
which no literal spells; folds every match with a constant input;
applies the usual identities (x+0, x*1, x*0, x-x and friends), and
inlines the selected alternative of a gamma whose predicate is a
constant.  A region argument is a constant when the outer value it
carries (`graph.carried`) is one: a gamma entry, an invariant loop
variable or a context variable fed by a constant.

One walk reaches the fixpoint.  Each region is walked producers first,
so a node's operands are reduced before the node is.  A structural
node's subregions are walked when the walk reaches the node, after
everything it receives is in place.  An inlined alternative's copies
are walked where the gamma stood, so a nested constant gamma among
them is inlined in the same walk.
"""

import math

from ..graph import carried
from ..source import ARITH
from ..ops import SEMANTICS, Trap, coerce_literal, const
from ..rewrite import inline_region


def run(graph):
    _walk(graph, graph.topological_order(graph.root))


def _walk(graph, nodes):
    for node in nodes:
        if node.kind == "simple":
            _reduce_simple(graph, node)
            continue
        if node.kind == "gamma":
            copies = _inline_constant_gamma(graph, node)
            if copies is not None:
                _walk(graph, copies)
                continue
        for sub in node.subregions:
            _walk(graph, graph.topological_order(sub))


def _const_of(port):
    while port.node is None:
        port = carried(port)
        if port is None:
            return None
    n = port.node
    if n.kind == "simple" and n.op.name == "const":
        return coerce_literal(n.op.value, n.op.ty)
    return None


def _replace_with_const(graph, node, value, ty):
    port = graph.add_simple(node.region, const(value, ty), []).outputs[0]
    graph.divert_users(node.outputs[0], port)


def _reduce_simple(graph, node):
    op = node.op
    n = op.name
    if op.is_stateful or not node.inputs or not node.outputs[0].users:
        return
    vals = [_const_of(u.origin) for u in node.inputs]
    if None not in vals:
        try:
            v = op.select(vals[0]) if n == "match" else \
                SEMANTICS[n, op.ty.kind](op.ty, *vals)
        except Trap:
            return
        if v.__class__ is not float or math.isfinite(v):
            _replace_with_const(graph, node, v, node.outputs[0].ty)
        return

    if n not in ARITH or op.ty.kind != "int":
        return
    a, b = vals
    x0, x1 = node.inputs[0].origin, node.inputs[1].origin
    out = node.outputs[0]
    if n == "add":
        if b == 0:
            graph.divert_users(out, x0)
        elif a == 0:
            graph.divert_users(out, x1)
    elif n == "sub":
        if b == 0:
            graph.divert_users(out, x0)
        elif x0 is x1:
            _replace_with_const(graph, node, 0, op.ty)
    elif n == "mul":
        if b == 1:
            graph.divert_users(out, x0)
        elif a == 1:
            graph.divert_users(out, x1)
        elif a == 0 or b == 0:
            _replace_with_const(graph, node, 0, op.ty)
    elif n == "xor":
        if x0 is x1:
            _replace_with_const(graph, node, 0, op.ty)
    elif n in ("and", "or"):
        if x0 is x1:
            graph.divert_users(out, x0)
    elif n == "div":
        if b == 1:
            graph.divert_users(out, x0)
    elif n in ("shl", "shr"):
        if b == 0:
            graph.divert_users(out, x0)


def _inline_constant_gamma(graph, node):
    """Inline the chosen alternative of a constant-predicate gamma and
    return its copies, in topological order; None if the predicate is
    not a constant."""
    pred = _const_of(node.inputs[0].origin)
    if pred is None or not 0 <= pred < len(node.subregions):
        return None                      # an out-of-range predicate traps
    region = node.region
    start = len(region.nodes)
    outs = inline_region(graph, node.subregions[pred], region,
                         [use.origin for use in node.inputs[1:]])
    copies = region.nodes[start:]
    for out, origin in zip(node.outputs, outs):
        graph.divert_users(out, origin)
    graph.remove_node(node)
    return copies
