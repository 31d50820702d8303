"""Local reductions: constant folding and algebraic simplification.

Folds every pure operation whose inputs are all constants, through its
`ops.SEMANTICS` function, unless the result is an f64 infinity or NaN,
which no literal spells; folds every match with a constant input;
applies the usual identities (x+0, x*1, x*0, x-x and friends), and
inlines the selected alternative of a gamma whose predicate is a
constant.  The whole graph is rescanned for a bounded number of rounds
because one reduction routinely enables the next.
"""

import math

from ..source import ARITH
from ..ops import SEMANTICS, Trap, coerce_literal, const
from ..rewrite import inline_region

ROUNDS = 4


def run(graph):
    for _ in range(ROUNDS):
        if not _round(graph):
            break


def _round(graph):
    changed = False
    for node in list(graph.all_nodes()):
        if node.region is None:
            continue                      # removed by an earlier reduction
        if node.kind == "simple":
            changed |= _reduce_simple(graph, node)
        elif node.kind == "gamma":
            changed |= _reduce_gamma(graph, node)
    return changed


def _const_of(port):
    if port is None:
        return None
    n = port.node
    if n is not None and n.kind == "simple" and n.op.name == "const":
        return coerce_literal(n.op.value, n.op.ty)
    return None


def _emit_const(graph, region, value, ty):
    return graph.add_simple(region, const(value, ty), []).outputs[0]


def _replace_with_const(graph, node, value, ty):
    port = _emit_const(graph, node.region, value, ty)
    graph.divert_users(node.outputs[0], port)
    return True


def _replace_with(graph, node, origin):
    graph.divert_users(node.outputs[0], origin)
    return True


def _reduce_simple(graph, node):
    op = node.op
    n = op.name
    if op.is_stateful or not node.inputs or not node.outputs[0].users:
        return False
    vals = [_const_of(u.origin) for u in node.inputs]
    if None not in vals:
        try:
            v = op.select(vals[0]) if n == "match" else \
                SEMANTICS[n, op.ty.kind](op.ty, *vals)
        except Trap:
            return False
        if v.__class__ is float and not math.isfinite(v):
            return False
        return _replace_with_const(graph, node, v, node.outputs[0].ty)

    if n not in ARITH or op.ty.kind != "int":
        return False
    a, b = vals
    x0, x1 = node.inputs[0].origin, node.inputs[1].origin
    if n == "add":
        if b == 0:
            return _replace_with(graph, node, x0)
        if a == 0:
            return _replace_with(graph, node, x1)
    elif n == "sub":
        if b == 0:
            return _replace_with(graph, node, x0)
        if x0 is x1:
            return _replace_with_const(graph, node, 0, op.ty)
    elif n == "mul":
        if b == 1:
            return _replace_with(graph, node, x0)
        if a == 1:
            return _replace_with(graph, node, x1)
        if a == 0 or b == 0:
            return _replace_with_const(graph, node, 0, op.ty)
    elif n == "xor":
        if x0 is x1:
            return _replace_with_const(graph, node, 0, op.ty)
    elif n in ("and", "or"):
        if x0 is x1:
            return _replace_with(graph, node, x0)
    elif n == "div":
        if b == 1:
            return _replace_with(graph, node, x0)
    elif n in ("shl", "shr"):
        if b == 0:
            return _replace_with(graph, node, x0)
    return False


def _reduce_gamma(graph, node):
    """Inline the chosen alternative of a constant-predicate gamma."""
    pred = _const_of(node.inputs[0].origin)
    if pred is None:
        return False
    if not 0 <= pred < len(node.subregions):
        return False                     # out-of-range predicate traps
    outs = inline_region(graph, node.subregions[pred], node.region,
                         [use.origin for use in node.inputs[1:]])
    for out, origin in zip(node.outputs, outs):
        graph.divert_users(out, origin)
    graph.remove_node(node)
    return True
