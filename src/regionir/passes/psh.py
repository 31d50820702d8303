"""Push invariant nodes out of gammas and thetas.

A stateless simple node inside a theta whose inputs all come from
invariant loop variables (or from other nodes already pushed out) is
recomputed once in the enclosing region; its value re-enters the body
through a pass-through loop variable.  The same applies to a gamma
alternative, with the value re-entering through an entry variable --
but only for operations that cannot trap, since hoisting past the
predicate makes them execute unconditionally.

Each value is hoisted once per region.  A run keeps one memo keyed by
(target region, operation, operand ports), so two alternatives, two
body nodes or two sibling gammas that hoist the same value share one
copy; a gamma gains one entry variable, and a theta one loop variable,
per hoisted outer port.  The memo is only looked up, never iterated,
so keying it by port identity keeps the output deterministic.  It
stays valid for the whole run: the walk is innermost-first, so nothing
is hoisted into a region whose structural nodes are done.

Chains hoist in a single run: each body is scanned in topological
order, so a node freed up by an earlier hoist is caught in the same
scan.  A node without users is not copied, which leaves the hoisted
originals, now unused, for dead node elimination and makes a second
run add nothing.
"""


def run(graph):
    _process(graph, graph.root, {})


def _process(graph, region, memo):
    for node in list(region.nodes):
        if node.kind in ("lambda", "delta", "phi"):
            _process(graph, node.subregions[0], memo)
        elif node.kind == "theta":
            _process(graph, node.subregions[0], memo)
            _hoist_theta(graph, node, memo)
        elif node.kind == "gamma":
            for sub in node.subregions:
                _process(graph, sub, memo)
            _hoist_gamma(graph, node, memo)


def _hoistable(node, outer, speculated):
    """Whether `node` can and should be recomputed from the outer ports
    in `outer`; a `speculated` node must not trap."""
    return node.kind == "simple" and not node.op.is_stateful \
        and not (speculated and node.op.can_trap) \
        and any(p.users for p in node.outputs) \
        and all(u.origin in outer for u in node.inputs)


def _copy(graph, memo, region, node, outer):
    """The outputs of `node` recomputed in `region`; every hoist of the
    same operation on the same ports into `region` shares the copy."""
    origins = [outer[u.origin] for u in node.inputs]
    key = (region, node.op, tuple(origins))
    moved = memo.get(key)
    if moved is None:
        moved = memo[key] = graph.add_simple(region, node.op, origins)
    return moved.outputs


def _hoist_theta(graph, node, memo):
    body = node.subregions[0]
    outer = {}
    for l in range(len(node.inputs)):
        if body.results[l + 1].origin is body.args[l]:
            outer[body.args[l]] = node.inputs[l].origin
    loopvars = {}
    for inner in graph.topological_order(body):
        if not _hoistable(inner, outer, False):
            continue
        moved = _copy(graph, memo, node.region, inner, outer)
        for old, new in zip(inner.outputs, moved):
            arg = loopvars.get(new)
            if arg is None:
                arg, _ = graph.theta_add_loopvar(node, new)
                graph.theta_set_result(node, len(node.inputs) - 1, arg)
                loopvars[new] = arg
                outer[arg] = new
            graph.divert_users(old, arg)


def _hoist_gamma(graph, node, memo):
    entries = {}
    for c, sub in enumerate(node.subregions):
        outer = {}
        for l, use in enumerate(node.inputs[1:]):
            outer[sub.args[l]] = use.origin
        for inner in graph.topological_order(sub):
            if not _hoistable(inner, outer, True):
                continue
            moved = _copy(graph, memo, node.region, inner, outer)
            for old, new in zip(inner.outputs, moved):
                args = entries.get(new)
                if args is None:
                    args = entries[new] = graph.gamma_add_entry(node, new)
                graph.divert_users(old, args[c])
                outer[args[c]] = new
