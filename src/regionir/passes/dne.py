"""Dead node elimination.

Mark-and-sweep over ports.  The mark phase seeds the demand set with the
omega region's exports and chases origins backwards through simple
nodes and through the variables of the structural nodes.  The
sweep removes undemanded nodes in reverse topological order, then trims
dead exit, loop, context, and recursion variables and undemanded
arguments of gamma alternatives, then the entries no alternative binds
any more, and finally drops unreferenced imports.  Running the pass
twice changes nothing the second time.

Loops whose outputs are all dead are still executed by the reference
semantics and may spin forever, so a theta sitting in live code is
never deleted even when nothing consumes it; its predicate (and
whatever feeds it) stays demanded.  Code is live when the function
around it is: a gamma or theta runs whenever its own region does.  So
when a lambda or delta output is first demanded, the mark pins every
node of its body that `holds_loop`, with its predicate, and pins the
same way inside what it pinned.  Thetas inside dead functions go away
with the function.
"""

from ..graph import carried, holds_loop


def run(graph):
    demanded, kept = mark(graph)
    sweep(graph, graph.root, demanded, kept)
    graph.omega_remove_imports([a.index for a in graph.root.args
                                if a not in demanded])


def mark(graph):
    demanded = set()
    kept = set()
    work = []

    def want(p):
        if p is not None and p not in demanded:
            demanded.add(p)
            work.append(p)

    def want_loopvar(t, l):
        want(t.inputs[l].origin)
        want(t.subregions[0].results[l + 1].origin)

    def pin(region):
        """Keep every loop of a live region running, and the gammas
        around it, with their predicates."""
        for n in region.nodes:
            if holds_loop(n):
                kept.add(n)
                want(n.subregions[0].results[0].origin if n.kind == "theta"
                     else n.inputs[0].origin)
                for sub in n.subregions:
                    pin(sub)

    for res in graph.root.results:
        want(res.origin)
    while work:
        p = work.pop()
        if p.node is None:
            owner = p.region.owner
            if owner.kind == "theta":
                want_loopvar(owner, p.index)
            elif owner.kind == "phi" and p.index >= owner.n_ctx:
                want(p.region.results[p.index - owner.n_ctx].origin)
            else:
                # parameters and omega arguments are roots
                want(carried(p))
        elif p.node.kind == "simple":
            for use in p.node.inputs:
                want(use.origin)
        elif p.node.kind == "gamma":
            want(p.node.inputs[0].origin)
            for sub in p.node.subregions:
                want(sub.results[p.index].origin)
        elif p.node.kind == "theta":
            want(p.node.subregions[0].results[0].origin)
            want_loopvar(p.node, p.index)
        elif p.node.kind in ("lambda", "delta"):
            body = p.node.subregions[0]
            for res in body.results:
                want(res.origin)
            pin(body)
        elif p.node.kind == "phi":
            want(p.node.subregions[0].results[p.index].origin)
    return demanded, kept


def sweep(graph, region, demanded, kept):
    for node in reversed(graph.topological_order(region)):
        if node not in kept \
                and not any(out in demanded for out in node.outputs):
            graph.remove_node(node)
        elif node.kind == "gamma":
            _sweep_gamma(graph, node, demanded, kept)
        elif node.kind == "theta":
            _sweep_theta(graph, node, demanded, kept)
        elif node.kind == "phi":
            _sweep_phi(graph, node, demanded, kept)
        elif node.kind in ("lambda", "delta"):
            sweep(graph, node.subregions[0], demanded, kept)
            _sweep_ctx(graph, node, demanded)


def _sweep_gamma(graph, node, demanded, kept):
    graph.remove_gamma_exits(node, [o.index for o in node.outputs
                                    if o not in demanded])
    bound = set()
    for c, sub in enumerate(node.subregions):
        sweep(graph, sub, demanded, kept)
        graph.remove_gamma_args(node, c, [a.index for a in sub.args
                                          if a not in demanded])
        bound.update(a.index for a in sub.args)
    graph.remove_gamma_entries(node, [l for l in range(len(node.inputs) - 1)
                                      if l not in bound])


def _sweep_theta(graph, node, demanded, kept):
    body = node.subregions[0]
    dead = [l for l in range(len(node.inputs))
            if node.outputs[l] not in demanded and body.args[l] not in demanded]
    for l in dead:
        graph.disconnect(body.results[l + 1])
    sweep(graph, body, demanded, kept)
    graph.remove_theta_loopvars(node, dead)


def _sweep_phi(graph, node, demanded, kept):
    body = node.subregions[0]
    dead = [l for l in range(len(node.outputs))
            if node.outputs[l] not in demanded
            and body.args[node.n_ctx + l] not in demanded]
    for l in dead:
        graph.disconnect(body.results[l])
    sweep(graph, body, demanded, kept)
    graph.remove_phi_recs(node, dead)
    _sweep_ctx(graph, node, demanded)


def _sweep_ctx(graph, node, demanded):
    ctx = node.subregions[0].args[:node.n_ctx]
    graph.remove_ctx_vars(node, [a.index for a in ctx if a not in demanded])
