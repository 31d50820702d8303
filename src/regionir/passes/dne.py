"""Dead node elimination.

Mark-and-sweep over ports.  The mark phase seeds the demand set with the
omega region's exports and chases origins backwards through simple
nodes and through the variables of the structural nodes.  The
sweep removes undemanded nodes in reverse topological order, then trims
dead entry, exit, loop, context, and recursion variables, and finally
drops unreferenced imports.  Running the pass twice changes nothing the
second time.

Loops whose outputs are all dead are still executed by the reference
semantics and may spin forever, so a theta sitting in live code is
never deleted even when nothing consumes it; its predicate (and
whatever feeds it) stays demanded.  Code is live when the function
around it is: a gamma or theta runs whenever its own region does, so
the gammas around such a theta stay too, with their predicates.
Thetas inside dead functions go away with the function.
"""


def run(graph):
    demanded, kept = mark(graph)
    sweep(graph, graph.root, demanded, kept)
    graph.omega_remove_imports([a.index for a in graph.root.args
                                if a not in demanded])


def mark(graph):
    demanded = set()
    theta_alive = set()
    kept = set()
    work = []

    def want(p):
        if p is not None and p not in demanded:
            demanded.add(p)
            work.append(p)

    def want_loopvar(t, l):
        want(t.inputs[l].origin)
        want(t.subregions[0].results[l + 1].origin)

    def want_theta_pred(t):
        if t not in theta_alive:
            theta_alive.add(t)
            want(t.subregions[0].results[0].origin)

    def drain():
        while work:
            p = work.pop()
            if p.node is None:
                owner = p.region.owner
                if owner.kind == "gamma":
                    want(owner.inputs[p.index + 1].origin)
                elif owner.kind == "theta":
                    want_loopvar(owner, p.index)
                elif owner.kind == "phi":
                    if p.index < owner.n_ctx:
                        want(owner.inputs[p.index].origin)
                    else:
                        want(p.region.results[p.index - owner.n_ctx].origin)
                elif owner.kind in ("lambda", "delta"):
                    if p.index < owner.n_ctx:
                        want(owner.inputs[p.index].origin)
                # omega arguments are roots; nothing to chase
            elif p.node.kind == "simple":
                for use in p.node.inputs:
                    want(use.origin)
            elif p.node.kind == "gamma":
                want(p.node.inputs[0].origin)
                for sub in p.node.subregions:
                    want(sub.results[p.index].origin)
            elif p.node.kind == "theta":
                want_theta_pred(p.node)
                want_loopvar(p.node, p.index)
            elif p.node.kind == "lambda":
                for res in p.node.subregions[0].results:
                    want(res.origin)
            elif p.node.kind == "delta":
                want(p.node.subregions[0].results[0].origin)
            elif p.node.kind == "phi":
                want(p.node.subregions[0].results[p.index].origin)

    def region_live(region):
        while region.owner is not None and region.owner.kind != "omega":
            owner = region.owner
            if owner.kind not in ("gamma", "theta") and owner not in kept \
                    and not any(o in demanded for o in owner.outputs):
                return False
            region = owner.region
        return True

    def keep(node):
        """Pin a theta (and the structure around it) without demanding
        its outputs."""
        while node is not None and node not in kept \
                and node.kind in ("gamma", "theta"):
            kept.add(node)
            if node.kind == "theta":
                want_theta_pred(node)
            else:
                want(node.inputs[0].origin)
            node = node.region.owner

    for res in graph.root.results:
        want(res.origin)
    drain()
    while True:
        stray = [n for n in graph.all_nodes()
                 if n.kind == "theta" and n not in kept
                 and not any(o in demanded for o in n.outputs)
                 and region_live(n.region)]
        if not stray:
            return demanded, kept
        for n in stray:
            keep(n)
        drain()


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
    for sub in node.subregions:
        sweep(graph, sub, demanded, kept)
    graph.remove_gamma_entries(node, [
        l for l in range(len(node.inputs) - 1)
        if not any(sub.args[l] in demanded for sub in node.subregions)])


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
