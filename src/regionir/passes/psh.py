"""Push invariant nodes out of gammas and thetas.

A stateless simple node with users is recomputed once, in the outermost
region where its operands are available: the innermost of its operands'
home regions.  An operand's home is found by following it outward from
the node's region: a gamma alternative's argument stands for the gamma's
input, a theta body's invariant argument (its result is itself) for the
theta's input, and any other port -- a node output, a loop variable that
changes, a function parameter -- is at home where it is.  This stops at
the enclosing lambda, delta or phi body, and for an operation that
can trap at the innermost enclosing gamma alternative: a theta body runs
at least once, so leaving it executes nothing new, while hoisting past a
gamma's predicate would execute the operation unconditionally.

The copy's value re-enters the node's region through one entry variable
(gamma) or pass-through loop variable (theta) per level, and the node's
users read it from there; the original is left, unused, for dead node
elimination.  Regions are walked outside-in, so an operand hoisted
earlier already reads its route argument, and its home lies outward.

Copies are shared per (target region, operation, operand ports), so two
alternatives, two body nodes or two sibling gammas that hoist the same
value share one copy; routes are shared per (subregion, outer port),
and entries per (gamma, outer port), so a gamma gains one entry
variable, bound only in the alternatives that read it, and a theta one
loop variable, per value it passes in.  The memos are only looked up,
never iterated, so keying them by port identity keeps the output
deterministic.  A region's own nodes are handled before its structural
nodes' subregions, in topological order, and the structural nodes in id
order, so copies land in each region in the order hoisting one level at
a time, innermost first, would leave its surviving copies.  A node
without users is not copied, so a second run adds nothing.
"""

from ..graph import carried
from ..rewrite import enter


def run(graph):
    _Hoister(graph).walk(graph.root, [], 0, 0)


class _Hoister:
    def __init__(self, graph):
        self.graph = graph
        self.copies = {}    # (region, op, operand ports) -> copy node
        self.routes = {}    # (subregion, outer port) -> its argument
        self.entries = {}   # (gamma, outer port) -> the entry's input

    def walk(self, region, path, floor, trap_floor):
        """Hoist what can leave `region`, then walk its subregions.
        `path` holds the regions from the enclosing body down to
        `region`'s parent; `floor` and `trap_floor` are the depths in it
        of the outermost region a node may reach, any node and a
        trapping one."""
        path = path + [region]
        depth = len(path) - 1
        for node in self.graph.topological_order(region):
            if node.kind == "simple" and not node.op.is_stateful \
                    and any(p.users for p in node.outputs):
                self.hoist(node, path, trap_floor if node.op.can_trap
                           else floor)
        for node in list(region.nodes):
            if node.kind in ("lambda", "delta", "phi"):
                self.walk(node.subregions[0], [], 0, 0)
            elif node.kind == "theta":
                self.walk(node.subregions[0], path, floor, trap_floor)
            elif node.kind == "gamma":
                for sub in node.subregions:
                    self.walk(sub, path, floor, depth + 1)

    def hoist(self, node, path, floor):
        """Recompute `node` in the innermost home region of its operands,
        no further out than depth `floor`, and divert its users to the
        value routed back down."""
        depth = len(path) - 1
        chains = [_chain(u.origin, depth - floor) for u in node.inputs]
        target = max([depth + 1 - len(c) for c in chains], default=floor)
        if target == depth:
            return
        origins = [c[depth - target] for c in chains]
        key = (path[target], node.op, tuple(origins))
        copy = self.copies.get(key)
        if copy is None:
            copy = self.copies[key] = self.graph.add_simple(
                path[target], node.op, origins)
        for old, port in zip(node.outputs, copy.outputs):
            for inner in path[target + 1:]:
                port = self.route(inner, port)
            self.graph.divert_users(old, port)

    def route(self, inner, port):
        """The argument of region `inner` that carries `port`, a port of
        the region around it, adding an entry or loop variable to
        `inner`'s owner the first time, and binding a gamma's entry in
        each alternative the first time that alternative needs it."""
        key = (inner, port)
        arg = self.routes.get(key)
        if arg is None:
            owner = inner.owner
            entry = self.entries.get((owner, port))
            if entry is None:
                arg = enter(self.graph, inner, port)
                if owner.kind == "gamma":
                    self.entries[owner, port] = owner.inputs[-1]
            else:
                arg, = self.graph.gamma_add_args(owner, inner.owner_index,
                                                 [entry.index - 1])
            self.routes[key] = arg
        return arg


def _chain(port, limit):
    """`port` and the ports outside it that it stands for, innermost
    first, at most `limit` levels out."""
    chain = [port]
    while len(chain) <= limit:
        port = carried(port)
        if port is None:
            break
        chain.append(port)
    return chain
