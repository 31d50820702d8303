"""Push invariant nodes out of gammas and thetas.

A stateless simple node with users may be recomputed in the outermost
region where its operands are available, its target: the innermost of
its operands' home regions.  An operand's home is found by following it
outward from the node's region: a gamma alternative's argument stands
for the gamma's input, a theta body's invariant argument (its result is
itself) for the theta's input, and any other port -- a node output, a
loop variable that changes, a function parameter -- is at home where it
is.  This stops at the enclosing lambda, delta or phi body, and for an
operation that can trap at the innermost enclosing gamma alternative: a
theta body runs at least once, so leaving it executes nothing new, while
hoisting past a gamma's predicate would execute the operation
unconditionally.

The pass plans every move before it edits the graph, in three steps.

Plan.  Regions are walked outside-in, a region's own nodes in
topological order before its structural nodes' subregions.  Each node
gets a key, (target, operation, operand values at the target), with the
operands of a commutative operation in a fixed order.  An operand that
a node keyed earlier produces stands for that node's key, so a chain
plans as keys that read keys.  Nodes that share a key compute one
value: two alternatives, two body nodes or two sibling gammas that
compute it, and a node already in the target region, which is then the
value as it stands.

Place.  A key's home, where its value is computed, is reached from its
target by going inward through gamma alternatives only, never into a
theta body, as far as the last alternative that still encloses every
node the key replaces and the home of every key that reads it.  Keys
are placed consumers first, so a chain moves inward together.  A value
that two alternatives share leaves the gamma; a value that one
alternative alone needs stays in it, so pulling single-branch work
back in (PLL) finds nothing of this pass's to undo.  Leaving a theta
executes nothing new, so a value never stays in a loop body for its
own sake.  A trapping key's home is its target, since only theta
bodies lie between that and the nodes it replaces.

Edit.  In walk order, each key is given its value once: a node of the
home region that the key replaces stays and is the value, its operands
read from the key's operand values, and otherwise one copy is made in
the home.  Every other node the key replaces has its users diverted to
the value and is left, unused, for dead node elimination.  A value
reaches an inner region through one entry variable (gamma) or
pass-through loop variable (theta) per level: the one that already
carries it, or else a new one, bound only in the alternatives that read
it.  These routes are recorded per (subregion, outer port) and entries
per (gamma, outer port).  The records are only looked up, never
iterated, so keying them by port identity keeps the output
deterministic.  A node without users is not planned, and a node that
stayed is in its key's home already, so a second run adds nothing.
"""

from ..graph import carried, entry_arg
from ..rewrite import enter


def run(graph):
    hoister = _Hoister(graph)
    hoister.walk(graph.root, [], 0, 0)
    hoister.place()
    hoister.edit()


class _Key:
    """One value to compute: `origins` hold, per operand, a port of
    `target` or the (key, output index) of the value it stands for."""

    def __init__(self, serial, target, op, origins):
        self.serial = serial
        self.target = target
        self.op = op
        self.origins = origins
        self.lca = None     # innermost region enclosing what needs it
        self.home = None
        self.value = None   # the value's output ports in `home`


class _Hoister:
    def __init__(self, graph):
        self.graph = graph
        self.paths = {}     # region -> the regions from its body down to it
        self.keys = {}      # (target, op, origins) -> key, in plan order
        self.plans = []     # (node, its key) for each node that may move
        self.values = {}    # output of a keyed node -> (key, index)
        self.routes = {}    # (subregion, outer port) -> its argument
        self.entries = {}   # (gamma, outer port) -> the entry's input
        self.known = set()  # gammas and thetas whose entries are recorded

    def walk(self, region, path, floor, trap_floor):
        """Plan the nodes of `region`, then walk its subregions.  `path`
        holds the regions from the enclosing body down to `region`'s
        parent; `floor` and `trap_floor` are the depths in it of the
        outermost region a node may reach, any node and a trapping
        one."""
        path = path + [region]
        self.paths[region] = path
        depth = len(path) - 1
        for node in self.graph.topological_order(region):
            if node.kind == "simple" and not node.op.is_stateful \
                    and any(p.users for p in node.outputs):
                self.plan(node, path, trap_floor if node.op.can_trap
                          else floor)
        for node in region.nodes:
            if node.kind in ("lambda", "delta", "phi"):
                self.walk(node.subregions[0], [], 0, 0)
            elif node.kind == "theta":
                self.walk(node.subregions[0], path, floor, trap_floor)
            elif node.kind == "gamma":
                for sub in node.subregions:
                    self.walk(sub, path, floor, depth + 1)

    def plan(self, node, path, floor):
        """Key `node` at its target, the innermost home of its operands
        no further out than depth `floor`; record it as a node to move
        if that lies outside its region."""
        depth = len(path) - 1
        sources = [self.source(u.origin, depth, floor) for u in node.inputs]
        target = max([home for home, _, _ in sources], default=floor)
        origins = tuple(chain[depth - target]
                        if depth - target < len(chain) else value
                        for _, chain, value in sources)
        name = (path[target], node.op,
                tuple(sorted(origins, key=_rank)) if node.op.commutative
                else origins)
        key = self.keys.get(name)
        if key is None:
            key = self.keys[name] = _Key(len(self.keys), path[target],
                                         node.op, origins)
            if target == depth:
                key.home, key.value = node.region, node.outputs
        if target < depth:
            key.lca = self.lca(key.lca, node.region)
            self.plans.append((node, key))
        for i, out in enumerate(node.outputs):
            self.values[out] = (key, i)

    def source(self, port, depth, floor):
        """Follow `port`, at depth `depth`, outward: its home depth, the
        ports it stands for, innermost first, and the (key, index) of a
        keyed node's output, which it stands for further out, or None."""
        chain = []
        while True:
            value = self.values.get(port)
            if value is not None:
                return (max(len(self.paths[value[0].target]) - 1, floor),
                        chain, value)
            chain.append(port)
            outer = carried(port) if depth > floor else None
            if outer is None:
                return depth, chain, None
            port = outer
            depth -= 1

    def lca(self, a, b):
        """The innermost region enclosing regions `a` (or None) and `b`
        of one body."""
        if a is None or a is b:
            return b
        pa, pb = self.paths[a], self.paths[b]
        d = min(len(pa), len(pb)) - 1
        while pa[d] is not pb[d]:
            d -= 1
        return pa[d]

    def place(self):
        """Give every key its home, consumers first."""
        for key in reversed(list(self.keys.values())):
            if key.home is not None:
                continue
            inner = self.paths[key.lca]
            d = len(self.paths[key.target]) - 1
            while d + 1 < len(inner) and inner[d + 1].owner.kind == "gamma":
                d += 1
            key.home = inner[d]
            for o in key.origins:
                if type(o) is tuple:
                    o[0].lca = self.lca(o[0].lca, key.home)

    def edit(self):
        """Give each key its value and divert the nodes it replaces."""
        for node, key in self.plans:
            if key.value is None:
                origins = [self.down(o[0].value[o[1]], o[0].home, key.home)
                           if type(o) is tuple
                           else self.down(o, key.target, key.home)
                           for o in key.origins]
                if node.region is key.home:
                    key.value = node.outputs
                    for use, origin in zip(node.inputs, origins):
                        if use.origin is not origin:
                            self.graph.connect(use, origin)
                    continue
                key.value = self.graph.add_simple(key.home, key.op,
                                                  origins).outputs
            for old, port in zip(node.outputs, key.value):
                self.graph.divert_users(
                    old, self.down(port, key.home, node.region))

    def down(self, port, outer, region):
        """`port`, of region `outer`, as carried into `region`, which
        `outer` encloses."""
        for inner in self.paths[region][len(self.paths[outer]):]:
            port = self.route(inner, port)
        return port

    def route(self, inner, port):
        """The argument of region `inner` that carries `port`, a port of
        the region around it: a theta's invariant loop variable or a
        gamma's entry that already carries it, bound in `inner` if it
        is not yet, or else a new one."""
        key = (inner, port)
        arg = self.routes.get(key)
        if arg is None:
            owner = inner.owner
            if owner not in self.known:
                self.learn(owner)
                arg = self.routes.get(key)
            if owner.kind == "gamma":
                entry = self.entries.get((owner, port))
                if entry is not None:
                    arg = entry_arg(inner, entry.index - 1) or \
                        self.graph.gamma_add_args(owner, inner.owner_index,
                                                  [entry.index - 1])[0]
            if arg is None:
                arg = enter(self.graph, inner, port)
                if owner.kind == "gamma":
                    self.entries[owner, port] = owner.inputs[-1]
            self.routes[key] = arg
        return arg

    def learn(self, owner):
        """Record what `owner` already carries in: a gamma's first entry
        per outer port, and a theta's first invariant loop variable."""
        self.known.add(owner)
        if owner.kind == "gamma":
            for use in owner.inputs[1:]:
                self.entries.setdefault((owner, use.origin), use)
        elif owner.kind == "theta":
            body = owner.subregions[0]
            for use, arg in zip(owner.inputs, body.args):
                if body.results[arg.index + 1].origin is arg:
                    self.routes.setdefault((body, use.origin), arg)


def _rank(origin):
    """A total order on operand values: ports first, then keys' values
    in plan order."""
    if type(origin) is tuple:
        return (2, origin[0].serial, origin[1])
    return origin.sort_key()
