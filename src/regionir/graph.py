"""The region graph data model.

A graph is a tree of regions rooted in the omega region.  Nodes are
simple (operation-bearing) or structural (gamma, theta, lambda, delta,
phi, omega).  Edges are stored as origin references on the user side;
each origin keeps its user list, so the multigraph is recoverable in
both directions.

All handles are dense integers assigned per graph, and every traversal
breaks ties by ascending id, which makes the passes deterministic.

Port indices are dense too.  Variables are removed in batches
(`remove_gamma_entries(g, ls)` and its siblings take a set of variable
indices): each affected port list is filtered and renumbered once per
batch, not once per removed index.

Every edit goes through a few primitives -- `connect`, `disconnect`,
`divert_users`, node creation, `remove_node` and batch port removal --
and each bumps `Graph.version`, so a cache of facts derived from the
graph (the interpreter's region plans) can tell that it is stale.
"""

import heapq

from .types import Ty, ctl, fnty, PTR, MEM, IO
from .ops import SimpleOp

STRUCTURAL = ("gamma", "theta", "lambda", "delta", "phi", "omega")


class GraphError(Exception):
    pass


class Port:
    """An edge origin: a node output or a region argument."""

    __slots__ = ("ty", "index", "node", "region", "users")

    def __init__(self, ty, index, node=None, region=None):
        self.ty = ty
        self.index = index
        self.node = node        # producer node; None for region arguments
        self.region = region    # region the port lives in
        self.users = []

    @property
    def is_argument(self):
        return self.node is None

    def sort_key(self):
        if self.node is not None:
            return (1, self.node.id, self.index)
        return (0, self.region.id, self.index)

    def __repr__(self):
        if self.node is not None:
            return "n%d.o%d" % (self.node.id, self.index)
        return "r%d.a%d" % (self.region.id, self.index)


class Use:
    """An edge user: a node input or a region result."""

    __slots__ = ("ty", "index", "node", "region", "origin")

    def __init__(self, ty, index, node=None, region=None):
        self.ty = ty
        self.index = index
        self.node = node        # consumer node; None for region results
        self.region = region    # region the use lives in
        self.origin = None

    @property
    def is_result(self):
        return self.node is None

    def sort_key(self):
        if self.node is not None:
            return (0, self.node.id, self.index)
        return (1, self.region.id, self.index)

    def __repr__(self):
        if self.node is not None:
            return "n%d.i%d" % (self.node.id, self.index)
        return "r%d.r%d" % (self.region.id, self.index)


class Region:
    __slots__ = ("id", "owner", "owner_index", "args", "results", "nodes")

    def __init__(self, rid, owner=None, owner_index=0):
        self.id = rid
        self.owner = owner          # owning structural node; None only for omega
        self.owner_index = owner_index
        self.args = []
        self.results = []
        self.nodes = []             # creation (= id) order

    def __repr__(self):
        return "Region(%d)" % self.id


class Node:
    __slots__ = ("id", "region", "kind", "op", "name", "n_ctx",
                 "inputs", "outputs", "subregions")

    def __init__(self, nid, region, kind, op=None, name=None):
        self.id = nid
        self.region = region
        self.kind = kind            # 'simple' or a structural kind
        self.op = op                # SimpleOp for simple nodes
        self.name = name            # lambda/delta only
        self.n_ctx = 0              # lambda/delta/phi context-variable count
        self.inputs = []
        self.outputs = []
        self.subregions = []

    @property
    def opname(self):
        return str(self.op) if self.kind == "simple" else self.kind

    def __repr__(self):
        return "Node(%d,%s)" % (self.id, self.opname)


def _renumber(items):
    for i, p in enumerate(items):
        p.index = i


class Graph:
    def __init__(self):
        self.version = 0            # bumped by every edit primitive
        self._next = 0
        self.root_node = Node(self._take(), None, "omega")
        self.root = Region(self._take(), owner=self.root_node)
        self.root_node.subregions.append(self.root)
        self.import_names = []      # parallel to root.args
        self.export_names = []      # parallel to root.results

    def _take(self):
        self._next += 1
        return self._next - 1

    # -- edges ------------------------------------------------------------

    def connect(self, use, port):
        if use.ty != port.ty:
            raise GraphError("type mismatch: %s vs %s at %r" % (use.ty, port.ty, use))
        if use.region is not port.region:
            raise GraphError("cross-region edge %r -> %r" % (port, use))
        if use.origin is not None:
            self.disconnect(use)
        self.version += 1
        use.origin = port
        port.users.append(use)

    def disconnect(self, use):
        self.version += 1
        if use.origin is not None:
            use.origin.users.remove(use)
            use.origin = None

    def divert_users(self, old, new):
        """Point every user of `old` at `new`; returns the user count."""
        if old is new:
            return 0
        if old.ty != new.ty:
            raise GraphError("divert type mismatch: %s vs %s" % (old.ty, new.ty))
        if old.region is not new.region:
            raise GraphError("cross-region diversion %r -> %r" % (old, new))
        self.version += 1
        moved = old.users
        old.users = []
        for use in moved:
            use.origin = new
            new.users.append(use)
        return len(moved)

    # -- construction -----------------------------------------------------

    def _new_region(self, owner, index):
        r = Region(self._take(), owner=owner, owner_index=index)
        owner.subregions.append(r)
        return r

    def _new_node(self, region, kind, op=None, name=None):
        self.version += 1
        n = Node(self._take(), region, kind, op=op, name=name)
        region.nodes.append(n)
        return n

    def _add_input(self, node, origin):
        use = Use(origin.ty, len(node.inputs), node=node, region=node.region)
        node.inputs.append(use)
        self.connect(use, origin)
        return use

    def _add_output(self, node, ty):
        port = Port(ty, len(node.outputs), node=node, region=node.region)
        node.outputs.append(port)
        return port

    def _add_arg(self, region, ty):
        port = Port(ty, len(region.args), region=region)
        region.args.append(port)
        return port

    def _add_result(self, region, ty, origin=None):
        use = Use(ty, len(region.results), region=region)
        region.results.append(use)
        if origin is not None:
            self.connect(use, origin)
        return use

    def add_simple(self, region, op, origins):
        ins, outs = op.signature()
        if len(origins) != len(ins):
            raise GraphError("%s expects %d operands, got %d"
                             % (op, len(ins), len(origins)))
        n = self._new_node(region, "simple", op=op)
        for origin in origins:
            self._add_input(n, origin)
        for ty in outs:
            self._add_output(n, ty)
        return n

    # gamma

    def begin_gamma(self, region, pred_origin, k):
        if k < 2:
            raise GraphError("gamma needs at least 2 subregions")
        if pred_origin.ty != ctl(k):
            raise GraphError("gamma predicate must be %s, got %s"
                             % (ctl(k), pred_origin.ty))
        n = self._new_node(region, "gamma")
        self._add_input(n, pred_origin)
        for i in range(k):
            self._new_region(n, i)
        return n

    def gamma_add_entry(self, g, origin):
        self._add_input(g, origin)
        return [self._add_arg(r, origin.ty) for r in g.subregions]

    def gamma_add_exit(self, g, result_origins):
        tys = {o.ty for o in result_origins}
        if len(result_origins) != len(g.subregions) or len(tys) != 1:
            raise GraphError("exit variable needs one equally-typed origin per subregion")
        ty = result_origins[0].ty
        for r, origin in zip(g.subregions, result_origins):
            self._add_result(r, ty, origin)
        return self._add_output(g, ty)

    # theta

    def begin_theta(self, region):
        n = self._new_node(region, "theta")
        body = self._new_region(n, 0)
        self._add_result(body, ctl(2))      # continuation predicate, set later
        return n

    def theta_add_loopvar(self, t, origin):
        body = t.subregions[0]
        self._add_input(t, origin)
        arg = self._add_arg(body, origin.ty)
        self._add_result(body, origin.ty)
        out = self._add_output(t, origin.ty)
        return arg, out

    def theta_set_predicate(self, t, origin):
        self.connect(t.subregions[0].results[0], origin)

    def theta_set_result(self, t, l, origin):
        self.connect(t.subregions[0].results[l + 1], origin)

    # lambda

    def begin_lambda(self, region, name):
        n = self._new_node(region, "lambda", name=name)
        self._new_region(n, 0)
        return n

    def add_ctx(self, node, origin):
        """Add a context variable to a lambda, delta, or phi node."""
        if node.n_ctx != len(node.inputs):
            raise GraphError("context variables must precede other ports")
        self._add_input(node, origin)
        arg = node.subregions[0].args
        if len(arg) != node.n_ctx:
            raise GraphError("context variables must precede region arguments")
        node.n_ctx += 1
        return self._add_arg(node.subregions[0], origin.ty)

    def insert_ctx(self, node, origin):
        """Add a context variable to a node whose region already has
        non-context arguments; the new pair slots in after the existing
        context variables."""
        use = Use(origin.ty, node.n_ctx, node=node, region=node.region)
        node.inputs.insert(node.n_ctx, use)
        _renumber(node.inputs)
        self.connect(use, origin)
        body = node.subregions[0]
        arg = Port(origin.ty, node.n_ctx, region=body)
        body.args.insert(node.n_ctx, arg)
        _renumber(body.args)
        node.n_ctx += 1
        return arg

    def lambda_add_param(self, lam, ty):
        return self._add_arg(lam.subregions[0], ty)

    def lambda_finish(self, lam, result_origins):
        body = lam.subregions[0]
        for origin in result_origins:
            self._add_result(body, origin.ty, origin)
        params = tuple(a.ty for a in body.args[lam.n_ctx:])
        results = tuple(r.ty for r in body.results)
        return self._add_output(lam, fnty(params, results))

    # delta

    def begin_delta(self, region, name, elem_ty):
        n = self._new_node(region, "delta", name=name)
        n.op = SimpleOp("delta", elem_ty)   # remembers the cell type
        self._new_region(n, 0)
        return n

    def delta_finish(self, d, result_origin):
        self._add_result(d.subregions[0], result_origin.ty, result_origin)
        return self._add_output(d, PTR)

    # phi

    def begin_phi(self, region):
        n = self._new_node(region, "phi")
        self._new_region(n, 0)
        return n

    def phi_add_rec(self, phi, ty):
        body = phi.subregions[0]
        arg = self._add_arg(body, ty)
        self._add_result(body, ty)
        out = self._add_output(phi, ty)
        return arg, out

    def phi_set_rec(self, phi, l, origin):
        self.connect(phi.subregions[0].results[l], origin)

    # omega

    def omega_add_import(self, name, ty):
        self.import_names.append(name)
        return self._add_arg(self.root, ty)

    def omega_add_export(self, name, origin):
        self.export_names.append(name)
        return self._add_result(self.root, origin.ty, origin)

    def export_origin(self, name):
        for nm, res in zip(self.export_names, self.root.results):
            if nm == name:
                return res.origin
        raise KeyError("no export named %r" % name)

    # -- variable views ---------------------------------------------------

    def entry_vars(self, g):
        return [(g.inputs[l + 1], [r.args[l] for r in g.subregions])
                for l in range(len(g.inputs) - 1)]

    def exit_vars(self, g):
        return [([r.results[l] for r in g.subregions], g.outputs[l])
                for l in range(len(g.outputs))]

    def loop_vars(self, t):
        body = t.subregions[0]
        return [(t.inputs[l], body.args[l], body.results[l + 1], t.outputs[l])
                for l in range(len(t.inputs))]

    def ctx_vars(self, node):
        return [(node.inputs[l], node.subregions[0].args[l])
                for l in range(node.n_ctx)]

    def rec_vars(self, phi):
        body = phi.subregions[0]
        return [(body.results[l], body.args[phi.n_ctx + l], phi.outputs[l])
                for l in range(len(phi.outputs))]

    # -- removal ----------------------------------------------------------

    def remove_node(self, node):
        for out in node.outputs:
            if out.users:
                raise GraphError("removing %r whose output still has users" % node)
        self.version += 1
        for use in node.inputs:
            self.disconnect(use)
        for sub in node.subregions:
            self._teardown_region(sub)
        node.subregions = []
        node.region.nodes.remove(node)
        node.region = None

    def _teardown_region(self, region):
        for res in region.results:
            self.disconnect(res)
        for inner in list(region.nodes):
            for u in inner.inputs:
                self.disconnect(u)
            for sub in inner.subregions:
                self._teardown_region(sub)
            inner.region = None
        region.nodes = []

    def _drop_ports(self, ports=(), uses=()):
        """Remove a batch of port-list entries.  `ports` and `uses` hold
        (list, index set) pairs: ports are outputs or arguments and must
        have no users, uses are inputs or results and get disconnected.
        Every port is checked before anything changes; each list is then
        filtered once and renumbered once, survivors keeping their order."""
        for items, idxs in ports:
            for i in idxs:
                if items[i].users:
                    raise GraphError("removing %r, which still has users"
                                     % items[i])
        self.version += 1
        for items, idxs in uses:
            for i in idxs:
                self.disconnect(items[i])
        for items, idxs in list(ports) + list(uses):
            if idxs:
                items[:] = [p for i, p in enumerate(items) if i not in idxs]
                _renumber(items)

    def remove_gamma_entries(self, g, ls):
        ls = set(ls)
        self._drop_ports(ports=[(r.args, ls) for r in g.subregions],
                         uses=[(g.inputs, {l + 1 for l in ls})])

    def remove_gamma_exits(self, g, ls):
        ls = set(ls)
        self._drop_ports(ports=[(g.outputs, ls)],
                         uses=[(r.results, ls) for r in g.subregions])

    def remove_theta_loopvars(self, t, ls):
        ls = set(ls)
        body = t.subregions[0]
        self._drop_ports(ports=[(t.outputs, ls), (body.args, ls)],
                         uses=[(body.results, {l + 1 for l in ls}),
                               (t.inputs, ls)])

    def remove_ctx_vars(self, node, ls):
        ls = set(ls)
        self._drop_ports(ports=[(node.subregions[0].args, ls)],
                         uses=[(node.inputs, ls)])
        node.n_ctx -= len(ls)

    def remove_phi_recs(self, phi, ls):
        ls = set(ls)
        body = phi.subregions[0]
        self._drop_ports(ports=[(phi.outputs, ls),
                                (body.args, {phi.n_ctx + l for l in ls})],
                         uses=[(body.results, ls)])

    def omega_remove_imports(self, ls):
        ls = set(ls)
        self._drop_ports(ports=[(self.root.args, ls)])
        self.import_names[:] = [nm for l, nm in enumerate(self.import_names)
                                if l not in ls]

    # -- traversal --------------------------------------------------------

    def topological_order(self, region):
        """Producer-before-consumer order, ties broken by ascending id."""
        pending = {}
        consumers = {}
        for n in region.nodes:
            deps = set()
            for use in n.inputs:
                p = use.origin
                if p is not None and p.node is not None and p.node.region is region:
                    deps.add(p.node.id)
            pending[n.id] = deps
            for d in deps:
                consumers.setdefault(d, set()).add(n.id)
        by_id = {n.id: n for n in region.nodes}
        ready = [nid for nid, deps in pending.items() if not deps]
        heapq.heapify(ready)
        order = []
        while ready:
            nid = heapq.heappop(ready)
            order.append(by_id[nid])
            for c in consumers.get(nid, ()):
                pending[c].discard(nid)
                if not pending[c]:
                    heapq.heappush(ready, c)
        if len(order) != len(region.nodes):
            raise GraphError("cycle among nodes of region %d" % region.id)
        return order

    def regions(self):
        """All regions, preorder from the omega region."""
        stack = [self.root]
        while stack:
            r = stack.pop()
            yield r
            for n in sorted(r.nodes, key=lambda n: n.id, reverse=True):
                stack.extend(reversed(n.subregions))

    def all_nodes(self):
        for r in self.regions():
            for n in sorted(r.nodes, key=lambda n: n.id):
                yield n

    # -- validation -------------------------------------------------------

    def validate(self):
        """Check every structural invariant; returns all violations."""
        bad = []

        def check(cond, msg, *fmt):
            if not cond:
                bad.append(msg % fmt if fmt else msg)

        for region in self.regions():
            for i, a in enumerate(region.args):
                check(a.index == i and a.region is region and a.node is None,
                      "argument bookkeeping broken in region %d", region.id)
            for i, res in enumerate(region.results):
                check(res.index == i and res.region is region,
                      "result bookkeeping broken in region %d", region.id)
                self._check_use(res, region, check)
            for n in region.nodes:
                check(n.region is region, "node %d in wrong region", n.id)
                for i, use in enumerate(n.inputs):
                    check(use.index == i, "input index broken on node %d", n.id)
                    self._check_use(use, region, check)
                for i, out in enumerate(n.outputs):
                    check(out.index == i and out.region is region,
                          "output bookkeeping broken on node %d", n.id)
                    for u in out.users:
                        check(u.origin is out, "user list broken on node %d", n.id)
                self._check_node(n, check)
            try:
                self.topological_order(region)
            except GraphError as e:
                bad.append(str(e))
        return bad

    def _check_use(self, use, region, check):
        p = use.origin
        check(p is not None, "%r is not the user of any edge", use)
        if p is None:
            return
        check(use in p.users, "%r missing from its origin's user list", use)
        check(p.region is region, "%r crosses regions from %r", use, p)
        check(use.ty == p.ty, "type mismatch %s vs %s at %r", use.ty, p.ty, use)

    def _check_node(self, n, check):
        for sub in n.subregions:
            check(sub.owner is n, "subregion owner broken on node %d", n.id)
        if n.kind == "simple":
            ins, outs = n.op.signature()
            check(tuple(i.ty for i in n.inputs) == ins
                  and tuple(o.ty for o in n.outputs) == outs,
                  "node %d signature does not match operation %s", n.id, n.op)
            check(not n.subregions, "simple node %d has subregions", n.id)
        elif n.kind == "gamma":
            k = len(n.subregions)
            check(k >= 2, "gamma %d has fewer than 2 subregions", n.id)
            check(n.inputs and n.inputs[0].ty == ctl(k),
                  "gamma %d predicate is not ctl%d", n.id, k)
            sigs = {(tuple(a.ty for a in r.args), tuple(x.ty for x in r.results))
                    for r in n.subregions}
            check(len(sigs) == 1, "gamma %d subregion signatures differ", n.id)
            for r in n.subregions:
                check(len(r.args) == len(n.inputs) - 1,
                      "gamma %d entry variables malformed", n.id)
                check(len(r.results) == len(n.outputs),
                      "gamma %d exit variables malformed", n.id)
                check(all(a.ty == n.inputs[i + 1].ty for i, a in enumerate(r.args)),
                      "gamma %d entry variable types differ", n.id)
                check(all(x.ty == n.outputs[i].ty for i, x in enumerate(r.results)),
                      "gamma %d exit variable types differ", n.id)
        elif n.kind == "theta":
            check(len(n.subregions) == 1, "theta %d needs one subregion", n.id)
            body = n.subregions[0]
            ok = (len(n.inputs) == len(n.outputs) == len(body.args)
                  == len(body.results) - 1)
            check(ok, "theta %d signature tuples disagree", n.id)
            check(bool(body.results) and body.results[0].ty == ctl(2),
                  "theta %d result 0 is not the ctl2 predicate", n.id)
            if ok:
                for l in range(len(n.inputs)):
                    check(n.inputs[l].ty == body.args[l].ty
                          == body.results[l + 1].ty == n.outputs[l].ty,
                          "theta %d loop variable %d types disagree", n.id, l)
        elif n.kind == "lambda":
            check(len(n.subregions) == 1 and len(n.outputs) == 1,
                  "lambda %d shape broken", n.id)
            if n.outputs:
                ty = n.outputs[0].ty
                body = n.subregions[0]
                check(ty.kind == "fn"
                      and ty.params == tuple(a.ty for a in body.args[n.n_ctx:])
                      and ty.results == tuple(r.ty for r in body.results),
                      "lambda %d output type disagrees with its region", n.id)
            check(len(n.inputs) == n.n_ctx, "lambda %d has non-context inputs", n.id)
        elif n.kind == "delta":
            check(len(n.subregions) == 1 and len(n.outputs) == 1
                  and n.outputs[0].ty == PTR,
                  "delta %d shape broken", n.id)
            check(len(n.subregions[0].results) == 1,
                  "delta %d must have exactly one result", n.id)
            check(len(n.inputs) == n.n_ctx, "delta %d has non-context inputs", n.id)
        elif n.kind == "phi":
            check(len(n.subregions) == 1, "phi %d needs one subregion", n.id)
            body = n.subregions[0]
            nrec = len(n.outputs)
            check(len(body.results) == nrec,
                  "phi %d recursion variables malformed", n.id)
            check(len(body.args) == n.n_ctx + nrec,
                  "phi %d arguments malformed", n.id)
            for l in range(nrec):
                if l < len(body.results) and n.n_ctx + l < len(body.args):
                    check(body.results[l].ty == body.args[n.n_ctx + l].ty
                          == n.outputs[l].ty,
                          "phi %d recursion variable %d types disagree", n.id, l)
            for inner in body.nodes:
                check(inner.kind in ("lambda", "delta"),
                      "phi %d contains a %s node", n.id, inner.kind)
        elif n.kind == "omega":
            check(n is self.root_node, "stray omega node %d", n.id)
            check(not n.inputs and not n.outputs, "omega has ports")
        else:
            check(False, "unknown node kind %s", n.kind)
