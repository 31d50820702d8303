"""The region graph data model.

A graph is a tree of regions rooted in the omega region.  Nodes are
simple (operation-bearing) or structural (gamma, theta, lambda, delta,
phi, omega).  Edges are stored as origin references on the user side;
each origin keeps its user list, so the multigraph is recoverable in
both directions.

All handles are dense integers assigned per graph, and every traversal
breaks ties by ascending id, which makes the passes deterministic.
`region.nodes` holds a region's nodes in ascending id order: the only
additions are fresh nodes, whose ids are larger than any before, and
removal keeps the order of the rest.  `validate` checks this ("node n
out of id order in region r").  Region and node walks rest on it, and so
does `topological_order`, which returns `region.nodes` itself when every
in-region edge runs from a lower id to a higher one.

Port indices are dense too, with one exception: a gamma alternative
binds only the entries it reads.  A gamma has one input per entry
variable, and each alternative holds an argument only for the entries
it reads; that argument's `index` is its entry's index, and
`region.args` holds the alternative's arguments in entry order.
`entry_arg(sub, l)` finds an alternative's argument for entry `l`.
`validate` checks that each alternative's argument indices strictly
increase, that each names an entry, and that each argument has its
entry's type.

Variables are added and removed in batches.  Each constructor
(`gamma_add_entries(g, origins, readers)` and its siblings) takes a
list and grows each port list it touches through one `_splice`: the
batch goes in at one position (an alternative's arguments by entry
index), the list is renumbered once from there, and its region is
marked once.  `gamma_add_args` binds more entries in one alternative.
Each remover (`remove_gamma_entries(g, ls)` and its siblings take a set
of variable indices) filters each list once through `_drop_ports`,
which lowers every later index by the number of indices removed below
it; `remove_gamma_args` unbinds entries in one alternative and leaves
the other indices as they are.

`validate` runs after construction and after every pass, so it is
kept cheap.  After construction and after a schedule's last pass it
walks the whole graph; after the other passes, `validate(changed_only=
True)` checks only the regions edited since the last clean check, and
their owners' signatures.  Types are interned (`types`), so a type
compare is a pointer test.  Each node goes through `_check_node` once.
An edge's two ends are compared inline, and only a failing one goes
through `_check_use`, which words the messages.

Every edit goes through a few primitives -- `connect`, `disconnect`,
`divert_users`, region and node creation, `_splice`, `remove_node` and
`_drop_ports` -- and each goes through `_touch`: it bumps
`Graph.version`, so a cache of facts derived from the graph (the
interpreter's region plans) can tell that it is stale, it marks the
region it edits for `validate`, and it drops that region's cached
topological order.  A region keeps its order from the first
`topological_order` call until the next edit in it, so the passes, the
interpreter's plans and `validate`'s cycle check share one sort per
region per edit; no module outside this one edits a graph.
"""

import bisect
import heapq
import operator

from .types import ctl, fnty, PTR

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

    def sort_key(self):
        if self.node is not None:
            return (0, self.node.id, self.index)
        return (1, self.region.id, self.index)

    def __repr__(self):
        if self.node is not None:
            return "n%d.i%d" % (self.node.id, self.index)
        return "r%d.r%d" % (self.region.id, self.index)


class Region:
    __slots__ = ("id", "owner", "owner_index", "args", "results", "nodes",
                 "order")

    def __init__(self, rid, owner=None, owner_index=0):
        self.id = rid
        self.owner = owner          # owning structural node; None only for omega
        self.owner_index = owner_index
        self.args = []
        self.results = []
        self.nodes = []             # creation (= id) order
        self.order = None           # cached `topological_order`, if any

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


def _renumber(items, start=0):
    for i in range(start, len(items)):
        items[i].index = i


class Graph:
    def __init__(self):
        self.version = 0            # bumped by every edit primitive
        self._next = 0
        self.root_node = Node(self._take(), None, "omega")
        self.root = Region(self._take(), owner=self.root_node)
        self.root_node.subregions.append(self.root)
        self._dirty = {self.root}   # regions edited since the last clean check
        self.import_names = []      # parallel to root.args
        self.export_names = []      # parallel to root.results

    def _take(self):
        self._next += 1
        return self._next - 1

    def _touch(self, region):
        """Record an edit in `region`: the version moves on, the region
        is marked for `validate(changed_only=True)`, and its cached
        topological order is dropped."""
        self.version += 1
        self._dirty.add(region)
        region.order = None

    # -- edges ------------------------------------------------------------

    def connect(self, use, port):
        self._touch(use.region)
        self._link(use, port)

    def _link(self, use, port):
        """Point `use` at `port`, which must have its type and region;
        the caller marks the region."""
        if use.ty != port.ty:
            raise GraphError("type mismatch: %s vs %s at %r" % (use.ty, port.ty, use))
        if use.region is not port.region:
            raise GraphError("cross-region edge %r -> %r" % (port, use))
        if use.origin is not None:
            use.origin.users.remove(use)
        use.origin = port
        port.users.append(use)

    def disconnect(self, use):
        self._touch(use.region)
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
        self._touch(old.region)
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
        self._touch(r)
        return r

    def _new_node(self, region, kind, op=None, name=None):
        self._touch(region)
        n = Node(self._take(), region, kind, op=op, name=name)
        region.nodes.append(n)
        return n

    def _splice(self, holder, name, tys, at=None, origins=(), indices=None):
        """Insert fresh entries, one per type in `tys`, into the port
        list `name` of `holder` -- a node's "inputs" or "outputs", or a
        region's "args" or "results" -- at index `at` (by default the
        end).  The list is renumbered once from `at` and its region is
        marked once.  Inputs and results are linked to their `origins`
        as `connect` links them; results given no `origins` are left
        unlinked.  With `indices`, the entries are a gamma
        alternative's arguments for those entries, increasing: they are
        merged into the list by index, and nothing is renumbered.
        Returns the new entries."""
        if not tys:
            return []
        if type(holder) is Node:
            node, region = holder, holder.region
        else:
            node, region = None, holder
        items = getattr(holder, name)
        end = len(items)
        if at is None:
            at = end
        cls = Use if name in ("inputs", "results") else Port
        made = []
        if indices is not None:
            for ty, i in zip(tys, indices):
                made.append(cls(ty, i, node, region))
            self._touch(region)
            items += made
            if end and items[end - 1].index > made[0].index:
                items.sort(key=_getindex)   # merges the two sorted runs
            return made
        for ty in tys:
            made.append(cls(ty, at + len(made), node, region))
        self._touch(region)
        if at == end:
            items += made
        else:
            items[at:at] = made
            _renumber(items, at + len(made))
        for use, origin in zip(made, origins):
            self._link(use, origin)
        return made

    def add_simple(self, region, op, origins):
        ins, outs = op.signature()
        if len(origins) != len(ins):
            raise GraphError("%s expects %d operands, got %d"
                             % (op, len(ins), len(origins)))
        n = self._new_node(region, "simple", op=op)
        self._splice(n, "inputs", [o.ty for o in origins], origins=origins)
        self._splice(n, "outputs", outs)
        return n

    # gamma

    def begin_gamma(self, region, pred_origin, k):
        if k < 2:
            raise GraphError("gamma needs at least 2 subregions")
        if pred_origin.ty != ctl(k):
            raise GraphError("gamma predicate must be %s, got %s"
                             % (ctl(k), pred_origin.ty))
        n = self._new_node(region, "gamma")
        self._splice(n, "inputs", [pred_origin.ty], origins=[pred_origin])
        for i in range(k):
            self._new_region(n, i)
        return n

    def gamma_add_entries(self, g, origins, readers):
        """One entry variable per origin, bound in the alternatives that
        `readers` gives for it, one collection of alternative indices
        per origin.  Returns, for each alternative, a list parallel to
        `origins` holding its new argument, or None where it does not
        bind that entry."""
        base = len(g.inputs) - 1
        self._splice(g, "inputs", [o.ty for o in origins], origins=origins)
        binds = [[] for _ in g.subregions]
        for i, cs in enumerate(readers):
            for c in cs:
                binds[c].append(base + i)
        out = []
        for c, ls in enumerate(binds):
            args = [None] * len(origins)
            if ls:
                for a in self.gamma_add_args(g, c, ls):
                    args[a.index - base] = a
            out.append(args)
        return out

    def gamma_add_args(self, g, c, ls):
        """Bind the entries `ls`, increasing and not yet bound, in
        alternative `c`; returns the new arguments."""
        return self._splice(g.subregions[c], "args",
                            [g.inputs[l + 1].ty for l in ls], indices=ls)

    def gamma_add_exits(self, g, exits):
        """One exit variable per entry of `exits`, a list holding one
        origin per alternative; returns the new outputs."""
        if any(len(o) != len(g.subregions) or len({p.ty for p in o}) != 1
               for o in exits):
            raise GraphError("exit variable needs one equally-typed origin "
                             "per subregion")
        tys = [origins[0].ty for origins in exits]
        for c, r in enumerate(g.subregions):
            self._splice(r, "results", tys, origins=[o[c] for o in exits])
        return self._splice(g, "outputs", tys)

    # theta

    def begin_theta(self, region):
        n = self._new_node(region, "theta")
        body = self._new_region(n, 0)
        self._splice(body, "results", [ctl(2)])    # the predicate, set later
        return n

    def theta_add_loopvars(self, t, origins):
        """One loop variable per origin, its body result unset; returns
        the new arguments and the new outputs."""
        body = t.subregions[0]
        tys = [o.ty for o in origins]
        self._splice(t, "inputs", tys, origins=origins)
        args = self._splice(body, "args", tys)
        self._splice(body, "results", tys)
        return args, self._splice(t, "outputs", tys)

    def theta_set_predicate(self, t, origin):
        self.connect(t.subregions[0].results[0], origin)

    def theta_set_result(self, t, l, origin):
        self.connect(t.subregions[0].results[l + 1], origin)

    # lambda

    def begin_lambda(self, region, name):
        n = self._new_node(region, "lambda", name=name)
        self._new_region(n, 0)
        return n

    def add_ctx_vars(self, node, origins):
        """Context variables of a lambda, delta, or phi node, one per
        origin.  The new inputs and arguments slot in after the existing
        context variables, ahead of any parameters or recursion
        variables.  Returns the new arguments."""
        tys = [o.ty for o in origins]
        self._splice(node, "inputs", tys, at=node.n_ctx, origins=origins)
        args = self._splice(node.subregions[0], "args", tys, at=node.n_ctx)
        node.n_ctx += len(args)
        return args

    def lambda_add_params(self, lam, tys):
        return self._splice(lam.subregions[0], "args", tys)

    def lambda_finish(self, lam, result_origins):
        body = lam.subregions[0]
        self._splice(body, "results", [o.ty for o in result_origins],
                     origins=result_origins)
        params = tuple(a.ty for a in body.args[lam.n_ctx:])
        results = tuple(r.ty for r in body.results)
        return self._splice(lam, "outputs", [fnty(params, results)])[0]

    # delta

    def begin_delta(self, region, name):
        n = self._new_node(region, "delta", name=name)
        self._new_region(n, 0)
        return n

    def delta_finish(self, d, result_origin):
        self._splice(d.subregions[0], "results", [result_origin.ty],
                     origins=[result_origin])
        return self._splice(d, "outputs", [PTR])[0]

    # phi

    def begin_phi(self, region):
        n = self._new_node(region, "phi")
        self._new_region(n, 0)
        return n

    def phi_add_recs(self, phi, tys):
        """One recursion variable per type, its body result unset;
        returns the new arguments and the new outputs."""
        body = phi.subregions[0]
        args = self._splice(body, "args", tys)
        self._splice(body, "results", tys)
        return args, self._splice(phi, "outputs", tys)

    def phi_set_rec(self, phi, l, origin):
        self.connect(phi.subregions[0].results[l], origin)

    # omega

    def omega_add_import(self, name, ty):
        self.import_names.append(name)
        return self._splice(self.root, "args", [ty])[0]

    def omega_add_export(self, name, origin):
        self.export_names.append(name)
        return self._splice(self.root, "results", [origin.ty],
                            origins=[origin])[0]

    def export_origin(self, name):
        for nm, res in zip(self.export_names, self.root.results):
            if nm == name:
                return res.origin
        raise KeyError("no export named %r" % name)

    # -- removal ----------------------------------------------------------

    def remove_node(self, node):
        for out in node.outputs:
            if out.users:
                raise GraphError("removing %r whose output still has users" % node)
        self._touch(node.region)
        for use in node.inputs:
            self.disconnect(use)
        for sub in node.subregions:
            self._teardown_region(sub)
        node.subregions = []
        node.region.nodes.remove(node)
        node.region = None

    def _teardown_region(self, region):
        self._touch(region)
        for res in region.results:
            self.disconnect(res)
        for inner in list(region.nodes):
            for u in inner.inputs:
                self.disconnect(u)
            for sub in inner.subregions:
                self._teardown_region(sub)
            inner.region = None
        region.nodes = []

    def _drop_ports(self, ports=(), uses=(), shift=True):
        """Remove a batch of port-list entries.  `ports` and `uses` hold
        (list, index set) pairs, each entry named by its `index`: ports
        are outputs or arguments and must have no users, uses are inputs
        or results and get disconnected.  Every port is checked before
        anything changes; each list is then filtered once, survivors
        keeping their order, and with `shift` each survivor's index is
        lowered by the number of removed indices below it."""
        for items, idxs in ports:
            for p in items:
                if p.users and p.index in idxs:
                    raise GraphError("removing %r, which still has users" % p)
        for items, idxs in uses:
            for i in idxs:
                self.disconnect(items[i])
        for items, idxs in list(ports) + list(uses):
            if idxs and items:
                self._touch(items[0].region)
                items[:] = [p for p in items if p.index not in idxs]
                if shift:
                    _shift(items, idxs)

    def remove_gamma_entries(self, g, ls):
        """Drop the entries `ls` and every alternative's argument for
        them; the later entries' arguments are renumbered with them."""
        ls = set(ls)
        self._drop_ports(ports=[(r.args, ls) for r in g.subregions],
                         uses=[(g.inputs, {l + 1 for l in ls})])

    def remove_gamma_args(self, g, c, ls):
        """Unbind the entries `ls` in alternative `c`; the entries stay."""
        if ls:
            self._drop_ports(ports=[(g.subregions[c].args, set(ls))],
                             shift=False)

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
        """Producer-before-consumer order, ties broken by ascending id.
        When the nodes are in id order and every in-region edge runs
        from a lower id to a higher one, that order is `region.nodes`.
        The list is kept on the region until an edit touches it, and is
        shared by every caller until then: read it, never change it."""
        if region.order is None:
            region.order = _sort(region)
        return region.order

    def regions(self, region=None):
        """`region` (by default the omega region) and every region nested
        in it, preorder."""
        stack = [region or self.root]
        while stack:
            r = stack.pop()
            yield r
            for n in reversed(r.nodes):
                if n.subregions:
                    stack.extend(reversed(n.subregions))

    def all_nodes(self, region=None):
        """The nodes of `region` and of every region nested in it."""
        for r in self.regions(region):
            yield from r.nodes

    # -- validation -------------------------------------------------------

    def validate(self, changed_only=False):
        """Check every structural invariant; returns all violations, in
        walk order, and clears the edit marks when there are none.
        Cycles are found by `topological_order`.

        With `changed_only`, only the regions edited since the last clean
        check are checked, with their owners' signatures.  That covers
        every check an edit can change: each check reads one region, or
        one node's ports with its subregions, and every edit marks the
        region it touches.  If anything is wrong, the result is the full
        walk's, so the messages do not depend on which form ran."""
        bad = []
        if changed_only:
            dirty = self._dirty
            owners = set()
            for region in dirty:
                if self._attached(region):
                    self._check_region(region, bad)
                    owners.add(region.owner)
            for owner in owners:
                # an owner in a checked region has been checked with it
                if owner.region is not None and owner.region not in dirty:
                    self._check_node(owner, bad)
            if bad:
                return self.validate()
        else:
            for region in self.regions():
                self._check_region(region, bad)
        if not bad:
            self._dirty.clear()
        return bad

    def _attached(self, region):
        """Whether `region` is still in the graph: its owners' chain
        reaches the omega region.  A removed node's region is None."""
        while region is not self.root:
            region = region.owner.region
            if region is None:
                return False
        return True

    def _check_region(self, region, bad):
        rid = region.id
        # a gamma alternative's argument indices name entries; its owner
        # checks them
        dense = region.owner.kind != "gamma"
        for i, a in enumerate(region.args):
            if (a.index != i and dense) or a.region is not region \
                    or a.node is not None:
                bad.append("argument bookkeeping broken in region %d" % rid)
        for i, res in enumerate(region.results):
            if res.index != i or res.region is not region:
                bad.append("result bookkeeping broken in region %d" % rid)
            p = res.origin
            if (p is None or res.ty is not p.ty or p.region is not region
                    or res not in p.users):
                _check_use(res, region, bad)
        last = -1
        for n in region.nodes:
            nid = n.id
            if nid <= last:
                bad.append("node %d out of id order in region %d" % (nid, rid))
            last = nid
            if n.region is not region:
                bad.append("node %d in wrong region" % nid)
            for i, use in enumerate(n.inputs):
                if use.index != i:
                    bad.append("input index broken on node %d" % nid)
                p = use.origin
                if (p is None or use.ty is not p.ty or p.region is not region
                        or use not in p.users):
                    _check_use(use, region, bad)
            for i, out in enumerate(n.outputs):
                if out.index != i or out.region is not region:
                    bad.append("output bookkeeping broken on node %d" % nid)
                for u in out.users:
                    if u.origin is not out:
                        bad.append("user list broken on node %d" % nid)
            self._check_node(n, bad)
        try:
            self.topological_order(region)
        except GraphError as e:
            bad.append(str(e))

    def _check_node(self, n, bad):
        nid = n.id
        for sub in n.subregions:
            if sub.owner is not n:
                bad.append("subregion owner broken on node %d" % nid)
        if n.n_ctx and n.subregions:
            ctx = n.subregions[0].args[:n.n_ctx]
            if [i.ty for i in n.inputs[:n.n_ctx]] != [a.ty for a in ctx]:
                bad.append("%s %d context variable types disagree"
                           % (n.kind, nid))
        if n.kind == "simple":
            tys = (tuple(map(_getty, n.inputs)), tuple(map(_getty, n.outputs)))
            if tys != n.op.signature():
                bad.append("node %d signature does not match operation %s" % (nid, n.op))
            if n.subregions:
                bad.append("simple node %d has subregions" % nid)
        elif n.kind == "gamma":
            k = len(n.subregions)
            if k < 2:
                bad.append("gamma %d has fewer than 2 subregions" % nid)
            if not (n.inputs and k and n.inputs[0].ty is ctl(k)):
                bad.append("gamma %d predicate is not ctl%d" % (nid, k))
            entry, exit_ = [i.ty for i in n.inputs[1:]], [o.ty for o in n.outputs]
            sigs = [[x.ty for x in r.results] for r in n.subregions]
            if not sigs or any(sig != sigs[0] for sig in sigs):
                bad.append("gamma %d subregion signatures differ" % nid)
            for r, results in zip(n.subregions, sigs):
                last = -1
                for a in r.args:
                    if not 0 <= a.index < len(entry):
                        bad.append("gamma %d argument %r names no entry"
                                   % (nid, a))
                    elif a.index <= last:
                        bad.append("gamma %d arguments of region %d out of "
                                   "entry order" % (nid, r.id))
                    elif a.ty is not entry[a.index]:
                        bad.append("gamma %d argument %r typed unlike its "
                                   "entry" % (nid, a))
                    last = max(last, a.index)
                if len(results) != len(exit_):
                    bad.append("gamma %d exit variables malformed" % nid)
                if results[:len(exit_)] != exit_[:len(results)]:
                    bad.append("gamma %d exit variable types differ" % nid)
        elif n.kind == "theta":
            if len(n.subregions) != 1:
                bad.append("theta %d needs one subregion" % nid)
                if not n.subregions:
                    return
            body = n.subregions[0]
            ok = (len(n.inputs) == len(n.outputs) == len(body.args)
                  == len(body.results) - 1)
            if not ok:
                bad.append("theta %d signature tuples disagree" % nid)
            if not (body.results and body.results[0].ty is ctl(2)):
                bad.append("theta %d result 0 is not the ctl2 predicate" % nid)
            for l, (i, a, r, o) in enumerate(zip(n.inputs, body.args,
                                                 body.results[1:], n.outputs)):
                if ok and (i.ty, a.ty, r.ty) != (a.ty, r.ty, o.ty):
                    bad.append("theta %d loop variable %d types disagree" % (nid, l))
        elif n.kind == "lambda":
            if len(n.subregions) != 1 or len(n.outputs) != 1:
                bad.append("lambda %d shape broken" % nid)
            if n.outputs and n.subregions:
                ty = n.outputs[0].ty
                body = n.subregions[0]
                if not (ty.kind == "fn"
                        and ty.params == tuple([a.ty for a in body.args[n.n_ctx:]])
                        and ty.results == tuple([r.ty for r in body.results])):
                    bad.append("lambda %d output type disagrees with its region" % nid)
            if len(n.inputs) != n.n_ctx:
                bad.append("lambda %d has non-context inputs" % nid)
        elif n.kind == "delta":
            if not (len(n.subregions) == 1 and len(n.outputs) == 1
                    and n.outputs[0].ty is PTR):
                bad.append("delta %d shape broken" % nid)
            if n.subregions and len(n.subregions[0].results) != 1:
                bad.append("delta %d must have exactly one result" % nid)
            if len(n.inputs) != n.n_ctx:
                bad.append("delta %d has non-context inputs" % nid)
        elif n.kind == "phi":
            if len(n.subregions) != 1:
                bad.append("phi %d needs one subregion" % nid)
                if not n.subregions:
                    return
            body = n.subregions[0]
            nrec = len(n.outputs)
            if len(body.results) != nrec:
                bad.append("phi %d recursion variables malformed" % nid)
            if len(body.args) != n.n_ctx + nrec:
                bad.append("phi %d arguments malformed" % nid)
            recs = zip(body.results, body.args[n.n_ctx:], n.outputs)
            for l, (r, a, o) in enumerate(recs):
                if (r.ty, a.ty) != (a.ty, o.ty):
                    bad.append("phi %d recursion variable %d types disagree" % (nid, l))
            for inner in body.nodes:
                if inner.kind not in ("lambda", "delta"):
                    bad.append("phi %d contains a %s node" % (nid, inner.kind))
        elif n.kind == "omega":
            if n is not self.root_node:
                bad.append("stray omega node %d" % nid)
            if n.inputs or n.outputs:
                bad.append("omega has ports")
        else:
            bad.append("unknown node kind %s" % n.kind)


def holds_loop(node):
    """Whether running `node` may run a loop: a theta, or a gamma with a
    theta somewhere in its alternatives.  Such a node must run even when
    nothing reads its outputs, since the loop may never end."""
    return node.kind == "theta" or (node.kind == "gamma" and any(
        holds_loop(n) for sub in node.subregions for n in sub.nodes))


def entry_arg(sub, l):
    """The argument of gamma alternative `sub` bound to entry `l`, or
    None if `sub` does not read that entry."""
    args = sub.args
    i = bisect.bisect_left(args, l, key=_getindex)
    if i < len(args) and args[i].index == l:
        return args[i]
    return None


def carried(port):
    """The port outside `port`'s region whose value the argument `port`
    always holds, or None: a gamma argument holds its entry's origin, a
    theta argument whose result is itself the theta's input, and a
    lambda, delta or phi context argument the node's input.  Any other
    port -- a node output, a loop variable that changes, a parameter, a
    recursion variable, an import -- holds a value of its own."""
    if port.node is not None:
        return None
    owner = port.region.owner
    if owner.kind == "gamma":
        return owner.inputs[port.index + 1].origin
    if owner.kind == "theta":
        if owner.subregions[0].results[port.index + 1].origin is not port:
            return None
    elif port.index >= owner.n_ctx:
        return None
    return owner.inputs[port.index].origin


def producers(region, origins):
    """The nodes of `region` that the ports `origins` depend on, through
    edges inside `region`, as a set (test membership; do not iterate)."""
    found = set()
    stack = list(origins)
    while stack:
        p = stack.pop()
        n = None if p is None else p.node
        if n is None or n.region is not region or n in found:
            continue
        found.add(n)
        stack.extend(u.origin for u in n.inputs)
    return found


def _check_use(use, region, bad):
    p = use.origin
    if p is None:
        bad.append("%r is not the user of any edge" % use)
        return
    if use not in p.users:
        bad.append("%r missing from its origin's user list" % use)
    if p.region is not region:
        bad.append("%r crosses regions from %r" % (use, p))
    if use.ty is not p.ty:
        bad.append("type mismatch %s vs %s at %r" % (use.ty, p.ty, use))


_getty = operator.attrgetter("ty")
_getindex = operator.attrgetter("index")


def _shift(items, gone):
    """Lower the index of each of `items`, in index order, by the number
    of indices in `gone` below it."""
    gone = sorted(gone)
    k, n = 0, len(gone)
    for p in items:
        while k < n and gone[k] < p.index:
            k += 1
        p.index -= k


def _sort(region):
    """`region`'s nodes, producers first, ties broken by ascending id:
    `region.nodes` itself when it already is such an order, otherwise
    Kahn's algorithm with a min-heap of ready ids."""
    if _forward(region):
        return list(region.nodes)
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


def _forward(region):
    """Whether `region.nodes` is in ascending id order and every edge
    between two of its nodes runs from a lower id to a higher one."""
    last = -1
    for n in region.nodes:
        if n.id <= last:
            return False
        last = n.id
        for use in n.inputs:
            m = use.origin.node if use.origin is not None else None
            if m is not None and m.region is region and m.id >= last:
                return False
    return True
