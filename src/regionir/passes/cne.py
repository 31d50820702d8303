"""Common node elimination.

A region-local congruence pass.  Two pure simple nodes are congruent
when they carry the same operation and congruent inputs; constants are
keyed the same way, which gives every region a single surviving copy of
each literal.  Entry variables of a gamma fed from congruent origins
make their per-alternative arguments congruent; exit variables routing
congruent results make the outputs congruent.  Loop variables of a
theta are resolved by partition refinement: assume congruent arguments,
mark the body under that assumption, and split groups whose results
disagree until the partition is stable.

Nodes touching memory or io are never merged: two loads can only be
collapsed when they also share the memory-state origin, and since the
state edge is an input like any other, such loads are already plain
congruent simple nodes -- which `_mark` below still refuses, keeping
every trace event intact.

The surviving representative of a congruence class is the port with the
lowest sort key (region arguments first, then node ids ascending);
everything else is diverted onto it and left for dead node elimination.
An argument without users is neither merged nor diverted, since no use
reads its class.  The first congruent entry stays the representative
whether or not it is read: an alternative that reads a later entry of
the class is given an argument for the first, so every class a use can
see is the same as with them merged.
"""

from ..graph import entry_arg


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, p):
        root = p
        while self.parent.get(root, root) is not root:
            root = self.parent[root]
        while self.parent.get(p, p) is not p:
            self.parent[p], p = root, self.parent[p]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return
        if rb.sort_key() < ra.sort_key():
            ra, rb = rb, ra
        self.parent[rb] = ra

    def clone(self):
        other = _UnionFind()
        other.parent = dict(self.parent)
        return other


def run(graph):
    uf = _UnionFind()
    _mark(graph, graph.root, uf)
    _divert(graph, graph.root, uf)


def _mark(graph, region, uf):
    index = {}
    for node in graph.topological_order(region):
        if node.kind == "simple":
            if node.op.is_stateful:
                continue
            reps = [uf.find(u.origin) for u in node.inputs]
            if node.op.commutative:
                reps.sort(key=lambda p: p.sort_key())
            key = (node.op, tuple(reps))
            other = index.get(key)
            if other is None:
                index[key] = node
            else:
                for a, b in zip(other.outputs, node.outputs):
                    uf.union(a, b)
        elif node.kind == "gamma":
            _mark_gamma(graph, node, uf)
        elif node.kind == "theta":
            _mark_theta(graph, node, uf)
        elif node.kind in ("lambda", "delta", "phi"):
            _merge_args(uf, node.inputs[:node.n_ctx], node.subregions)
            _mark(graph, node.subregions[0], uf)


def _merge_args(uf, uses, regions):
    """Make argument l of every region in `regions` congruent to the
    first argument fed by an origin congruent to `uses[l]`'s.  An
    argument without users is left alone: nothing reads its class."""
    seen = {}
    for l, use in enumerate(uses):
        rep = uf.find(use.origin)
        first = seen.setdefault(rep, l)
        if first != l:
            for sub in regions:
                if sub.args[l].users:
                    uf.union(sub.args[first], sub.args[l])


def _merge_entries(graph, uf, node):
    """Make each read argument of a gamma alternative congruent to the
    alternative's argument for the first entry fed by a congruent
    origin, binding that entry in the alternative if it is not yet."""
    seen = {}
    first = [seen.setdefault(uf.find(use.origin), l)
             for l, use in enumerate(node.inputs[1:])]
    for c, sub in enumerate(node.subregions):
        moved = [a for a in sub.args if a.users and first[a.index] != a.index]
        if not moved:
            continue
        bound = {a.index for a in sub.args}
        graph.gamma_add_args(node, c, sorted({first[a.index] for a in moved}
                                             - bound))
        for a in moved:
            uf.union(entry_arg(sub, first[a.index]), a)


def _mark_gamma(graph, node, uf):
    _merge_entries(graph, uf, node)
    for sub in node.subregions:
        _mark(graph, sub, uf)
    _mark_exits(node, uf)


def _mark_exits(node, uf):
    """Make congruent the exits whose results are congruent in every
    alternative.  An exit's full key, one `find` per alternative, is
    built only once its first alternative's class is shared with an
    earlier exit; until then that class alone tells it apart."""
    subs = node.subregions
    heads = {}                  # first alternative's class -> exit, or None
    seen = {}                   # full key -> exit
    for l, out in enumerate(node.outputs):
        head = uf.find(subs[0].results[l].origin)
        if head not in heads:
            heads[head] = l
            continue
        prev = heads[head]
        if prev is not None:
            heads[head] = None
            seen[_exit_key(subs, prev, uf)] = prev
        key = _exit_key(subs, l, uf)
        if key in seen:
            uf.union(node.outputs[seen[key]], out)
        else:
            seen[key] = l


def _exit_key(subs, l, uf):
    return tuple(uf.find(sub.results[l].origin) for sub in subs)


def _mark_theta(graph, node, uf):
    body = node.subregions[0]
    n = len(node.inputs)
    groups = {}
    for l in range(n):
        groups.setdefault(uf.find(node.inputs[l].origin), []).append(l)
    groups = sorted(groups.values())
    for _ in range(n + 1):
        trial = uf.clone()
        for grp in groups:
            for l in grp[1:]:
                trial.union(body.args[grp[0]], body.args[l])
        _mark(graph, body, trial)
        refined = []
        for grp in groups:
            split = {}
            for l in grp:
                rep = trial.find(body.results[l + 1].origin)
                split.setdefault(rep, []).append(l)
            refined.extend(sorted(split.values()))
        refined.sort()
        if refined == groups:
            uf.parent = trial.parent
            break
        groups = refined
    for grp in groups:
        for l in grp[1:]:
            uf.union(node.outputs[grp[0]], node.outputs[l])


def _divert(graph, region, uf):
    for arg in region.args:
        if arg.users:
            rep = uf.find(arg)
            if rep is not arg:
                graph.divert_users(arg, rep)
    for node in graph.topological_order(region):
        for out in node.outputs:
            rep = uf.find(out)
            if rep is not out:
                graph.divert_users(out, rep)
        for sub in node.subregions:
            _divert(graph, sub, uf)
