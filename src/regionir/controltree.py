"""Control tree recovery and demand annotation.

After restructuring, the CFG reduces to a tree under three rules:
merging linear chains, collapsing a branch whose alternatives all
reconverge on one point, and folding a node with a self edge into a
tail-controlled loop.  Restructuring ends every loop in a tail that
branches to [exit, repeat]; a CFG with any other loop tail, or one that
does not reduce to a single node, is rejected.

Demand annotation then computes, for every tree node, the variables it
needs on entry (`demand_in`) and the variables still needed after it
(`demand_out`).  Beneath it lie three sets per node: the upward-exposed
reads, the must-writes (written on every path through the node) and the
may-writes (written on some path).  A branch's `demand_out` is only the
part of what follows that some alternative may write, and it is the
demand its alternatives are annotated under; its `entries` are the
union of their `demand_in`.  Every other demanded variable passes the
branch by untouched, so the branch's own `demand_in` is the same as if
the whole of what follows were routed through it.  A loop's
`demand_out`, which its body is annotated under, is what the body reads
plus what it may write that is demanded after it.  The pseudo-variables
'.mem' and '.io' are threaded by the read/write sets of stateful
instructions, so state routing falls out of the same bookkeeping as
ordinary variables.
"""

from .source import Branch, Ret, instr_reads, instr_writes, successors


class IrreducibleError(Exception):
    pass


class CTBlock:
    def __init__(self, block):
        self.block = block

    def __repr__(self):
        return "B(%s)" % self.block.name


class CTLinear:
    def __init__(self, children):
        self.children = children

    def __repr__(self):
        return "Linear%r" % (self.children,)


class CTBranch:
    def __init__(self, alts):
        self.alts = alts

    def __repr__(self):
        return "Branch%r" % (self.alts,)


class CTLoop:
    def __init__(self, body):
        self.body = body

    def __repr__(self):
        return "Loop[%r]" % (self.body,)


def children(tree):
    """The direct subtrees of a control-tree node, in order."""
    if isinstance(tree, CTLinear):
        return tree.children
    if isinstance(tree, CTBranch):
        return tree.alts
    if isinstance(tree, CTLoop):
        return [tree.body]
    return []


def _linear(a, b):
    xs = a.children if isinstance(a, CTLinear) else [a]
    ys = b.children if isinstance(b, CTLinear) else [b]
    return CTLinear(xs + ys)


def build_control_tree(fn):
    """Reduce the (restructured) CFG of `fn` to a single control tree."""
    ids = {b.name: i for i, b in enumerate(fn.blocks)}
    payload = {}
    succs = {}
    preds = {}
    for b in fn.blocks:
        i = ids[b.name]
        payload[i] = CTBlock(b)
        succs[i] = [ids[t] for t in successors(b.term)]
        preds.setdefault(i, set())
    for i, ss in succs.items():
        for s in ss:
            preds[s].add(i)

    def drop(nid):
        del payload[nid], succs[nid], preds[nid]

    changed = True
    while changed and len(payload) > 1:
        changed = False
        for n in sorted(payload):
            if n not in payload:
                continue
            ss = succs[n]
            # self loop, in restructuring's tail shape
            if n in ss:
                if len(ss) != 2 or ss[1] != n:
                    raise IrreducibleError(
                        "%s: a loop tail does not branch to [exit, repeat]"
                        % fn.name)
                payload[n] = CTLoop(payload[n])
                succs[n] = ss[:1]
                preds[n].discard(n)
                changed = True
                continue
            # linear chain
            if len(ss) == 1:
                s = ss[0]
                if preds[s] == {n} and s not in succs[s]:
                    payload[n] = _linear(payload[n], payload[s])
                    succs[n] = succs[s]
                    for t in succs[s]:
                        preds[t].discard(s)
                        preds[t].add(n)
                    drop(s)
                    changed = True
                    continue
            # symmetric branch
            if len(ss) >= 2 and len(set(ss)) == len(ss) and n not in ss:
                ok = all(preds[a] == {n} and len(succs[a]) == 1 for a in ss)
                if ok:
                    exits = {succs[a][0] for a in ss}
                    if len(exits) == 1 and exits != {n} and not exits & set(ss):
                        x = exits.pop()
                        a0 = ss[0]
                        payload[a0] = CTBranch([payload[a] for a in ss])
                        succs[a0] = [x]
                        for a in ss[1:]:
                            preds[x].discard(a)
                            drop(a)
                        succs[n] = [a0]
                        changed = True
                        continue
    if len(payload) != 1:
        raise IrreducibleError(
            "%s does not reduce: %d nodes remain" % (fn.name, len(payload)))
    (tree,) = payload.values()
    return tree


# -- demand annotation ----------------------------------------------------

def _block_items(block):
    return list(block.phis) + list(block.instrs) + [block.term]


def _rw(tree):
    """Bottom-up upward-exposed read set, must-write set and may-write
    set per node.  A branch must-writes what every alternative writes
    and may write what any one does; a loop's body runs at least once,
    so the loop has its body's sets."""
    if isinstance(tree, CTBlock):
        r, w = set(), set()
        for item in reversed(_block_items(tree.block)):
            writes = instr_writes(item)
            r.difference_update(writes)
            r.update(instr_reads(item))
            w.update(writes)
        m = w
    elif isinstance(tree, CTLinear):
        r, w, m = set(), set(), set()
        for child in reversed(tree.children):
            cr, cw, cm = _rw(child)
            r = (r - cw) | cr
            w = w | cw
            m = m | cm
    elif isinstance(tree, CTBranch):
        rs, ws, ms = zip(*(_rw(a) for a in tree.alts))
        r = set().union(*rs)
        w = set.intersection(*ws)
        m = set().union(*ms)
    else:
        r, w, m = _rw(tree.body)
    tree.reads, tree.writes, tree.may_writes = r, w, m
    return r, w, m


def _demand(tree, after):
    tree.demand_out = set(after)
    if isinstance(tree, CTBlock):
        tree.demand_in = (after - tree.writes) | tree.reads
    elif isinstance(tree, CTLinear):
        d = after
        for child in reversed(tree.children):
            _demand(child, d)
            d = child.demand_in
        tree.demand_in = d
    elif isinstance(tree, CTBranch):
        # only what an alternative may write is routed through the branch
        tree.demand_out &= tree.may_writes
        for a in tree.alts:
            _demand(a, tree.demand_out)
        tree.entries = set().union(*(a.demand_in for a in tree.alts))
        tree.demand_in = (after - tree.demand_out) | tree.entries
    else:
        # what the body reads, and what it may write that is used later
        tree.demand_out = (after & tree.may_writes) | tree.reads
        _demand(tree.body, tree.demand_out)
        tree.demand_in = after | tree.demand_out


def annotate(tree, after):
    """Attach demand_in/demand_out everywhere; `after` is the demand at
    the end of the whole tree (the translated region's results)."""
    _rw(tree)
    _demand(tree, set(after))
    return tree
