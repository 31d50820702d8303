"""Control-flow restructuring.

Rewrites an arbitrary (non-SSA) CFG into a form that reduces to a
control tree of linear chains, symmetric branches, and tail-controlled
self loops, without duplicating any basic block.

Loop restructuring funnels each strongly connected component through a
single head and a single tail: demultiplexer variables select among
multiple entries (`.q`), multiple exits (`.x`), and a repeat flag
(`.r`) drives the tail branch, whose case 0 leaves the loop and case 1
repeats.  Branch restructuring then forces every branch to reconverge
at a single continuation point, funneling stray joins through a fresh
predicate variable (`.p`) and a join block.
"""

from .types import I1, narrowest_int
from .source import (Var, Lit, Instr, Br, Branch, Ret, Block, successors,
                     predecessors, retarget, drop_unreachable, tarjan)
from .ssa import NameGen


class RestructureError(Exception):
    pass


class LoopInfo:
    def __init__(self, header, tail, body):
        self.header = header        # block name
        self.tail = tail            # block name; `branch .r, [exit, header]`
        self.body = body            # set of block names
        self.children = []

    def __repr__(self):
        return "Loop(%s..%s)" % (self.header, self.tail)


def _const_copy(dest, ty, value):
    return Instr("copy", dest=dest, ty=ty, operands=[Lit(value)])


def _retarget(block, old, new):
    if not retarget(block.term, old, new):
        raise RestructureError("no edge %s -> %s to retarget"
                               % (block.name, old))


# -- normalization --------------------------------------------------------

class _RetInfo:
    """The unique return block every exit funnels through."""

    def __init__(self):
        self.block = None
        self.var = None

    def get(self, fn, names):
        if self.block is None:
            self.var = names.fresh(".rv") if fn.ret_ty is not None else None
            joined = Block(names.fresh(".ret"))
            joined.term = Ret(fn.ret_ty, Var(self.var)) if self.var else Ret()
            fn.blocks.append(joined)
            self.block = joined
        return self.block


def normalize(fn, names, retinfo):
    """Unique return block, loop-free entry, distinct branch targets."""
    drop_unreachable(fn)

    rets = [b for b in fn.blocks if isinstance(b.term, Ret)]
    if rets:
        joined = retinfo.get(fn, names)
        for b in rets:
            if b is joined:
                continue
            if retinfo.var:
                b.instrs.append(Instr("copy", dest=retinfo.var, ty=fn.ret_ty,
                                      operands=[b.term.operand]))
            b.term = Br(joined.name)

    preds = predecessors(fn.blocks)
    if preds[fn.blocks[0].name]:
        pre = Block(names.fresh(".s"), term=Br(fn.blocks[0].name))
        fn.blocks.insert(0, pre)

    for b in list(fn.blocks):
        if not isinstance(b.term, Branch):
            continue
        seen = set()
        for i, tgt in enumerate(b.term.targets):
            if tgt in seen:
                fwd = Block(names.fresh(".d"), term=Br(tgt))
                fn.blocks.append(fwd)
                b.term.targets[i] = fwd.name
            else:
                seen.add(tgt)


# -- loop restructuring ---------------------------------------------------

def restructure_loops(fn, names, retinfo):
    """Funnel every SCC through a single head and tail; returns the
    forest of loops found, outermost first."""
    loops = []
    universe = {b.name for b in fn.blocks}
    _loops_in(fn, names, retinfo, universe, set(), loops)
    return loops


def _loops_in(fn, names, retinfo, universe, ignore, out):
    bmap = fn.block_map()

    def succ_of(n):
        return [s for s in successors(bmap[n].term)
                if (n, s) not in ignore]

    order = [b.name for b in fn.blocks if b.name in universe]
    for scc in tarjan(order, succ_of):
        sset = set(scc)
        if len(scc) == 1 and scc[0] not in succ_of(scc[0]):
            continue
        li = _funnel_scc(fn, names, retinfo, universe, ignore, sset)
        out.append(li)
        _loops_in(fn, names, retinfo, li.body,
                  ignore | {(li.tail, li.header)}, li.children)


def _funnel_scc(fn, names, retinfo, universe, ignore, sset):
    bmap = fn.block_map()
    order_index = {b.name: i for i, b in enumerate(fn.blocks)}

    def edges_into(targets_in_scc):
        found = []
        for b in fn.blocks:
            for s in successors(b.term):
                if s in targets_in_scc and (b.name, s) not in ignore:
                    found.append((b.name, s))
        return found

    entry_nodes = sorted({s for u, s in edges_into(sset) if u not in sset},
                         key=lambda n: order_index[n])
    if not entry_nodes:
        entry_nodes = [min(sset, key=lambda n: order_index[n])]
    exit_arcs = []
    for u in sorted(sset, key=lambda n: order_index[n]):
        for s in successors(bmap[u].term):
            if s not in sset and (u, s) not in ignore:
                exit_arcs.append((u, s))
    exit_dests = sorted({s for _, s in exit_arcs},
                        key=lambda n: order_index[n])

    want_q = len(entry_nodes) > 1
    want_x = len(exit_dests) > 1
    q = names.fresh(".q") if want_q else None
    x = names.fresh(".x") if want_x else None
    r = names.fresh(".r")
    body = set(sset)

    xty = narrowest_int(len(exit_dests)) if exit_dests else I1
    qty = narrowest_int(len(entry_nodes))
    if want_x:
        xblk = Block(names.fresh(".lx"),
                     term=Branch(xty, Var(x), list(exit_dests)))
        fn.blocks.append(xblk)
        exit_target = xblk.name
    elif exit_dests:
        exit_target = exit_dests[0]
    else:
        # a loop with no way out; aim the (never taken) tail exit at the
        # common return block so the graph keeps a single sink
        exit_target = retinfo.get(fn, names).name

    if want_q:
        head = Block(names.fresh(".lh"),
                     term=Branch(qty, Var(q), list(entry_nodes)))
        fn.blocks.append(head)
        body.add(head.name)
        header = head.name
    else:
        header = entry_nodes[0]

    tail = Block(names.fresh(".lt"),
                 term=Branch(I1, Var(r), [exit_target, header]))
    fn.blocks.append(tail)
    body.add(tail.name)

    entry_index = {e: i for i, e in enumerate(entry_nodes)}
    exit_index = {d: i for i, d in enumerate(exit_dests)}

    # repetition arcs: in-component edges that target an entry node
    for u, e in edges_into(set(entry_nodes)):
        if u not in sset:
            continue
        arc = Block(names.fresh(".lr"), term=Br(tail.name))
        if want_q:
            arc.instrs.append(_const_copy(q, qty, entry_index[e]))
        arc.instrs.append(_const_copy(r, I1, 1))
        fn.blocks.append(arc)
        body.add(arc.name)
        _retarget(bmap[u], e, arc.name)

    for u, d in exit_arcs:
        arc = Block(names.fresh(".le"), term=Br(tail.name))
        if want_x:
            arc.instrs.append(_const_copy(x, xty, exit_index[d]))
        arc.instrs.append(_const_copy(r, I1, 0))
        fn.blocks.append(arc)
        body.add(arc.name)
        _retarget(bmap[u], d, arc.name)

    if want_q:
        for u, e in edges_into(set(entry_nodes)):
            if u in body:
                continue
            arc = Block(names.fresh(".ln"), term=Br(header))
            arc.instrs.append(_const_copy(q, qty, entry_index[e]))
            fn.blocks.append(arc)
            _retarget(bmap[u], e, arc.name)

    return LoopInfo(header, tail.name, body)


# -- branch restructuring -------------------------------------------------

_WALK_LIMIT = 100000


class _RegionCtx:
    """One single-entry region: the whole function or one loop body,
    with immediately nested loops collapsed to their headers."""

    def __init__(self, fn, names, visible, terminal, collapsed):
        self.fn = fn
        self.names = names
        self.bmap = fn.block_map()
        self.pos = {b.name: i for i, b in enumerate(fn.blocks)}
        self.visible = visible
        self.terminal = terminal
        self.collapsed = collapsed      # header name -> LoopInfo

    def _src_block(self, n):
        if n in self.collapsed:
            return self.bmap[self.collapsed[n].tail]
        return self.bmap[n]

    def succ_of(self, n):
        if n == self.terminal:
            return []
        if n in self.collapsed:
            return [self._src_block(n).term.targets[0]]
        return successors(self.bmap[n].term)

    def retarget(self, u, old, new):
        _retarget(self._src_block(u), old, new)

    def add_block(self, block):
        self.pos[block.name] = len(self.fn.blocks)
        self.fn.blocks.append(block)
        self.bmap[block.name] = block
        self.visible.add(block.name)

    def reach(self, start, stop):
        """Nodes reachable from start; includes stop if met, but does
        not look past it."""
        seen = set()
        stack = [start]
        while stack:
            n = stack.pop()
            if n in seen:
                continue
            seen.add(n)
            if n == stop:
                continue
            stack.extend(self.succ_of(n))
        return seen

    def walk(self, n, stop):
        steps = 0
        while n is not None and n != stop:
            steps += 1
            if steps > _WALK_LIMIT:
                raise RestructureError("branch restructuring diverged")
            ss = self.succ_of(n)
            if not ss:
                return
            if len(ss) == 1:
                n = ss[0]
                continue
            n = self.do_branch(n, stop)

    def do_branch(self, b, stop):
        cases = self.succ_of(b)
        regions = [self.reach(t, stop) for t in cases]
        shared = set()
        for i, ri in enumerate(regions):
            for rj in regions[i + 1:]:
                shared |= ri & rj
        if not shared:
            for t in cases:
                self.walk(t, stop)
            return None

        # blocks in block order, so the funnel does not follow their names
        everything = sorted(set().union(*regions) | {b}, key=self.pos.get)
        conts = sorted({s for p in everything if p not in shared
                        for s in self.succ_of(p) if s in shared},
                       key=self.pos.get)

        if len(conts) == 1:
            cp = conts[0]
            for i, t in enumerate(cases):
                if t == cp:
                    empty = Block(self.names.fresh(".n"), term=Br(cp))
                    self.add_block(empty)
                    self.retarget(b, cp, empty.name)
            for t in self.succ_of(b):
                self.walk(t, cp)
            return cp

        # several continuation points: funnel through a join block
        bp = self.names.fresh(".p")
        pty = narrowest_int(len(conts))
        join = Block(self.names.fresh(".j"),
                     term=Branch(pty, Var(bp), list(conts)))
        self.add_block(join)
        for i, cp in enumerate(conts):
            for p in everything:
                if p in shared or cp not in self.succ_of(p):
                    continue
                via = Block(self.names.fresh(".a"),
                            instrs=[_const_copy(bp, pty, i)],
                            term=Br(join.name))
                self.add_block(via)
                self.retarget(p, cp, via.name)
        for t in self.succ_of(b):
            self.walk(t, join.name)
        return join.name


def restructure_branches(fn, names, loops):
    all_names = {b.name for b in fn.blocks}

    def region_for(body, entry, terminal, children):
        visible = set(body)
        collapsed = {}
        for c in children:
            visible -= c.body
            visible.add(c.header)
            collapsed[c.header] = c
        ctx = _RegionCtx(fn, names, visible, terminal, collapsed)
        ctx.walk(entry, None)
        for c in children:
            region_for(c.body, c.header, c.tail, c.children)

    region_for(all_names, fn.blocks[0].name, None, loops)


def restructure(fn):
    """Full control-flow restructuring; returns the loop forest."""
    names = NameGen(fn)
    retinfo = _RetInfo()
    normalize(fn, names, retinfo)
    loops = restructure_loops(fn, names, retinfo)
    restructure_branches(fn, names, loops)
    return loops
