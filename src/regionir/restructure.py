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


# -- the function under restructuring -------------------------------------

class _Cfg:
    """The one view every phase shares: the function, its name counter,
    its block map, each block's index in the block list, and the return
    block every exit funnels through, made on demand."""

    def __init__(self, fn, names):
        self.fn = fn
        self.names = names
        self.bmap = fn.block_map()
        self.pos = {b.name: i for i, b in enumerate(fn.blocks)}
        self.ret = None
        self.retvar = None

    def add_block(self, block):
        self.bmap[block.name] = block
        self.pos[block.name] = len(self.fn.blocks)
        self.fn.blocks.append(block)

    def ret_block(self):
        if self.ret is None:
            ret_ty = self.fn.ret_ty
            if ret_ty is not None:
                self.retvar = self.names.fresh(".rv")
            self.ret = Block(self.names.fresh(".ret"),
                             term=Ret(ret_ty, Var(self.retvar))
                             if self.retvar else Ret())
            self.add_block(self.ret)
        return self.ret


# -- normalization --------------------------------------------------------

def normalize(fn):
    """Unique return block, loop-free entry, distinct branch targets;
    returns the view the later phases share.  Unreachable blocks go
    first: their edges would otherwise feed bogus predecessors into the
    restructuring."""
    drop_unreachable(fn)
    names = NameGen()
    if predecessors(fn.blocks)[fn.blocks[0].name]:
        fn.blocks.insert(0, Block(names.fresh(".s"),
                                  term=Br(fn.blocks[0].name)))
    cfg = _Cfg(fn, names)

    rets = [b for b in fn.blocks if isinstance(b.term, Ret)]
    if rets:
        joined = cfg.ret_block()
        for b in rets:
            if cfg.retvar:
                b.instrs.append(Instr("copy", dest=cfg.retvar, ty=fn.ret_ty,
                                      operands=[b.term.operand]))
            b.term = Br(joined.name)

    for b in list(fn.blocks):
        if not isinstance(b.term, Branch):
            continue
        seen = set()
        for i, tgt in enumerate(b.term.targets):
            if tgt in seen:
                fwd = Block(names.fresh(".d"), term=Br(tgt))
                cfg.add_block(fwd)
                b.term.targets[i] = fwd.name
            else:
                seen.add(tgt)
    return cfg


# -- loop restructuring ---------------------------------------------------

def restructure_loops(cfg, universe, ignore, out):
    """Funnel every SCC among `universe`'s blocks, not following the
    edges in `ignore`, through a single head and tail; appends the
    forest of loops found, outermost first, to `out`."""
    bmap = cfg.bmap

    def succ_of(n):
        return [s for s in successors(bmap[n].term)
                if (n, s) not in ignore]

    for scc in tarjan(sorted(universe, key=cfg.pos.get), succ_of):
        sset = set(scc)
        if len(scc) == 1 and scc[0] not in succ_of(scc[0]):
            continue
        li = _funnel_scc(cfg, ignore, sset)
        out.append(li)
        restructure_loops(cfg, li.body, ignore | {(li.tail, li.header)},
                          li.children)


def _funnel_scc(cfg, ignore, sset):
    fn, names, bmap, pos = cfg.fn, cfg.names, cfg.bmap, cfg.pos

    def edges_into(targets_in_scc):
        found = []
        for b in fn.blocks:
            for s in successors(b.term):
                if s in targets_in_scc and (b.name, s) not in ignore:
                    found.append((b.name, s))
        return found

    entry_nodes = sorted({s for u, s in edges_into(sset) if u not in sset},
                         key=pos.get)
    if not entry_nodes:
        entry_nodes = [min(sset, key=pos.get)]
    exit_arcs = []
    for u in sorted(sset, key=pos.get):
        for s in successors(bmap[u].term):
            if s not in sset and (u, s) not in ignore:
                exit_arcs.append((u, s))
    exit_dests = sorted({s for _, s in exit_arcs}, key=pos.get)

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
        cfg.add_block(xblk)
        exit_target = xblk.name
    elif exit_dests:
        exit_target = exit_dests[0]
    else:
        # a loop with no way out; aim the (never taken) tail exit at the
        # common return block so the graph keeps a single sink
        exit_target = cfg.ret_block().name

    if want_q:
        head = Block(names.fresh(".lh"),
                     term=Branch(qty, Var(q), list(entry_nodes)))
        cfg.add_block(head)
        body.add(head.name)
        header = head.name
    else:
        header = entry_nodes[0]

    tail = Block(names.fresh(".lt"),
                 term=Branch(I1, Var(r), [exit_target, header]))
    cfg.add_block(tail)
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
        cfg.add_block(arc)
        body.add(arc.name)
        _retarget(bmap[u], e, arc.name)

    for u, d in exit_arcs:
        arc = Block(names.fresh(".le"), term=Br(tail.name))
        if want_x:
            arc.instrs.append(_const_copy(x, xty, exit_index[d]))
        arc.instrs.append(_const_copy(r, I1, 0))
        cfg.add_block(arc)
        body.add(arc.name)
        _retarget(bmap[u], d, arc.name)

    if want_q:
        for u, e in edges_into(set(entry_nodes)):
            if u in body:
                continue
            arc = Block(names.fresh(".ln"), term=Br(header))
            arc.instrs.append(_const_copy(q, qty, entry_index[e]))
            cfg.add_block(arc)
            _retarget(bmap[u], e, arc.name)

    return LoopInfo(header, tail.name, body)


# -- branch restructuring -------------------------------------------------

_WALK_LIMIT = 100000


class _RegionCtx:
    """One single-entry region: the whole function or one loop body,
    with immediately nested loops collapsed to their headers."""

    def __init__(self, cfg, terminal, collapsed):
        self.cfg = cfg
        self.terminal = terminal
        self.collapsed = collapsed      # header name -> LoopInfo

    def _src_block(self, n):
        if n in self.collapsed:
            return self.cfg.bmap[self.collapsed[n].tail]
        return self.cfg.bmap[n]

    def succ_of(self, n):
        if n == self.terminal:
            return []
        if n in self.collapsed:
            return [self._src_block(n).term.targets[0]]
        return successors(self.cfg.bmap[n].term)

    def retarget(self, u, old, new):
        _retarget(self._src_block(u), old, new)

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
        everything = sorted(set().union(*regions) | {b}, key=self.cfg.pos.get)
        conts = sorted({s for p in everything if p not in shared
                        for s in self.succ_of(p) if s in shared},
                       key=self.cfg.pos.get)

        if len(conts) == 1:
            cp = conts[0]
            for i, t in enumerate(cases):
                if t == cp:
                    empty = Block(self.cfg.names.fresh(".n"), term=Br(cp))
                    self.cfg.add_block(empty)
                    self.retarget(b, cp, empty.name)
            for t in self.succ_of(b):
                self.walk(t, cp)
            return cp

        # several continuation points: funnel through a join block
        bp = self.cfg.names.fresh(".p")
        pty = narrowest_int(len(conts))
        join = Block(self.cfg.names.fresh(".j"),
                     term=Branch(pty, Var(bp), list(conts)))
        self.cfg.add_block(join)
        for i, cp in enumerate(conts):
            for p in everything:
                if p in shared or cp not in self.succ_of(p):
                    continue
                via = Block(self.cfg.names.fresh(".a"),
                            instrs=[_const_copy(bp, pty, i)],
                            term=Br(join.name))
                self.cfg.add_block(via)
                self.retarget(p, cp, via.name)
        for t in self.succ_of(b):
            self.walk(t, join.name)
        return join.name


def restructure_branches(cfg, entry, terminal, loops):
    """Make every branch of the region from `entry` to `terminal`
    reconverge, then those of each loop body in it."""
    _RegionCtx(cfg, terminal, {c.header: c for c in loops}).walk(entry, None)
    for c in loops:
        restructure_branches(cfg, c.header, c.tail, c.children)


def restructure(fn):
    """Full control-flow restructuring; returns the loop forest."""
    cfg = normalize(fn)
    loops = []
    restructure_loops(cfg, set(cfg.bmap), set(), loops)
    restructure_branches(cfg, fn.blocks[0].name, None, loops)
    return loops
