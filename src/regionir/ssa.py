"""SSA destruction and reconstruction on the source CFG.

Destruction lowers phis to parallel copies on the incoming edges,
splitting critical edges; reconstruction is the classic dominance-
frontier construction with pruned phi placement and a dominator-tree
renaming walk.  The dominator tree comes from `source.idoms`, the
iterative algorithm of Cooper, Harvey & Kennedy (2001), which the SSA
checker in `source` shares.
"""

from .source import (Var, Instr, Phi, Br, Branch, Block, successors,
                     predecessors, retarget, idoms, instr_reads, instr_writes,
                     drop_unreachable, result_ty)


class NameGen:
    """Fresh names that cannot collide with anything already in `fn`
    (or with each other, when there is no `fn` yet)."""

    def __init__(self, fn=None):
        used = set()
        if fn is not None:
            used.update(b.name for b in fn.blocks)
            used.update(name for name, _ in fn.params)
            for b in fn.blocks:
                for i in list(b.phis) + list(b.instrs):
                    used.update(instr_writes(i))
                    used.update(instr_reads(i))
        self.used = used
        self.count = 0

    def fresh(self, stem):
        while True:
            name = "%s%d" % (stem, self.count)
            self.count += 1
            if name not in self.used:
                self.used.add(name)
                return name


# -- parallel copies ------------------------------------------------------

def sequence_parallel_copies(pairs, names):
    """Order simultaneous copies (dest, ty, src-operand) into a list of
    copy instructions, breaking swap cycles with a temporary."""
    pairs = [(d, t, s) for d, t, s in pairs
             if not (isinstance(s, Var) and s.name == d)]
    out = []
    while pairs:
        read = {s.name for _, _, s in pairs if isinstance(s, Var)}
        for i, (d, t, s) in enumerate(pairs):
            if d not in read:
                out.append(Instr("copy", dest=d, ty=t, operands=[s]))
                del pairs[i]
                break
        else:
            # every pending destination is still read: a cycle
            d, t, s = pairs[0]
            tmp = names.fresh(".t")
            out.append(Instr("copy", dest=tmp, ty=t, operands=[Var(d)]))
            pairs = [(d2, t2, Var(tmp) if isinstance(s2, Var) and s2.name == d
                      else s2) for d2, t2, s2 in pairs]
    return out


# -- SSA destruction ------------------------------------------------------

def destruct_ssa(fn):
    """Replace every phi with copies along the incoming edges."""
    names = NameGen(fn)
    new_blocks = []
    bmap = fn.block_map()
    n_succs = {b.name: len(set(successors(b.term))) for b in fn.blocks}
    for b in list(fn.blocks):
        if not b.phis:
            continue
        by_pred = {}
        for p in b.phis:
            for o, lbl in p.entries:
                by_pred.setdefault(lbl, []).append((p.dest, p.ty, o))
        for pred, pairs in sorted(by_pred.items()):
            copies = sequence_parallel_copies(pairs, names)
            pb = bmap[pred]
            if n_succs[pred] > 1:
                # critical edge: give the copies their own block
                mid = Block(names.fresh(".e"), instrs=copies, term=Br(b.name))
                retarget(pb.term, b.name, mid.name)
                new_blocks.append(mid)
            else:
                pb.instrs.extend(copies)
        b.phis = []
    fn.blocks.extend(new_blocks)


# -- SSA construction -----------------------------------------------------

def _frontiers(fn, idom):
    preds = predecessors(fn.blocks)
    df = {b.name: set() for b in fn.blocks}
    for b in fn.blocks:
        if len(preds[b.name]) < 2:
            continue
        for p in preds[b.name]:
            runner = p
            while runner is not None and runner != idom[b.name]:
                df[runner].add(b.name)
                runner = idom[runner]
    return df


def _liveness(fn):
    """Variable live-in sets per block (state pseudo-variables excluded)."""
    gen = {}
    kill = {}
    for b in fn.blocks:
        g, k = set(), set()
        for i in list(b.phis) + list(b.instrs) + [b.term]:
            for r in instr_reads(i):
                if not r.startswith(".") and not r.startswith("@") and r not in k:
                    g.add(r)
            for w in instr_writes(i):
                if not w.startswith("."):
                    k.add(w)
        gen[b.name], kill[b.name] = g, k
    live_in = {b.name: set() for b in fn.blocks}
    changed = True
    while changed:
        changed = False
        for b in reversed(fn.blocks):
            out = set()
            for s in successors(b.term):
                out |= live_in[s]
            new = gen[b.name] | (out - kill[b.name])
            if new != live_in[b.name]:
                live_in[b.name] = new
                changed = True
    return live_in


def construct_ssa(fn):
    """Rebuild SSA form: pruned phi placement on the dominance frontiers,
    then a renaming walk over the dominator tree."""
    drop_unreachable(fn)
    idom = idoms(fn)
    df = _frontiers(fn, idom)
    live_in = _liveness(fn)
    bmap = fn.block_map()
    preds = predecessors(fn.blocks)

    defsites = {}
    var_ty = {name: ty for name, ty in fn.params}
    for b in fn.blocks:
        for i in b.instrs:
            for w in instr_writes(i):
                if w.startswith("."):
                    continue
                defsites.setdefault(w, set()).add(b.name)
                var_ty[w] = result_ty(i)
    for name, _ in fn.params:
        defsites.setdefault(name, set()).add(fn.blocks[0].name)

    phi_vars = {b.name: [] for b in fn.blocks}
    for v, sites in sorted(defsites.items()):
        work = list(sites)
        placed = set()
        while work:
            s = work.pop()
            for f in df[s]:
                if f in placed or v not in live_in[f]:
                    continue
                placed.add(f)
                phi_vars[f].append(v)
                if f not in sites:
                    work.append(f)
    for b in fn.blocks:
        for v in phi_vars[b.name]:
            b.phis.append(Phi(v, var_ty[v],
                              [(Var(v), p) for p in sorted(preds[b.name])]))

    # renaming
    names = NameGen(fn)
    children = {b.name: [] for b in fn.blocks}
    for n, d in idom.items():
        if d is not None:
            children[d].append(n)
    for c in children.values():
        c.sort()
    stacks = {v: [] for v in defsites}
    entry_undefs = []

    def top(v, ty):
        if stacks[v]:
            return stacks[v][-1]
        # used along a path with no reaching definition
        u = names.fresh(v + ".u")
        entry_undefs.append(Instr("undef", dest=u, ty=ty))
        stacks[v].insert(0, u)
        return u

    def rename_operand(o, ty):
        if isinstance(o, Var) and o.name in stacks:
            return Var(top(o.name, ty))
        return o

    for name, _ in fn.params:
        stacks[name].append(name)

    def walk(bname):
        b = bmap[bname]
        pushed = []
        for p in b.phis:
            nv = names.fresh(p.dest)
            stacks[p.dest].append(nv)
            pushed.append(p.dest)
            p.dest = nv
        for i in b.instrs:
            i.operands = [rename_operand(o, i.ty) for o in i.operands]
            if i.op == "call" and i.callee is not None:
                i.callee = rename_operand(i.callee, None)
            if i.dest is not None:
                if i.dest in stacks:
                    nv = names.fresh(i.dest)
                    stacks[i.dest].append(nv)
                    pushed.append(i.dest)
                    i.dest = nv
        t = b.term
        if isinstance(t, Branch):
            t.operand = rename_operand(t.operand, t.ty)
        elif hasattr(t, "operand") and t.operand is not None:
            t.operand = rename_operand(t.operand, t.ty)
        for s in successors(b.term):
            sb = bmap[s]
            for p in sb.phis:
                for k, (o, lbl) in enumerate(p.entries):
                    if lbl == bname and isinstance(o, Var):
                        p.entries[k] = (Var(top(o.name, p.ty)), lbl)
        for c in children[bname]:
            walk(c)
        for v in pushed:
            stacks[v].pop()

    import sys
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * len(fn.blocks) + 100))
    try:
        walk(fn.blocks[0].name)
    finally:
        sys.setrecursionlimit(old)
    fn.blocks[0].instrs[:0] = entry_undefs
    _drop_identity_copies(fn)


def _drop_identity_copies(fn):
    """copy chains produced by destruction are renamed apart again by
    construction; fold single-source copies back into their uses."""
    alias = {}
    for b in fn.blocks:
        for i in b.instrs:
            if i.op == "copy":
                src = i.operands[0]
                while isinstance(src, Var) and src.name in alias:
                    src = alias[src.name]
                alias[i.dest] = src

    def subst(o):
        while isinstance(o, Var) and o.name in alias:
            o = alias[o.name]
        return o

    for b in fn.blocks:
        for p in b.phis:
            p.entries = [(subst(o), lbl) for o, lbl in p.entries]
        for i in b.instrs:
            i.operands = [subst(o) for o in i.operands]
            if i.op == "call":
                i.callee = subst(i.callee)
        t = b.term
        if hasattr(t, "operand") and getattr(t, "operand", None) is not None:
            t.operand = subst(t.operand)
        b.instrs = [i for i in b.instrs if i.op != "copy"]
