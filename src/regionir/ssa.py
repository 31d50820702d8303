"""SSA destruction on the source CFG, and fresh names.

Destruction lowers phis to parallel copies on the incoming edges,
splitting critical edges, so that construction sees ordinary
assignments.  There is no general SSA reconstruction: `destruct` emits
phis where the region structure puts them, at gamma joins and loop
headers.
"""

from .source import (Var, Instr, Br, Block, successors, retarget,
                     instr_reads, instr_writes)


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
        for pred, pairs in by_pred.items():     # in phi-entry order
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
