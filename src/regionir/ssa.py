"""SSA destruction on the source CFG, and fresh names.

Destruction lowers phis to parallel copies on the incoming edges,
splitting critical edges, so that construction sees ordinary
assignments.  There is no general SSA reconstruction: `destruct` emits
phis where the region structure puts them, at gamma joins and loop
headers.

Every fresh name is a stem and a number.  The parser rejects a
%variable that starts with '.', so a stem that does cannot meet a
source name, and no function is scanned for the names it already uses.
"""

from .source import Var, Instr, Br, Block, successors, retarget


class NameGen:
    """Fresh names: a stem followed by a counter.  Two generators may
    name into one function when their stems differ, since no stem holds
    a digit and a name adds only digits: `destruct_ssa` uses '.e' and
    '.t', and `restructure` its own '.'-stems."""

    def __init__(self):
        self.count = 0

    def fresh(self, stem):
        name = "%s%d" % (stem, self.count)
        self.count += 1
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
    names = NameGen()
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
