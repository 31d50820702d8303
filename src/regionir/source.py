"""The CFG-based source language: modules, functions, globals, blocks,
and the CFG toolkit the other modules share: a function copy to rewrite
in place, successors and predecessors, read/write sets, strongly
connected components, unreachable-block removal and the immediate
dominator tree."""

from dataclasses import dataclass, field, replace

from .types import Ty, PTR, fnty

# variables threaded implicitly by stateful instructions
MEMVAR = ".mem"
IOVAR = ".io"


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self):
        return "%" + self.name


@dataclass(frozen=True)
class Lit:
    value: object

    def __str__(self):
        """The literal as the tokenizer reads it back: a float keeps a
        '.' in its mantissa (`1.0e+100`, not `1e+100`)."""
        if not isinstance(self.value, float):
            return str(self.value)
        mant, e, exp = repr(self.value).partition("e")
        return mant + (".0" if e and "." not in mant else "") + e + exp


@dataclass(frozen=True)
class GlobalRef:
    name: str

    def __str__(self):
        return "@" + self.name


ARITH = ("add", "sub", "mul", "div", "rem", "shl", "shr", "and", "or", "xor")
CMP = ("eq", "ne", "lt", "le", "gt", "ge")


@dataclass
class Instr:
    op: str
    dest: str = None
    ty: Ty = None                   # primary type (see ops.SimpleOp)
    operands: list = field(default_factory=list)
    callee: object = None           # call only: Var or GlobalRef
    arg_tys: list = field(default_factory=list)  # call only


@dataclass
class Phi:
    dest: str
    ty: Ty
    entries: list                   # [(operand, block name), ...]


@dataclass
class Br:
    target: str


@dataclass
class Branch:
    ty: Ty
    operand: object
    targets: list                   # k >= 2 dense cases; out of range takes the last


@dataclass
class Ret:
    ty: Ty = None
    operand: object = None


@dataclass
class Block:
    name: str
    phis: list = field(default_factory=list)
    instrs: list = field(default_factory=list)
    term: object = None


@dataclass
class Function:
    name: str
    params: list                    # [(name, ty), ...]
    ret_ty: Ty = None               # None = void
    export: bool = False
    blocks: list = None             # None for externals handled elsewhere

    def block_map(self):
        return {b.name: b for b in self.blocks}

    def fn_type(self):
        return fnty([t for _, t in self.params],
                    [self.ret_ty] if self.ret_ty is not None else [])


@dataclass
class GlobalVar:
    name: str
    ty: Ty                          # cell type
    export: bool = False
    blocks: list = None             # initializer CFG


@dataclass(eq=False)
class Module:
    """A program: its functions, globals and externals by name, and the
    names in declaration order.  A module is hashed and compared by
    identity.  A built module is not edited: the interpreter keeps plans
    of its bodies across runs, so a pass that rewrites a body in place
    works on a `copy_function` copy."""

    functions: dict = field(default_factory=dict)
    globals_: dict = field(default_factory=dict)
    externals: dict = field(default_factory=dict)   # name -> declared type
    order: list = field(default_factory=list)       # declaration order

    def is_function(self, name):
        """Whether the value `@name` is a function; KeyError if nothing
        has that name."""
        if name in self.functions:
            return True
        if name in self.externals:
            return self.externals[name].kind == "fn"
        if name in self.globals_:
            return False
        raise KeyError("undefined name @%s" % name)

    def ref_type(self, name):
        """The type of the value `@name`: a function's type, or `ptr`
        for anything else (a global names the address of its cell)."""
        if name in self.functions:
            return self.functions[name].fn_type()
        return self.externals[name] if self.is_function(name) else PTR

    def export_types(self):
        """Each exported name in declaration order, with its type: a
        function's type, a global's cell type."""
        return {n: e.fn_type() if isinstance(e, Function) else e.ty
                for n in self.order
                for e in [self.functions.get(n) or self.globals_.get(n)]
                if e is not None and e.export}


def copy_function(fn):
    """A copy of `fn` that may be rewritten in place: new blocks, phis,
    instructions, terminators and lists.  Operands and types are
    immutable, so the copy shares them."""
    def term(t):
        if isinstance(t, Branch):
            return replace(t, targets=list(t.targets))
        return replace(t)

    return replace(fn, params=list(fn.params), blocks=[
        Block(b.name,
              [replace(p, entries=list(p.entries)) for p in b.phis],
              [replace(i, operands=list(i.operands), arg_tys=list(i.arg_tys))
               for i in b.instrs],
              term(b.term))
        for b in fn.blocks])


def code_size(module):
    """The size of `module`'s code: one unit per phi, instruction and
    terminator of its functions (global initializers are not counted)."""
    return sum(len(b.phis) + len(b.instrs) + 1
               for fn in module.functions.values() for b in fn.blocks)


def successors(term):
    if isinstance(term, Br):
        return [term.target]
    if isinstance(term, Branch):
        return list(term.targets)
    return []


def retarget(term, old, new):
    """Point every edge of `term` that targets `old` at `new`; returns
    whether there was one."""
    if isinstance(term, Br) and term.target == old:
        term.target = new
        return True
    if isinstance(term, Branch) and old in term.targets:
        term.targets[:] = [new if t == old else t for t in term.targets]
        return True
    return False


def predecessors(blocks):
    preds = {b.name: [] for b in blocks}
    for b in blocks:
        for s in successors(b.term):
            preds[s].append(b.name)
    return preds


# -- read/write sets ------------------------------------------------------

def _opvars(operands):
    out = []
    for o in operands:
        if isinstance(o, Var):
            out.append(o.name)
        elif isinstance(o, GlobalRef):
            out.append("@" + o.name)
    return out


def instr_reads(instr):
    if isinstance(instr, Phi):
        return _opvars(e[0] for e in instr.entries)
    if isinstance(instr, (Br,)):
        return []
    if isinstance(instr, Branch):
        return _opvars([instr.operand])
    if isinstance(instr, Ret):
        return _opvars([instr.operand] if instr.operand is not None else [])
    r = _opvars(instr.operands)
    if instr.op == "call":
        r += _opvars([instr.callee])
        r += [MEMVAR, IOVAR]
    elif instr.op in ("load", "store", "alloca"):
        r.append(MEMVAR)
    return r


def instr_writes(instr):
    if isinstance(instr, (Br, Branch, Ret)):
        return []
    w = [instr.dest] if instr.dest is not None else []
    if isinstance(instr, Phi):
        return w
    if instr.op == "call":
        w += [MEMVAR, IOVAR]
    elif instr.op in ("load", "store", "alloca"):
        w.append(MEMVAR)
    return w


# -- IPG ------------------------------------------------------------------

def compute_ipg(module):
    """Nodes per entity, an edge n1 -> n2 when n1's body references n2,
    each referenced name once, in the order `instr_reads` first reads it
    over the phis, instructions and terminator of each block."""
    edges = {name: [] for name in module.order}
    for name in module.order:
        ent = module.functions.get(name) or module.globals_.get(name)
        if ent is not None and ent.blocks is not None:
            refs = edges[name]
            for b in ent.blocks:
                for item in b.phis + b.instrs + [b.term]:
                    for r in instr_reads(item):
                        if r[0] == "@" and r[1:] not in refs:
                            refs.append(r[1:])
    return edges


# -- strongly connected components ----------------------------------------

def tarjan(nodes, succ_of):
    """SCCs of the subgraph induced by `nodes`, iterative: roots in the
    order of `nodes`, successors in the order `succ_of` gives them."""
    index = {}
    low = {}
    on = set()
    stack = []
    sccs = []
    work = []
    nodeset = set(nodes)

    def enter(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on.add(v)
        work.append((v, iter([s for s in succ_of(v) if s in nodeset])))

    for root in nodes:
        if root in index:
            continue
        enter(root)
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    enter(w)
                    break
                if w in on:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on.discard(w)
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)
    return sccs


# -- CFG validation -------------------------------------------------------

def validate_cfg(fn, mode="ssa"):
    """Check block/terminator/phi invariants; in ssa mode also single
    assignment and dominance of uses."""
    bad = []
    if not fn.blocks:
        return ["function %s has no blocks" % fn.name]
    names = [b.name for b in fn.blocks]
    if len(set(names)) != len(names):
        bad.append("duplicate block names in %s" % fn.name)
        return bad
    bmap = {b.name: b for b in fn.blocks}
    preds = predecessors(fn.blocks)
    for b in fn.blocks:
        if b.term is None:
            bad.append("block %s lacks a terminator" % b.name)
            continue
        for s in successors(b.term):
            if s not in bmap:
                bad.append("block %s branches to undefined label %%%s" % (b.name, s))
        if isinstance(b.term, Branch) and len(b.term.targets) < 2:
            bad.append("block %s has a branch with fewer than 2 targets" % b.name)
        for p in b.phis:
            srcs = [lbl for _, lbl in p.entries]
            if sorted(srcs) != sorted(preds[b.name]):
                bad.append("phi %%%s in %s does not match its predecessors"
                           % (p.dest, b.name))
    entry = fn.blocks[0]
    if preds[entry.name]:
        bad.append("entry block %s has predecessors" % entry.name)
    if mode == "ssa" and not bad:
        bad += _check_ssa(fn, bmap, preds)
    return bad


def _check_ssa(fn, bmap, preds):
    bad = []
    defs = {}
    for name, _ in fn.params:
        defs[name] = "<param>"
    for b in fn.blocks:
        for i in list(b.phis) + list(b.instrs):
            ws = instr_writes(i)
            for w in ws:
                if w.startswith("."):
                    continue
                if w in defs:
                    bad.append("%%%s assigned more than once" % w)
                defs[w] = b.name
    if bad:
        return bad
    idom = idoms(fn)

    def dominates(d, n):
        while n is not None and n != d:
            n = idom.get(n)
        return n == d

    for b in fn.blocks:
        reached = set()
        for p in b.phis:
            for o, lbl in p.entries:
                if isinstance(o, Var) and o.name not in defs:
                    bad.append("use of undefined %%%s" % o.name)
        for i in b.phis:
            reached.add(i.dest)
        for i in list(b.instrs) + [b.term]:
            for r in instr_reads(i):
                if r.startswith(".") or r.startswith("@"):
                    continue
                if r in reached:
                    continue
                d = defs.get(r)
                if d is None:
                    bad.append("use of undefined %%%s" % r)
                elif d != "<param>" and not dominates(d, b.name):
                    bad.append("use of %%%s in %s not dominated by its definition"
                               % (r, b.name))
            for w in instr_writes(i):
                reached.add(w)
    return bad


def drop_unreachable(fn):
    """Remove the blocks the entry cannot reach, and the phi entries
    naming them."""
    bmap = fn.block_map()
    live = {fn.blocks[0].name}
    stack = [fn.blocks[0].name]
    while stack:
        for s in successors(bmap[stack.pop()].term):
            if s not in live:
                live.add(s)
                stack.append(s)
    fn.blocks = [b for b in fn.blocks if b.name in live]
    for b in fn.blocks:
        for p in b.phis:
            p.entries = [(o, lbl) for o, lbl in p.entries if lbl in live]


def idoms(fn):
    """Immediate dominator of every block the entry reaches (None for
    the entry), by the iterative algorithm of Cooper, Harvey & Kennedy,
    "A Simple, Fast Dominance Algorithm" (2001).  Unreachable blocks are
    left out."""
    bmap = fn.block_map()
    entry = fn.blocks[0].name
    postorder = []
    seen = {entry}
    stack = [(entry, iter(successors(bmap[entry].term)))]
    while stack:
        n, it = stack[-1]
        for s in it:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(successors(bmap[s].term))))
                break
        else:
            stack.pop()
            postorder.append(n)
    rank = {n: i for i, n in enumerate(postorder)}
    preds = predecessors(fn.blocks)

    def intersect(a, b):
        while a != b:
            while rank[a] < rank[b]:
                a = idom[a]
            while rank[b] < rank[a]:
                b = idom[b]
        return a

    idom = {entry: entry}
    changed = True
    while changed:
        changed = False
        for n in reversed(postorder[:-1]):
            new = None
            for p in preds[n]:
                if p in idom:
                    new = p if new is None else intersect(p, new)
            if idom.get(n) != new:
                idom[n] = new
                changed = True
    idom[entry] = None
    return idom

