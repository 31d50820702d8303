"""Construction: from the source module to the region graph.

Each function body is taken out of SSA form, restructured, reduced to a
control tree, demand-annotated, and then translated region by region.
A conditional becomes a gamma node whose entry variables are the
demand of its alternatives and whose exit variables are the variables
demanded after it that some alternative may write; every other
demanded variable keeps the port it had before the gamma.  A loop
becomes a theta node whose loop variables are the demand of the loop
as a whole.  The '.mem' and '.io' pseudo-variables travel through the
same machinery, which threads the two state edges with no extra cases.

Across functions, the reference graph is split into strongly connected
components: a lone function becomes a lambda, a lone global a delta,
and a recursive component a phi node wrapping its lambdas.  Every
function type is lifted so the state kinds appear as trailing
parameters and results.
"""

from .types import MEM, IO, lift
from . import ops
from .graph import Graph, GraphError
from .source import (Var, GlobalRef, Branch, Ret, Function, MEMVAR, IOVAR,
                     compute_ipg, copy_function, drop_unreachable)
from .ssa import destruct_ssa
from .restructure import restructure, tarjan
from .controltree import (build_control_tree, annotate, CTBlock, CTLinear,
                          CTBranch)


class BuildError(Exception):
    pass


def _vartys_of(fn):
    tys = {name: lift(ty) for name, ty in fn.params}
    for b in fn.blocks:
        for i in b.instrs:
            if i.dest is not None:
                tys[i.dest] = lift(ops.result_type(i.op, i.ty))
    return tys


class _Emitter:
    def __init__(self, g, vartys):
        self.g = g
        self.vartys = vartys
        self.pending = None         # (port, k): last branch selector
        self.ret = None             # port of the return value

    # -- operands ---------------------------------------------------------

    def resolve(self, o, ty, region, syms):
        if isinstance(o, Var):
            return self.lookup(o.name, region, syms)
        if isinstance(o, GlobalRef):
            return self.lookup("@" + o.name, region, syms)
        return self.g.add_simple(region, ops.const(o.value, lift(ty)), []) \
                   .outputs[0]

    def lookup(self, name, region, syms):
        port = syms.get(name)
        if port is not None:
            return port
        if name.startswith("@") or name in (MEMVAR, IOVAR):
            raise BuildError("no binding for %s" % name)
        # demanded on a path that never defines it; materialize an undef
        ty = self.vartys.get(name)
        if ty is None:
            raise BuildError("no type known for %%%s" % name)
        port = self.g.add_simple(region, ops.undef(ty), []).outputs[0]
        syms[name] = port
        return port

    # -- trees ------------------------------------------------------------

    def emit(self, tree, region, syms):
        if isinstance(tree, CTBlock):
            self._emit_block(tree.block, region, syms)
        elif isinstance(tree, CTLinear):
            for child in tree.children:
                self.emit(child, region, syms)
        elif isinstance(tree, CTBranch):
            self._emit_gamma(tree, region, syms)
        else:
            self._emit_theta(tree, region, syms)

    def _emit_gamma(self, tree, region, syms):
        g = self.g
        sel, k = self._take_pending(len(tree.alts))
        pred = g.add_simple(region, ops.identity_match(sel.ty, k), [sel])
        node = g.begin_gamma(region, pred.outputs[0], k)
        subsyms = [{} for _ in range(k)]
        for v in sorted(tree.entries):
            args = g.gamma_add_entry(node, self.lookup(v, region, syms))
            for c in range(k):
                subsyms[c][v] = args[c]
        for c, alt in enumerate(tree.alts):
            self.emit(alt, node.subregions[c], subsyms[c])
        for v in sorted(tree.demand_out):
            origins = [self.lookup(v, node.subregions[c], subsyms[c])
                       for c in range(k)]
            syms[v] = g.gamma_add_exit(node, origins)

    def _emit_theta(self, tree, region, syms):
        g = self.g
        node = g.begin_theta(region)
        body = node.subregions[0]
        loopvars = sorted(tree.demand_in)
        bodysyms = {}
        outs = {}
        for l, v in enumerate(loopvars):
            arg, out = g.theta_add_loopvar(node, self.lookup(v, region, syms))
            bodysyms[v] = arg
            outs[v] = out
        self.emit(tree.body, body, bodysyms)
        sel, k = self._take_pending(None)
        j = tree.repeat_index
        table = [(i, 1 if i == j else 0) for i in range(k)]
        default = 1 if j == k - 1 else 0
        pred = g.add_simple(body, ops.match(sel.ty, table, default, 2), [sel])
        g.theta_set_predicate(node, pred.outputs[0])
        for l, v in enumerate(loopvars):
            g.theta_set_result(node, l, self.lookup(v, body, bodysyms))
            syms[v] = outs[v]

    def _take_pending(self, k):
        if self.pending is None:
            raise BuildError("structure ends without a branch selector")
        sel, sel_k = self.pending
        self.pending = None
        if k is not None and sel_k != k:
            raise BuildError("selector arity %d vs %d alternatives"
                             % (sel_k, k))
        return sel, sel_k

    # -- blocks -----------------------------------------------------------

    def _emit_block(self, block, region, syms):
        for i in block.instrs:
            self._emit_instr(i, region, syms)
        t = block.term
        if isinstance(t, Branch):
            # matched at its own type: a wider declared one is the same value
            self.pending = (self.resolve(t.operand, t.ty, region, syms),
                            len(t.targets))
        elif isinstance(t, Ret) and t.operand is not None:
            self.ret = self.resolve(t.operand, t.ty, region, syms)

    def _emit_instr(self, i, region, syms):
        """One simple node per instruction, its inputs and outputs laid
        out by the operation's signature; a copy only rebinds."""
        if i.op == "copy":
            syms[i.dest] = self.resolve(i.operands[0], i.ty, region, syms)
            return
        ins = []
        if i.op == "call":
            callee = self.resolve(i.callee, None, region, syms)
            op = ops.apply_op(callee.ty)
            ins.append(callee)
        else:
            op = ops.SimpleOp(i.op, lift(i.ty))
        operands = iter(ops.node_order(i.op, i.operands))
        for ty in op.signature()[0][len(ins):]:
            if ty == MEM:
                ins.append(self.lookup(MEMVAR, region, syms))
            elif ty == IO:
                ins.append(self.lookup(IOVAR, region, syms))
            else:
                ins.append(self.resolve(next(operands), ty, region, syms))
        for port in self.g.add_simple(region, op, ins).outputs:
            if port.ty == MEM:
                syms[MEMVAR] = port
            elif port.ty == IO:
                syms[IOVAR] = port
            elif i.dest is not None:
                syms[i.dest] = port


def prepare_tree(fn, after):
    """Copy `fn` and run the construction phases up to the annotated
    control tree; returns the restructured copy and the tree.
    Unreachable blocks go first: their edges would otherwise feed bogus
    predecessors into the restructuring."""
    work = copy_function(fn)
    drop_unreachable(work)
    destruct_ssa(work)
    restructure(work)
    tree = build_control_tree(work)
    annotate(tree, after)
    return work, tree


def translate_function(g, lam, fn, refsyms):
    """Fill a begun lambda node with the translation of `fn`.  `refsyms`
    maps '@name' to the context-variable argument for every global
    reference the body makes."""
    body = lam.subregions[0]
    syms = dict(refsyms)
    for pname, pty in fn.params:
        syms[pname] = g.lambda_add_param(lam, lift(pty))
    syms[MEMVAR] = g.lambda_add_param(lam, MEM)
    syms[IOVAR] = g.lambda_add_param(lam, IO)

    work, tree = prepare_tree(fn, {MEMVAR, IOVAR})
    em = _Emitter(g, _vartys_of(work))
    em.emit(tree, body, syms)
    results = []
    if fn.ret_ty is not None:
        if em.ret is None:
            raise BuildError("@%s never returns a value" % fn.name)
        results.append(em.ret)
    results.append(em.lookup(MEMVAR, body, syms))
    results.append(em.lookup(IOVAR, body, syms))
    return g.lambda_finish(lam, results)


def translate_initializer(g, delta, gv, refsyms):
    """Fill a begun delta node.  The initializer runs without the state
    edges; `check_module` keeps memory and io operations out of it."""
    shim = Function(gv.name, [], gv.ty, blocks=gv.blocks)
    work, tree = prepare_tree(shim, set())
    em = _Emitter(g, _vartys_of(work))
    syms = dict(refsyms)
    em.emit(tree, delta.subregions[0], syms)
    if em.ret is None:
        raise BuildError("initializer of @%s produces no value" % gv.name)
    return g.delta_finish(delta, em.ret)


def construct(module):
    """Translate a whole module into a region graph.  The module must
    have passed `parser.check_module`, as every module `parse` returns
    has; construction does not check it again."""
    g = Graph()
    ipg = compute_ipg(module)
    order_index = {n: i for i, n in enumerate(module.order)}
    symtab = {}
    for scc in tarjan(list(module.order), ipg.get):
        scc = sorted(scc, key=lambda n: order_index[n])
        recursive = len(scc) > 1 or scc[0] in ipg[scc[0]]
        if not recursive:
            _build_single(g, module, ipg, scc[0], symtab)
        else:
            _build_recursive(g, module, ipg, scc, symtab)

    for name in module.export_types():
        g.omega_add_export(name, symtab[name])
    bad = g.validate()
    if bad:
        raise GraphError("construction left a broken graph: %s" % "; ".join(bad))
    return g


def _build_single(g, module, ipg, name, symtab):
    if name in module.externals:
        symtab[name] = g.omega_add_import(name, lift(module.ref_type(name)))
        return
    if name in module.globals_:
        gv = module.globals_[name]
        delta = g.begin_delta(g.root, name, lift(gv.ty))
        refsyms = {}
        for ref in ipg[name]:
            refsyms["@" + ref] = g.add_ctx(delta, symtab[ref])
        symtab[name] = translate_initializer(g, delta, gv, refsyms)
        return
    fn = module.functions[name]
    lam = g.begin_lambda(g.root, name)
    refsyms = {}
    for ref in ipg[name]:
        refsyms["@" + ref] = g.add_ctx(lam, symtab[ref])
    translate_function(g, lam, fn, refsyms)
    symtab[name] = lam.outputs[0]


def _build_recursive(g, module, ipg, scc, symtab):
    phi = g.begin_phi(g.root)
    outer = []
    for name in scc:
        for ref in ipg[name]:
            if ref not in scc and ref not in outer:
                outer.append(ref)
    ctxmap = {}
    for ref in outer:
        ctxmap[ref] = g.add_ctx(phi, symtab[ref])
    recmap = {}
    for name in scc:
        arg, out = g.phi_add_rec(phi, lift(module.functions[name].fn_type()))
        recmap[name] = arg
        symtab[name] = out
    body = phi.subregions[0]
    for l, name in enumerate(scc):
        fn = module.functions[name]
        lam = g.begin_lambda(body, name)
        refsyms = {}
        for ref in ipg[name]:
            src = ctxmap[ref] if ref not in scc else recmap[ref]
            refsyms["@" + ref] = g.add_ctx(lam, src)
        translate_function(g, lam, fn, refsyms)
        g.phi_set_rec(phi, l, lam.outputs[0])

