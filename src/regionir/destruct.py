"""Destruction: from the region graph back to a source module.

The omega region is walked in topological order: lambdas become
functions, deltas become globals with initializer bodies, and the
lambdas inside a phi become mutually recursive functions.  Inside each
body, structured control flow is reconstructed directly: a gamma
becomes a k-way branch whose alternatives rejoin through exit-variable
copies, a theta becomes a do-while whose latch reassigns the loop
variables with a sequentialized parallel copy.  State-typed ports
vanish; the instruction order of the emitted blocks preserves the
state edge order because emission follows a topological order.
A match is elided into the branch that consumes it, so a ctl-typed
gamma exit or theta loop variable carries the selector itself, and is
declared at that selector's type for `construct` to match it again.

The blocks come out in non-SSA form and are put back into SSA by the
standard reconstruction before the module is returned.
"""

from .types import I64, lower
from .source import (Module, Function, GlobalVar, Block, Instr, Br, Branch,
                     Ret, Var, Lit, GlobalRef)
from .ssa import NameGen, construct_ssa, sequence_parallel_copies
from .ops import node_order


class DestructError(Exception):
    pass


class _Lowerer:
    """Reconstructs one function-like body (a lambda or delta region)."""

    def __init__(self, graph):
        self.g = graph
        self.names = NameGen()
        self.blocks = []
        self.cur = self._block()

    def _block(self):
        b = Block(self.names.fresh("b"))
        self.blocks.append(b)
        return b

    def emit(self, instr):
        self.cur.instrs.append(instr)

    def operand(self, env, use):
        return env[use.origin]

    def var_ty(self, port):
        """The source type of a variable holding `port`'s value.  A ctl
        value is the selector of an elided match, routed through gammas
        and thetas, and keeps the type of that match's input.  Literals
        fit any type, so a ctl value made of them alone is i64."""
        if port.ty.kind != "ctl":
            return lower(port.ty)
        tys, seen, stack = set(), set(), [port]
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            node = p.node
            if node is None:                # a gamma or theta argument
                node = p.region.owner
                if node.kind == "gamma":
                    stack.append(node.inputs[p.index + 1].origin)
                    continue
            if node.kind == "gamma":
                stack += [r.results[p.index].origin for r in node.subregions]
            elif node.kind == "theta":
                stack += [node.inputs[p.index].origin,
                          node.subregions[0].results[p.index + 1].origin]
            elif node.op.name == "match":
                tys.add(node.inputs[0].ty)
        if len(tys) > 1:
            raise DestructError("one %s value carries selectors of types %s"
                                % (port.ty, sorted(map(str, tys))))
        return tys.pop() if tys else I64

    def run(self, region, env, ret_ty):
        results = self.lower_region(region, env)
        vals = [v for v, r in zip(results, region.results) if not r.ty.is_state]
        if ret_ty is None:
            self.cur.term = Ret()
        else:
            if len(vals) != 1:
                raise DestructError("expected one value result, found %d"
                                    % len(vals))
            self.cur.term = Ret(ret_ty, vals[0])
        return self.blocks

    def lower_region(self, region, env):
        for node in self.g.topological_order(region):
            self.lower_node(node, env)
        return [env.get(r.origin) for r in region.results]

    def lower_node(self, node, env):
        if node.kind == "simple":
            self.lower_simple(node, env)
        elif node.kind == "gamma":
            self.lower_gamma(node, env)
        elif node.kind == "theta":
            self.lower_theta(node, env)
        else:
            raise DestructError("a %s node cannot appear inside a function "
                                "body" % node.kind)

    # -- structural nodes -------------------------------------------------

    def lower_gamma(self, node, env):
        pred = self.operand(env, node.inputs[0])
        exit_ports = [o for o in node.outputs if not o.ty.is_state]
        exit_vars = {o: self.names.fresh("v") for o in exit_ports}
        exit_tys = {o: self.var_ty(o) for o in exit_ports}
        head = self.cur
        cont = Block(self.names.fresh("b"))
        alt_names = []
        for sub in node.subregions:
            blk = self._block()
            alt_names.append(blk.name)
            self.cur = blk
            inner = {}
            for l, use in enumerate(node.inputs[1:]):
                inner[sub.args[l]] = None if use.ty.is_state \
                    else self.operand(env, use)
            self.lower_region(sub, inner)
            for o in exit_ports:
                res = sub.results[o.index]
                self.emit(Instr("copy", dest=exit_vars[o], ty=exit_tys[o],
                                operands=[inner[res.origin]]))
            self.cur.term = Br(cont.name)
        head.term = Branch(self.var_ty(node.inputs[0].origin), pred, alt_names)
        self.blocks.append(cont)
        self.cur = cont
        for o in exit_ports:
            env[o] = Var(exit_vars[o])

    def lower_theta(self, node, env):
        g = self.g
        body = node.subregions[0]
        loop = [(l, use) for l, use in enumerate(node.inputs)
                if not use.ty.is_state]
        carried, tys = {}, {}
        for l, use in loop:
            w = self.names.fresh("v")
            carried[l] = w
            tys[l] = self.var_ty(node.outputs[l])
            self.emit(Instr("copy", dest=w, ty=tys[l],
                            operands=[self.operand(env, use)]))
        head = self._block()
        self.cur.term = Br(head.name)
        self.cur = head
        inner = {}
        for l, use in enumerate(node.inputs):
            inner[body.args[l]] = Var(carried[l]) if l in carried else None
        self.lower_region(body, inner)
        pred = inner[body.results[0].origin]
        pairs = []
        for l, use in loop:
            res = body.results[l + 1]
            pairs.append((carried[l], tys[l], inner[res.origin]))
        for instr in sequence_parallel_copies(pairs, self.names):
            self.emit(instr)
        exit_blk = Block(self.names.fresh("b"))
        # out-of-range selectors take the last target, so a repeating
        # match default and the repeat block must both sit last
        self.cur.term = Branch(self.var_ty(body.results[0].origin), pred,
                               [exit_blk.name, head.name])
        self.blocks.append(exit_blk)
        self.cur = exit_blk
        for l, use in loop:
            env[node.outputs[l]] = Var(carried[l])

    # -- simple nodes -----------------------------------------------------

    def lower_simple(self, node, env):
        op = node.op
        n = op.name
        ins = [use for use in node.inputs if not use.ty.is_state]

        if n == "const":
            env[node.outputs[0]] = Lit(op.value)
            return
        if n == "match":
            if op.table != tuple((i, i) for i in range(op.k)) \
                    or op.default != op.k - 1:
                raise DestructError("match %s is not reconstructible" % op)
            env[node.outputs[0]] = self.operand(env, ins[0])
            return
        if n == "apply":
            fnty = lower(op.ty)
            callee = self.operand(env, ins[0])
            args = [self.operand(env, u) for u in ins[1:]]
            if len(fnty.results) > 1:
                raise DestructError("call with %d value results"
                                    % len(fnty.results))
            ret_ty = fnty.results[0] if fnty.results else None
            dest = self.names.fresh("v") if ret_ty is not None else None
            self.emit(Instr("call", dest=dest, ty=ret_ty, operands=args,
                            callee=callee, arg_tys=list(fnty.params)))
            for o in node.outputs:
                if not o.ty.is_state:
                    env[o] = Var(dest)
            return
        outs = [o for o in node.outputs if not o.ty.is_state]
        dest = self.names.fresh("v") if outs else None
        self.emit(Instr(n, dest=dest, ty=lower(op.ty), operands=node_order(
            n, [self.operand(env, u) for u in ins])))
        for o in outs:
            env[o] = Var(dest)


# -- module assembly ------------------------------------------------------

def _lower_lambda(graph, node, portname):
    body = node.subregions[0]
    env = {}
    for inp, arg in zip(node.inputs, body.args):
        env[arg] = GlobalRef(portname[inp.origin])
    fn_ty = lower(node.outputs[0].ty)
    params = []
    value_args = [a for a in body.args[node.n_ctx:] if not a.ty.is_state]
    low = _Lowerer(graph)
    for a, pty in zip(value_args, fn_ty.params):
        pname = low.names.fresh("a")
        params.append((pname, pty))
        env[a] = Var(pname)
    ret_ty = fn_ty.results[0] if fn_ty.results else None
    blocks = low.run(body, env, ret_ty)
    fn = Function(node.name, params, ret_ty, blocks=blocks)
    construct_ssa(fn)
    return fn


def _lower_delta(graph, node, portname):
    body = node.subregions[0]
    env = {}
    for inp, arg in zip(node.inputs, body.args):
        env[arg] = GlobalRef(portname[inp.origin])
    elem_ty = lower(node.op.ty)
    low = _Lowerer(graph)
    blocks = low.run(body, env, elem_ty)
    shim = Function(node.name, [], elem_ty, blocks=blocks)
    construct_ssa(shim)
    return GlobalVar(node.name, elem_ty, blocks=shim.blocks)


def destruct(graph):
    """Lower a whole graph back to a source module."""
    module = Module()
    portname = {}
    for name, arg in zip(graph.import_names, graph.root.args):
        module.externals[name] = lower(arg.ty)
        module.order.append(name)
        portname[arg] = name

    for node in graph.topological_order(graph.root):
        if node.kind == "lambda":
            portname[node.outputs[0]] = node.name
            module.functions[node.name] = _lower_lambda(graph, node, portname)
            module.order.append(node.name)
        elif node.kind == "delta":
            portname[node.outputs[0]] = node.name
            module.globals_[node.name] = _lower_delta(graph, node, portname)
            module.order.append(node.name)
        elif node.kind == "phi":
            _lower_phi(graph, node, portname, module)
        else:
            raise DestructError("%s node at the top level" % node.kind)

    for name, res in zip(graph.export_names, graph.root.results):
        ent_name = portname.get(res.origin)
        if ent_name is None:
            raise DestructError("export %r has no named origin" % name)
        ent = module.functions.get(ent_name) or module.globals_.get(ent_name)
        ent.export = True
    return module


def _lower_phi(graph, node, portname, module):
    body = node.subregions[0]
    refname = {}
    for inp, arg in zip(node.inputs, body.args[:node.n_ctx]):
        refname[arg] = portname[inp.origin]
    for l, res in enumerate(body.results):
        lam = res.origin.node
        if lam is None or lam.kind != "lambda":
            raise DestructError("recursion variable %d is not a lambda" % l)
        refname[body.args[node.n_ctx + l]] = lam.name
        portname[node.outputs[l]] = lam.name
    for inner in graph.topological_order(body):
        if inner.kind != "lambda":
            raise DestructError("a %s node inside a recursion environment"
                                % inner.kind)
        portname[inner.outputs[0]] = inner.name
        local = dict(portname)
        local.update(refname)
        module.functions[inner.name] = _lower_lambda(graph, inner, local)
        module.order.append(inner.name)
