"""Destruction: from the region graph back to a source module.

The omega region is walked in topological order: lambdas become
functions, deltas become globals with initializer bodies, and the
lambdas inside a phi become mutually recursive functions.  Inside each
body, structured control flow is reconstructed directly, in SSA form,
because the region structure fixes every merge point.  A gamma becomes
a k-way branch whose alternatives rejoin in a block with one phi per
used exit.  An alternative that emits nothing is not a block but the
branch's edge to the join, its phi entries labelled with the branching
block; into a join with phis only the first such alternative goes
direct, as a phi has one entry per predecessor block, and into one
without phis every one does.  A gamma that emits nothing at all, and
has no used exit, emits no branch either.  A theta becomes a do-while
whose header holds one phi per loop variable that the body reads and
may change, each in port order with a plain fresh name.  State-typed
ports vanish; the instruction order of the emitted blocks preserves the
state edge order because emission follows a topological order.
A match is elided into the branch that consumes it, so a ctl-typed
gamma exit or theta loop variable carries the selector itself, and is
declared at that selector's type for `construct` to match it again.
"""

from .types import I64, lower
from .source import (Module, Function, GlobalVar, Block, Instr, Phi, Br,
                     Branch, Ret, Var, Lit, GlobalRef)
from .ssa import NameGen
from .ops import node_order
from .graph import entry_arg


class DestructError(Exception):
    pass


def _is_used(port):
    """Whether an emitted instruction or terminator, or a region result,
    uses `port`'s value.  A match and a gamma entry pass the value on
    without an instruction, so they use it only where their output or
    an alternative's argument is used."""
    for use in port.users:
        node = use.node
        if node is not None and node.kind == "gamma" and use.index > 0:
            for sub in node.subregions:
                arg = entry_arg(sub, use.index - 1)
                if arg is not None and _is_used(arg):
                    return True
        elif node is None or node.kind != "simple" \
                or node.op.name != "match" or _is_used(node.outputs[0]):
            return True
    return False


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
        self.lower_region(region, env)
        vals = [env[r.origin] for r in region.results if not r.ty.is_state]
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
        pred = env[node.inputs[0].origin]
        exits = [o for o in node.outputs if not o.ty.is_state and _is_used(o)]
        phis = [Phi(self.names.fresh("v"), self.var_ty(o), []) for o in exits]
        head = self.cur
        join = Block(self.names.fresh("b"), phis=phis)
        targets = []
        direct = False              # whether an alternative is an edge
        for sub in node.subregions:
            blk = self._block()
            self.cur = blk
            inner = {arg: env[node.inputs[arg.index + 1].origin]
                     for arg in sub.args
                     if arg.users and not arg.ty.is_state}
            self.lower_region(sub, inner)
            # an empty alternative is an edge; a phi takes one per block
            if self.cur is blk and not blk.instrs \
                    and not (phis and direct):
                self.blocks.pop()
                self.cur, direct = head, True
                targets.append(join.name)
            else:
                self.cur.term = Br(join.name)
                targets.append(blk.name)
            for o, phi in zip(exits, phis):
                phi.entries.append((inner[sub.results[o.index].origin],
                                    self.cur.name))
        if not phis and set(targets) == {join.name}:
            return                  # nothing to branch to, nor to join
        head.term = Branch(self.var_ty(node.inputs[0].origin), pred, targets)
        self.blocks.append(join)
        self.cur = join
        for o, phi in zip(exits, phis):
            env[o] = Var(phi.dest)

    def lower_theta(self, node, env):
        body = node.subregions[0]
        pre = self.cur
        head = self._block()
        pre.term = Br(head.name)
        self.cur = head
        # an invariant loop variable, or one no iteration uses, needs
        # no phi
        carried = [l for l, use in enumerate(node.inputs)
                   if not use.ty.is_state and _is_used(body.args[l])
                   and body.results[l + 1].origin is not body.args[l]]
        head.phis = [Phi(self.names.fresh("v"), self.var_ty(node.outputs[l]),
                         []) for l in carried]
        latch = dict(zip(carried, head.phis))
        inner = {}
        for l, use in enumerate(node.inputs):
            if l in latch:
                latch[l].entries.append((env[use.origin], pre.name))
                inner[body.args[l]] = Var(latch[l].dest)
            elif not use.ty.is_state:
                inner[body.args[l]] = env[use.origin]
        self.lower_region(body, inner)
        for l, phi in latch.items():
            phi.entries.append((inner[body.results[l + 1].origin],
                                self.cur.name))
        exit_blk = Block(self.names.fresh("b"))
        # out-of-range selectors take the last target, so a repeating
        # match default and the repeat block must both sit last
        self.cur.term = Branch(self.var_ty(body.results[0].origin),
                               inner[body.results[0].origin],
                               [exit_blk.name, head.name])
        self.blocks.append(exit_blk)
        self.cur = exit_blk
        # the latch dominates the exit, so each output is the value the
        # last iteration computed
        for l, use in enumerate(node.inputs):
            if not use.ty.is_state:
                env[node.outputs[l]] = inner[body.results[l + 1].origin]

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
            env[node.outputs[0]] = env[ins[0].origin]
            return
        outs = [o for o in node.outputs if not o.ty.is_state]
        dest = self.names.fresh("v") if outs else None
        operands = [env[u.origin] for u in ins]
        if n == "apply":
            fnty = lower(op.ty)
            if len(fnty.results) > 1:
                raise DestructError("call with %d value results"
                                    % len(fnty.results))
            ret_ty = fnty.results[0] if fnty.results else None
            instr = Instr("call", dest=dest, ty=ret_ty, operands=operands[1:],
                          callee=operands[0], arg_tys=list(fnty.params))
        else:
            instr = Instr(n, dest=dest, ty=lower(op.ty),
                          operands=node_order(n, operands))
        self.cur.instrs.append(instr)
        for o in outs:
            env[o] = Var(dest)


# -- module assembly ------------------------------------------------------

def construct_ssa(graph, node, portname, params, ret_ty):
    """The SSA blocks of the body of lambda or delta `node`: each context
    argument names the entity `portname` gives its origin, the value
    arguments after them are the variables `params` (none for a delta),
    and the body returns a value of type `ret_ty`, or none.  The traced
    benchmark run (`perfbench/tracer.py`) times each body by this name."""
    body = node.subregions[0]
    env = {arg: GlobalRef(portname[inp.origin])
           for inp, arg in zip(node.inputs, body.args)}
    value_args = [a for a in body.args[node.n_ctx:] if not a.ty.is_state]
    for a, (pname, _) in zip(value_args, params):
        env[a] = Var(pname)
    return _Lowerer(graph).run(body, env, ret_ty)


def _lower_lambda(graph, node, portname):
    fn_ty = lower(node.outputs[0].ty)
    params = [("a%d" % i, ty) for i, ty in enumerate(fn_ty.params)]
    ret_ty = fn_ty.results[0] if fn_ty.results else None
    return Function(node.name, params, ret_ty, blocks=construct_ssa(
        graph, node, portname, params, ret_ty))


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
            ty = lower(node.subregions[0].results[0].ty)
            module.globals_[node.name] = GlobalVar(
                node.name, ty, blocks=construct_ssa(graph, node, portname,
                                                    [], ty))
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
