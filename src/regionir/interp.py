"""Twin reference interpreters.

`eval_cfg` executes the source-level CFG directly; `eval_rvsdg` executes
the region graph demand-driven.  Both produce the same observable
behavior for equivalent programs: the returned values plus a trace of
loads, stores, and external calls.  That pair is the oracle the test
suite compares across construction, optimization, and destruction.

What each pure operation computes -- arithmetic, comparison, `neg`
and `gep`, with their wrapping and trapping rules -- is read from the
one table `ops.SEMANTICS`; this module adds control, calls, memory and
the state tokens.  A branch or match selector outside the covered range
takes the last alternative (the default case).

One graph step, one unit of fuel, is one live node evaluated or one
theta iteration.  Defining the functions and globals of the omega
region and of phi bodies takes no fuel.  What a region evaluates is a
static property of the graph, so each region's plan -- its live slice in
producer-before-consumer order, simple nodes turned into step closures
-- is built once and cached per graph.  Every edit primitive of `Graph`
bumps `Graph.version`, and a plan built at another version is rebuilt.

Global cells live at addresses derived from their names, so removing an
unused global does not shift the addresses in the trace of the rest.
"""

import weakref
import zlib

from .types import sizeof
from .graph import holds_loop
from .ops import (MIXED_OPERANDS, SEMANTICS, Trap, coerce_literal,
                  operand_types)
from .source import Var, Lit, GlobalRef, Br, Branch, Ret, Phi, successors

DEFAULT_FUEL = 10 ** 7

_ALLOCA_BASE = 1 << 20
_GLOBAL_BASE = 1 << 32

# state tokens; they thread through the graph but carry no data
MEM_TOKEN = "mem"
IO_TOKEN = "io"


class FnValue:
    """A function value.  Two function values are the same function iff
    they carry the same name; that makes results comparable across the
    two interpreters."""

    def __init__(self, name, node=None, env=None, graph=None, external=False):
        self.name = name
        self.node = node
        self.env = env
        self.graph = graph
        self.external = external

    def __eq__(self, other):
        return isinstance(other, FnValue) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return "fn:@%s" % self.name


def global_addr(name):
    return _GLOBAL_BASE + (zlib.crc32(name.encode("utf-8")) << 8)


def zero_value(ty):
    if ty.kind == "int":
        return 0
    if ty.kind == "f64":
        return 0.0
    if ty.kind in ("ptr", "ctl"):
        return 0
    if ty.kind == "fn":
        return FnValue("<null>")
    if ty.kind == "mem":
        return MEM_TOKEN
    if ty.kind == "io":
        return IO_TOKEN
    raise ValueError("no zero for %s" % ty)


class Machine:
    def __init__(self, fuel=DEFAULT_FUEL, externals=None):
        self.mem = {}               # address -> value
        self.trace = []
        self.fuel = fuel
        self.next_addr = _ALLOCA_BASE
        self.externals = externals or {}
        self.mute = False           # set while running global initializers

    def tick(self, n=1):
        self.fuel -= n
        if self.fuel < 0:
            raise Trap("fuel", "execution budget exhausted")

    def emit(self, *event):
        if not self.mute:
            self.trace.append(event)

    def alloca(self, ty):
        addr = self.next_addr
        self.next_addr += max(64, sizeof(ty))
        self.mem[addr] = None
        return addr

    def load(self, addr):
        if addr not in self.mem or self.mem[addr] is None:
            raise Trap("memory", "load from uninitialized address %d" % addr)
        self.emit("load", addr)
        return self.mem[addr]

    def store(self, addr, value):
        self.mem[addr] = value
        self.emit("store", addr, value)

    def call_external(self, name, args, result_tys):
        value_args = tuple(a for a in args if a not in (MEM_TOKEN, IO_TOKEN))
        self.emit("call", name, value_args)
        if name in self.externals:
            rets = self.externals[name](*value_args)
            rets = list(rets) if isinstance(rets, (list, tuple)) else \
                ([] if rets is None else [rets])
            out = []
            i = 0
            for t in result_tys:
                if t.is_state:
                    out.append(zero_value(t))
                else:
                    out.append(rets[i])
                    i += 1
            return out
        return [zero_value(t) for t in result_tys]


# -- CFG interpreter ------------------------------------------------------

def eval_cfg(module, fn_name, args, fuel=DEFAULT_FUEL, externals=None,
             machine=None):
    """Run an exported or internal function; returns (results, trace)."""
    if machine is None:
        machine = Machine(fuel, externals)
    _init_globals_cfg(module, machine)
    fn = module.functions.get(fn_name)
    if fn is None:
        raise KeyError("no function @%s" % fn_name)
    args = [coerce_literal(a, t) for a, (_, t) in zip(args, fn.params)]
    rets = _call_cfg(module, machine, fn, args)
    return rets, machine.trace


def _init_globals_cfg(module, machine):
    machine.mute = True
    for name in module.order:
        g = module.globals_.get(name)
        if g is None:
            continue
        shim_env = {}
        val = _run_blocks(module, machine, g.blocks, shim_env)
        machine.mem[global_addr(name)] = val[0]
    machine.mute = False


def _call_cfg(module, machine, fn, args):
    env = {name: v for (name, _), v in zip(fn.params, args)}
    return _run_blocks(module, machine, fn.blocks, env)


def _operand(module, env, o, ty):
    if isinstance(o, Var):
        return env[o.name]
    if isinstance(o, Lit):
        return coerce_literal(o.value, ty)
    if module.is_function(o.name):
        return FnValue(o.name, external=o.name in module.externals)
    return global_addr(o.name)       # a global or external data


def _run_blocks(module, machine, blocks, env):
    bmap = {b.name: b for b in blocks}
    block = blocks[0]
    prev = None
    while True:
        if prev is not None and block.phis:
            vals = []
            for p in block.phis:
                for o, lbl in p.entries:
                    if lbl == prev:
                        vals.append(_operand(module, env, o, p.ty))
                        break
                else:
                    raise Trap("cfg", "phi without an entry for %s" % prev)
            for p, v in zip(block.phis, vals):
                env[p.dest] = v
        for i in block.instrs:
            machine.tick()
            _exec_instr(module, machine, env, i)
        machine.tick()
        t = block.term
        if isinstance(t, Ret):
            if t.operand is None:
                return []
            return [_operand(module, env, t.operand, t.ty)]
        if isinstance(t, Br):
            target = t.target
        else:
            v = _operand(module, env, t.operand, t.ty)
            if not 0 <= v < len(t.targets):
                v = len(t.targets) - 1
            target = t.targets[v]
        prev = block.name
        block = bmap[target]


def _exec_instr(module, machine, env, i):
    op = i.op
    if op == "call":
        callee = _operand(module, env, i.callee, None)
        args = [_operand(module, env, o, t)
                for o, t in zip(i.operands, i.arg_tys)]
        rets = _dispatch_call(module, machine, callee, args,
                              [] if i.ty is None else [i.ty])
        if i.dest is not None:
            env[i.dest] = rets[0]
        return
    ty = i.ty
    if op == "copy":
        env[i.dest] = _operand(module, env, i.operands[0], ty)
        return
    # a literal takes the type of its position, as in construction
    if op in MIXED_OPERANDS:
        vals = [_operand(module, env, o, t)
                for o, t in zip(i.operands, operand_types(op, ty))]
    else:
        vals = [env[o.name] if o.__class__ is Var else
                _operand(module, env, o, ty) for o in i.operands]
    if op == "undef":
        env[i.dest] = zero_value(ty)
    elif op == "alloca":
        env[i.dest] = machine.alloca(ty)
    elif op == "load":
        env[i.dest] = machine.load(vals[0])
    elif op == "store":
        machine.store(vals[1], vals[0])
    elif len(vals) == 2:
        env[i.dest] = SEMANTICS[op, ty.kind](ty, vals[0], vals[1])
    else:
        env[i.dest] = SEMANTICS[op, ty.kind](ty, vals[0])


def _dispatch_call(module, machine, callee, args, result_tys):
    if not isinstance(callee, FnValue):
        raise Trap("call", "calling a non-function value")
    fn = module.functions.get(callee.name)
    if fn is not None:
        args = [coerce_literal(a, t) for a, (_, t) in zip(args, fn.params)]
        return _call_cfg(module, machine, fn, args)
    if callee.name in module.externals:
        return machine.call_external(callee.name, args, result_tys)
    raise Trap("call", "call to unknown function @%s" % callee.name)


# -- region graph interpreter ---------------------------------------------

def eval_rvsdg(graph, fn_name, args, fuel=DEFAULT_FUEL, externals=None,
               machine=None):
    """Run an exported function of the graph; returns (results, trace).

    The trailing memory-state and io-state arguments and results are
    supplied and stripped here, so the caller passes value arguments
    only, exactly as with eval_cfg.
    """
    if machine is None:
        machine = Machine(fuel, externals)
    env = {}
    for name, arg in zip(graph.import_names, graph.root.args):
        if arg.ty.kind == "fn":
            env[arg] = FnValue(name, external=True)
        else:
            env[arg] = global_addr(name)
    machine.mute = True
    _define_all(machine, graph, graph.root, env)
    machine.mute = False
    fv = None
    for nm, res in zip(graph.export_names, graph.root.results):
        if nm == fn_name:
            fv = env[res.origin]
    if fv is None:
        raise KeyError("no export named %r" % fn_name)
    fn_ty = fv.node.outputs[0].ty
    vals = [coerce_literal(a, t) for a, t in zip(args, fn_ty.params)]
    vals += [zero_value(t) for t in fn_ty.params[len(vals):]]
    rets = call_value(machine, fv, vals)
    rets = [v for v, t in zip(rets, fn_ty.results) if t.is_value]
    return rets, machine.trace


def call_value(machine, fv, args):
    if fv.node is None:
        raise Trap("call", "call to unbound function @%s" % fv.name)
    body = fv.node.subregions[0]
    env = {}
    for inp, arg in zip(fv.node.inputs, body.args):
        env[arg] = fv.env[inp.origin]
    for arg, v in zip(body.args[fv.node.n_ctx:], args):
        env[arg] = v
    return _eval_region(machine, fv.graph, body, env)


# graph -> (graph.version when built, {region: plan}); the values hold
# regions, nodes and ports but never the graph, so the key can die
_PLANS = weakref.WeakKeyDictionary()


def _plan(graph, region):
    """The region's cached plan: (steps, result origins).  Each step is
    one node, `step(machine, graph, env)`, in producer-before-consumer
    order.  The omega region and phi bodies, which only define
    functions and globals, plan every node; any other region plans its
    live slice: what its results demand, plus every theta node and
    every gamma that holds one -- a loop nobody reads from still runs,
    and it may never terminate."""
    cached = _PLANS.get(graph)
    if cached is None or cached[0] != graph.version:
        cached = _PLANS[graph] = (graph.version, {})
    plan = cached[1].get(region)
    if plan is None:
        nodes = graph.topological_order(region)
        if region.owner.kind not in ("omega", "phi"):
            live = _live_slice(region)
            nodes = [n for n in nodes if n.id in live]
        plan = cached[1][region] = (
            tuple(_simple_step(n) if n.kind == "simple" else _node_step(n)
                  for n in nodes),
            tuple(r.origin for r in region.results))
    return plan


def _live_slice(region):
    needed = set()
    stack = [r.origin for r in region.results]
    for n in region.nodes:
        if holds_loop(n):
            needed.add(n.id)
            stack.extend(u.origin for u in n.inputs)
    while stack:
        p = stack.pop()
        if p is None or p.node is None or p.node.region is not region \
                or p.node.id in needed:
            continue
        needed.add(p.node.id)
        stack.extend(u.origin for u in p.node.inputs)
    return needed


def _eval_region(machine, graph, region, env):
    """Evaluate a region's plan, one fuel tick per node; `env` maps
    ports already bound (the arguments) and receives every port
    evaluated."""
    steps, results = _plan(graph, region)
    for step in steps:
        machine.tick()
        step(machine, graph, env)
    return [env[p] for p in results]


def _define_all(machine, graph, region, env):
    """Evaluate every node of the omega region or a phi body, without
    fuel: defining functions and globals is not a step."""
    for step in _plan(graph, region)[0]:
        step(machine, graph, env)


def _node_step(node):
    def step(machine, graph, env):
        _eval_node(machine, graph, node, env)
    return step


def _eval_node(machine, graph, node, env):
    kind = node.kind
    if kind == "gamma":
        pred = env[node.inputs[0].origin]
        k = len(node.subregions)
        if not 0 <= pred < k:
            raise Trap("ctl", "predicate %d outside ctl%d" % (pred, k))
        sub = node.subregions[pred]
        inner = {}
        for l, use in enumerate(node.inputs[1:]):
            inner[sub.args[l]] = env[use.origin]
        outs = _eval_region(machine, graph, sub, inner)
        for port, v in zip(node.outputs, outs):
            env[port] = v
    elif kind == "theta":
        body = node.subregions[0]
        vals = [env[use.origin] for use in node.inputs]
        while True:
            machine.tick()
            inner = {}
            for arg, v in zip(body.args, vals):
                inner[arg] = v
            outs = _eval_region(machine, graph, body, inner)
            vals = outs[1:]
            if outs[0] == 0:
                break
        for port, v in zip(node.outputs, vals):
            env[port] = v
    elif kind == "lambda":
        env[node.outputs[0]] = FnValue(node.name, node=node, env=env,
                                       graph=graph)
    elif kind == "delta":
        addr = global_addr(node.name)
        body = node.subregions[0]
        inner = {}
        for inp, arg in zip(node.inputs, body.args):
            inner[arg] = env[inp.origin]
        was = machine.mute
        machine.mute = True
        outs = _eval_region(machine, graph, body, inner)
        machine.mute = was
        machine.mem[addr] = outs[0]
        env[node.outputs[0]] = addr
    elif kind == "phi":
        body = node.subregions[0]
        inner = {}
        for inp, arg in zip(node.inputs, body.args[:node.n_ctx]):
            inner[arg] = env[inp.origin]
        _define_all(machine, graph, body, inner)
        # close the loop: recursion arguments late-bind through `inner`,
        # which the body's function values capture by reference
        for l, res in enumerate(body.results):
            v = inner[res.origin]
            inner[body.args[node.n_ctx + l]] = v
            env[node.outputs[l]] = v
    else:
        raise Trap("graph", "cannot evaluate a %s node" % kind)


def _simple_step(node):
    """A simple node's step, with its input origins, output ports,
    constant operands and, for a pure operation, its `ops.SEMANTICS`
    function resolved once."""
    op = node.op
    n, ty = op.name, op.ty
    ins = tuple(u.origin for u in node.inputs)
    outs = tuple(node.outputs)
    if n in ("const", "undef"):
        o, = outs
        v = coerce_literal(op.value, ty) if n == "const" else zero_value(ty)

        def step(machine, graph, env):
            env[o] = v
    elif n == "match":
        (a,), (o,) = ins, outs
        cases = {key: op.select(key) for key, _ in op.table}
        default = op.default

        def step(machine, graph, env):
            env[o] = cases.get(env[a], default)
    elif n == "alloca":
        o, m = outs

        def step(machine, graph, env):
            env[o] = machine.alloca(ty)
            env[m] = MEM_TOKEN
    elif n == "load":
        (a, _), (o, m) = ins, outs

        def step(machine, graph, env):
            env[o] = machine.load(env[a])
            env[m] = MEM_TOKEN
    elif n == "store":
        (a, v, _), (o,) = ins, outs

        def step(machine, graph, env):
            machine.store(env[a], env[v])
            env[o] = MEM_TOKEN
    elif n == "apply":
        f, params = ins[0], ins[1:]

        def step(machine, graph, env):
            fv = env[f]
            vals = [env[p] for p in params]
            if not isinstance(fv, FnValue):
                raise Trap("call", "applying a non-function value")
            if fv.node is None:
                rets = machine.call_external(fv.name, vals, ty.results)
            else:
                rets = call_value(machine, fv, vals)
            for port, v in zip(outs, rets):
                env[port] = v
    elif len(ins) == 1:
        f = SEMANTICS[n, ty.kind]
        (a,), (o,) = ins, outs

        def step(machine, graph, env):
            env[o] = f(ty, env[a])
    else:
        f = SEMANTICS[n, ty.kind]
        (a, b), (o,) = ins, outs

        def step(machine, graph, env):
            env[o] = f(ty, env[a], env[b])
    return step


def run_to_outcome(thunk):
    """Normalize a run to ('ok', results, trace) or ('trap', kind)."""
    try:
        rets, trace = thunk()
        return ("ok", rets, trace)
    except Trap as t:
        return ("trap", t.kind)
