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

Both interpreters run from plans of step closures (Feeley & Lapalme,
"Using closures for code generation", 1987), built once and cached in a
`weakref.WeakKeyDictionary`.  A plan holds parts of its program --
blocks, names, ports, types and constants -- but never the module or
graph itself: a value that refers to its key would keep the key alive
forever, so the module or graph is passed in at run time instead.

One CFG step, one unit of fuel, is one instruction or one terminator
run.  A function's plan, or a global initializer's, is built on the
first run that reaches it and kept per module.  It holds the blocks by
index, and each block's plan, built on the first entry into the block:
one step per instruction, carrying its variable names, its
`ops.SEMANTICS` function and its constants (a literal coerced at its
position's type, an `@name` turned into its function value or address),
and the terminator, with its targets resolved to block indices, each
edge carrying the target's phi moves for its source label.  The module
must have passed `parser.check_module`, as every module `parse` returns
has, so every label, phi entry, operation, literal and `@name` a plan
resolves is there.  Building a plan evaluates nothing: a trap comes
when its step runs, in the order of execution.  A built module is not
edited: its plans are never rebuilt.

One graph step, one unit of fuel, is one live node evaluated or one
theta iteration.  Defining the functions and globals of the omega
region and of phi bodies takes no fuel.  What a region evaluates is a
static property of the graph, so each region's plan -- its live slice in
producer-before-consumer order, nodes turned into step closures -- is
built once and cached per graph.  A gamma step holds its alternatives'
plans and a theta step its body's, each fetched on first entry.  Every
edit primitive of `Graph` bumps `Graph.version`, and the next run drops
every plan built at another version, those held by steps included.

Global cells live at addresses derived from their names, so removing an
unused global does not shift the addresses in the trace of the rest.
"""

import weakref
import zlib

from .types import sizeof
from .graph import holds_loop, producers
from .ops import SEMANTICS, Trap, coerce_literal, operand_types
from .source import Var, Lit, Br, Ret

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

    def __init__(self, name, node=None, env=None, graph=None):
        self.name = name
        self.node = node
        self.env = env
        self.graph = graph

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

# module -> (function plans, initializer plans), each dict keyed by
# name; the plans hold the module's blocks but never the module, so the
# key can die
_CFG_PLANS = weakref.WeakKeyDictionary()

# how a step reads an operand (see `_resolve`)
_VAR, _CONST = "var", "const"


def eval_cfg(module, fn_name, args, fuel=DEFAULT_FUEL, externals=None,
             machine=None):
    """Run an exported or internal function of `module`, which must have
    passed `parser.check_module`; returns (results, trace)."""
    if machine is None:
        machine = Machine(fuel, externals)
    plans = _CFG_PLANS.get(module)
    if plans is None:
        plans = _CFG_PLANS[module] = ({}, {})
    cx = (module, plans[0])
    _init_globals_cfg(machine, cx, plans[1])
    plan = _fn_plan(cx, fn_name)
    if plan is None:
        raise KeyError("no function @%s" % fn_name)
    return _call_cfg(machine, cx, plan, args), machine.trace


def _init_globals_cfg(machine, cx, inits):
    module = cx[0]
    machine.mute = True
    for name in module.order:
        g = module.globals_.get(name)
        if g is None:
            continue
        plan = inits.get(name)
        if plan is None:
            plan = inits[name] = _cfg_plan(g.blocks)
        val = _run_cfg(machine, cx, plan, {})
        machine.mem[global_addr(name)] = val[0]
    machine.mute = False


def _fn_plan(cx, name):
    """Function `name`'s plan, (params, blocks), built on the first call
    that reaches it; None if the module defines no such function."""
    module, fns = cx
    plan = fns.get(name)
    if plan is None:
        fn = module.functions.get(name)
        if fn is not None:
            plan = fns[name] = (tuple(fn.params), _cfg_plan(fn.blocks))
    return plan


def _call_cfg(machine, cx, plan, args):
    params, blocks = plan
    env = {name: coerce_literal(a, t) for (name, t), a in zip(params, args)}
    return _run_cfg(machine, cx, blocks, env)


def _dispatch_call(machine, cx, callee, args, result_tys):
    if not isinstance(callee, FnValue):
        raise Trap("call", "calling a non-function value")
    plan = _fn_plan(cx, callee.name)
    if plan is not None:
        return _call_cfg(machine, cx, plan, args)
    if callee.name in cx[0].externals:
        return machine.call_external(callee.name, args, result_tys)
    raise Trap("call", "call to unknown function @%s" % callee.name)


def _run_cfg(machine, cx, plan, env):
    """Run a CFG's plan from its first block, one fuel tick per
    instruction and one per terminator; returns the results."""
    tick = machine.tick
    built = plan[2]
    k = 0
    while True:
        block = built[k]
        if block is None:
            block = built[k] = _block_plan(cx[0], plan, k)
        steps, term = block
        for step in steps:
            tick()
            step(machine, cx, env)
        tick()
        edge = term(env)
        if edge.__class__ is list:
            return edge
        k, moves = edge
        if moves is not None:
            moves(env)


def _cfg_plan(blocks):
    """A CFG's plan: (blocks, block index by label, each block's plan
    by index or None until the block is first entered)."""
    return (tuple(blocks), {b.name: k for k, b in enumerate(blocks)},
            [None] * len(blocks))


def _block_plan(module, plan, k):
    """Block `k`'s plan: its instruction steps and its terminator.  A
    terminator gives the results, or the edge taken: the target's index
    and the moves of the target's phis for this source label (None if
    it has none).  Reads `module` to resolve `@name` operands and keeps
    none of it."""
    blocks, index, _ = plan
    b = blocks[k]

    def edge(label):
        t = index[label]
        return t, _phi_moves(module, blocks[t].phis, b.name)

    return (tuple(_instr_step(module, i) for i in b.instrs),
            _term(module, b.term, edge))


def _resolve(module, o, ty):
    """How a step reads operand `o` at type `ty`: (_VAR, name), or
    (_CONST, value) with a literal coerced and `@name` turned into its
    function value or address."""
    if isinstance(o, Var):
        return _VAR, o.name
    if isinstance(o, Lit):
        return _CONST, coerce_literal(o.value, ty)
    if module.is_function(o.name):
        return _CONST, FnValue(o.name)
    return _CONST, global_addr(o.name)   # a global or external data


def _getter(kind, x):
    if kind is _VAR:
        return lambda env: env[x]
    return lambda env: x


def _phi_moves(module, phis, src):
    """The parallel copy into `phis` on an edge from label `src`."""
    if not phis:
        return None
    dests = tuple(p.dest for p in phis)
    ops = [_resolve(module, next(o for o, lbl in p.entries if lbl == src),
                    p.ty) for p in phis]
    if all(kind is _VAR for kind, _ in ops):
        names = tuple(x for _, x in ops)

        def moves(env):
            env.update(zip(dests, [env[n] for n in names]))
    else:
        gets = tuple(_getter(*o) for o in ops)

        def moves(env):
            env.update(zip(dests, [g(env) for g in gets]))
    return moves


def _term(module, t, edge):
    """A terminator's closure: from `env`, the results, or the edge
    taken; a branch selector outside its targets takes the last."""
    if isinstance(t, Ret):
        if t.operand is None:
            return lambda env: []
        get = _getter(*_resolve(module, t.operand, t.ty))
        return lambda env: [get(env)]
    if isinstance(t, Br):
        e = edge(t.target)
        return lambda env: e
    kind, x = _resolve(module, t.operand, t.ty)
    get = _getter(kind, x)
    edges = tuple(edge(lbl) for lbl in t.targets)
    last = len(edges) - 1

    def term(env):
        v = env[x] if kind is _VAR else get(env)
        if not 0 <= v <= last:
            v = last
        return edges[v]
    return term


def _instr_step(module, i):
    """An instruction's step, `step(machine, cx, env)`, with its
    operands resolved and, for a pure operation, its `ops.SEMANTICS`
    function.  Operands are read in order before the operation runs."""
    op, ty, d = i.op, i.ty, i.dest
    if op == "call":
        callee = _getter(*_resolve(module, i.callee, None))
        gets = tuple(_getter(*_resolve(module, o, t))
                     for o, t in zip(i.operands, i.arg_tys))
        result_tys = [] if ty is None else [ty]

        def step(machine, cx, env):
            rets = _dispatch_call(machine, cx, callee(env),
                                  [g(env) for g in gets], result_tys)
            if d is not None:
                env[d] = rets[0]
        return step
    # a literal takes the type of its position, as in construction
    ops = [_resolve(module, o, t)
           for o, t in zip(i.operands, operand_types(op, ty))]
    gets = tuple(_getter(*o) for o in ops)
    if op == "copy":
        (ka, a), get = ops[0], gets[0]
        if ka is _VAR:
            def step(machine, cx, env):
                env[d] = env[a]
        else:
            def step(machine, cx, env):
                env[d] = get(env)
    elif op == "load":
        def step(machine, cx, env):
            vals = [g(env) for g in gets]
            env[d] = machine.load(vals[0])
    elif op == "store":
        def step(machine, cx, env):
            vals = [g(env) for g in gets]
            machine.store(vals[1], vals[0])
    elif op == "undef":
        def step(machine, cx, env):
            env[d] = zero_value(ty)
    elif op == "alloca":
        def step(machine, cx, env):
            env[d] = machine.alloca(ty)
    elif len(ops) == 1:
        f = SEMANTICS[op, ty.kind]
        (ka, a), = ops
        get, = gets
        if ka is _VAR:
            def step(machine, cx, env):
                env[d] = f(ty, env[a])
        else:
            def step(machine, cx, env):
                env[d] = f(ty, get(env))
    else:
        f = SEMANTICS[op, ty.kind]
        (ka, a), (kb, b) = ops
        ga, gb = gets
        if ka is _VAR and kb is _VAR:
            def step(machine, cx, env):
                env[d] = f(ty, env[a], env[b])
        elif ka is _VAR and kb is _CONST:
            def step(machine, cx, env):
                env[d] = f(ty, env[a], b)
        elif ka is _CONST and kb is _VAR:
            def step(machine, cx, env):
                env[d] = f(ty, a, env[b])
        else:
            def step(machine, cx, env):
                env[d] = f(ty, ga(env), gb(env))
    return step


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
            env[arg] = FnValue(name)
        else:
            env[arg] = global_addr(name)
    machine.mute = True
    _define_all(machine, graph, graph.root, env)
    machine.mute = False
    fv = env[graph.export_origin(fn_name)]
    if not isinstance(fv, FnValue):
        raise KeyError("no function @%s" % fn_name)
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
    return _run_plan(machine, fv.graph, _plan(fv.graph, body), env)


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
            loops = [n for n in region.nodes if holds_loop(n)]
            live = producers(region, [r.origin for r in region.results]
                             + [u.origin for n in loops for u in n.inputs])
            live.update(loops)
            nodes = [n for n in nodes if n in live]
        plan = cached[1][region] = (
            tuple(_STEPS.get(n.kind, _node_step)(n) for n in nodes),
            tuple(r.origin for r in region.results))
    return plan


def _run_plan(machine, graph, plan, env):
    """Evaluate a region's plan, one fuel tick per node; `env` maps
    ports already bound (the arguments) and receives every port
    evaluated."""
    steps, results = plan
    tick = machine.tick
    for step in steps:
        tick()
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


def _gamma_step(node):
    """A gamma's step: it fetches an alternative's plan on the first
    entry into it and holds it from then on.  It binds only the
    arguments the alternative reads, from (argument, entry origin)
    pairs listed once per alternative here."""
    pred_port = node.inputs[0].origin
    subs = node.subregions
    k = len(subs)
    ins = node.inputs
    alt_binds = tuple(
        tuple((arg, ins[arg.index + 1].origin) for arg in sub.args if arg.users)
        for sub in subs)
    plans = [None] * k
    outs = tuple(node.outputs)

    def step(machine, graph, env):
        pred = env[pred_port]
        if not 0 <= pred < k:
            raise Trap("ctl", "predicate %d outside ctl%d" % (pred, k))
        plan = plans[pred]
        if plan is None:
            plan = plans[pred] = _plan(graph, subs[pred])
        inner = {arg: env[p] for arg, p in alt_binds[pred]}
        env.update(zip(outs, _run_plan(machine, graph, plan, inner)))
    return step


def _theta_step(node):
    """A theta's step, one fuel tick per iteration: it fetches its
    body's plan on the first entry and holds it from then on."""
    ins = tuple(u.origin for u in node.inputs)
    body = node.subregions[0]
    args = tuple(body.args)
    outs = tuple(node.outputs)
    plan = None

    def step(machine, graph, env):
        nonlocal plan
        if plan is None:
            plan = _plan(graph, body)
        vals = [env[p] for p in ins]
        while True:
            machine.tick()
            got = _run_plan(machine, graph, plan, dict(zip(args, vals)))
            vals = got[1:]
            if got[0] == 0:
                break
        env.update(zip(outs, vals))
    return step


def _eval_node(machine, graph, node, env):
    kind = node.kind
    if kind == "lambda":
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
        outs = _run_plan(machine, graph, _plan(graph, body), inner)
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


_STEPS = {"simple": _simple_step, "gamma": _gamma_step,
          "theta": _theta_step}


def run_to_outcome(thunk):
    """Normalize a run to ('ok', results, trace) or ('trap', kind)."""
    try:
        rets, trace = thunk()
        return ("ok", rets, trace)
    except Trap as t:
        return ("trap", t.kind)
