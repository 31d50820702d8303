"""The three workloads, one pass over a work set, and the run loop.

A work set is a fixed list of compile operations.  One operation runs
the compile path (parse + check -> construct -> passes -> destruct ->
check), compares source, graph and destructed program on generated
inputs, and tries a second construct on the destructed module.  The
programs of every workload are fixed; the run's seed draws the
interpreter inputs.

A run makes one whole pass, which checks everything, and then timing
rounds: each operation's compile path and oracle again, checked against
the whole pass, until the run's time is up.  Every timed sample keeps
its start, so that it can be put against the machine's pace at that
moment (see calibrate.py).

Every call into the program goes through an `Api` object, so the
traced run can swap in recording wrappers without touching the loop.
"""

import gc
import hashlib
import math
import os
import random
import time
from dataclasses import dataclass, field

from regionir import randprog, render
from regionir.build import construct
from regionir.destruct import destruct
from regionir.interp import (DEFAULT_FUEL, Machine, eval_cfg, eval_rvsdg,
                             run_to_outcome)
from regionir.parser import check_module, parse, print_module
from regionir.passes import DEFAULT_ORDER, PASSES, PassConfig, run_pipeline
from regionir.types import F64

LADDER_SEEDS = (3, 7)
LADDER_SIZES = (1, 2, 4, 8, 16, 32)
# Tier-1's random programs are seeds 0..499 with this size rule; the
# passwise work set is their first PASSWISE_PROGRAMS.  Twelve keep one
# size-8 program (seed 9): 9 of 108 operations, so p95 falls inside
# that group, not on its edge.
PASSWISE_PROGRAMS = 12
# Inputs per exported function.  Ten, not three, keep exec_steps_ratio
# from moving with the seed by more than about 1.5%.
LADDER_INPUTS = 10
PASSWISE_INPUTS = 10
CORPUS_INPUTS = 100
# Programs that can loop forever get a small fuel bound, as in the tests.
FUEL_OVERRIDE = {"endless.ir": 3000}
# The timing rounds aim to go over the work set this many times in the
# time the whole pass leaves.  An operation's compile path, and then its
# oracle, are repeated until each has taken its share of that time (at
# most MAX_REPS times), so cheap operations get several samples a round
# and costly ones one.
ROUNDS = 2
MAX_REPS = 20
DEFAULT_SCHEDULE = DEFAULT_ORDER.split()


def random_size(seed):
    """Tier-1's RANDOM_SIZES rule."""
    return 8 if seed % 10 == 9 else 1 + seed % 3


@dataclass
class Program:
    name: str
    text: str
    fuel: int = DEFAULT_FUEL


@dataclass
class Op:
    program: int                # index into WorkSet.programs
    passes: list                # pass names, run by the pass manager


@dataclass
class WorkSet:
    programs: list
    ops: list
    inputs_per_export: int


def make_workset(workload, corpus_dir, smoke=False):
    """Build the fixed program list and operation list of a workload;
    with `smoke`, only the smallest rung is kept."""
    if workload == "ladder":
        sizes = LADDER_SIZES[:1] if smoke else LADDER_SIZES
        programs = [Program("seed%d/size%d" % (s, n),
                            randprog.generate(s, size=n))
                    for s in LADDER_SEEDS for n in sizes]
        ops = [Op(i, DEFAULT_SCHEDULE) for i in range(len(programs))]
        return WorkSet(programs, ops, LADDER_INPUTS)
    if workload == "passwise":
        count = 1 if smoke else PASSWISE_PROGRAMS
        programs = [Program("seed%d" % s,
                            randprog.generate(s, size=random_size(s)))
                    for s in range(count)]
        ops = [Op(i, [p]) for i in range(len(programs))
               for p in sorted(PASSES)]
        return WorkSet(programs, ops, PASSWISE_INPUTS)
    if workload == "corpus-exec":
        names = sorted(f for f in os.listdir(corpus_dir) if f.endswith(".ir"))
        if smoke:
            names = names[:2]
        programs = []
        for name in names:
            with open(os.path.join(corpus_dir, name), encoding="utf-8") as fh:
                programs.append(Program(name, fh.read(),
                                        FUEL_OVERRIDE.get(name, DEFAULT_FUEL)))
        ops = [Op(i, DEFAULT_SCHEDULE) for i in range(len(programs))]
        return WorkSet(programs, ops, CORPUS_INPUTS)
    raise ValueError("unknown workload %r" % workload)


class Api:
    """The program's public entry points, as the benchmark calls them."""

    def __init__(self):
        self.parse = parse
        self.check = check_module
        self.construct = construct
        self.pipeline = run_pipeline
        self.destruct = destruct
        self.reconstruct = construct
        self.eval_cfg = eval_cfg
        self.eval_rvsdg = eval_rvsdg


def instr_count(mod):
    """Phis + instructions + terminators over all functions."""
    return sum(len(b.phis) + len(b.instrs) + 1
               for fn in mod.functions.values() for b in fn.blocks)


def _sample_args(rng, params):
    """The argument rule of `regionir roundtrip` and of the tests' oracle,
    restated here because the CLI's copy is private."""
    vals = []
    for _, ty in params:
        if ty is F64:
            vals.append(round(rng.uniform(-100.0, 100.0), 3))
        elif ty.kind == "int":
            hi = min(2 ** (ty.width - 1), 2 ** 16)
            vals.append(rng.randrange(-hi, hi) if ty.width > 1
                        else rng.randrange(2))
        else:
            return None             # pointers/functions: nothing sensible
    return vals


def make_inputs(mod, seed, program_index, per_export):
    """(function name, args) pairs for every exported function whose
    parameters can be sampled, drawn from the run's seed."""
    rng = random.Random("%d/%d" % (seed, program_index))
    out = []
    for name in mod.order:
        fn = mod.functions.get(name)
        if fn is None or not fn.export:
            continue
        for _ in range(per_export):
            args = _sample_args(rng, fn.params)
            if args is None:
                break
            out.append((name, args))
    return out


@dataclass
class PassResult:
    """Everything one pass over a work set measured."""
    # per op, in work set order; None where the compile path raised
    compile_s: list = field(default_factory=list)
    compile_sample: list = field(default_factory=list)  # (start, end, s)
    instrs: list = field(default_factory=list)       # source instructions
    back_instrs: list = field(default_factory=list)  # destructed instructions
    src_steps: list = field(default_factory=list)    # source steps per op
    back_steps: list = field(default_factory=list)   # destructed steps per op
    graph_steps: list = field(default_factory=list)  # graph steps per op
    oracle_s: list = field(default_factory=list)     # oracle time per op
    oracle_sample: list = field(default_factory=list)   # (start, end, s)
    oracle_steps: list = field(default_factory=list)  # steps it executed
    triples: int = 0
    cfg_steps: int = 0
    rvsdg_steps: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    reconstruct_ok: int = 0
    reconstruct_failed: int = 0
    nodes_built: int = 0
    nodes_optimised: int = 0
    peak_nodes: int = 0
    nodes_delta: dict = field(default_factory=lambda: {p: 0 for p in PASSES})
    digest: str = ""
    complete: bool = False

    @property
    def attempted(self):
        return len(self.compile_s)


@dataclass
class Timing:
    """Every timed sample of every operation in a run, as (start, end,
    seconds): the whole pass's and the timing rounds'."""
    compile_samples: list       # per op, the list of its samples
    oracle_samples: list
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def seconds(self, k, pace=None):
        """The compile and the oracle samples of op k, in seconds, each
        divided by the machine's pace around it when `pace` is given."""
        def norm(start, end, dt):
            return dt / pace.factor(start, end) if pace else dt
        return tuple([norm(*x) for x in samples[k]]
                     for samples in (self.compile_samples,
                                     self.oracle_samples))


def _steps(fuel, machine):
    return fuel - machine.fuel


def _label(work, op):
    return "%s %s" % (work.programs[op.program].name,
                      " ".join(op.passes) if len(op.passes) == 1
                      else "default")


def _compile(api, prog, op, pace):
    """The compile path, timed: (start, end, seconds) -- the seconds
    without the pace samples taken inside -- and what it made.
    Garbage left by earlier operations is collected first, so that no
    operation pays for another's."""
    pace.tick()
    gc.collect()
    spent = pace.spent
    t0 = time.perf_counter()
    mod = api.parse(prog.text)
    api.check(mod)
    pace.tick(inside=True)
    g = api.construct(mod)
    pace.tick(inside=True)
    steps = api.pipeline(g, PassConfig(passes=list(op.passes)))
    pace.tick(inside=True)
    back = api.destruct(g)
    api.check(back)
    t1 = time.perf_counter()
    return (t0, t1, t1 - t0 - (pace.spent - spent)), mod, g, back, steps


def _oracle(api, work, op, prog, seed, mod, g, back, pace):
    """Run source, graph and destructed module on the op's inputs, timed.
    Returns (start, end, seconds) as `_compile` does, the first
    disagreement (or None), the number of inputs and the source,
    destructed and graph step totals."""
    inputs = make_inputs(mod, seed, op.program, work.inputs_per_export)
    pace.tick()
    spent = pace.spent
    t0 = time.perf_counter()
    refs = _reference(api, mod, prog, inputs, pace)
    bad, src, back_steps, graph = _compare(api, g, back, prog.fuel, refs,
                                           pace)
    t1 = time.perf_counter()
    return ((t0, t1, t1 - t0 - (pace.spent - spent)), bad, len(refs), src,
            back_steps, graph)


def run_pass(work, api, seed, pace):
    """Run every operation of the work set once, in order, and check
    everything.  Never stops on a failure, which is counted and recorded
    instead."""
    res = PassResult()
    digest = hashlib.sha256()
    for op in work.ops:
        prog = work.programs[op.program]
        label = _label(work, op)
        for per_op in (res.compile_s, res.compile_sample, res.instrs,
                       res.back_instrs, res.src_steps, res.back_steps,
                       res.graph_steps, res.oracle_s, res.oracle_sample,
                       res.oracle_steps):
            per_op.append(None)
        try:
            sample, mod, g, back, steps = _compile(api, prog, op, pace)
        except Exception as exc:                 # counted, never fatal
            res.failed += 1
            res.errors.append("%s: compile raised %s: %s"
                              % (label, type(exc).__name__, exc))
            continue
        n_src = instr_count(mod)
        n_back = instr_count(back)
        res.compile_s[-1], res.compile_sample[-1] = sample[2], sample
        res.instrs[-1] = n_src
        res.back_instrs[-1] = n_back
        res.nodes_built += steps[0][1]
        res.nodes_optimised += steps[-1][2]
        for name, before, after in steps:
            res.nodes_delta[name] += after - before
            res.peak_nodes = max(res.peak_nodes, before, after)

        try:
            sample, bad, n, src_steps, back_steps, graph_steps = _oracle(
                api, work, op, prog, seed, mod, g, back, pace)
        except Exception as exc:                 # counted, never fatal
            res.failed += 1
            res.errors.append("%s: oracle raised %s: %s"
                              % (label, type(exc).__name__, exc))
            continue
        res.oracle_s[-1], res.oracle_sample[-1] = sample[2], sample
        res.oracle_steps[-1] = src_steps + back_steps + graph_steps
        res.src_steps[-1] = src_steps
        res.back_steps[-1] = back_steps
        res.graph_steps[-1] = graph_steps
        res.triples += n
        res.cfg_steps += src_steps + back_steps
        res.rvsdg_steps += graph_steps
        if bad is not None:
            res.failed += 1
            res.errors.append("%s: %s" % (label, bad))

        try:
            api.reconstruct(back)
            res.reconstruct_ok += 1
            reconstructed = True
        except Exception:                        # the known defect, counted
            res.reconstruct_failed += 1
            reconstructed = False

        digest.update(("%s\n%r\n%d %d %d %d %d %s\n" % (
            label, steps, n_src, n_back, src_steps, back_steps, graph_steps,
            reconstructed)).encode())
        digest.update(render.dump(g).encode())
        digest.update(print_module(back).encode())
    res.digest = digest.hexdigest()
    res.complete = res.attempted == len(work.ops)
    return res


def _reps(seconds, share):
    return max(1, min(MAX_REPS, math.ceil(share / seconds)))


def time_rounds(work, api, seed, first, deadline, pace):
    """Timing rounds after the whole pass `first`, until `deadline` (a
    perf_counter time).  Each round repeats, for every operation that
    passed its checks in `first`, the compile path and then the oracle
    on its result, each enough times to take its share of the time.
    Each oracle run is checked against `first`: it must agree and give
    the same step counts."""
    ok = [k for k in range(first.attempted)
          if first.oracle_s[k] is not None]
    share = (deadline - time.perf_counter()) / (ROUNDS * 2 * max(1, len(ok)))
    tm = Timing([[] for _ in range(first.attempted)],
                [[] for _ in range(first.attempted)])
    for k in ok:
        tm.compile_samples[k].append(first.compile_sample[k])
        tm.oracle_samples[k].append(first.oracle_sample[k])
    while True:
        for k in ok:
            op = work.ops[k]
            prog = work.programs[op.program]
            want = (first.src_steps[k], first.back_steps[k],
                    first.graph_steps[k])
            built = None
            for _ in range(_reps(first.compile_s[k], share)):
                if time.perf_counter() >= deadline:
                    return tm
                tm.attempted += 1
                try:
                    sample, *built = _compile(api, prog, op, pace)
                except Exception as exc:         # counted, never fatal
                    tm.failed += 1
                    tm.errors.append("%s (timing): compile raised %s: %s"
                                     % (_label(work, op),
                                        type(exc).__name__, exc))
                    break
                tm.compile_samples[k].append(sample)
            if built is None:
                continue
            mod, g, back, _ = built
            for _ in range(_reps(first.oracle_s[k], share)):
                if time.perf_counter() >= deadline:
                    return tm
                try:
                    sample, bad, _, *got = _oracle(
                        api, work, op, prog, seed, mod, g, back, pace)
                except Exception as exc:         # counted, never fatal
                    bad = "raised %s: %s" % (type(exc).__name__, exc)
                else:
                    if bad is None and tuple(got) != want:
                        bad = "steps %r, whole pass %r" % (tuple(got), want)
                if bad is not None:
                    tm.failed += 1
                    tm.errors.append("%s (timing): oracle %s"
                                     % (_label(work, op), bad))
                    break
                tm.oracle_samples[k].append(sample)
        tm.rounds += 1


def _compare(api, g, back, fuel, refs, pace):
    """Run the graph and the destructed module on every reference input.
    Returns the first disagreement (or None) and the source, destructed
    and graph step totals."""
    bad = None
    src_steps = back_steps = graph_steps = 0
    for name, args, ref, ref_steps in refs:
        pace.tick(inside=True)
        m_graph, m_back = Machine(fuel), Machine(fuel)
        got = run_to_outcome(lambda: api.eval_rvsdg(g, name, list(args),
                                                    machine=m_graph))
        rt = run_to_outcome(lambda: api.eval_cfg(back, name, list(args),
                                                 machine=m_back))
        src_steps += ref_steps
        back_steps += _steps(fuel, m_back)
        graph_steps += _steps(fuel, m_graph)
        if bad is None and not ref == got == rt:
            bad = "@%s(%s): cfg %r, graph %r, destructed %r" % (
                name, args, ref, got, rt)
    return bad, src_steps, back_steps, graph_steps


def _reference(api, mod, prog, inputs, pace):
    """Run the source once per input: the oracle's reference outcome and
    the step count the destructed program is compared against."""
    out = []
    for name, args in inputs:
        pace.tick(inside=True)
        m = Machine(prog.fuel)
        ref = run_to_outcome(lambda: api.eval_cfg(mod, name, list(args),
                                                  machine=m))
        out.append((name, args, ref, _steps(prog.fuel, m)))
    return out


def measure(work, seed, seconds, pace, tr=None):
    """Untraced (`tr` is None): one whole pass, then timing rounds until
    `seconds` have passed.  Traced: whole (untraced, traced) pairs of
    passes, while the next pair is predicted to end in time.  Returns
    the untraced and traced PassResults, the Timing (None when traced)
    and, per traced pass, its range of span indices in `tr`."""
    api = Api()
    deadline = time.perf_counter() + seconds
    if tr is None:
        saved = dict(PASSES)
        PASSES.update((name, pace.paced(fn)) for name, fn in saved.items())
        try:
            first = run_pass(work, api, seed, pace)
            timing = time_rounds(work, api, seed, first, deadline, pace)
        finally:
            PASSES.update(saved)
        return [first], [], timing, []
    plain, traced, ranges = [], [], []
    while True:
        t_cycle = time.perf_counter()
        plain.append(run_pass(work, api, seed, pace))
        lo = len(tr.spans)
        tr.install(api)
        try:
            traced.append(run_pass(work, api, seed, pace))
        finally:
            tr.uninstall()
        ranges.append((lo, len(tr.spans)))
        now = time.perf_counter()
        if now + (now - t_cycle) > deadline:
            return plain, traced, None, ranges
