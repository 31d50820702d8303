"""Command line driver.

Exit codes: 0 success, 1 for parse or validation errors in the input
and for usage errors, 2 when an equivalence check between the source
program and the region graph fails, 3 when an internal invariant breaks.
"""

import argparse
import random
import sys

from .parser import (ParseError, SourceError, parse_file, check_module,
                     print_module)
from .graph import GraphError
from .build import BuildError, MEMVAR, IOVAR, construct, prepare_tree
from .destruct import DestructError, destruct
from .source import code_size
from .rewrite import RewriteError
from .restructure import RestructureError
from .controltree import IrreducibleError
from .interp import (DEFAULT_FUEL, Machine, eval_cfg, eval_rvsdg,
                     run_to_outcome)
from .passes import PassConfig, PassError, run_pipeline
from .passes.pipeline import format_stats, parse_passes
from .passes import dne
from . import render
from .randprog import random_args


class EquivalenceError(Exception):
    pass


def _positive_int(text):
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError("expects a positive integer, got %r"
                                         % text)
    return int(text)


def _pass_list(text):
    try:
        return parse_passes(text.replace(",", " "))
    except PassError as e:
        raise argparse.ArgumentTypeError(str(e))


def _pass_config(ns):
    cfg = PassConfig(unroll_factor=ns.unroll_factor)
    if ns.passes is not None:
        cfg.passes = ns.passes
    return cfg


def _number_list(text):
    if not text:
        return []
    vals = []
    for tok in text.split(","):
        tok = tok.strip()
        if "." in tok or "e" in tok.lower():
            try:
                vals.append(float(tok))
                continue
            except ValueError:
                pass
        try:
            vals.append(int(tok, 0))
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not a number" % tok)
    return vals


def _pick_fn(mod, name):
    exported = [n for n in mod.export_types() if n in mod.functions]
    if name is not None:
        if name not in mod.functions:
            raise SourceError("no function @%s" % name)
        return name
    if len(exported) == 1:
        return exported[0]
    raise SourceError("--fn required; exports are: %s" % ", ".join(exported))


def _fmt_value(v):
    return repr(v) if isinstance(v, float) else str(v)


def _fmt_outcome(outcome, out):
    if outcome[0] == "trap":
        out.write("trap: %s\n" % outcome[1])
        return
    _, rets, trace = outcome
    out.write("ret=%s\n" % ",".join(_fmt_value(v) for v in rets))
    for ev in trace:
        out.write("trace: %s\n" % " ".join(str(x) for x in ev))


# -- subcommands ----------------------------------------------------------

def cmd_check(ns, out):
    mod = parse_file(ns.file)
    out.write("ok: %d functions, %d globals, %d externals\n"
              % (len(mod.functions), len(mod.globals_), len(mod.externals)))


def cmd_construct(ns, out):
    g = construct(parse_file(ns.file))
    out.write(render.dump(g))


def cmd_opt(ns, out):
    mod = parse_file(ns.file)
    g = construct(mod)
    run_pipeline(g, _pass_config(ns))
    out.write(print_module(destruct(g)))


def cmd_destruct(ns, out):
    mod = parse_file(ns.file)
    g = construct(mod)
    if ns.passes is not None:
        run_pipeline(g, _pass_config(ns))
    out.write(print_module(destruct(g)))


def cmd_stats(ns, out):
    mod = parse_file(ns.file)
    g = construct(mod)
    if ns.passes is not None:
        steps = run_pipeline(g, _pass_config(ns))
        out.write(format_stats(steps) + "\n")
    counts = {}
    total = edges = 0
    for region in g.regions():
        edges += sum(1 for u in region.results if u.origin is not None)
        for node in region.nodes:
            total += 1
            edges += sum(1 for u in node.inputs if u.origin is not None)
            key = node.op.name if node.kind == "simple" else node.kind
            counts[key] = counts.get(key, 0) + 1
    demanded, kept = dne.mark(g)
    dead = sum(1 for node in g.all_nodes()
               if node.outputs and node not in kept
               and not any(o in demanded for o in node.outputs))
    out.write("instrs=%d\n" % code_size(mod))
    out.write("nodes=%d\n" % total)
    out.write("edges=%d\n" % edges)
    out.write("dead=%d\n" % dead)
    for key in sorted(counts):
        out.write("op.%s=%d\n" % (key, counts[key]))


def cmd_dot(ns, out):
    mod = parse_file(ns.file)
    if ns.level == "cfg":
        out.write(render.dot_cfg(mod))
    elif ns.level == "tree":
        name = _pick_fn(mod, ns.fn)
        _, tree = prepare_tree(mod.functions[name], {MEMVAR, IOVAR})
        out.write(render.dot_tree(tree, name))
    else:
        g = construct(mod)
        if ns.passes is not None:
            run_pipeline(g, _pass_config(ns))
        out.write(render.dot_rvsdg(g))


def cmd_run(ns, out):
    mod = parse_file(ns.file)
    name = _pick_fn(mod, ns.fn)
    args = ns.args
    n_params = len(mod.functions[name].params)
    if len(args) != n_params:
        raise SourceError("@%s takes %d arguments, got %d"
                          % (name, n_params, len(args)))
    if ns.level != "rvsdg":
        ref = run_to_outcome(lambda: eval_cfg(mod, name, list(args),
                                              fuel=ns.fuel))
    if ns.level != "cfg":
        g = construct(mod)
        if ns.passes is not None:
            run_pipeline(g, _pass_config(ns))
        got = run_to_outcome(lambda: eval_rvsdg(g, name, list(args),
                                                fuel=ns.fuel))
    if ns.level == "cfg":
        _fmt_outcome(ref, out)
    elif ns.level == "rvsdg":
        _fmt_outcome(got, out)
    else:
        if ref != got:
            _fmt_outcome(ref, sys.stderr)
            _fmt_outcome(got, sys.stderr)
            raise EquivalenceError("cfg and region graph disagree on @%s(%s)"
                                   % (name, ",".join(map(_fmt_value, args))))
        _fmt_outcome(ref, out)


def cmd_roundtrip(ns, out):
    mod = parse_file(ns.file)
    g = construct(mod)
    if ns.passes is not None:
        run_pipeline(g, _pass_config(ns))
    back = destruct(g)
    check_module(back)
    out.write("size %d -> %d\n" % (code_size(mod), code_size(back)))
    rng = random.Random(ns.seed)
    names = ([_pick_fn(mod, ns.fn)] if ns.fn else
             [n for n in mod.export_types() if n in mod.functions])
    for name in names:
        fn = mod.functions[name]
        checked = src_steps = back_steps = 0
        for _ in range(ns.samples):
            args = random_args(rng, fn.params)
            if args is None:
                break
            ref, used = _counted(eval_cfg, mod, name, args, ns.fuel)
            src_steps += used
            got, _ = _counted(eval_rvsdg, g, name, args, ns.fuel)
            rt, used = _counted(eval_cfg, back, name, args, ns.fuel)
            back_steps += used
            if ref != got or ref != rt:
                raise EquivalenceError("@%s(%s): outcomes diverge"
                                       % (name, args))
            checked += 1
        out.write("@%s: %d samples ok, steps %d -> %d\n"
                  % (name, checked, src_steps, back_steps))


def _counted(evaluate, program, name, args, fuel):
    """The outcome of one run and the fuel it used."""
    machine = Machine(fuel)
    outcome = run_to_outcome(lambda: evaluate(program, name, list(args),
                                              machine=machine))
    return outcome, fuel - machine.fuel


# -- argument parsing -----------------------------------------------------

def _add_common(p, passes=False, runnable=False):
    p.add_argument("file")
    if passes:
        p.add_argument("--passes", type=_pass_list, default=None,
                       help="pass names, comma or space separated")
        p.add_argument("--unroll-factor", type=_positive_int, default=4)
    if runnable:
        p.add_argument("--fn", default=None)
        p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)


def build_parser():
    ap = argparse.ArgumentParser(prog="regionir")
    sub = ap.add_subparsers(dest="cmd", required=True)

    _add_common(sub.add_parser("check", help="parse and verify a module"))
    _add_common(sub.add_parser("construct",
                               help="build the region graph and dump it"))
    p = sub.add_parser("opt", help="optimize and print the result")
    _add_common(p, passes=True)
    p = sub.add_parser("destruct",
                       help="rebuild source form from the region graph")
    _add_common(p, passes=True)
    p = sub.add_parser("stats", help="operation counts and pass statistics")
    _add_common(p, passes=True)
    p = sub.add_parser("dot", help="emit graphviz")
    _add_common(p, passes=True)
    p.add_argument("--fn", default=None)
    p.add_argument("--level", choices=("rvsdg", "cfg", "tree"),
                   default="rvsdg")
    p = sub.add_parser("run", help="evaluate a function")
    _add_common(p, passes=True, runnable=True)
    p.add_argument("--args", type=_number_list, default="")
    p.add_argument("--level", choices=("rvsdg", "cfg", "both"),
                   default="both")
    p = sub.add_parser("roundtrip",
                       help="check source and graph agree on random inputs")
    _add_common(p, passes=True, runnable=True)
    p.add_argument("--samples", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=0)
    return ap


COMMANDS = {
    "check": cmd_check,
    "construct": cmd_construct,
    "opt": cmd_opt,
    "destruct": cmd_destruct,
    "stats": cmd_stats,
    "dot": cmd_dot,
    "run": cmd_run,
    "roundtrip": cmd_roundtrip,
}


def main(argv=None, out=None):
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on a usage error, which is bad input here
        return 1 if e.code == 2 else e.code
    out = out or sys.stdout
    try:
        COMMANDS[ns.cmd](ns, out)
    except ParseError as e:
        sys.stderr.write("parse error: %s\n" % e)
        return 1
    except (SourceError, BuildError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1
    except EquivalenceError as e:
        sys.stderr.write("equivalence failure: %s\n" % e)
        return 2
    except (GraphError, PassError, RewriteError, RestructureError,
            DestructError, IrreducibleError, AssertionError) as e:
        sys.stderr.write("internal error: %s\n" % e)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
