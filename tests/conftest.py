"""Shared fixtures and the differential-testing helpers.

The oracle for every transformation is behavioral: run the original
source program, the region graph, and the reconstructed source program
on the same inputs and require identical outcomes -- return values,
ordered side-effect traces, and trap kinds all included.
"""

import os
import random

import pytest

from regionir.parser import parse_file, check_module
from regionir.build import construct
from regionir.interp import DEFAULT_FUEL, eval_cfg, eval_rvsdg, run_to_outcome
from regionir.randprog import random_args
from regionir.source import Function, validate_cfg

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

# Programs that can loop forever get a small fuel bound so the trap
# itself becomes the comparable outcome.
FUEL_OVERRIDE = {"endless.ir": 3000}

def corpus_files():
    return sorted(f for f in os.listdir(CORPUS) if f.endswith(".ir"))


def corpus_path(name):
    return os.path.join(CORPUS, name)


def load_corpus(name):
    mod = parse_file(corpus_path(name))
    check_module(mod)
    return mod


def exported(mod):
    return [n for n in mod.order
            if n in mod.functions and mod.functions[n].export]


def outcome_cfg(mod, name, args, fuel=DEFAULT_FUEL):
    return run_to_outcome(lambda: eval_cfg(mod, name, list(args), fuel=fuel))


def outcome_rvsdg(graph, name, args, fuel=DEFAULT_FUEL):
    return run_to_outcome(lambda: eval_rvsdg(graph, name, list(args),
                                             fuel=fuel))


def bits(value):
    """`value` with every float inside it replaced by its `float.hex`,
    so that comparing two outcomes tells -0.0 from 0.0."""
    if isinstance(value, float):
        return ("f64", value.hex())
    if isinstance(value, (list, tuple)):
        return type(value)(bits(v) for v in value)
    return value


def assert_equivalent(mod, graph, fixture, n_inputs=10, seed=0, back=None):
    """Source, graph, and (optionally) reconstructed source must agree
    on every exported function over n_inputs random argument tuples;
    f64 results are compared by their bits."""
    fuel = FUEL_OVERRIDE.get(fixture, DEFAULT_FUEL)
    rng = random.Random(seed)
    for name in exported(mod):
        fn = mod.functions[name]
        for _ in range(n_inputs):
            args = random_args(rng, fn.params)
            if args is None:
                break
            ref = bits(outcome_cfg(mod, name, args, fuel))
            got = bits(outcome_rvsdg(graph, name, args, fuel))
            assert ref == got, \
                "%s @%s(%s): cfg %r != rvsdg %r" % (fixture, name, args,
                                                    ref, got)
            if back is not None:
                rt = bits(outcome_cfg(back, name, args, fuel))
                assert ref == rt, \
                    "%s @%s(%s): cfg %r != roundtrip %r" % (fixture, name,
                                                            args, ref, rt)


def assert_closes(mod, back):
    """`back`, a destruction of `mod`'s graph, is in SSA form, constructs
    again and exports the same names at the same types: the round trip
    closes."""
    bodies = list(back.functions.values()) + [
        Function(g.name, [], g.ty, blocks=g.blocks)
        for g in back.globals_.values()]
    for fn in bodies:
        assert validate_cfg(fn, mode="ssa") == [], fn.name
    construct(back)
    assert back.export_types() == mod.export_types()


@pytest.fixture(params=corpus_files())
def fixture_name(request):
    return request.param


def build(mod):
    g = construct(mod)
    assert g.validate() == []
    return g
