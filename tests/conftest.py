"""Shared fixtures and the differential-testing helpers.

The oracle for every transformation is behavioral: run the original
source program, the region graph, and the reconstructed source program
on the same inputs and require identical outcomes -- return values,
ordered side-effect traces, and trap kinds all included.
"""

import os
import random

import pytest

from regionir import randprog
from regionir.parser import parse, parse_file
from regionir.build import construct
from regionir.interp import DEFAULT_FUEL, eval_cfg, eval_rvsdg, run_to_outcome
from regionir.randprog import random_args
from regionir.source import Function, validate_cfg

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")

# Programs that can loop forever get a small fuel bound so the trap
# itself becomes the comparable outcome.
FUEL_OVERRIDE = {"endless.ir": 3000}

def random_size(seed):
    """The size of Tier-1's random program `seed`: mostly small, with a
    tail of large ones."""
    return 8 if seed % 10 == 9 else 1 + seed % 3


def corpus_files():
    return sorted(f for f in os.listdir(CORPUS) if f.endswith(".ir"))


def corpus_path(name):
    return os.path.join(CORPUS, name)


def load_corpus(name):
    """The checked corpus module `name` (`parse` checks what it reads)."""
    return parse_file(corpus_path(name))


# The benchmark ladder's small rungs: randprog seeds 3 and 7 at sizes 1-8.
LADDER = ["ladder:%d:%d" % (seed, size) for seed in (3, 7)
          for size in range(1, 9)]


def load_source(source):
    """A corpus module by file name, or a ladder rung `ladder:seed:size`."""
    if source.startswith("ladder:"):
        _, seed, size = source.split(":")
        return parse(randprog.generate(int(seed), size=int(size)))
    return load_corpus(source)


def ports_and_uses(graph):
    """Every port and use of `graph`: region arguments and results, node
    inputs and outputs."""
    for r in graph.regions():
        yield from r.args
        yield from r.results
        for n in r.nodes:
            yield from n.inputs
            yield from n.outputs


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
