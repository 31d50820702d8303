"""Quick differential sweep over seeded random programs.

A fast, always-on slice of the heavy acceptance sweep: every seed must
agree between the block interpreter, the region graph, and the
reconstructed source, traces included [DERIVED].
"""

import random

from regionir.parser import parse, check_module
from regionir.build import construct
from regionir.destruct import destruct
from regionir.passes import PassConfig, run_pipeline
from regionir.passes.pipeline import node_count
from regionir import randprog

from conftest import assert_equivalent, outcome_cfg, outcome_rvsdg


def _triple_check(seed, mod, g, back, n_inputs=5):
    rng = random.Random(seed)
    params = mod.functions["main"].params
    for _ in range(n_inputs):
        args = randprog.random_args(rng, params)
        ref = outcome_cfg(mod, "main", args)
        assert outcome_rvsdg(g, "main", args) == ref, (seed, args)
        assert outcome_cfg(back, "main", args) == ref, (seed, args)


def test_generator_is_deterministic():
    """[TRIVIAL] Same seed, same program text."""
    assert randprog.generate(7) == randprog.generate(7)
    assert randprog.generate(7) != randprog.generate(8)


def test_generated_programs_roundtrip():
    """[DERIVED] 60 seeds through construct and destruct."""
    for seed in range(60):
        mod = parse(randprog.generate(seed))
        check_module(mod)
        g = construct(mod)
        assert g.validate() == []
        back = destruct(g)
        check_module(back)
        _triple_check(seed, mod, g, back)


def test_generated_programs_survive_the_full_pipeline():
    """[DERIVED] 20 seeds through the default pass schedule."""
    for seed in range(20):
        mod = parse(randprog.generate(seed))
        check_module(mod)
        g = construct(mod)
        run_pipeline(g, PassConfig(unroll_factor=2))
        back = destruct(g)
        check_module(back)
        _triple_check(seed, mod, g, back)


def test_random_args_draw_sixteen_bit_ints_for_i64():
    """[TRIVIAL] For i64 parameters, the argument sampler draws
    randrange(-2**16, 2**16) per parameter, so seeded inputs are the
    ones the sweeps have always used."""
    params = parse(randprog.generate(3)).functions["main"].params
    assert {str(ty) for _, ty in params} == {"i64"}
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        assert randprog.random_args(rng, params) == \
            [ref.randrange(-2 ** 16, 2 ** 16) for _ in params]


def test_hoisting_twice_does_not_multiply_the_graph():
    """[DERIVED] An order that hoists out of unrolled, inverted loops
    three times ends with 4,330 nodes (5,130 when PSH hoists out of
    every gamma it can, 8,635 when it copies a value once per nesting
    level).  A PSH that copies a value once per
    alternative and per body node, not once per region, multiplies the
    graph at every run and reaches 743,664."""
    mod = parse(randprog.generate(1011, size=4))
    check_module(mod)
    g = construct(mod)
    order = "IVT URL URL CNE PSH IVT CNE PSH IVT PSH".split()
    steps = run_pipeline(g, PassConfig(passes=order, unroll_factor=4))
    assert steps[-1][2] <= 6000
    assert g.validate() == []
    assert_equivalent(mod, g, "seed 1011", n_inputs=5)


def test_hoisting_twice_does_not_multiply_the_graph_of_seed_1031():
    """[DERIVED] The order above, on the program of seed 1031, ends with
    5,249 nodes and 13,471 region arguments (6,461 and 15,517 when PSH
    hoists out of every gamma it can).  The bound leaves the margin that
    seed 1011's does."""
    mod = parse(randprog.generate(1031, size=4))
    check_module(mod)
    g = construct(mod)
    order = "IVT URL URL CNE PSH IVT CNE PSH IVT PSH".split()
    steps = run_pipeline(g, PassConfig(passes=order, unroll_factor=4))
    assert steps[-1][2] <= 7500
    assert g.validate() == []
    assert_equivalent(mod, g, "seed 1031", n_inputs=5)


def test_default_pipeline_peak_stays_within_twice_the_construct():
    """[DERIVED] On the benchmark ladder's seeds at every size from 1 to
    16, no step of the default schedule leaves more than twice the nodes
    `construct` built."""
    for seed in (3, 7):
        for size in range(1, 17):
            g = construct(parse(randprog.generate(seed, size=size)))
            built = node_count(g)
            peak = max(after for _, _, after in run_pipeline(g))
            assert peak <= 2.0 * built, (seed, size, built, peak)
