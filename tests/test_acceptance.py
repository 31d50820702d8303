"""Acceptance gate: the nine end-to-end criteria.

1. Roundtrip equivalence over the hand-written corpus (>= 25 programs)
   plus >= 500 seeded random CFGs: interpret(source) =
   interpret(destruct(construct(source))) on results and ordered
   side-effect traces, >= 100 random inputs each, zero failures, under
   ten minutes; construct(destruct(construct(source))) succeeds with
   the source's exported types.
2. Each of the nine passes individually preserves oracle equivalence
   on the same corpus, and on the corpus the round trip closes after
   each pass.
3. Common node elimination plus cleanup reduces the four-product
   kernel's multiplications to exactly three; loads with different
   memory-state origins are never merged.
4. The dead-node mark phase labels exactly the live set (checked via
   stats on the committed fixture); the pass is idempotent corpus-wide.
5. Every control-tree node's read/write sets match an independent
   dataflow fixpoint; translation never reports a missing symbol; the
   gcd tree's R/W/D sets match the committed constants.
6. validate() passes after construction and after every pass on the
   full corpus.
7. A least-squares fit of graph node count against source instruction
   count has R^2 >= 0.9 and the per-program ratio stays under a
   committed bound.
8. Unrolled counted loops agree with the source for trip counts 0..17
   and factors 1, 2, 4; factor one is the identity.
9. Determinism: identical seeds give byte-identical dumps, DOT output,
   and stats.

Oracle tags: behavioral comparisons are [DERIVED] (twin interpreters),
committed constants are [DERIVED] by hand from fixtures, structural
checks are [TRIVIAL].
"""

import io
import random
import time

from regionir import cli, randprog, render
from regionir.build import BuildError, MEMVAR, IOVAR, construct, prepare_tree
from regionir.controltree import CTBlock, CTBranch, CTLinear, children
from regionir.destruct import destruct
from regionir.parser import parse, check_module
from regionir.passes import PassConfig, run_pipeline
from regionir.passes.pipeline import PASSES, node_count
from regionir.passes import cne, dne
from regionir.source import code_size, instr_reads, instr_writes, successors
from regionir.interp import DEFAULT_FUEL

from conftest import (FUEL_OVERRIDE, assert_closes, assert_equivalent, build,
                      corpus_files, corpus_path, exported, load_corpus,
                      outcome_cfg, outcome_rvsdg, random_size)

N_RANDOM = 500
# the tail of large programs lets criterion 7's fit span two orders of
# magnitude of instruction counts
RANDOM_SIZES = [random_size(seed) for seed in range(N_RANDOM)]
RATIO_BOUND = 3.0       # committed: measured maximum is ~2.72
R2_FLOOR = 0.9

_module_cache = {}


def _random_module(seed):
    if seed not in _module_cache:
        _module_cache[seed] = parse(randprog.generate(
            seed, size=RANDOM_SIZES[seed]))
    return _module_cache[seed]


def _random_triple_ok(seed, mod, back, n_inputs):
    rng = random.Random(seed)
    params = mod.functions["main"].params
    for _ in range(n_inputs):
        args = randprog.random_args(rng, params)
        if outcome_cfg(mod, "main", args) != outcome_cfg(back, "main", args):
            return args
    return None


# -- criterion 1: roundtrip equivalence -------------------------------------

def test_criterion_1_roundtrip_equivalence_corpus_wide():
    """[DERIVED] Source and destruct(construct(source)) agree on
    results and ordered traces, and the round trip closes; zero
    failures; under ten minutes."""
    t0 = time.time()
    names = corpus_files()
    assert len(names) >= 25
    for name in names:
        mod = load_corpus(name)
        g = build(mod)
        back = destruct(g)
        check_module(back)
        assert_closes(mod, back)
        assert_equivalent(mod, g, name, n_inputs=100, back=back)
    failures = []
    for seed in range(N_RANDOM):
        mod = _random_module(seed)
        back = destruct(construct(mod))
        check_module(back)
        assert_closes(mod, back)
        bad = _random_triple_ok(seed, mod, back, n_inputs=100)
        if bad is not None:
            failures.append((seed, bad))
    assert failures == []
    assert time.time() - t0 < 600


# -- criterion 2: each pass alone preserves equivalence ----------------------

def test_criterion_2_each_pass_preserves_equivalence():
    """[DERIVED] Every one of the nine passes, run by itself on a fresh
    graph, keeps all three evaluations in agreement; on the corpus the
    round trip after each pass closes."""
    def run_one(name, g):
        if name == "URL":
            PASSES[name](g, factor=4)
        else:
            PASSES[name](g)
        assert g.validate() == [], (name, g.validate())

    for fixture in corpus_files():
        mod = load_corpus(fixture)
        for pass_name in sorted(PASSES):
            g = build(mod)
            run_one(pass_name, g)
            back = destruct(g)
            check_module(back)
            assert_closes(mod, back)
            assert_equivalent(mod, g, fixture, n_inputs=10, back=back)
    # On the random half the oracle is the graph evaluation itself;
    # destruction after passes is criterion 1's subject and stays out
    # of this loop for time's sake.
    for seed in range(N_RANDOM):
        mod = _random_module(seed)
        rng = random.Random(seed)
        params = mod.functions["main"].params
        inputs = [randprog.random_args(rng, params) for _ in range(2)]
        refs = [outcome_cfg(mod, "main", args) for args in inputs]
        for pass_name in sorted(PASSES):
            g = construct(mod)
            run_one(pass_name, g)
            for args, ref in zip(inputs, refs):
                got = outcome_rvsdg(g, "main", args)
                assert got == ref, (seed, pass_name, args)


# -- criterion 3: the congruence pass ----------------------------------------

def test_criterion_3_cne_merges_exactly_one_multiplication():
    """[DERIVED] The committed kernel holds four multiplications, two
    of them congruent: CNE plus DNE leaves exactly three."""
    mod = load_corpus("mul_chain.ir")
    g = build(mod)
    muls = [n for n in g.all_nodes()
            if n.kind == "simple" and n.op.name == "mul"]
    assert len(muls) == 4
    cne.run(g)
    dne.run(g)
    muls = [n for n in g.all_nodes()
            if n.kind == "simple" and n.op.name == "mul"]
    assert len(muls) == 3
    assert_equivalent(mod, g, "mul_chain.ir")


def test_criterion_3_loads_with_distinct_state_origins_survive():
    """[DERIVED] Two loads of one address around a store read different
    memory states; CNE must keep both, and the trace proves it ran
    both."""
    mod = load_corpus("loads_state.ir")
    g = build(mod)
    n_loads = sum(1 for n in g.all_nodes()
                  if n.kind == "simple" and n.op.name == "load")
    assert n_loads == 2
    cne.run(g)
    dne.run(g)
    assert sum(1 for n in g.all_nodes()
               if n.kind == "simple" and n.op.name == "load") == 2
    out = outcome_rvsdg(g, "loads", [7])
    assert [ev[0] for ev in out[2]].count("load") == 2
    assert_equivalent(mod, g, "loads_state.ir")


# -- criterion 4: dead node elimination ---------------------------------------

def test_criterion_4_mark_labels_exactly_the_live_set():
    """[DERIVED] On the committed fixture, stats reports dead=2 before
    cleanup and dead=0 after; the node count drops by exactly two."""
    out = io.StringIO()
    assert cli.main(["stats", corpus_path("deadcode.ir")], out=out) == 0
    before = dict(line.split("=") for line in out.getvalue().splitlines())
    assert before["dead"] == "2"
    out = io.StringIO()
    assert cli.main(["stats", corpus_path("deadcode.ir"),
                     "--passes", "DNE"], out=out) == 0
    after = dict(line.split("=") for line in out.getvalue().splitlines()
                 if "=" in line and not line.startswith("step"))
    assert after["dead"] == "0"
    assert int(after["nodes"]) == int(before["nodes"]) - 2


def test_criterion_4_dne_idempotent_corpus_wide():
    """[DERIVED] After one run, a fresh mark finds nothing dead and a
    second run changes nothing, on every corpus program."""
    for fixture in corpus_files():
        g = build(load_corpus(fixture))
        dne.run(g)
        demanded, kept = dne.mark(g)
        dead = [n for n in g.all_nodes()
                if n.outputs and n not in kept
                and not any(o in demanded for o in n.outputs)]
        assert dead == [], fixture
        once = render.dump(g)
        dne.run(g)
        assert render.dump(g) == once, fixture
    for seed in range(0, N_RANDOM, 10):
        g = construct(_random_module(seed))
        dne.run(g)
        once = render.dump(g)
        dne.run(g)
        assert render.dump(g) == once, seed


# -- criterion 5: control-tree annotation -------------------------------------

def _tree_blocks(t):
    if isinstance(t, CTBlock):
        return [t.block]
    out = []
    for c in children(t):
        out.extend(_tree_blocks(c))
    return out


def _tree_entry(t):
    if isinstance(t, CTBlock):
        return t.block
    if isinstance(t, CTBranch):
        return None
    return _tree_entry(children(t)[0])


def _block_effects(block):
    """Upward-exposed reads and total writes, straight from the
    per-instruction effect functions."""
    gen, kill = set(), set()
    for item in block.phis + block.instrs + [block.term]:
        gen |= set(instr_reads(item)) - kill
        kill |= set(instr_writes(item))
    return gen, kill


def _dataflow_rw(t):
    """Independent recomputation of a subtree's read and write sets by
    iterative dataflow over its basic blocks, sharing only the
    per-instruction effect functions with the annotator."""
    if isinstance(t, CTBranch):
        parts = [_dataflow_rw(a) for a in t.alts]
        return (set().union(*(r for r, _ in parts)),
                set.intersection(*(w for _, w in parts)))
    blocks = _tree_blocks(t)
    inside = {b.name: b for b in blocks}
    entry = _tree_entry(t)
    gen, kill = {}, {}
    for b in blocks:
        gen[b.name], kill[b.name] = _block_effects(b)
    succ = {b.name: [s for s in successors(b.term) if s in inside]
            for b in blocks}
    preds = {b.name: [] for b in blocks}
    for name, ss in succ.items():
        for s in ss:
            preds[s].append(name)

    # backward may-liveness: R is what the subtree reads before writing
    live_in = {b.name: set() for b in blocks}
    changed = True
    while changed:
        changed = False
        for b in blocks:
            out = set().union(*(live_in[s] for s in succ[b.name])) \
                if succ[b.name] else set()
            new = gen[b.name] | (out - kill[b.name])
            if new != live_in[b.name]:
                live_in[b.name] = new
                changed = True

    # forward must-definition: W is what every path through writes
    universe = set().union(*kill.values())
    outs = {b.name: universe | kill[b.name] for b in blocks}
    outs[entry.name] = kill[entry.name]
    changed = True
    while changed:
        changed = False
        for b in blocks:
            if b.name == entry.name:
                inn = set()
            else:
                inn = set.intersection(*(outs[p] for p in preds[b.name]))
            new = inn | kill[b.name]
            if new != outs[b.name]:
                outs[b.name] = new
                changed = True
    exits = [b.name for b in blocks
             if len(succ[b.name]) < len(successors(b.term))
             or not successors(b.term)]
    writes = set.intersection(*(outs[e] for e in exits))
    return live_in[entry.name], writes


def _full_demand(t, after):
    """A subtree's demand on entry when every branch routes all of
    `after` through its alternatives."""
    if isinstance(t, CTBlock):
        return (after - t.writes) | t.reads
    if isinstance(t, CTLinear):
        for c in reversed(t.children):
            after = _full_demand(c, after)
        return after
    if isinstance(t, CTBranch):
        return set().union(*(_full_demand(a, after) for a in t.alts))
    return after | t.reads


def _verify_annotation(fn):
    _, tree = prepare_tree(fn, {MEMVAR, IOVAR})

    def walk(t, after):
        r, w = _dataflow_rw(t)
        assert r == t.reads, (fn.name, type(t).__name__, r, t.reads)
        assert w == t.writes, (fn.name, type(t).__name__, w, t.writes)
        m = set().union(*(_block_effects(b)[1] for b in _tree_blocks(t)))
        assert m == t.may_writes, (fn.name, type(t).__name__, m,
                                   t.may_writes)
        if isinstance(t, CTBranch):
            assert t.demand_out <= t.may_writes, (fn.name, t.demand_out)
            assert t.demand_in == _full_demand(t, after), fn.name
            inner = [t.demand_out] * len(t.alts)
        elif isinstance(t, CTLinear):
            inner = [c.demand_in for c in t.children[1:]] + [after]
        else:
            inner = [t.demand_in]
        for c, a in zip(children(t), inner):
            walk(c, a)
    walk(tree, {MEMVAR, IOVAR})


def test_criterion_5_annotation_matches_independent_dataflow():
    """[DERIVED] Tree-algebra read, must-write and may-write sets equal
    a block-level recomputation on every node of every corpus function;
    a branch routes only what it may write, and its demand on entry is
    the one routing everything would give."""
    for fixture in corpus_files():
        mod = load_corpus(fixture)
        for fn in mod.functions.values():
            _verify_annotation(fn)
    for seed in range(0, N_RANDOM, 10):
        mod = _random_module(seed)
        for fn in mod.functions.values():
            _verify_annotation(fn)


def test_criterion_5_translation_finds_every_symbol():
    """[TRIVIAL] No corpus program makes the translator ask for a
    binding it cannot supply."""
    for fixture in corpus_files():
        try:
            construct(load_corpus(fixture))
        except BuildError as e:
            raise AssertionError("%s: %s" % (fixture, e))


def test_criterion_5_gcd_sets_match_committed_constants():
    """[DERIVED] The annotated gcd tree, worked out by hand: the entry
    block reads the parameters and writes x, y; the loop reads and
    demands exactly its live state; demand always threads the state
    pseudo-variables."""
    mod = load_corpus("gcd.ir")
    _, tree = prepare_tree(mod.functions["gcd"], {MEMVAR, IOVAR})
    entry, loop, exit_, ret = tree.children
    assert tree.reads == {"a", "b"}
    assert tree.writes == {".r2", ".rv0", "c", "x", "y"}
    assert tree.demand_in == {".io", ".mem", "a", "b"}
    assert entry.reads == {"a", "b"}
    assert entry.writes == {"x", "y"}
    assert loop.reads == {"x", "y"}
    assert loop.writes == {".r2", "c"}
    assert loop.demand_in == {".io", ".mem", "x", "y"}
    assert exit_.reads == {"x"}
    assert ret.demand_in == {".io", ".mem", ".rv0"}


# -- criterion 6: structural validation ---------------------------------------

def test_criterion_6_validate_after_construction_and_every_pass():
    """[TRIVIAL] run_pipeline validates after each step and raises on
    the first violation; silence over the full corpus is the pass."""
    for fixture in corpus_files():
        g = build(load_corpus(fixture))
        run_pipeline(g, PassConfig(unroll_factor=2))
        assert g.validate() == []
    for seed in range(N_RANDOM):
        g = construct(_random_module(seed))
        assert g.validate() == []
        run_pipeline(g, PassConfig(unroll_factor=2))
        assert g.validate() == []


# -- criterion 7: size relationship -------------------------------------------

def test_criterion_7_node_count_tracks_instruction_count():
    """[DERIVED] Least-squares fit over the full corpus: R^2 above the
    floor, and no program exceeds the committed nodes-per-instruction
    bound."""
    points = []
    for fixture in corpus_files():
        mod = load_corpus(fixture)
        points.append((code_size(mod), node_count(construct(mod))))
    for seed in range(N_RANDOM):
        mod = _random_module(seed)
        points.append((code_size(mod), node_count(construct(mod))))
    assert max(y / x for x, y in points) <= RATIO_BOUND
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in points)
    ss_tot = sum((y - mean_y) ** 2 for _, y in points)
    r_squared = 1 - ss_res / ss_tot
    assert r_squared >= R2_FLOOR, r_squared


# -- criterion 8: unrolling ----------------------------------------------------

def test_criterion_8_unrolled_loops_agree_on_small_trip_counts():
    """[DERIVED] The counted loop returns sum(0..n-1) for every trip
    count 0..17 under factors 1, 2, 4; factor one changes nothing."""
    mod = load_corpus("counted17.ir")
    g = build(mod)
    before = render.dump(g)
    PASSES["URL"](g, factor=1)
    assert render.dump(g) == before
    for factor in (1, 2, 4):
        g = build(mod)
        PASSES["URL"](g, factor=factor)
        assert g.validate() == []
        back = destruct(g)
        check_module(back)
        for n in range(18):
            want = ("ok", [n * (n - 1) // 2], [])
            assert outcome_cfg(mod, "count", [n]) == want
            assert outcome_rvsdg(g, "count", [n]) == want, (factor, n)
            assert outcome_cfg(back, "count", [n]) == want, (factor, n)


# -- criterion 9: determinism ---------------------------------------------------

def test_criterion_9_identical_seeds_identical_bytes():
    """[DERIVED] Generation, construction, rendering, and stats are
    functions of their inputs alone: run twice, compare bytes."""
    for seed in (0, 17, 123):
        assert randprog.generate(seed, size=3) == \
            randprog.generate(seed, size=3)

    def snapshot(path):
        chunks = []
        for argv in (["construct", path], ["dot", path],
                     ["dot", path, "--level", "cfg"],
                     ["stats", path],
                     ["opt", path]):
            out = io.StringIO()
            assert cli.main(argv, out=out) == 0
            chunks.append(out.getvalue())
        return "".join(chunks)

    for fixture in ("gcd.ir", "loop_motion.ir", "mutual.ir",
                    "nested_loops.ir"):
        path = corpus_path(fixture)
        assert snapshot(path) == snapshot(path)
