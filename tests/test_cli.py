"""Command line driver tests.

Exit codes and output formats are contractual: 0 success, 1 bad input,
2 equivalence failure, 3 broken internal invariant.  All oracles here
are [TRIVIAL] (documented contract) or [DERIVED] (hand-computed
expectations on committed fixtures).
"""

import io
import random

import pytest

from regionir import build, cli
from regionir.controltree import IrreducibleError
from regionir.destruct import DestructError, destruct
from regionir.interp import DEFAULT_FUEL, Machine, eval_cfg
from regionir.parser import parse_file
from regionir.passes import DEFAULT_ORDER, run_pipeline
from regionir.randprog import random_args
from regionir.graph import Graph, GraphError

from conftest import corpus_path


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def test_check_reports_counts():
    """[TRIVIAL]"""
    code, text = run_cli("check", corpus_path("max_puts.ir"))
    assert code == 0
    assert "2 functions" in text and "1 externals" in text


def test_check_rejects_garbage(tmp_path):
    """[TRIVIAL] Unparseable input exits 1."""
    p = tmp_path / "bad.ir"
    p.write_text("define i64 @f(")
    code, _ = run_cli("check", str(p))
    assert code == 1


def test_check_rejects_retyping_copy(tmp_path):
    """[TRIVIAL] A copy that changes its operand's type is bad input."""
    p = tmp_path / "mix.ir"
    p.write_text("export define i64 @f(i64 %a) {\n"
                 "e:\n  %c = lt i64 %a, 0\n  %w = copy i64 %c\n"
                 "  ret i64 %w\n}\n")
    code, _ = run_cli("check", str(p))
    assert code == 1


def test_check_rejects_widening_ret(tmp_path):
    """[TRIVIAL] A ret that changes its operand's type is bad input."""
    p = tmp_path / "widen.ir"
    p.write_text("export define i64 @w(i64 %a) {\n"
                 "e:\n  %x = copy i8 100\n  ret i64 %x\n}\n")
    code, _ = run_cli("check", str(p))
    assert code == 1


# Programs that the checker rejects, each with the position it names.
# Construction types every operand by its position, so each would
# otherwise fail in `construct` or, for ret.ir, build an i8 function.
# An operation on a type `ops.SEMANTICS` does not define it on would
# reach an interpreter: a TypeError, a wrong value or a `type` trap.
_GLOBAL = "global i64 @g = {\ne:\n  ret i64 5\n}\n"
_LT = "export define i64 @f(i64 %a) {\ne:\n  %c = lt i64 %a, 0\n"
_F = "export define i64 @f(i64 %a) {\ne:\n"
_FF = "export define f64 @f(f64 %a) {\ne:\n"
ILL_TYPED = {
    "phi.ir": (_LT + "  branch i1 %c, [%l, %r]\nl:\n  br label %j\n"
               "r:\n  br label %j\nj:\n  %w = phi i64 [%c, %l], [7, %r]\n"
               "  ret i64 %w\n}\n",
               "f: phi %w takes %c as i64 but it is i1"),
    "add.ir": (_LT + "  %w = add i64 %c, 1\n  ret i64 %w\n}\n",
               "f: %w = add takes %c as i64 but it is i1"),
    "mix.ir": (_LT + "  %w = copy i64 %c\n  ret i64 %w\n}\n",
               "f: copies %c as i64 but it is i1"),
    "global_add.ir": (_GLOBAL + "export define i64 @f(i64 %a) {\ne:\n"
                      "  %w = add i64 @g, 1\n  ret i64 %w\n}\n",
                      "f: %w = add takes @g as i64 but it is ptr"),
    "global_call.ir": (_GLOBAL + "export define i64 @f(i64 %a) {\ne:\n"
                       "  %w = call i64 @g(i64 %a)\n  ret i64 %w\n}\n",
                       "f: calls @g as fn(i64) -> i64 but it is ptr"),
    "ret.ir": ("export define i64 @f(i64 %a) {\ne:\n  ret i8 5\n}\n",
               "f: returns 5 as i8 but the result is i64"),
    "void_ret.ir": ("export define () @f(i64 %a) {\ne:\n  ret i64 %a\n}\n",
                    "f: returns %a as i64 but the result is ()"),
    "stateful_global.ir": ("global i64 @g = {\ne:\n  %p = alloca i64\n"
                           "  store i64 5, %p\n  %v = load i64, %p\n"
                           "  ret i64 %v\n}\n",
                           "initializer of @g uses stateful operation alloca"),
    "recursive_global.ir": ("global fn(i64) -> i64 @g = {\ne:\n"
                            "  ret fn(i64) -> i64 @f\n}\n"
                            "export define i64 @f(i64 %a) {\ne:\n"
                            "  %p = load fn(i64) -> i64, @g\n"
                            "  ret i64 %a\n}\n",
                            "@g is in a recursive cycle but is not a function"),
    "lt_fn.ir": (_F + "  %c = lt fn(i64) -> i64 @f, @f\n  ret i64 %a\n}\n",
                 "f: %c = lt is not defined on fn(i64) -> i64"),
    "add_ptr.ir": (_GLOBAL + _F + "  %p = add ptr @g, @g\n  ret i64 %a\n}\n",
                   "f: %p = add is not defined on ptr"),
    "neg_ptr.ir": (_GLOBAL + _F + "  %p = neg ptr @g\n  ret i64 %a\n}\n",
                   "f: %p = neg is not defined on ptr"),
    "rem_f64.ir": (_FF + "  %r = rem f64 %a, 2.0\n  ret f64 %r\n}\n",
                   "f: %r = rem is not defined on f64"),
    "shl_f64.ir": (_FF + "  %r = shl f64 %a, 2.0\n  ret f64 %r\n}\n",
                   "f: %r = shl is not defined on f64"),
    "huge_literal.ir": (_F + "  %x = add i64 %a, 1.0e400\n  ret i64 %x\n}\n",
                        "f: literal inf has no i64 value"),
    "huge_f64.ir": (_FF + "  %x = add f64 %a, 1.0e400\n  ret f64 %x\n}\n",
                    "f: literal inf has no f64 value"),
}


@pytest.mark.parametrize("name", sorted(ILL_TYPED))
def test_check_rejects_ill_typed_operands(tmp_path, capsys, name):
    """[DERIVED] `check` exits 1 on an operand whose type is not the
    one its position expects, or an operation on a type it is not
    defined on, and names the position without a traceback."""
    text, message = ILL_TYPED[name]
    p = tmp_path / name
    p.write_text(text)
    code, _ = run_cli("check", str(p))
    assert code == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


# Programs that name a variable like a pseudo-variable of construction.
RESERVED = {
    ".mem": (_F + "  %.mem = add i64 %a, 1\n  %p = alloca i64\n"
             "  store i64 %.mem, %p\n  %v = load i64, %p\n  ret i64 %v\n}\n"),
    ".io": ("external @puts : fn(i64) -> ()\n" + _F
            + "  %.io = add i64 %a, 1\n  call () @puts(i64 %.io)\n"
            "  ret i64 %.io\n}\n"),
}


@pytest.mark.parametrize("name", sorted(RESERVED))
def test_reserved_names_exit_one(tmp_path, capsys, name):
    """[DERIVED] A %variable named like '.mem' or '.io' is bad input,
    named in the message, not a broken graph (exit 3)."""
    p = tmp_path / "reserved.ir"
    p.write_text(RESERVED[name])
    code, _ = run_cli("run", str(p), "--args", "5")
    assert code == 1
    err = capsys.readouterr().err
    assert "%" + name + " is reserved" in err and "Traceback" not in err


def test_missing_file_exits_one():
    """[TRIVIAL]"""
    code, _ = run_cli("check", "no/such/file.ir")
    assert code == 1


def test_run_compares_both_levels():
    """[DERIVED] gcd(48,18)=6, printed once when both levels agree."""
    code, text = run_cli("run", corpus_path("gcd.ir"), "--args", "48,18")
    assert code == 0
    assert "ret=6" in text


def test_run_detects_divergence(monkeypatch):
    """[TRIVIAL] A disagreement between the levels exits 2."""
    real = cli.eval_rvsdg
    monkeypatch.setattr(cli, "eval_rvsdg",
                        lambda *a, **k: ([None], []))
    code, _ = run_cli("run", corpus_path("gcd.ir"), "--args", "48,18")
    assert code == 2
    monkeypatch.setattr(cli, "eval_rvsdg", real)


USAGE_ERRORS = {
    "no_command": [],
    "no_file": ["run"],
    "unknown_command": ["bogus", corpus_path("gcd.ir")],
    "bad_fuel": ["run", corpus_path("gcd.ir"), "--fuel", "abc"],
    "zero_unroll": ["opt", corpus_path("gcd.ir"), "--unroll-factor", "0"],
    "zero_samples": ["roundtrip", corpus_path("gcd.ir"), "--samples", "0"],
    "unknown_pass": ["opt", corpus_path("gcd.ir"), "--passes", "DNE,FOO"],
    "bad_args": ["run", corpus_path("gcd.ir"), "--args", "48,abc"],
    "wrong_arity": ["run", corpus_path("gcd.ir"), "--args", "48"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_errors_exit_one(capsys, name):
    """[TRIVIAL] A malformed command line is bad input, not a
    disagreement, and is reported without a traceback."""
    code, _ = run_cli(*USAGE_ERRORS[name])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_help_exits_zero():
    """[TRIVIAL]"""
    assert run_cli("--help")[0] == 0


def _raising(exc):
    def boom(*args):
        raise exc("synthetic breakage")
    return boom


# (command line after the file, breakage): each breaks one internal
# invariant while the command runs on gcd.ir
BREAKAGES = {
    "pass": (["opt", "--passes", "DNE"], lambda mp: mp.setitem(
        cli.run_pipeline.__globals__["PASSES"], "DNE", _raising(GraphError))),
    "destruct": (["opt"], lambda mp: mp.setattr(
        cli, "destruct", _raising(DestructError))),
    "control_tree": (["construct"], lambda mp: mp.setattr(
        build, "build_control_tree", _raising(IrreducibleError))),
    "validate": (["construct"], lambda mp: mp.setattr(
        Graph, "validate", lambda self: ["synthetic breakage"])),
}


@pytest.mark.parametrize("name", sorted(BREAKAGES))
def test_internal_invariant_breakage_exits_three(monkeypatch, name):
    """[TRIVIAL] A pass that corrupts the graph, a graph `destruct`
    cannot lower, an irreducible control tree and a graph `construct`
    leaves broken are reported as internal errors, not as user
    mistakes."""
    (cmd, *flags), breakage = BREAKAGES[name]
    breakage(monkeypatch)
    code, _ = run_cli(cmd, corpus_path("gcd.ir"), *flags)
    assert code == 3


def test_pass_breaking_the_graph_mid_schedule_exits_three(monkeypatch,
                                                        capsys):
    """[TRIVIAL] A pass that leaves the graph broken in the middle of the
    default schedule is an internal error named by its step."""
    def breaking(g):
        gamma = next(n for n in g.all_nodes() if n.kind == "gamma")
        g._splice(gamma.subregions[0], "args", [gamma.inputs[0].ty])

    monkeypatch.setitem(cli.run_pipeline.__globals__["PASSES"], "PSH",
                        breaking)
    code, _ = run_cli("opt", corpus_path("collatz.ir"))
    assert code == 3
    assert "internal error: step 07 (PSH) broke the graph" in \
        capsys.readouterr().err


def test_opt_output_with_folded_floats_reparses(tmp_path):
    """[DERIVED] RED folds 1.0e100 * 1.0e100 to 1.0e+200, which prints
    with a '.' in its mantissa, and leaves 1.0 / 0.0 unfolded, since no
    literal spells +inf: the output of `opt` checks, and runs to the
    same result as its input."""
    src = tmp_path / "fold.ir"
    src.write_text("export define f64 @f() {\ne:\n"
                   "  %a = div f64 1.0, 0.0\n"
                   "  %b = mul f64 1.0e100, 1.0e100\n"
                   "  %c = add f64 %a, %b\n  ret f64 %c\n}\n")
    code, text = run_cli("opt", str(src))
    assert code == 0
    assert "div f64 1.0, 0.0" in text and "1.0e+200" in text
    out = tmp_path / "opt.ir"
    out.write_text(text)
    assert run_cli("check", str(out))[0] == 0
    assert run_cli("run", str(out)) == run_cli("run", str(src))


def test_endless_function_with_a_result(tmp_path):
    """[DERIVED] A function with a result that no path returns passes
    the check and constructs: its return value is an `undef` that never
    runs.  It runs out of fuel at each level, and its round trip
    closes."""
    p = tmp_path / "spin.ir"
    p.write_text("export define i64 @spin(i64 %x) {\nentry:\n"
                 "  br label %loop\nloop:\n  %x = add i64 %x, 1\n"
                 "  br label %loop\n}\n")
    for level in ("cfg", "rvsdg", "both"):
        code, text = run_cli("run", str(p), "--args", "1", "--fuel", "100",
                             "--level", level)
        assert (code, text.strip()) == (0, "trap: fuel"), level
    code, text = run_cli("roundtrip", str(p), "--samples", "3",
                         "--fuel", "100")
    assert code == 0
    assert "@spin: 3 samples ok" in text


def test_opt_leaves_an_endless_loop_one_constant_branch():
    """[DERIVED] The loop's constant predicate reaches its unrolled body
    as an invariant loop variable, and RED reads it there: the copies'
    exit tests are inlined, and only the loop's own `branch i64 1`
    is left."""
    code, text = run_cli("opt", corpus_path("endless.ir"))
    assert code == 0
    assert text.count("branch i64 1,") == 1


def test_opt_then_stats_shows_the_merged_multiplication(tmp_path):
    """[DERIVED] CNE+DNE merges one of four multiplications: stats on
    the optimized output reports op.mul=3 where the input had 4."""
    code, before = run_cli("stats", corpus_path("mul_chain.ir"))
    assert code == 0 and "op.mul=4" in before
    code, text = run_cli("opt", corpus_path("mul_chain.ir"),
                         "--passes", "CNE,DNE")
    assert code == 0
    p = tmp_path / "opt.ir"
    p.write_text(text)
    code, after = run_cli("stats", str(p))
    assert code == 0 and "op.mul=3" in after


def test_stats_reports_dead_nodes():
    """[DERIVED] The committed dead-code fixture has exactly two dead
    nodes before cleanup."""
    code, text = run_cli("stats", corpus_path("deadcode.ir"))
    assert code == 0
    assert "dead=2" in text
    code, text = run_cli("stats", corpus_path("deadcode.ir"),
                         "--passes", "DNE")
    assert code == 0
    assert "dead=0" in text


def test_stats_counts_edges():
    """[DERIVED] edges= counts connected node inputs and region results.
    In loop_in_branch.ir only the returned value leaves the gamma: its
    alternatives touch no state and the loop inside one of them carries
    no state either, which leaves 34 edges (59 if every demanded
    variable went through the gamma)."""
    code, text = run_cli("stats", corpus_path("loop_in_branch.ir"))
    assert code == 0
    assert "nodes=20\nedges=34\n" in text


def test_roundtrip_command_samples_random_inputs():
    """[TRIVIAL]"""
    code, text = run_cli("roundtrip", corpus_path("popcount.ir"),
                         "--samples", "20")
    assert code == 0
    assert "@popcount: 20 samples ok" in text


def test_roundtrip_reports_the_fuel_of_both_sources():
    """[DERIVED] The line ends with the fuel the samples used on the
    source and on the destructed module, after the default schedule:
    the sums of what `eval_cfg` counts on the same inputs."""
    code, text = run_cli("roundtrip", corpus_path("collatz.ir"),
                         "--samples", "5", "--passes", DEFAULT_ORDER)
    assert code == 0
    mod = parse_file(corpus_path("collatz.ir"))
    g = build.construct(mod)
    run_pipeline(g)
    rng = random.Random(0)
    used = [0, 0]
    for _ in range(5):
        args = random_args(rng, mod.functions["collatz"].params)
        for i, m in enumerate((mod, destruct(g))):
            machine = Machine()
            eval_cfg(m, "collatz", list(args), machine=machine)
            used[i] += DEFAULT_FUEL - machine.fuel
    assert text.splitlines()[1:] == [
        "@collatz: 5 samples ok, steps %d -> %d" % tuple(used)]


def test_roundtrip_reports_the_size_of_both_sources(tmp_path):
    """[DERIVED] The first line gives the code size of the source and of
    the destructed module: what `stats` counts as `instrs=` on the file
    and on the output of `opt`, which runs the same schedule."""
    path = corpus_path("collatz.ir")
    code, text = run_cli("roundtrip", path, "--samples", "1",
                         "--passes", DEFAULT_ORDER)
    assert code == 0
    p = tmp_path / "opt.ir"
    p.write_text(run_cli("opt", path)[1])
    sizes = [int(line.split("=")[1]) for f in (path, str(p))
             for line in run_cli("stats", f)[1].splitlines()
             if line.startswith("instrs=")]
    assert sizes[0] < sizes[1]
    assert text.splitlines()[0] == "size %d -> %d" % tuple(sizes)


def test_construct_and_dot_are_deterministic():
    """[DERIVED] Two invocations produce byte-identical dumps, DOT at
    every level, and stats."""
    for argv in (("construct", corpus_path("nested_loops.ir")),
                 ("dot", corpus_path("nested_loops.ir")),
                 ("dot", corpus_path("nested_loops.ir"), "--level", "cfg"),
                 ("dot", corpus_path("nested_loops.ir"), "--level", "tree"),
                 ("stats", corpus_path("nested_loops.ir"))):
        a = run_cli(*argv)
        b = run_cli(*argv)
        assert a == b and a[0] == 0


def test_dot_emits_graphviz():
    """[TRIVIAL]"""
    code, text = run_cli("dot", corpus_path("gcd.ir"))
    assert code == 0
    assert text.startswith("digraph") and "subgraph" in text


def test_run_requires_fn_when_ambiguous():
    """[TRIVIAL] Several exports and no --fn is a usage error."""
    code, _ = run_cli("run", corpus_path("indirect_calls.ir"),
                      "--fn", "nothere", "--args", "1")
    assert code == 1


def test_fuel_flag_limits_execution():
    """[TRIVIAL] The endless fixture traps identically on both levels
    under a small fuel bound, which counts as agreement."""
    code, text = run_cli("run", corpus_path("endless.ir"),
                         "--args", "1", "--fuel", "3000")
    assert code == 0
    assert "trap: fuel" in text
