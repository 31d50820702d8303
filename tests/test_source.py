"""Parser, printer, and checker tests.

[TRIVIAL] oracles assert definitional behavior; [DERIVED] values were
worked out by hand from the grammar and checking rules.
"""

import re

import pytest

from regionir import ops, randprog, restructure
from regionir.build import construct
from regionir.destruct import destruct
from regionir.parser import (ParseError, SourceError, parse, check_module,
                             print_module)
from regionir.source import (Block, Br, Branch, Function, Instr, Lit,
                             Module, Ret, Var, idoms, retarget, successors)
from regionir.types import F64, I64, PTR, intty
from conftest import corpus_files, load_corpus


def test_print_parse_fixpoint(fixture_name):
    """[DERIVED] Printing a parsed module and reparsing it reproduces
    the same printed text (print . parse is a projection)."""
    mod = load_corpus(fixture_name)
    text = print_module(mod)
    again = parse(text)
    check_module(again)
    assert print_module(again) == text


def test_corpus_is_large_enough():
    """[TRIVIAL] The hand-written corpus holds at least 25 programs."""
    assert len(corpus_files()) >= 25


def test_parse_error_carries_position():
    """[TRIVIAL] A truncated definition raises with line:column."""
    with pytest.raises(ParseError) as e:
        parse("export define i64 @f(")
    assert "1:" in str(e.value)


# A %name that starts with '.' at each place a variable is defined or used.
_RESERVED_AT = {
    "dest": "e:\n  %NAME = add i64 %a, 1\n  ret i64 %a\n",
    "operand": "e:\n  %x = add i64 %NAME, 1\n  ret i64 %x\n",
    "param": "e:\n  ret i64 %a\n",
    "phi": "e:\n  br label %j\nj:\n  %NAME = phi i64 [%a, %e]\n  ret i64 %a\n",
}


@pytest.mark.parametrize("where", sorted(_RESERVED_AT))
@pytest.mark.parametrize("name", [".mem", ".io", ".r0"])
def test_names_that_start_with_a_dot_are_reserved(where, name):
    """[TRIVIAL] '.mem', '.io' and construction's fresh names all start
    with '.', so the parser rejects every such %name and names it."""
    param = "%NAME" if where == "param" else "%b"
    text = ("export define i64 @f(i64 %a, i64 " + param + ") {\n"
            + _RESERVED_AT[where] + "}\n").replace("NAME", name)
    with pytest.raises(ParseError, match=re.escape("%" + name + " is reserved")):
        parse(text)


def test_undefined_use_rejected():
    """[TRIVIAL] Using a name with no definition is a source error."""
    with pytest.raises(SourceError, match="undefined"):
        check_module(parse(
            "define i64 @f(i64 %a) { e: ret i64 %b }"))


def test_branch_selector_narrowing_rejected():
    """[DERIVED] A branch may not declare its selector narrower than
    the variable: the declared width would clip bits the variable has."""
    with pytest.raises(SourceError, match="selector"):
        check_module(parse(
            "define i64 @f(i64 %a) {\n"
            "e:\n  branch i1 %a, [%x, %y]\n"
            "x:\n  ret i64 %a\ny:\n  ret i64 %a\n}"))


def test_branch_selector_widening_allowed():
    """[DERIVED] Declaring the selector wider than the variable is
    harmless: the value is reused unchanged, and construction matches
    it at the variable's own type."""
    mod = parse(
        "define i64 @f(i64 %a) {\n"
        "e:\n  %c = ne i64 %a, 0\n  branch i64 %c, [%x, %y]\n"
        "x:\n  ret i64 %a\ny:\n  ret i64 0\n}")
    check_module(mod)
    assert construct(mod).validate() == []


def test_ret_narrowing_rejected():
    """[DERIVED] Returning an i64 variable at i8 would clip it."""
    with pytest.raises(SourceError, match="returns"):
        check_module(parse("define i64 @f(i64 %a) { e: ret i8 %a }"))


# `%w = copy i64 %c` copies an i1 as an i64.  Construction binds %w to
# the i1 value itself, so accepting it would give @f an i1 result.
RETYPING_COPY = ("export define i64 @f(i64 %a) {\n"
                 "e:\n  %c = lt i64 %a, 0\n  %w = copy i64 %c\n"
                 "  ret i64 %w\n}")


def test_retyping_copy_rejected():
    """[DERIVED] A copy must declare its variable operand's own type."""
    with pytest.raises(SourceError, match="copies %c as i64 but it is i1"):
        check_module(parse(RETYPING_COPY))
    check_module(parse(RETYPING_COPY.replace("copy i64 %c", "copy i1 %c")
                       .replace("define i64", "define i1")
                       .replace("ret i64", "ret i1")))


WIDENING_RET = ("export define i64 @w(i64 %a) {\n"
                "e:\n  %x = copy i8 100\n  ret i64 %x\n}")


def test_widening_ret_rejected():
    """[DERIVED] A ret must declare its variable operand's own type:
    `ret i64 %x` with an i8 `%x` would make the function return i8."""
    with pytest.raises(SourceError, match="returns %x as i64 but it is i8"):
        check_module(parse(WIDENING_RET))
    check_module(parse(WIDENING_RET.replace("define i64", "define i8")
                       .replace("ret i64", "ret i8")))


@pytest.mark.parametrize("call", ["%x = call i64 @sq(i8 5)",
                                  "%x = call i64 @sq(i64 5, i64 6)",
                                  "%x = call i64 @sq()",
                                  "%x = call i8 @sq(i64 5)",
                                  "%x = call i64 @v()"])
def test_call_with_other_types_than_the_callee_rejected(call):
    """[TRIVIAL] A call declares its callee's parameter types, and its
    result type when it names a result: construction gives a literal
    argument its parameter's type and binds the result by the callee."""
    with pytest.raises(SourceError):
        parse("define i64 @sq(i64 %v) {\ne:\n  %r = mul i64 %v, %v\n"
              "  ret i64 %r\n}\ndefine () @v() {\ne:\n  ret\n}\n"
              "export define i64 @f() {\ne:\n  " + call + "\n"
              "  ret i64 %x\n}\n")


def test_operand_types_of_every_simple_instruction():
    """[DERIVED] One table types the operands of every instruction but a
    call, the checker's and the interpreter's: a copy takes the type it
    declares, a store its value then its address, gep a pointer and an
    i64 index."""
    i8 = intty(8)
    assert ops.operand_types("copy", i8) == (i8,)
    assert ops.operand_types("add", i8) == (i8, i8)
    assert ops.operand_types("neg", F64) == (F64,)
    assert ops.operand_types("load", i8) == (PTR,)
    assert ops.operand_types("store", i8) == (i8, PTR)
    assert ops.operand_types("gep", F64) == (PTR, I64)
    assert ops.operand_types("alloca", i8) == ()


def test_literal_callee_rejected():
    """[TRIVIAL] The checker, not only the parser, refuses a literal
    callee: a hand-built module that calls 5 is bad input, where
    `construct` would fail on it with an AttributeError."""
    call = Instr("call", dest="r", ty=I64, operands=[Var("a")],
                 callee=Lit(5), arg_tys=[I64])
    fn = Function("f", [("a", I64)], I64, export=True,
                  blocks=[Block("e", instrs=[call], term=Ret(I64, Var("r")))])
    with pytest.raises(SourceError, match="callee 5 must be a function"):
        check_module(Module(functions={"f": fn}, order=["f"]))
    with pytest.raises(SourceError, match="callee 5 must be a function"):
        parse("export define i64 @f(i64 %a) {\ne:\n"
              "  %r = call i64 5(i64 %a)\n  ret i64 %r\n}\n")


@pytest.mark.parametrize("literal", ["1.0e100", "1.5e-07", "-0.0"])
def test_f64_literals_print_and_parse_back(literal):
    """[DERIVED] An f64 literal prints as the tokenizer reads it back,
    with a '.' in its mantissa (`1.0e+100`), and keeps its value and
    sign: printing a parsed module is a fixpoint."""
    text = ("export define f64 @f(f64 %a) {\ne:\n  %x = add f64 %a, "
            + literal + "\n  ret f64 %x\n}\n")
    printed = print_module(parse(text))
    again = parse(printed)
    assert print_module(again) == printed
    value = again.functions["f"].blocks[0].instrs[0].operands[1].value
    assert value.hex() == float(literal).hex()


def test_call_may_drop_the_result():
    """[TRIVIAL] A call that names no result may ignore the callee's."""
    parse("define i64 @sq(i64 %v) {\ne:\n  %r = mul i64 %v, %v\n"
          "  ret i64 %r\n}\nexport define () @f() {\ne:\n"
          "  call () @sq(i64 5)\n  ret\n}\n")


def test_unknown_callee_rejected():
    """[TRIVIAL] Calling a name that is neither defined nor declared
    external fails the check."""
    with pytest.raises(SourceError):
        check_module(parse(
            "define i64 @f(i64 %a) {\n"
            "e:\n  %r = call i64 @nowhere(i64 %a)\n  ret i64 %r\n}"))


def test_branch_needs_two_targets():
    """[TRIVIAL] A multiway branch with a single target is malformed."""
    with pytest.raises((ParseError, SourceError)):
        check_module(parse(
            "define i64 @f(i64 %a) {\n"
            "e:\n  branch i64 %a, [%x]\nx:\n  ret i64 %a\n}"))


def test_phi_entries_match_predecessors():
    """[TRIVIAL] A phi listing a non-predecessor block is rejected."""
    with pytest.raises(SourceError):
        check_module(parse(
            "define i64 @f(i64 %a) {\n"
            "e:\n  br label %x\n"
            "x:\n  %v = phi i64 [%a, %e], [%a, %nothere]\n  ret i64 %v\n}"))


def test_comments_and_negative_literals():
    """[TRIVIAL] Both comment styles parse; negative literals work."""
    mod = parse(
        "; leading comment\n"
        "# another style\n"
        "define i64 @f() {\n"
        "e:\n  %v = copy i64 -16  ; trailing\n  ret i64 %v\n}")
    check_module(mod)
    fn = mod.functions["f"]
    assert fn.blocks[0].instrs[0].operands[0].value == -16


def _brute_idoms(fn):
    """Immediate dominators from the definition: d dominates n iff n is
    unreachable from the entry once d is removed.  Unreachable blocks
    are left out, as in `idoms`."""
    bmap = fn.block_map()
    entry = fn.blocks[0].name

    def reach(without):
        seen, stack = set(), [entry]
        while stack:
            n = stack.pop()
            if n not in seen and n != without:
                seen.add(n)
                stack.extend(successors(bmap[n].term))
        return seen

    live = reach(None)
    dom = {n: {d for d in live if d == n or n not in reach(d)} for n in live}
    out = {}
    for n, ds in dom.items():
        strict = ds - {n}
        # the strict dominator that every other strict dominator dominates
        close = [d for d in strict if strict <= dom[d]]
        assert len(close) <= 1
        out[n] = close[0] if close else None
    return out


def _dominator_cases():
    for name in ("irreducible.ir", "multi_exit.ir", "nested_loops.ir"):
        mod = load_corpus(name)
        for fn in mod.functions.values():
            yield fn
    for seed in range(4):
        back = destruct(construct(parse(randprog.generate(seed, size=2))))
        for fn in back.functions.values():
            yield fn


def test_idoms_match_the_definition():
    """[DERIVED] Cooper-Harvey-Kennedy immediate dominators equal the
    ones read off the reachability definition of dominance, on the
    irreducible, multi-exit and nested-loop corpus functions and on
    destructed random programs."""
    cases = 0
    for fn in _dominator_cases():
        assert idoms(fn) == _brute_idoms(fn), fn.name
        cases += 1
    assert cases >= 8


def test_retarget_moves_every_matching_edge():
    """[TRIVIAL] Every target equal to the old label moves, and the
    result says whether any did; restructuring, which only retargets
    edges it has found, raises when there is none."""
    branch = Branch(I64, Var("s"), ["a", "b", "a"])
    assert retarget(branch, "a", "c")
    assert branch.targets == ["c", "b", "c"]
    assert not retarget(branch, "a", "d")
    assert branch.targets == ["c", "b", "c"]
    jump = Br("a")
    assert retarget(jump, "a", "c") and jump.target == "c"
    assert not retarget(Ret(), "a", "c")
    block = parse("define () @f() {\ne:\n  br label %x\nx:\n  ret\n}") \
        .functions["f"].blocks[0]
    with pytest.raises(restructure.RestructureError):
        restructure._retarget(block, "y", "z")
