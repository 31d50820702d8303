"""Type interning: one object per type.

[DERIVED] oracles: the canonical object of a type is the one its
constructor in `regionir.types` returns for the type's fields, so every
type reachable from a module or a graph must be that object.
"""

import pytest

from regionir.build import construct
from regionir.destruct import destruct
from regionir.passes import run_pipeline
from regionir.source import Branch, Ret
from regionir.types import (F64, IO, MEM, PTR, ctl, fnty, intty, lift,
                            lower)

from conftest import LADDER, corpus_files, load_source, ports_and_uses

FIXED = {"f64": F64, "ptr": PTR, "mem": MEM, "io": IO}


def _canonical(ty):
    if ty.kind == "int":
        return intty(ty.width)
    if ty.kind == "ctl":
        return ctl(ty.k)
    if ty.kind == "fn":
        return fnty(ty.params, ty.results)
    return FIXED[ty.kind]


def _assert_interned(ty, where):
    assert ty is _canonical(ty), (where, str(ty))
    if ty.kind == "fn":
        for t in ty.params + ty.results:
            _assert_interned(t, where)


def _module_types(mod):
    """Every type a module holds: parameter, return, phi, instruction,
    call-argument and terminator types, cell types and external
    declarations."""
    bodies = []
    for fn in mod.functions.values():
        yield from (t for _, t in fn.params)
        yield fn.ret_ty
        bodies.append(fn.blocks)
    for gv in mod.globals_.values():
        yield gv.ty
        bodies.append(gv.blocks)
    yield from mod.externals.values()
    for blocks in bodies:
        for b in blocks or ():
            yield from (p.ty for p in b.phis)
            for i in b.instrs:
                yield i.ty
                yield from i.arg_tys
            if isinstance(b.term, (Branch, Ret)):
                yield b.term.ty


def _assert_module_interned(mod, where):
    for ty in _module_types(mod):
        if ty is not None:
            _assert_interned(ty, where)


def _assert_graph_interned(g, where):
    for slot in ports_and_uses(g):
        ty = slot.ty
        _assert_interned(ty, where)
        if ty.kind == "fn":
            assert lift(lower(ty)) is ty, (where, str(ty))


@pytest.mark.parametrize("source", corpus_files() + LADDER)
def test_every_type_is_the_canonical_object(source):
    """[DERIVED] Every type in the parsed module, in the graph after
    `construct` and after the default schedule, and in the destructed
    module is the object its constructor returns; every function type
    on a graph port survives `lower` then `lift` as the same object."""
    mod = load_source(source)
    _assert_module_interned(mod, "parse")
    g = construct(mod)
    _assert_graph_interned(g, "construct")
    run_pipeline(g)
    _assert_graph_interned(g, "pipeline")
    _assert_module_interned(destruct(g), "destruct")


def test_equal_types_are_one_object():
    """[TRIVIAL] Building a type twice gives the same object, so `==` is
    `is`; different types stay apart."""
    f = fnty([intty(64), PTR], [intty(1)])
    assert fnty((intty(64), PTR), (intty(1),)) is f
    assert ctl(3) is ctl(3) and ctl(3) != ctl(2)
    assert lift(f) is lift(fnty([intty(64), PTR], [intty(1)]))
    assert lower(lift(f)) is f
    assert f != fnty([intty(64), PTR], [intty(8)])
    assert len({f, fnty([intty(64), PTR], [intty(1)])}) == 1
