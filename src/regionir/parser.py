"""Parser, checker and printer for the textual source IR.

The grammar is in the Source IR section of README.md.
print(parse(text)) reaches a fixpoint after one round.

Typing rule (`check_module`).  A %variable has the one type its
assignments declare, and an @name the type `Module.ref_type` gives it.
Every operand position has one expected type, the type `construct`
gives the port it fills, and a variable or @name there must have it
(a literal takes it):

- a simple instruction's operand: its node's input by
  `SimpleOp.signature`, put in operand order by `ops.node_order`; an
  operation the signature does not define on its type is an error;
- a phi entry: the phi's type;
- copy and ret: the declared type, and a ret declares its function's
  result type (its global's, in an initializer);
- a call argument: its declared parameter type;
- the callee: a function with the declared parameter types, and the
  declared result type when the call names a result.

The one exception is the branch selector, which may be declared wider
than its variable: the value is the same, and out-of-range selectors
take the last target.  A global's initializer runs without the state
edges, so it may not allocate, load, store or call.  Only functions may
reference each other in a cycle: `construct` builds a recursive group as
a recursion environment of lambdas, so a global in a cycle is an error.
"""

import re

from . import ops
from .types import F64, PTR, intty, fnty, INT_WIDTHS
from .source import (Module, Function, GlobalVar, Block, Instr, Phi, Br, Branch,
                     Ret, Var, Lit, GlobalRef, ARITH, CMP, validate_cfg,
                     compute_ipg)
from .restructure import tarjan


class ParseError(Exception):
    def __init__(self, msg, line, col):
        super().__init__("%d:%d: %s" % (line, col, msg))
        self.line = line
        self.col = col


_TOKEN = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>[;#][^\n]*)
  | (?P<nl>\n)
  | (?P<float>-?\d+\.\d+(?:[eE][-+]?\d+)?)
  | (?P<int>-?\d+)
  | (?P<var>%[A-Za-z_.][A-Za-z0-9_.]*)
  | (?P<glob>@[A-Za-z_.][A-Za-z0-9_.]*)
  | (?P<word>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<punct>->|[()\[\]{}=:,])
""", re.VERBOSE)


def _tokenize(text):
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        val = m.group()
        if kind == "nl":
            line += 1
            col = 1
        else:
            if kind not in ("ws", "comment"):
                toks.append((kind, val, line, col))
            col += len(val)
        pos = m.end()
    toks.append(("eof", "", line, col))
    return toks


class Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def error(self, msg):
        _, _, line, col = self.peek()
        raise ParseError(msg, line, col)

    def expect(self, val):
        kind, v, line, col = self.next()
        if v != val:
            raise ParseError("expected %r, found %r" % (val, v), line, col)

    def accept(self, val):
        if self.peek()[1] == val:
            self.next()
            return True
        return False

    def parse_list(self, item, open_="(", close=")"):
        """`open_ item, ... close`, possibly empty."""
        self.expect(open_)
        out = []
        if not self.accept(close):
            out.append(item())
            while self.accept(","):
                out.append(item())
            self.expect(close)
        return out

    def _label(self):
        kind, v, line, col = self.next()
        if kind != "var":
            raise ParseError("expected a label", line, col)
        return v[1:]

    # -- types ------------------------------------------------------------

    def parse_type(self):
        kind, v, line, col = self.next()
        if v.startswith("i") and v[1:].isdigit() and int(v[1:]) in INT_WIDTHS:
            return intty(int(v[1:]))
        if v == "f64":
            return F64
        if v == "ptr":
            return PTR
        if v == "fn":
            params = self.parse_list(self.parse_type)
            self.expect("->")
            if self.peek()[1] == "(":
                return fnty(params, self.parse_list(self.parse_type))
            return fnty(params, [self.parse_type()])
        raise ParseError("expected a type, found %r" % v, line, col)

    # -- operands ---------------------------------------------------------

    def parse_operand(self):
        kind, v, line, col = self.next()
        if kind == "var":
            return Var(v[1:])
        if kind == "glob":
            return GlobalRef(v[1:])
        if kind == "int":
            return Lit(int(v))
        if kind == "float":
            return Lit(float(v))
        raise ParseError("expected an operand, found %r" % v, line, col)

    # -- module -----------------------------------------------------------

    def parse_module(self):
        mod = Module()
        while True:
            kind, v, _, _ = self.peek()
            if kind == "eof":
                break
            export = False
            if v == "export":
                self.next()
                export = True
                v = self.peek()[1]
            if v == "define":
                self.next()
                self._parse_define(mod, export)
            elif v == "global":
                self.next()
                self._parse_global(mod, export)
            elif v == "external":
                if export:
                    self.error("externals cannot be exported")
                self.next()
                self._parse_external(mod)
            else:
                self.error("expected 'define', 'global', or 'external'")
        check_module(mod)
        return mod

    def _name(self):
        kind, v, line, col = self.next()
        if kind != "glob":
            raise ParseError("expected @name, found %r" % v, line, col)
        return v[1:]

    def _unique(self, mod, name):
        if name in mod.order:
            self.error("duplicate definition of @%s" % name)

    def _parse_external(self, mod):
        name = self._name()
        self._unique(mod, name)
        self.expect(":")
        mod.externals[name] = self.parse_type()
        mod.order.append(name)

    def _parse_global(self, mod, export):
        ty = self.parse_type()
        name = self._name()
        self._unique(mod, name)
        self.expect("=")
        self.expect("{")
        blocks = self.parse_blocks()
        self.expect("}")
        mod.globals_[name] = GlobalVar(name, ty, export=export, blocks=blocks)
        mod.order.append(name)

    def _result_type(self):
        """A type, or None for `()`."""
        if self.accept("("):
            self.expect(")")
            return None
        return self.parse_type()

    def _parse_define(self, mod, export):
        ret_ty = self._result_type()
        name = self._name()
        self._unique(mod, name)

        def param():
            pty = self.parse_type()
            kind, v, line, col = self.next()
            if kind != "var":
                raise ParseError("expected parameter name", line, col)
            return v[1:], pty

        params = self.parse_list(param)
        self.expect("{")
        blocks = self.parse_blocks()
        self.expect("}")
        mod.functions[name] = Function(name, params, ret_ty, export=export,
                                       blocks=blocks)
        mod.order.append(name)

    # -- blocks and instructions -----------------------------------------

    def parse_blocks(self):
        blocks = []
        while self.peek()[1] != "}":
            kind, v, line, col = self.next()
            if kind != "word" or self.peek()[1] != ":":
                raise ParseError("expected a block label", line, col)
            self.next()
            block = Block(v)
            while True:
                k2, v2, _, _ = self.peek()
                if v2 == "}" or (k2 == "word" and self.peek(1)[1] == ":"):
                    break
                self._parse_line(block)
            if block.term is None:
                raise ParseError("block %s lacks a terminator" % v, line, col)
            blocks.append(block)
        if not blocks:
            self.error("expected at least one block")
        return blocks

    def _parse_line(self, block):
        kind, v, line, col = self.peek()
        if block.term is not None:
            raise ParseError("instruction after terminator", line, col)
        if kind == "var":
            self.next()
            dest = v[1:]
            self.expect("=")
            self._parse_assign(block, dest)
        elif v == "store":
            self.next()
            ty = self.parse_type()
            val = self.parse_operand()
            self.expect(",")
            ptr = self.parse_operand()
            block.instrs.append(Instr("store", ty=ty, operands=[val, ptr]))
        elif v == "call":
            self.next()
            block.instrs.append(self._parse_call(None))
        elif v == "br":
            self.next()
            self.expect("label")
            block.term = Br(self._label())
        elif v == "branch":
            self.next()
            ty = self.parse_type()
            opnd = self.parse_operand()
            self.expect(",")
            block.term = Branch(ty, opnd, self.parse_list(self._label, "[", "]"))
        elif v == "ret":
            self.next()
            if self.peek()[0] in ("var", "glob", "int", "float") \
                    or self.peek()[1] in ("f64", "ptr", "fn") \
                    or re.fullmatch(r"i\d+", self.peek()[1] or ""):
                ty = self.parse_type()
                block.term = Ret(ty, self.parse_operand())
            else:
                block.term = Ret()
        else:
            self.error("expected an instruction, found %r" % v)

    def _parse_assign(self, block, dest):
        kind, v, line, col = self.next()
        if v == "phi":
            ty = self.parse_type()
            entries = []
            while not entries or self.accept(","):
                self.expect("[")
                o = self.parse_operand()
                self.expect(",")
                entries.append((o, self._label()))
                self.expect("]")
            block.phis.append(Phi(dest, ty, entries))
            return
        if v == "call":
            block.instrs.append(self._parse_call(dest))
            return
        if v in ARITH or v in CMP or v == "gep":
            ty = self.parse_type()
            a = self.parse_operand()
            self.expect(",")
            b = self.parse_operand()
            block.instrs.append(Instr(v, dest=dest, ty=ty, operands=[a, b]))
            return
        if v in ("neg", "copy"):
            ty = self.parse_type()
            block.instrs.append(Instr(v, dest=dest, ty=ty,
                                      operands=[self.parse_operand()]))
            return
        if v in ("undef", "alloca"):
            block.instrs.append(Instr(v, dest=dest, ty=self.parse_type()))
            return
        if v == "load":
            ty = self.parse_type()
            self.expect(",")
            block.instrs.append(Instr("load", dest=dest, ty=ty,
                                      operands=[self.parse_operand()]))
            return
        raise ParseError("unknown instruction %r" % v, line, col)

    def _parse_call(self, dest):
        ret_ty = self._result_type()
        callee = self.parse_operand()
        if isinstance(callee, Lit):
            self.error("callee must be a function value")
        args = self.parse_list(lambda: (self.parse_type(), self.parse_operand()))
        return Instr("call", dest=dest, ty=ret_ty,
                     operands=[o for _, o in args], callee=callee,
                     arg_tys=[t for t, _ in args])


def parse(text):
    return Parser(text).parse_module()


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# -- semantic checks ------------------------------------------------------

class SourceError(Exception):
    pass


def check_module(mod):
    for name in mod.order:
        ent = mod.functions.get(name) or mod.globals_.get(name)
        if ent is not None:
            _check_body(mod, ent)
    bad = []
    for fn in mod.functions.values():
        bad += ["%s: %s" % (fn.name, v)
                for v in validate_cfg(fn, mode="none")]
    for g in mod.globals_.values():
        shim = Function(g.name, [], g.ty, blocks=g.blocks)
        bad += ["%s: %s" % (g.name, v)
                for v in validate_cfg(shim, mode="none")]
    if bad:
        raise SourceError("; ".join(bad))
    ipg = compute_ipg(mod)
    for scc in tarjan(list(mod.order), ipg.get):
        if len(scc) > 1 or scc[0] in ipg[scc[0]]:
            for name in scc:
                if name not in mod.functions:
                    raise SourceError("@%s is in a recursive cycle but is not "
                                      "a function" % name)


def _check_body(mod, ent):
    """The typing rule of the module docstring, on one body."""
    where = ent.name
    is_global = isinstance(ent, GlobalVar)
    result = ent.ty if is_global else ent.ret_ty
    vartys = {} if is_global else dict(ent.params)

    def typed(table, i):
        """`table(i.op, i.ty)`, for `table` `ops.result_type` or
        `ops.operand_types`: an error on a type the operation is not
        defined on."""
        try:
            return table(i.op, i.ty)
        except ValueError:
            raise SourceError("%s: %%%s = %s is not defined on %s"
                              % (where, i.dest, i.op, i.ty))

    for b in ent.blocks:
        for p in b.phis:
            _settle(vartys, p.dest, p.ty, where)
        for i in b.instrs:
            if i.dest is not None:
                _settle(vartys, i.dest, typed(ops.result_type, i), where)

    def type_of(o, ty):
        """The type of operand `o`; a literal takes the type `ty` of its
        position."""
        if o.__class__ is Var:
            vty = vartys.get(o.name)
            if vty is None:
                raise SourceError("%s: use of undefined %s" % (where, o))
            return vty
        if isinstance(o, GlobalRef):
            try:
                return mod.ref_type(o.name)
            except KeyError:
                raise SourceError("%s: reference to undefined %s"
                                  % (where, o))
        return ty

    def expect(o, ty, user):
        vty = type_of(o, ty)
        if vty is not ty and vty != ty:
            raise SourceError("%s: %s %s as %s but it is %s"
                              % (where, _position(user), o, ty, vty))

    for b in ent.blocks:
        for p in b.phis:
            for o, _ in p.entries:
                expect(o, p.ty, p)
        for i in b.instrs:
            if is_global and i.op in ("alloca", "load", "store", "call"):
                # a delta has no state edges to thread
                raise SourceError("initializer of @%s uses stateful "
                                  "operation %s" % (where, i.op))
            if i.op == "copy":
                tys = (i.ty,)
            elif i.op == "call":
                declared = fnty(i.arg_tys, [] if i.ty is None else [i.ty])
                fty = type_of(i.callee, declared)
                if fty.kind != "fn" or fty.params != declared.params or \
                        i.dest is not None and fty.results != declared.results:
                    raise SourceError("%s: calls %s as %s but it is %s"
                                      % (where, i.callee, declared, fty))
                tys = i.arg_tys
            else:
                tys = typed(ops.operand_types, i)
            for o, ty in zip(i.operands, tys):
                expect(o, ty, i)
        t = b.term
        if isinstance(t, Branch):
            if t.ty.kind != "int":
                raise SourceError("%s: branch selector must be an integer"
                                  % where)
            # a wider declared type is harmless, a narrower one clips
            vty = type_of(t.operand, t.ty)
            if vty.kind != "int" or vty.width > t.ty.width:
                raise SourceError("%s: branch selector %s is %s, not %s"
                                  % (where, t.operand, vty, t.ty))
        elif isinstance(t, Ret) and t.operand is not None:
            if t.ty != result:
                raise SourceError("%s: returns %s as %s but the result is %s"
                                  % (where, t.operand, t.ty, result or "()"))
            expect(t.operand, t.ty, t)


def _position(user):
    """How a type error names the operand position of `user`."""
    if isinstance(user, Phi):
        return "phi %%%s takes" % user.dest
    if isinstance(user, Ret):
        return "returns"
    if user.op == "copy":
        return "copies"
    head = "%" + user.dest + " = " if user.dest is not None else ""
    return "%s%s takes" % (head, user.op)


def _settle(vartys, name, ty, where):
    if ty is None:
        raise SourceError("%s: %%%s has no type" % (where, name))
    old = vartys.get(name)
    if old is not None and old is not ty and old != ty:
        raise SourceError("%s: %%%s assigned as both %s and %s"
                          % (where, name, old, ty))
    vartys[name] = ty


# -- printer --------------------------------------------------------------

def fmt_instr(i):
    if isinstance(i, Phi):
        ent = ", ".join("[%s, %%%s]" % (o, lbl) for o, lbl in i.entries)
        return "%%%s = phi %s %s" % (i.dest, i.ty, ent)
    if i.op == "store":
        return "store %s %s, %s" % (i.ty, i.operands[0], i.operands[1])
    if i.op == "call":
        args = ", ".join("%s %s" % (t, o) for t, o in zip(i.arg_tys, i.operands))
        rt = "()" if i.ty is None else str(i.ty)
        head = "" if i.dest is None else "%%%s = " % i.dest
        return "%scall %s %s(%s)" % (head, rt, i.callee, args)
    if i.op in ("undef", "alloca"):
        return "%%%s = %s %s" % (i.dest, i.op, i.ty)
    if i.op == "load":
        return "%%%s = load %s, %s" % (i.dest, i.ty, i.operands[0])
    ops = ", ".join(str(o) for o in i.operands)
    return "%%%s = %s %s %s" % (i.dest, i.op, i.ty, ops)


def fmt_term(t):
    if isinstance(t, Br):
        return "br label %%%s" % t.target
    if isinstance(t, Branch):
        tg = ", ".join("%%%s" % x for x in t.targets)
        return "branch %s %s, [%s]" % (t.ty, t.operand, tg)
    if t.operand is None:
        return "ret"
    return "ret %s %s" % (t.ty, t.operand)


def _fmt_blocks(blocks, out):
    for b in blocks:
        out.append("%s:" % b.name)
        for p in b.phis:
            out.append("  " + fmt_instr(p))
        for i in b.instrs:
            out.append("  " + fmt_instr(i))
        out.append("  " + fmt_term(b.term))


def print_module(mod):
    out = []
    for name in mod.order:
        if name in mod.externals:
            out.append("external @%s : %s" % (name, mod.externals[name]))
        elif name in mod.globals_:
            g = mod.globals_[name]
            head = "export " if g.export else ""
            out.append("%sglobal %s @%s = {" % (head, g.ty, name))
            _fmt_blocks(g.blocks, out)
            out.append("}")
        else:
            fn = mod.functions[name]
            head = "export " if fn.export else ""
            rt = "()" if fn.ret_ty is None else str(fn.ret_ty)
            ps = ", ".join("%s %%%s" % (t, n) for n, t in fn.params)
            out.append("%sdefine %s @%s(%s) {" % (head, rt, name, ps))
            _fmt_blocks(fn.blocks, out)
            out.append("}")
        out.append("")
    return "\n".join(out)


_NAME = re.compile(r"%([A-Za-z_.][A-Za-z0-9_.]*)|^([A-Za-z_][A-Za-z0-9_.]*):",
                   re.M)


def canonical(mod):
    """The printed module with variables and labels renamed in order of
    first appearance: two modules that differ only in their names print
    the same."""
    names = {}

    def rename(m):
        name = m.group(1) or m.group(2)
        new = names.setdefault(name, "n%d" % len(names))
        return "%" + new if m.group(1) else new + ":"

    return _NAME.sub(rename, print_module(mod))
