"""Textual and Graphviz rendering.

`dump` produces a stable, byte-reproducible textual form of the region
graph: node ids are assigned in construction order and every traversal
is id-ordered, so two graphs built from the same input render
identically.  A region's arguments print by index, so a gamma
alternative's argument prints as `a<entry>`, the entry it binds.  The
`dot_*` functions emit Graphviz for the three views a program passes
through: the source CFG, the annotated control tree, and the region
graph itself.
"""

from .source import successors
from .controltree import CTBlock, CTLinear, CTBranch, CTLoop, children
from .parser import fmt_instr, fmt_term


def _portname(port):
    if port.node is not None:
        return "n%d.%d" % (port.node.id, port.index)
    return "r%d.a%d" % (port.region.id, port.index)


def dump(graph):
    out = []
    for name, arg in zip(graph.import_names, graph.root.args):
        out.append("import @%s : %s" % (name, arg.ty))
    _dump_region(graph, graph.root, out, 0)
    for name, res in zip(graph.export_names, graph.root.results):
        out.append("export @%s <- %s" % (name, _portname(res.origin)))
    return "\n".join(out) + "\n"


def _dump_region(graph, region, out, depth):
    pad = "  " * depth
    args = ", ".join("a%d:%s" % (a.index, a.ty) for a in region.args)
    out.append("%sregion r%d [%s]" % (pad, region.id, args))
    for node in graph.topological_order(region):
        ins = ", ".join(_portname(u.origin) for u in node.inputs)
        outs = ", ".join(str(o.ty) for o in node.outputs)
        label = node.opname
        if node.name:
            label += " @" + node.name
        out.append("%s  n%d = %s (%s) -> [%s]" % (pad, node.id, label, ins, outs))
        for sub in node.subregions:
            _dump_region(graph, sub, out, depth + 2)
    res = ", ".join(_portname(r.origin) if r.origin else "?"
                    for r in region.results)
    out.append("%s  results [%s]" % (pad, res))


# -- graphviz -------------------------------------------------------------

def _esc(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


def dot_rvsdg(graph):
    out = ["digraph rvsdg {", "  node [shape=box, fontname=monospace];",
           "  compound=true;"]
    _dot_region(graph, graph.root, out, "omega")
    out.append("}")
    return "\n".join(out) + "\n"


def _dot_region(graph, region, out, label):
    out.append('  subgraph cluster_r%d {' % region.id)
    out.append('    label="%s";' % _esc(label))
    if region.args:
        args = "|".join("<a%d> a%d" % (a.index, a.index) for a in region.args)
        out.append('    r%dargs [shape=record, label="%s"];' % (region.id, args))
    for node in graph.topological_order(region):
        name = node.opname
        if node.name:
            name += " @" + node.name
        if node.subregions:
            out.append('    n%d [label="%s", style=bold];' % (node.id, _esc(name)))
            for i, sub in enumerate(node.subregions):
                _dot_region(graph, sub, out, "%s[%d]" % (name, i))
        else:
            out.append('    n%d [label="%s"];' % (node.id, _esc(name)))
    if region.results:
        res = "|".join("<x%d> x%d" % (r.index, r.index) for r in region.results)
        out.append('    r%dres [shape=record, label="%s"];' % (region.id, res))
    out.append("  }")
    for node in graph.topological_order(region):
        for use in node.inputs:
            out.append("  %s -> n%d;" % (_dot_src(use.origin), node.id))
    for r in region.results:
        if r.origin is not None:
            out.append('  %s -> r%dres:x%d;'
                       % (_dot_src(r.origin), region.id, r.index))


def _dot_src(port):
    if port.node is not None:
        return "n%d" % port.node.id
    return "r%dargs:a%d" % (port.region.id, port.index)


def dot_cfg(module):
    out = ["digraph cfg {", "  node [shape=box, fontname=monospace];"]
    for name in module.order:
        fn = module.functions.get(name)
        if fn is None:
            continue
        out.append('  subgraph cluster_%s {' % name.replace(".", "_"))
        out.append('    label="@%s";' % _esc(name))
        for b in fn.blocks:
            lines = [b.name + ":"]
            lines += [fmt_instr(p) for p in b.phis]
            lines += [fmt_instr(i) for i in b.instrs]
            lines.append(fmt_term(b.term))
            out.append('    "%s_%s" [label="%s"];'
                       % (name, b.name, _esc("\\l".join(lines) + "\\l")))
        for b in fn.blocks:
            for t in successors(b.term):
                out.append('    "%s_%s" -> "%s_%s";' % (name, b.name, name, t))
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


def dot_tree(tree, fn_name):
    out = ["digraph tree {", "  node [shape=box, fontname=monospace];",
           '  label="@%s";' % _esc(fn_name)]
    counter = [0]

    def emit(node):
        nid = "t%d" % counter[0]
        counter[0] += 1
        label = _tree_label(node)
        sets = getattr(node, "demand_in", None)
        if sets is not None:
            label += "\\nR=%s W=%s D=%s" % (_fmt_set(node.reads),
                                            _fmt_set(node.writes),
                                            _fmt_set(node.demand_in))
        out.append('  %s [label="%s"];' % (nid, _esc(label)))
        for child in children(node):
            out.append("  %s -> %s;" % (nid, emit(child)))
        return nid

    emit(tree)
    out.append("}")
    return "\n".join(out) + "\n"


def _fmt_set(s):
    return "{%s}" % ",".join(sorted(s))


def _tree_label(node):
    if isinstance(node, CTBlock):
        return "block %s" % node.block.name
    if isinstance(node, CTLinear):
        return "linear"
    if isinstance(node, CTBranch):
        return "branch"
    if isinstance(node, CTLoop):
        return "loop"
    return "?"

