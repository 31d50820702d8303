"""In-memory span recorder for the traced run, and the per-layer
metrics derived from its spans.

A span is [name, start, end, parent], where parent is the index of the
span that was open when it started, or -1.  Spans stay in memory and
are written out when the run ends.  `Tracer.install` wraps each layer's
entry point at the name its caller looks it up by -- a module global, a
class attribute, a pass-table entry, or an attribute of the benchmark's
own `Api` -- and `uninstall` puts the originals back.  No module of the
program is edited.
"""

import json
import statistics
import time

from regionir import build, destruct
from regionir.graph import Graph
from regionir.passes.pipeline import PASSES

from stats import loglog_fit, ratio

# Entry points the program looks up itself: (owner, attribute, span name).
INNER = (
    (build, "destruct_ssa", "ssa.destruct_ssa"),
    (build, "restructure", "restructure.restructure"),
    (build, "build_control_tree", "controltree.build"),
    (build, "annotate", "controltree.annotate"),
    (destruct, "construct_ssa", "ssa.construct_ssa"),
    (Graph, "validate", "graph.validate"),
)

# The benchmark's own calls: Api attribute -> span name.
OUTER = {
    "parse": "parser.parse",
    "check": "parser.check",
    "construct": "build.construct",
    "pipeline": "passes.pipeline",
    "destruct": "destruct.destruct",
    "reconstruct": "build.reconstruct",
    "eval_cfg": "interp.eval_cfg",
    "eval_rvsdg": "interp.eval_rvsdg",
}

class Tracer:
    def __init__(self):
        self.spans = []
        self.blocks = {}        # restructure span index -> (before, after)
        self._stack = []
        self._saved = []
        self._saved_passes = {}

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
        return traced

    def _count_blocks(self, fn):
        def counted(cfg):
            before = len(cfg.blocks)
            out = fn(cfg)
            self.blocks[self._stack[-1]] = (before, len(cfg.blocks))
            return out
        return counted

    def install(self, api):
        """Wrap every entry point; returns nothing, `api` is edited in
        place.  Always pair with `uninstall`."""
        for owner, attr, name in INNER:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            if attr == "restructure":
                orig = self._count_blocks(orig)
            setattr(owner, attr, self.wrap(name, orig))
        for attr, name in OUTER.items():
            orig = getattr(api, attr)
            self._saved.append((api, attr, orig))
            setattr(api, attr, self.wrap(name, orig))
        self._saved_passes = dict(PASSES)
        for pname, fn in self._saved_passes.items():
            PASSES[pname] = self.wrap("passes." + pname, fn)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved = []
        PASSES.update(self._saved_passes)

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(header, fields=["name", "start", "end", "parent"],
                           spans=self.spans), fh)


def layer_metrics(spans, blocks, lo, hi, res):
    """Per-layer metrics of one traced pass: the spans [lo, hi) and the
    pass's PassResult `res`."""
    dur, self_s, root = {}, {}, {}
    for i in range(lo, hi):
        name, start, end, parent = spans[i]
        dur[i] = self_s[i] = end - start
        if parent < 0:
            root[i] = name
        else:
            root[i] = root[parent]
            self_s[parent] -= dur[i]

    def total(name, under, table=dur):
        return sum(table[i] for i in dur
                   if spans[i][0] == name and root[i] == under)

    def by_parent(parent_name):
        hits = [i for i in dur if spans[i][0] == "graph.validate"
                and spans[i][3] >= 0 and spans[spans[i][3]][0] == parent_name]
        return sum(dur[i] for i in hits), len(hits)

    # Every operation starts with a top-level parse: that splits the
    # spans into operations, which the fits need.
    per_op = []
    for i in dur:
        if spans[i][3] >= 0:
            continue
        if spans[i][0] == "parser.parse":
            per_op.append({})
        per_op[-1][spans[i][0]] = per_op[-1].get(spans[i][0], 0.0) + dur[i]

    def fit(layer):
        return loglog_fit([(n, op[layer]) for n, op in zip(res.instrs, per_op)
                           if n is not None and layer in op])

    validate_c, calls_c = by_parent("build.construct")
    validate_p, calls_p = by_parent("passes.pipeline")
    grown = [blocks[i] for i in dur if i in blocks
             and root[i] == "build.construct"]
    src_instrs = sum(n for n in res.instrs if n is not None)
    eval_cfg_s = total("interp.eval_cfg", "interp.eval_cfg")
    eval_rvsdg_s = total("interp.eval_rvsdg", "interp.eval_rvsdg")
    m = {}
    for pname in sorted(PASSES):
        m["passes.%s.s" % pname] = total("passes." + pname, "passes.pipeline")
        m["passes.%s.nodes_delta" % pname] = res.nodes_delta[pname]
    m["passes.validate_s"] = validate_p
    m["passes.peak_nodes"] = res.peak_nodes
    m["passes.exponent"], m["passes.exponent_r2"] = fit("passes.pipeline")
    m["graph.validate.construct_s"] = validate_c
    m["graph.validate.pipeline_s"] = validate_p
    m["graph.validate.construct_calls"] = calls_c
    m["graph.validate.pipeline_calls"] = calls_p
    m["build.construct_s"] = total("build.construct", "build.construct")
    m["build.emit_self_s"] = total("build.construct", "build.construct",
                                   self_s)
    m["build.nodes_per_instr"] = ratio(res.nodes_built, src_instrs)
    m["build.exponent"], m["build.exponent_r2"] = fit("build.construct")
    m["ssa.destruct_ssa_s"] = total("ssa.destruct_ssa", "build.construct")
    m["restructure.restructure_s"] = total("restructure.restructure",
                                           "build.construct")
    m["restructure.block_growth"] = ratio(sum(a for _, a in grown),
                                          sum(b for b, _ in grown))
    m["controltree.build_s"] = total("controltree.build", "build.construct")
    m["controltree.annotate_s"] = total("controltree.annotate",
                                        "build.construct")
    m["destruct.destruct_s"] = total("destruct.destruct", "destruct.destruct")
    m["destruct.lower_self_s"] = total("destruct.destruct",
                                       "destruct.destruct", self_s)
    m["ssa.construct_ssa_s"] = total("ssa.construct_ssa", "destruct.destruct")
    m["destruct.exponent"], m["destruct.exponent_r2"] = fit(
        "destruct.destruct")
    m["interp.eval_cfg_s"] = eval_cfg_s
    m["interp.eval_rvsdg_s"] = eval_rvsdg_s
    m["interp.cfg_steps_per_s"] = ratio(res.cfg_steps, eval_cfg_s)
    m["interp.rvsdg_steps_per_s"] = ratio(res.rvsdg_steps, eval_rvsdg_s)
    m["parser.parse_s"] = total("parser.parse", "parser.parse")
    m["parser.check_s"] = total("parser.check", "parser.check")
    return m


def per_layer(tr, ranges, plain, traced, pace):
    """Per-layer metrics, medians over the traced passes, and the tracing
    overhead against the untraced passes of the same run, with each
    compile time put against the machine's pace around it."""
    per_pass = [layer_metrics(tr.spans, tr.blocks, lo, hi, res)
                for (lo, hi), res in zip(ranges, traced)]
    layers = {k: statistics.median(m[k] for m in per_pass)
              for k in per_pass[0]}

    def compile_s(res):
        return sum(dt / pace.factor(t0, t1)
                   for t0, t1, dt in filter(None, res.compile_sample))
    layers["trace.overhead_share"] = ratio(
        statistics.median(compile_s(r) for r in traced),
        statistics.median(compile_s(r) for r in plain)) - 1
    return layers
