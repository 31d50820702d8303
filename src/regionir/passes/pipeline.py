"""Pass manager.

Runs a sequence of named passes over the graph, validating the
structural invariants after each one: the regions the step edited after
every step but the last, and the whole graph after the last.  The
default order interleaves the cleanup passes (INV, DNE) between the
structural rewrites, since almost every rewrite leaves pass-through
plumbing behind.
"""

from dataclasses import dataclass, field

from . import cne, dne, iln, inv, ivt, pll, psh, red, url

DEFAULT_ORDER = ("ILN INV RED DNE IVT INV DNE PSH INV DNE "
                 "URL INV RED CNE DNE PLL INV DNE")

PASSES = {
    "DNE": dne.run,
    "CNE": cne.run,
    "ILN": iln.run,
    "INV": inv.run,
    "PSH": psh.run,
    "PLL": pll.run,
    "RED": red.run,
    "URL": url.run,
    "IVT": ivt.run,
}


class PassError(Exception):
    pass


@dataclass
class PassConfig:
    passes: list = field(default_factory=lambda: DEFAULT_ORDER.split())
    unroll_factor: int = 4


def parse_passes(text):
    names = text.split()
    for name in names:
        if name.upper() not in PASSES:
            raise PassError("unknown pass %r" % name)
    return [n.upper() for n in names]


def node_count(graph):
    return sum(len(r.nodes) for r in graph.regions())


def run_pipeline(graph, config=None):
    """Run the configured passes; returns per-step statistics as a list
    of (pass name, nodes before, nodes after).  A step that leaves the
    graph broken raises `PassError`, numbered as in `format_stats`."""
    config = config or PassConfig()
    steps = []
    after = node_count(graph)
    last = len(config.passes) - 1
    for i, name in enumerate(config.passes):
        fn = PASSES[name]
        before = after
        if name == "URL":
            fn(graph, factor=config.unroll_factor)
        else:
            fn(graph)
        bad = graph.validate(changed_only=i < last)
        if bad:
            raise PassError("step %02d (%s) broke the graph: %s"
                            % (i, name, "; ".join(bad)))
        after = node_count(graph)
        steps.append((name, before, after))
    return steps


def format_stats(steps):
    lines = []
    for i, (name, before, after) in enumerate(steps):
        lines.append("step%02d.pass=%s" % (i, name))
        lines.append("step%02d.nodes_before=%d" % (i, before))
        lines.append("step%02d.nodes_after=%d" % (i, after))
    return "\n".join(lines)
