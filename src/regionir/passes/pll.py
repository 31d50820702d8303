"""Pull nodes into the gamma alternative that consumes them.

A stateless, non-trapping simple node whose every live user is an entry
variable of a single gamma, where only one alternative reads those
entry variables, is recomputed inside that alternative instead; the
computation then runs only when the branch is actually taken: the
"compute only on the paths that need it" rule of lazy code motion.
PSH places its copies by the same rule, so what is left to sink is
work the source computes ahead of a branch that needs it in one arm,
and a copy of PSH's that two alternatives read until a later pass
removed one of the reads.

One run reaches the fixpoint.  Each region is walked consumers first,
so a whole chain sinks in one walk: once a node is sunk, the copy reads
its operands through entry variables, and an operand whose only other
users were sunk nodes is then itself used only by that gamma.  A live
user is one that does not belong to a node already sunk.  An operand
that already enters the gamma reuses that entry, bound in the
alternative if it is not yet; a new entry is made only when none
exists, and only that alternative binds it.  After the walk, each gamma
drops the entries the walk emptied in one batch, and the originals are
removed, so the pass leaves nothing for dead node elimination.  The
walk then descends into the subregions, where a sunk chain keeps moving
inward through nested gammas.
"""

from ..graph import entry_arg


def run(graph):
    _process(graph, graph.root)


def _process(graph, region):
    _sink(graph, region)
    for node in region.nodes:
        for sub in node.subregions:
            _process(graph, sub)


def _sink(graph, region):
    sunk = {}                   # originals, consumers first (ordered set)
    emptied = {}                # gamma -> entry indices now unread
    entries = {}                # gamma -> {origin: its first entry index}
    for node in reversed(graph.topological_order(region)):
        if node.kind != "simple" or node.op.is_stateful or node.op.can_trap:
            continue
        target = _target(node, sunk)
        if target is None:
            continue
        gamma, c = target
        alt = gamma.subregions[c]
        known = entries.get(gamma)
        if known is None:
            known = entries[gamma] = {}
            for l, use in enumerate(gamma.inputs[1:]):
                known.setdefault(use.origin, l)
        fresh = []
        for use in node.inputs:
            if use.origin not in known:
                known[use.origin] = len(gamma.inputs) - 1 + len(fresh)
                fresh.append(use.origin)
        if fresh:
            graph.gamma_add_entries(gamma, fresh, [[c]] * len(fresh))
        ls = {known[use.origin] for use in node.inputs}
        graph.gamma_add_args(gamma, c, sorted(
            l for l in ls if entry_arg(alt, l) is None))
        inner = [entry_arg(alt, known[use.origin]) for use in node.inputs]
        moved = graph.add_simple(alt, node.op, inner)
        gone = emptied.setdefault(gamma, set())
        for out, new in zip(node.outputs, moved.outputs):
            for use in out.users:
                if use.node is gamma:
                    graph.divert_users(entry_arg(alt, use.index - 1), new)
                    gone.add(use.index - 1)
        sunk[node] = None
    for gamma, ls in emptied.items():
        graph.remove_gamma_entries(gamma, ls)
    for node in sunk:
        graph.remove_node(node)


def _target(node, sunk):
    """The (gamma, alternative index) that `node` sinks into, or None.
    Every live user must be an entry of one gamma, and the entries'
    arguments must be read in exactly one alternative."""
    gamma = None
    readers = set()
    for out in node.outputs:
        for use in out.users:
            g = use.node
            if g in sunk:
                continue
            if g is None or g.kind != "gamma" or use.index == 0:
                return None
            if gamma is None:
                gamma = g
            elif g is not gamma:
                return None
            for c, sub in enumerate(g.subregions):
                arg = entry_arg(sub, use.index - 1)
                if arg is not None and arg.users:
                    readers.add(c)
    if len(readers) != 1:
        return None
    return gamma, readers.pop()
