"""Same-output check: digests of everything the compiler emits, to
compare two trees that should compile every program identically.

The programs are the 34 corpus programs, the randprog ladder (seeds 3
and 7 at every size from 1 to 32) and the Tier-1 random programs (seeds
0 to 499 at the Tier-1 sizes): 598 in all.  Each is compiled with no
passes, with each of the nine passes alone (URL at factor 4) and with
the default schedule.  Every run hashes, in order, the `render.dump` of
the constructed graph, the pass manager's step list, the dump of the
optimized graph, the printed destructed module and the dump of that
module constructed again.

Three digests are printed.  The first hashes the dumps as they are.  The
second renumbers the dumps' node and region ids in order of first
appearance, so two trees that build the same graphs with different ids
print the same second digest; the other texts hold no ids.  The third,
`kept:`, hashes only the step lists and the printed destructed modules,
so two trees that build different graphs on the way (different ports,
say) but compile every program to the same code print the same third
digest.

    PYTHONPATH=src python tools/same_output.py

Run it at both trees (set PYTHONPATH to each tree's `src`) and compare
the lines it prints.  It runs about seven minutes on one core.
"""

import hashlib
import os
import re
import sys
import time

from regionir import randprog, render
from regionir.build import construct
from regionir.destruct import destruct
from regionir.parser import parse, parse_file, print_module
from regionir.passes import DEFAULT_ORDER, PASSES, PassConfig, run_pipeline

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import LADDER_SEEDS, random_size        # noqa: E402

CORPUS = os.path.join(ROOT, "tests", "corpus")
LADDER_SIZES = range(1, 33)
# The Tier-1 random programs, N_RANDOM in tests/test_acceptance.py.
SEEDS = 500
SCHEDULES = [[]] + [[name] for name in sorted(PASSES)] \
    + [DEFAULT_ORDER.split()]

_ID = re.compile(r"\b([nr])(\d+)\b")


def programs():
    out = [(name, parse_file(os.path.join(CORPUS, name)))
           for name in sorted(os.listdir(CORPUS)) if name.endswith(".ir")]
    out += [("ladder%d/%d" % (s, n), parse(randprog.generate(s, size=n)))
            for s in LADDER_SEEDS for n in LADDER_SIZES]
    out += [("seed%d" % s, parse(randprog.generate(s, size=random_size(s))))
            for s in range(SEEDS)]
    return out


def without_ids(dump):
    """`dump` with node and region ids renumbered by first appearance."""
    seen = {}

    def rename(m):
        key = m.group(0)
        if key not in seen:
            seen[key] = "%s%d" % (m.group(1), len(seen))
        return seen[key]

    return _ID.sub(rename, dump)


def outputs(mod, schedule):
    """The texts one compile emits: (text, is a dump) pairs.  A failing
    step ends the list with its error."""
    out = []
    try:
        g = construct(mod)
        out.append((render.dump(g), True))
        steps = run_pipeline(g, PassConfig(passes=list(schedule)))
        out.append((repr(steps), False))
        out.append((render.dump(g), True))
        back = destruct(g)
        out.append((print_module(back), False))
        out.append((render.dump(construct(back)), True))
    except Exception as exc:                  # hashed, never fatal
        out.append(("%s: %s" % (type(exc).__name__, exc), False))
    return out


def main():
    t0 = time.time()
    with_ids, no_ids, kept = (hashlib.sha256(), hashlib.sha256(),
                              hashlib.sha256())
    runs = 0
    progs = programs()
    for name, mod in progs:
        for schedule in SCHEDULES:
            runs += 1
            head = ("%s %s\n" % (name, " ".join(schedule))).encode()
            with_ids.update(head)
            no_ids.update(head)
            kept.update(head)
            for text, is_dump in outputs(mod, schedule):
                with_ids.update(text.encode() + b"\0")
                no_ids.update((without_ids(text) if is_dump else text)
                              .encode() + b"\0")
                if not is_dump:
                    kept.update(text.encode() + b"\0")
    print("%d programs, %d runs, %.0f s"
          % (len(progs), runs, time.time() - t0))
    print("with ids:    %s" % with_ids.hexdigest())
    print("without ids: %s" % no_ids.hexdigest())
    print("kept:        %s" % kept.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
