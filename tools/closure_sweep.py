"""Closure sweep: `construct(destruct(g))` over the corpus and the
Tier-1 random programs, too slow for Tier-1 itself.

For every corpus program and every randprog seed below SEEDS (at the
Tier-1 sizes), after each of the nine passes alone (URL at factor 4)
and after the default schedule, the destructed module must pass
`check_module`, construct again, and export the source's names at the
source's types.  Each closed program then takes two more round trips,
and the sweep counts those the third leaves unchanged up to renaming.

    PYTHONPATH=src python tools/closure_sweep.py

Prints one line per failure and a summary; exits 1 if any fails.
"""

import os
import re
import sys
import time

from regionir import randprog
from regionir.build import construct
from regionir.destruct import destruct
from regionir.parser import check_module, parse, parse_file, print_module
from regionir.passes import DEFAULT_ORDER, PASSES, PassConfig, run_pipeline

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import random_size                      # noqa: E402

CORPUS = os.path.join(ROOT, "tests", "corpus")
# The Tier-1 random programs, N_RANDOM in tests/test_acceptance.py.
SEEDS = 500
SCHEDULES = [[name] for name in sorted(PASSES)] + [DEFAULT_ORDER.split()]
_NAME = re.compile(r"%([A-Za-z_.][A-Za-z0-9_.]*)|^([A-Za-z_][A-Za-z0-9_.]*):",
                   re.M)


def canonical(mod):
    """The printed module with variables and labels renamed in order of
    first appearance."""
    names = {}

    def rename(m):
        name = m.group(1) or m.group(2)
        new = names.setdefault(name, "n%d" % len(names))
        return "%" + new if m.group(1) else new + ":"

    return _NAME.sub(rename, print_module(mod))


def sweep_one(mod, schedule):
    """None if the round trip after `schedule` closes, else the error;
    and whether a third round trip keeps the program."""
    g = construct(mod)
    run_pipeline(g, PassConfig(passes=list(schedule)))
    back = destruct(g)
    try:
        check_module(back)
        again = construct(back)
    except Exception as exc:                  # reported, never fatal
        return "%s: %s" % (type(exc).__name__, exc), False
    if back.export_types() != mod.export_types():
        return "exported types %s, not %s" % (back.export_types(),
                                              mod.export_types()), False
    second = destruct(again)
    check_module(second)
    third = destruct(construct(second))
    return None, canonical(third) == canonical(second)


def main():
    programs = [(name, parse_file(os.path.join(CORPUS, name)))
                for name in sorted(os.listdir(CORPUS)) if name.endswith(".ir")]
    programs += [("seed%d" % s, parse(randprog.generate(s, size=random_size(s))))
                 for s in range(SEEDS)]
    t0 = time.time()
    closed = stable = total = 0
    for name, mod in programs:
        for schedule in SCHEDULES:
            total += 1
            err, same = sweep_one(mod, schedule)
            label = "default" if len(schedule) > 1 else schedule[0]
            if err is None:
                closed += 1
                stable += same
            else:
                print("%s %s: %s" % (name, label, err))
    print("closed %d/%d, third round trip unchanged %d/%d, %.0f s"
          % (closed, total, stable, closed, time.time() - t0))
    return 0 if closed == total else 1


if __name__ == "__main__":
    sys.exit(main())
