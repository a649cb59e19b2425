"""Fresh-process lockstep runs for the timing scripts ``cli_speed.py`` and
``screen_speed.py``.

Each tree to measure, given as its ``src`` directory, runs in its own fresh
``python3`` process, which imports the ``rectmvt`` under that directory first
on its path and runs ``child()`` of the timing script named.  The child
answers each JSON line the parent writes to its stdin with one JSON line on
its stdout.  The parent asks the trees for one figure moments apart, in an
order that alternates from one pass to the next, so that a slow spell of the
host falls on both, while neither tree's heap or page faults depend on what
the other allocated.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

# a fresh process that imports the rectmvt under sys.argv[1], found first on
# its path, with this directory (sys.argv[2]), and runs child() of the script
# named by sys.argv[3]
CHILD = "import importlib, sys; sys.path[:0] = sys.argv[1:3]; importlib.import_module(sys.argv[3]).child()"


class Lockstep:
    """One child process of ``script`` per tree of ``trees``; as a context
    manager, it ends them on exit."""

    def __init__(self, script: str, trees):
        self.procs = [
            subprocess.Popen([sys.executable, "-c", CHILD, str(src), str(HERE), script],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for src in trees
        ]

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        for proc in self.procs:
            proc.communicate()  # closes its stdin, so it ends, and waits for it

    def ask(self, k: int, message):
        """Tree ``k``'s reply to ``message``."""
        proc = self.procs[k]
        proc.stdin.write(json.dumps(message) + "\n")
        proc.stdin.flush()
        return json.loads(proc.stdout.readline())

    def turns(self, *counters: int) -> list[int]:
        """The trees in the order they take one pass: reversed when the
        counters (of rounds, lines and passes) sum to an odd number, so that
        the tree that goes first alternates."""
        order = list(range(len(self.procs)))
        return order if sum(counters) % 2 == 0 else order[::-1]
