"""Time ``rectmvt.cli.main`` calls, command by command, on generated cases.

    python3 tests/cli_speed.py [--count 4] [--repeat 3] [--baseline DIR]

The calls are those of the ``cli`` group of ``tests/output_digest.py``: for the
first ``--count`` sweep cases of each theorem, family and seed, with f and g
printed by ``pretty_print``, ``locate``, ``verify`` at the point it located,
``grad-check`` and ``parse``; and one ``sweep`` of ``--count`` cases per
theorem.  The argument lists are made once, by this tree, so every tree times
the same calls.  The script prints, per command, the microseconds one
``main`` call takes, stdout and stderr captured as ``perfbench``'s
``cli-oneshot`` workload captures them, and the mean over the four commands
that workload calls.  A command's calls run one after another, each on
another case, so these lines time mostly cold calls, which reuse no tree or
field of the call before.  The last line times the calls in ``cli-oneshot``'s
order, ``locate``, ``verify``, ``grad-check`` and ``parse`` per case: the
traffic those reused trees and fields serve.

Each tree is measured in a fresh ``python3`` process per round, for
``--repeat`` rounds, and every figure printed is the median over the rounds;
within a round, each figure is the best of ``PASSES`` passes, after one pass
that warms the process up.  A pass runs all the command's calls, and runs them
again until it has lasted ``PASS_S`` seconds, so that a short spell of the
host moves its figure little.  With ``--baseline DIR``, DIR is the ``src``
directory of another checkout, and each round runs one process per tree.
The parent steps the two in lockstep
(``tests/lockstep.py``), one pass of one command at a time, alternating which
tree goes first.  Each line then shows the baseline's figure, this tree's and
their ratio.
"""

import argparse
import contextlib
import io
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

from lockstep import Lockstep

ROOT = Path(__file__).resolve().parents[1]
PASSES = 3  # timed passes of each command per round, of which each figure is the best
PASS_S = 0.2  # shortest pass, in seconds
ONESHOT = ("locate", "verify", "grad-check", "parse")  # the commands of cli-oneshot
IN_TURN = f"{', '.join(ONESHOT)} in turn"  # the line of cli-oneshot's order


def run(argv: list[str]) -> tuple:
    """``(exit code, stdout, stderr)`` of ``cli.main(argv)``."""
    from rectmvt.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # an argparse error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def calls(count: int) -> dict[str, list[list[str]]]:
    """The argument lists of each command, made by this tree's ``rectmvt``."""
    from output_digest import case_commands, generated_cases, sweep_commands  # puts this tree's src first

    by_command = {command: [] for command in (*ONESHOT, "sweep", IN_TURN)}
    for _, flags, center in generated_cases(count):
        for argv, _ in case_commands(flags, center, run):
            by_command[argv[0]].append(argv)
            by_command[IN_TURN].append(argv)
    by_command["sweep"] = sweep_commands(count)
    return by_command


def child() -> None:
    """Read the argument lists of each command as one JSON line from stdin,
    and print the commands' names; then, for each command named on a later
    line, run all its calls, again until ``PASS_S`` seconds have passed, and
    print the microseconds per call."""
    by_command = json.loads(sys.stdin.readline())
    print(json.dumps(list(by_command)), flush=True)
    for command in sys.stdin:
        argvs = by_command[json.loads(command)]
        calls, start = 0, perf_counter()
        while calls == 0 or perf_counter() - start < PASS_S:
            for argv in argvs:
                run(argv)
            calls += len(argvs)
        print(json.dumps((perf_counter() - start) / calls * 1e6), flush=True)


def run_round(trees, r: int, by_command) -> list[dict]:
    """One round: a fresh process per tree, stepped in lockstep, pass by pass
    of each command; which tree goes first alternates from pass to pass,
    command to command and round to round.  Returns per tree each command's
    best pass in microseconds per call."""
    with Lockstep("cli_speed", trees) as children:
        for k in range(len(trees)):
            children.ask(k, by_command)
        best = [{} for _ in trees]
        for i, command in enumerate(by_command):
            for p in range(1 + PASSES):  # the first pass warms up, untimed
                for k in children.turns(r, i, p):
                    us = children.ask(k, command)
                    if p:
                        best[k][command] = min(best[k].get(command, us), us)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=4)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args()
    trees = [ROOT / "src"] if args.baseline is None else [args.baseline.resolve(), ROOT / "src"]
    by_command = calls(args.count)
    rounds = [run_round(trees, r, by_command) for r in range(args.repeat)]
    print(f"cases per theorem, family and seed {args.count}, best of {PASSES} passes, "
          f"median of {args.repeat} rounds of fresh processes")
    if len(trees) == 2:
        print("us per call: baseline / this tree = speed-up")
    medians = [
        {c: statistics.median(figures[k][c] for figures in rounds) for c in by_command} for k in range(len(trees))
    ]
    lines = [(c, len(by_command[c]), [m[c] for m in medians]) for c in by_command if c != IN_TURN]
    lines.append((f"mean of {', '.join(ONESHOT)}", sum(len(by_command[c]) for c in ONESHOT),
                  [statistics.mean(m[c] for c in ONESHOT) for m in medians]))
    lines.append((IN_TURN, len(by_command[IN_TURN]), [m[IN_TURN] for m in medians]))
    for name, n, us in lines:
        cells = f"{us[0]:8.1f} / {us[1]:8.1f} = {us[0] / us[1]:.3f}" if len(us) == 2 else f"{us[0]:8.1f}"
        print(f"{name:40} {n:5d} calls  {cells}")


if __name__ == "__main__":
    main()
