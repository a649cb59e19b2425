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
that workload calls.

Each tree is measured in a fresh ``python3`` process per round, for
``--repeat`` rounds, and every figure printed is the median over the rounds;
within a round, each figure is the best of ``PASSES`` passes over all the
command's calls, after one pass that warms the process up.  With
``--baseline DIR``, DIR is the ``src`` directory of another checkout, and each
round runs one process per tree.  The parent steps the two in lockstep, one
pass of one command at a time, alternating which tree goes first, so that a
slow spell of the host falls on both, while neither tree's heap depends on
what the other allocated.  Each line then shows the baseline's figure, this
tree's and their ratio.
"""

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
PASSES = 3  # timed passes of each command per round, of which each figure is the best
ONESHOT = ("locate", "verify", "grad-check", "parse")  # the commands of cli-oneshot

# a fresh process that times the rectmvt under sys.argv[1], found first on its
# path, with this script's directory (sys.argv[2]); see ``child``
CHILD = "import sys; sys.path[:0] = sys.argv[1:3]; import cli_speed; cli_speed.child()"


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

    by_command = {command: [] for command in (*ONESHOT, "sweep")}
    for _, flags, center in generated_cases(count):
        for argv, _ in case_commands(flags, center, run):
            by_command[argv[0]].append(argv)
    by_command["sweep"] = sweep_commands(count)
    return by_command


def child() -> None:
    """Read the argument lists of each command as one JSON line from stdin;
    then, for each command named on a later line, run all its calls once and
    print the microseconds per call."""
    by_command = json.loads(sys.stdin.readline())
    for command in sys.stdin:
        argvs = by_command[json.loads(command)]
        start = perf_counter()
        for argv in argvs:
            run(argv)
        print(json.dumps((perf_counter() - start) / len(argvs) * 1e6), flush=True)


def run_round(trees, r: int, by_command) -> list[dict]:
    """One round: a fresh process per tree, stepped in lockstep, pass by pass
    of each command; which tree goes first alternates from pass to pass,
    command to command and round to round.  Returns per tree each command's
    best pass in microseconds per call."""
    here = str(Path(__file__).parent)
    procs = [
        subprocess.Popen([sys.executable, "-c", CHILD, str(src), here],
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        for src in trees
    ]
    try:
        for p in procs:
            p.stdin.write(json.dumps(by_command) + "\n")

        def ask(k: int, command: str) -> float:
            procs[k].stdin.write(json.dumps(command) + "\n")
            procs[k].stdin.flush()
            return json.loads(procs[k].stdout.readline())

        best = [{} for _ in trees]
        for i, command in enumerate(by_command):
            for p in range(1 + PASSES):  # the first pass warms up, untimed
                for k in list(range(len(trees)))[:: 1 if (r + i + p) % 2 == 0 else -1]:
                    us = ask(k, command)
                    if p:
                        best[k][command] = min(best[k].get(command, us), us)
    finally:
        for p in procs:
            p.communicate()  # closes its stdin, so it ends, and waits for it
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
    lines = [(c, len(by_command[c]), [m[c] for m in medians]) for c in by_command]
    lines.append((f"mean of {', '.join(ONESHOT)}", sum(len(by_command[c]) for c in ONESHOT),
                  [statistics.mean(m[c] for c in ONESHOT) for m in medians]))
    for name, n, us in lines:
        cells = f"{us[0]:8.1f} / {us[1]:8.1f} = {us[0] / us[1]:.3f}" if len(us) == 2 else f"{us[0]:8.1f}"
        print(f"{name:40} {n:5d} calls  {cells}")


if __name__ == "__main__":
    main()
