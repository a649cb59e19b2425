"""Time ``rectmvt.expr.parse`` against the reference parser of
``tests/expr_reference.py`` on the texts the ``cli-oneshot`` workload parses.

    python3 tests/parse_speed.py [--groups 1000] [--seed 1] [--repeat 5]

The texts are the pretty-printed f, and g where the theorem has one, of the
first ``--groups`` groups of ``perfbench``'s ``cli-oneshot`` workload.  The
two parsers take turns parsing all of them, ``--repeat`` passes each in this
one process, so that a slow spell of the host falls on both; the script prints
the best pass of each in microseconds per function, and their ratio.
"""

import argparse
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import expr_reference  # noqa: E402
from workloads import CliWorkload  # noqa: E402

from rectmvt.expr import parse  # noqa: E402


def texts(groups: int, seed: int) -> list[str]:
    workload = CliWorkload(seed)
    out = []
    for g in range(groups):
        argv = workload.group(g)["theorem"]
        out += [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--f", "--g")]
    return out


def best_us(parsers, corpus: list[str], repeat: int) -> list[float]:
    best = [float("inf")] * len(parsers)
    for _ in range(repeat):
        for k, parser in enumerate(parsers):
            start = perf_counter()
            for text in corpus:
                parser(text)
            best[k] = min(best[k], perf_counter() - start)
    return [b / len(corpus) * 1e6 for b in best]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--groups", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    corpus = texts(args.groups, args.seed)
    reference, current = best_us((expr_reference.parse, parse), corpus, args.repeat)
    print(f"functions {len(corpus)}, mean length {sum(map(len, corpus)) / len(corpus):.1f} characters")
    print(f"reference {reference:.1f} us/function")
    print(f"parse     {current:.1f} us/function")
    print(f"speedup   {reference / current:.2f}x")


if __name__ == "__main__":
    main()
