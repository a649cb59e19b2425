"""Print SHA-256 digests of what ``rectmvt`` returns and prints, so that a change
meant to keep every output the same can be checked to do so.

    python3 tests/output_digest.py [--count 20] [--baseline DIR]

The entries fall in three groups, with one digest each:

- ``sweep``: ``repr`` of every ``run_sweep`` summary over the seven theorems,
  the families poly4, bilinear, separable, exp-poly and rational, and the seeds
  42 and 7, with ``--count`` cases each, at the default ``LocateConfig``;
- ``sweep257``: the same at ``grid_n=257, max_refinements=1``;
- ``cli``: ``(exit code, stdout, stderr)`` of ``cli.main`` on each ``rectmvt``
  command of README.md (extracted as ``tests/test_readme.py`` extracts them,
  and run in a temporary directory, since ``sweep --csv`` writes there), and on
  each command of the CI workflow's numpy-only smoke step that is expected to
  fail (``... || code=$?``).

With ``--baseline DIR``, DIR is the ``src`` directory of another checkout: its
``rectmvt`` is loaded under another name in this same process, as
``tests/screen_speed.py`` loads it, and each group's line shows both digests.
For a group whose entries differ, the first entry that differs is printed from
both trees, and the script exits with status 1.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from screen_speed import FAMILIES, load  # noqa: E402
from test_readme import COMMANDS as README_COMMANDS  # noqa: E402

SEEDS = (42, 7)
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def failing_smoke_commands() -> list[list[str]]:
    """The CLI arguments of each smoke-step command whose exit code CI checks."""
    text = WORKFLOW.read_text()
    return [shlex.split(args) for args in re.findall(r"-m rectmvt\.cli (.*?) \|\| code=\$\?", text)]


def sweep_entries(name: str, count: int, **config) -> list[tuple[str, str]]:
    harness = importlib.import_module(f"{name}.harness")
    theorems = importlib.import_module(f"{name}.theorems")
    cfg = importlib.import_module(f"{name}.locator").LocateConfig(**config)
    entries = []
    for tag in theorems.THEOREMS:
        for family in FAMILIES:
            for seed in SEEDS:
                summary = harness.run_sweep(tag, harness.family_from_name(family), count, seed, cfg)
                entries.append((f"{tag} {family} seed {seed}", repr(summary)))
    return entries


def cli_entries(name: str) -> list[tuple[str, str]]:
    main = importlib.import_module(f"{name}.cli").main
    entries = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in README_COMMANDS + failing_smoke_commands():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main(list(argv))
                    except SystemExit as exc:  # an argparse error
                        code = exc.code
                entries.append((shlex.join(argv), repr((code, out.getvalue(), err.getvalue()))))
        finally:
            os.chdir(cwd)
    return entries


def groups(name: str, count: int) -> dict:
    return {
        "sweep": sweep_entries(name, count),
        "sweep257": sweep_entries(name, count, grid_n=257, max_refinements=1),
        "cli": cli_entries(name),
    }


def digest(entries) -> str:
    h = hashlib.sha256()
    for _, text in entries:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()


def first_difference(theirs, ours) -> str | None:
    """The first entry that differs, shown from where the two texts part."""
    for (label, a), (_, b) in zip(theirs, ours):
        if a != b:
            at = next((i for i, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
            start = max(at - 80, 0)
            return (
                f"  {label}, from character {at}:\n"
                f"    baseline  {a[start:at + 160]!r}\n"
                f"    this tree {b[start:at + 160]!r}"
            )
    if len(theirs) != len(ours):
        return f"  {len(theirs)} entries against {len(ours)}"
    return None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=20, help="cases per sweep")
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args()
    importlib.import_module("rectmvt")
    ours = groups("rectmvt", args.count)
    if args.baseline is None:
        for group, entries in ours.items():
            print(f"{group:9} {len(entries):4d} entries  {digest(entries)}")
        return 0
    load(args.baseline.resolve(), "baseline_rectmvt")
    theirs = groups("baseline_rectmvt", args.count)
    status = 0
    for group, entries in ours.items():
        diff = first_difference(theirs[group], entries)
        verdict = "same" if diff is None else "DIFFERENT"
        print(
            f"{group:9} {len(entries):4d} entries  "
            f"baseline {digest(theirs[group])}  this {digest(entries)}  {verdict}"
        )
        if diff is not None:
            print(diff)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
