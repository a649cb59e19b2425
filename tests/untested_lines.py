"""List the lines of ``src/rectmvt`` that the tier-1 tests never run.

    python3 tests/untested_lines.py [PYTEST ARGS ...]

Runs pytest in this process (on ``tests/`` by default, quietly) under
``sys.settrace``, tracing only the frames whose code lies in ``src/rectmvt/``,
and then prints, for each module, how many of its executable lines never ran,
and their numbers.  A module's executable lines are those of the ``co_lines()``
of every code object its source compiles to.  A line that only a child process
runs (``python -m rectmvt.cli``, say) counts as never run.  No coverage package
is needed: the standard library does it, at about 2.5 times tier-1's time.

It prints and always exits 0: pytest's own exit status is printed with the
totals, and the tests themselves are judged by tier-1.
"""

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "rectmvt"


def executable_lines(path: Path) -> set:
    code = compile(path.read_text(), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main(argv: list) -> int:
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran: dict = {}  # file name -> the line numbers that ran in it

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)  # a def line, run by its call
        return local

    sys.path[:0] = [str(SRC)]  # rectmvt is imported under the tracer, with its module lines
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)

    total = missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        total, missed = total + len(lines), missed + len(never)
        print(f"{path.relative_to(ROOT)}: {len(never)} of {len(lines)} lines never ran"
              + (f": {', '.join(map(str, never))}" if never else ""))
    print(f"total: {total - missed} of {total} executable lines ran; pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
