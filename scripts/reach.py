"""Lines of src/fairuse that the tier-1 test suite never runs.

Run from the repository root:

    python scripts/reach.py [extra pytest arguments]

The suite runs in this process under a line tracer (`sys.settrace`, and
`threading.settrace` for threads it starts). A module's executable lines
are the nonzero line numbers its code objects map instructions to
(`co_lines()`). Every executable line of src/fairuse that no traced
frame ran is printed, per file, as ranges, then the total. Lines run
only in subprocesses (the import checks of tests/test_imports.py) count
as unreached. Exits with the suite's exit code. Standard library and
pytest only.
"""

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fairuse"


def executable_lines(path):
    """Line numbers of `path` that its compiled code objects execute."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        # A module's code starts with an instruction at line 0.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return lines


def _ranges(lines):
    """Sorted line numbers as "a-b" ranges of consecutive numbers."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def run_traced(pytest_args):
    """Run pytest in-process under the tracer; returns (exit code, reached
    (filename, line) pairs)."""
    prefix = str(PACKAGE)
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            "--continue-on-collection-errors",
                            str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, reached


def main(argv=None):
    code, reached = run_traced(sys.argv[1:] if argv is None else argv)
    total = missed = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = {line for line in lines
                     if (str(path), line) not in reached}
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print(f"{path.relative_to(ROOT)}: {_ranges(unreached)}")
    print(f"{missed} of {total} executable lines unreached")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
