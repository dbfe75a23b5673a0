"""Lines and `if` branches of src/fairuse that the tier-1 test suite never
runs.

Run from the repository root:

    python scripts/reach.py [extra pytest arguments]

The suite runs in this process under a line tracer (`sys.settrace`, and
`threading.settrace` for threads it starts), which records every line
arc: the previous line to the current line, within one frame. A return
from the frame ends an arc too; an exception starts the next arc afresh.

A module's executable lines are the nonzero line numbers its code
objects map instructions to (`co_lines()`). Every executable line of
src/fairuse that no traced frame ran is printed, per file, as ranges,
then the total.

An `if` statement whose condition ran has a true branch, its body, and a
false branch: its `else` or `elif`, or without one whatever runs next.
The true branch (or an explicit false branch) counts as taken when an
arc runs from the condition's lines into any line of the branch's first
statement; an implicit false branch, when an arc runs from the
condition's lines to a line outside the condition and the body, or out
of the frame. Every untaken branch is printed as the `if` line and the
side never taken, then the total. An `if` whose body starts on its
condition's last line cannot be told apart by line arcs and is skipped.

Lines run only in subprocesses (the import checks of
tests/test_imports.py) count as unreached. Exits with the suite's exit
code. Standard library and pytest only.
"""

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fairuse"
# The target of an arc that leaves the frame.
RETURN = 0


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


def _span(node):
    return set(range(node.lineno, node.end_lineno + 1))


def if_branches(path):
    """(if line, condition lines, body lines, [(side, lines of the
    branch's first statement, explicit)]) for each `if` statement of
    `path` whose body starts below its condition."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out = []
    for node in sorted((node for node in ast.walk(tree)
                        if isinstance(node, ast.If)),
                       key=lambda node: node.lineno):
        condition = set(range(node.lineno, node.test.end_lineno + 1))
        if node.body[0].lineno <= node.test.end_lineno:
            continue
        body = set().union(*map(_span, node.body))
        sides = [("body", _span(node.body[0]), True)]
        if node.orelse:
            sides.append(("else", _span(node.orelse[0]), True))
        else:
            sides.append(("else", None, False))
        out.append((node.lineno, condition, body, sides))
    return out


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
    """Run pytest in-process under the tracer; returns (exit code, the
    set of (filename, from line, to line) arcs run)."""
    prefix = str(PACKAGE)
    arcs = set()

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        last = None

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                line = frame.f_lineno
                arcs.add((filename, last, line))
                last = line
            elif event == "return":
                arcs.add((filename, last, RETURN))
                last = None
            elif event == "exception":
                last = None
            return local

        return local

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
    return code, arcs


def untaken_branches(path, reached, arcs_from):
    """(number of branches whose `if` condition ran, ["line side", ...]
    of those never taken). `arcs_from` maps a line of `path` to the
    lines it ran into."""
    total = 0
    untaken = []
    for line, condition, body, sides in if_branches(path):
        if not condition & reached:
            continue
        targets = set().union(*(arcs_from.get(c, ()) for c in condition))
        for side, first, explicit in sides:
            total += 1
            if explicit:
                taken = targets & first
            else:
                taken = targets - condition - body
            if not taken:
                untaken.append(f"{line} {side}")
    return total, untaken


def main(argv=None):
    code, arcs = run_traced(sys.argv[1:] if argv is None else argv)
    total = missed = branches = not_taken = 0
    report = []
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        reached = {end for filename, _, end in arcs if filename == name}
        arcs_from = {}
        for filename, start, end in arcs:
            if filename == name and start is not None:
                arcs_from.setdefault(start, set()).add(end)
        lines = executable_lines(path)
        unreached = lines - reached
        total += len(lines)
        missed += len(unreached)
        if unreached:
            print(f"{path.relative_to(ROOT)}: {_ranges(unreached)}")
        ran, untaken = untaken_branches(path, reached, arcs_from)
        branches += ran
        not_taken += len(untaken)
        if untaken:
            report.append(f"{path.relative_to(ROOT)}: {', '.join(untaken)}")
    print(f"{missed} of {total} executable lines unreached")
    print()
    print("\n".join(report + [f"{not_taken} of {branches} if branches "
                              "untaken, among conditions that ran"]))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
