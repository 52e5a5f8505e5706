"""The lines of src/hypme that a pytest run never executes.

Usage (from the repository root):

    python tools/linetrace.py [pytest args]

Runs pytest in this process under sys.settrace and threading.settrace, then
prints, for each module of src/hypme, the executable lines that no traced
frame reached, grouped by the function that holds them, with a count per
module and in all.  A module's executable lines are the line numbers of its
code objects' co_lines(), each credited to the innermost code object that
holds it.  The trace starts before pytest imports anything, so module-level
lines count as run when a test imports the module.  Subprocesses the tests
start are not traced: a line that only a child interpreter runs is listed.

Standard library only (besides pytest itself).  Tracing slows the run down
several times; the exit status is pytest's.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "hypme")


def _code_objects(code: types.CodeType):
    """`code` and every code object nested in it, each before its children."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def executable_lines(path: str) -> dict[int, str]:
    """Each executable line of the module at `path`, with the qualified name
    of the innermost function (or "<module>") that holds it."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    owner = {}
    for code in _code_objects(module):
        name = getattr(code, "co_qualname", code.co_name)  # co_qualname is 3.11+
        for _, _, line in code.co_lines():
            if line is not None:
                owner[line] = name  # children come later, so the innermost wins
    return owner


def _ranges(lines: list[int]) -> str:
    """'3-5, 9' for [3, 4, 5, 9]."""
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def trace_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `args`; returns its exit code and the lines run per file."""
    ran: dict[str, set[int]] = defaultdict(set)
    prefix = PACKAGE + os.sep

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran[frame.f_code.co_filename].add(frame.f_lineno)
            return local
        return None

    sys.path.insert(0, os.path.dirname(PACKAGE))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest

        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def report(ran: dict[str, set[int]]) -> str:
    out = []
    total_missed = total_lines = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        owner = executable_lines(path)
        missed = sorted(set(owner) - ran.get(path, set()))
        total_missed += len(missed)
        total_lines += len(owner)
        out.append(f"src/hypme/{name}: {len(missed)} of {len(owner)} executable lines never ran")
        by_function = defaultdict(list)
        for line in missed:
            by_function[owner[line]].append(line)
        for function, lines in sorted(by_function.items(), key=lambda item: item[1][0]):
            out.append(f"  {function}: {_ranges(lines)}")
    out.append(f"total: {total_missed} of {total_lines} executable lines never ran")
    return "\n".join(out)


def main() -> None:
    code, ran = trace_pytest(sys.argv[1:])
    print(report(ran))
    sys.exit(code)


if __name__ == "__main__":
    main()
