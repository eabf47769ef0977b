"""Line trace of tier-1: every executable line of ``src/gridqmc`` that no test runs.

Runs the suite in this process, ``pytest -q -p no:cacheprovider tests``,
under ``sys.settrace`` and ``threading.settrace``, and records the lines run
in frames whose code comes from ``src/gridqmc``. A module's executable lines
are those of its compiled code objects (``co_lines``, nested code included),
less the body of a module-level ``if __name__ == "__main__":``, which runs
only when the module is run as a script. Prints ``path:line: source`` for
each executable line that no test ran, and exits 1 if it prints a line or
pytest fails, 0 otherwise:

    python3 tools/line_trace.py

Code that a test runs in a subprocess (the CLI and demo tests) is not traced,
so a line that only such a test reaches is printed. The traced suite runs
several times slower than an untraced one. Needs pytest; takes no options.
"""
from __future__ import annotations

import ast
import sys
import threading
from collections.abc import Callable, Iterator
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gridqmc"


def _code_objects(code: CodeType) -> Iterator[CodeType]:
    yield code
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _code_objects(const)


def executable_lines(path: Path) -> set[int]:
    """The lines that the code compiled from ``path`` maps an instruction to, less a script block."""
    source = path.read_text()
    module = compile(source, str(path), "exec")
    lines = {line for code in _code_objects(module) for *_, line in code.co_lines() if line}
    for node in ast.parse(source).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            lines -= set(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def run_traced(run: Callable[[], object], package: Path) -> tuple[object, dict[str, set[int]]]:
    """``run()`` under a line trace of the frames whose file lies in ``package``.

    Returns what ``run`` returned and, per file name, the lines run: each
    line event and each call's first line, which a function's entry
    instruction carries in ``co_lines``. The trace functions set before
    are set again after.
    """
    prefix = str(package.resolve()) + "/"
    ran: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        lines = ran.setdefault(name, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    previous, previous_thread = sys.gettrace(), threading.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        result = run()
    finally:
        sys.settrace(previous)
        threading.settrace(previous_thread)
    return result, ran


def unrun_lines(package: Path, ran: dict[str, set[int]]) -> list[tuple[Path, int]]:
    """The executable lines of every module in ``package`` missing from ``ran``, in file order."""
    missing = []
    for path in sorted(package.resolve().rglob("*.py")):
        seen = ran.get(str(path), set())
        missing.extend((path, line) for line in sorted(executable_lines(path) - seen))
    return missing


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    import pytest

    exit_code, ran = run_traced(lambda: pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]), PACKAGE)
    missing = unrun_lines(PACKAGE, ran)
    for path, line in missing:
        source = path.read_text().splitlines()[line - 1]
        print(f"{path.relative_to(ROOT.resolve())}:{line}: {source.strip()}")
    return 1 if missing or exit_code != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
