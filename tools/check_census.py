"""Census of the checks in src/: which `raise` statements the tests execute.

A pytest plugin on the standard library alone.  From the repository root:

    python3 -m pytest -p tools.check_census -q

It traces every line the test run executes in src/ (sys.settrace, and
threading.settrace for threads).  At the end it lists each `raise` statement
with the first test that executed it, or as unreached, then every other
statement that no test reached, then a summary line.  Lines executed while
tests are collected (module imports) count as reached by no test.

It sees in-process code only: what a test runs in a subprocess is not
counted.  Tracing makes the suite several times slower, so the census is not
part of the tier-1 run.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE = {"oracles.py"}  # reference code: counted apart from the production checks

_COMPOUND_FIELDS = ("body", "orelse", "handlers", "finalbody", "cases")


def _statements(tree: ast.Module):
    """(statement, the lines a trace event for it may carry) for every statement but docstrings.

    A simple statement may fire on any of its lines.  A compound statement fires on its
    header, the lines before its first nested statement (decorators included)."""
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str)
    }
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings or isinstance(node, (ast.Global, ast.Nonlocal)):
            continue  # global and nonlocal compile to no code
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        nested = [s.lineno for field in _COMPOUND_FIELDS for s in getattr(node, field, ()) if hasattr(s, "lineno")]
        if isinstance(node, ast.Try):  # the try line itself runs no code: reached with its first statement
            yield node, set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        else:
            last = min(nested) - 1 if nested else node.end_lineno
            yield node, set(range(first, max(first, last) + 1))


class Census:
    def __init__(self):
        self.files = {str(path): path for path in sorted(SRC.rglob("*.py"))}
        self.executed: dict[str, set[int]] = {name: set() for name in self.files}
        self.raise_lines: dict[str, set[int]] = {name: set() for name in self.files}
        self.statements = {}
        for name, path in self.files.items():
            tree = ast.parse(path.read_text(encoding="utf-8"))
            self.statements[name] = list(_statements(tree))
            for node, lines in self.statements[name]:
                if isinstance(node, ast.Raise):
                    self.raise_lines[name] |= lines
        self.first_test: dict[tuple[str, int], str] = {}  # (file, raise line) -> first test that ran it
        self.test = None
        self.lines_of: dict = {}  # code object -> (its lines, its raise lines)
        self.done: set = set()  # code objects whose every line, and every raise under a test, has been seen

    def _global(self, frame, event, arg):
        code = frame.f_code
        if code in self.done or code.co_filename not in self.executed:
            return None
        return self._local

    def _local(self, frame, event, arg):
        name = frame.f_code.co_filename
        if event == "line":
            line = frame.f_lineno
            self.executed[name].add(line)
            if line in self.raise_lines[name] and self.test is not None:
                self.first_test.setdefault((name, line), self.test)
        elif event == "return":
            code = frame.f_code
            if code not in self.lines_of:
                lines = {line for _, _, line in code.co_lines() if line is not None}
                self.lines_of[code] = lines, lines & self.raise_lines[name]
            lines, raises = self.lines_of[code]
            if lines <= self.executed[name] and all((name, line) in self.first_test for line in raises):
                self.done.add(code)
        return self._local

    def start(self):
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def report(self) -> list[str]:
        out = ["check census: in-process code only; what a test runs in a subprocess is not seen"]
        raised = unreached = unreached_ref = 0
        others = []
        for name, path in self.files.items():
            rel, source = path.relative_to(SRC.parent), path.read_text(encoding="utf-8").splitlines()
            for node, lines in sorted(self.statements[name], key=lambda item: item[0].lineno):
                where = f"{rel}:{node.lineno}: {source[node.lineno - 1].strip()}"
                hit = lines & self.executed[name]
                if isinstance(node, ast.Raise):
                    raised += 1
                    tests = sorted(self.first_test[(name, line)] for line in hit if (name, line) in self.first_test)
                    if tests:
                        out.append(f"raise reached   {where}  <- {tests[0]}")
                    else:
                        unreached += 1
                        unreached_ref += path.name in REFERENCE
                        out.append(f"raise UNREACHED {where}")
                elif not hit:
                    others.append(f"statement unreached {where}")
        out += others
        out.append(
            f"check census: {raised} raise statements in src/, {unreached} reached by no test "
            f"({unreached - unreached_ref} outside {', '.join(sorted(REFERENCE))}); "
            f"{len(others)} other statements reached by no test"
        )
        return out


_census = Census()


def pytest_configure(config):
    _census.start()


def pytest_runtest_setup(item):
    _census.test = item.nodeid


def pytest_runtest_logfinish(nodeid, location):
    _census.test = None


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    _census.stop()
    for line in _census.report():
        terminalreporter.write_line(line)
