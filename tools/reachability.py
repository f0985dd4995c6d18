"""Which ``src/repro`` functions does a full experiment pass never call?

Runs every registered experiment once at the ``fast`` preset, seed 0,
under a ``sys.setprofile`` hook that records each Python code object
entered, then maps the records back onto the function definitions of
every ``src/repro`` module.  A function-body line counts
towards its innermost enclosing function, so nested functions are never
counted twice; module and class-level lines are not counted at all.

Prints, per module, the body lines of functions that were never called
against all function-body lines, then the total.  It takes no
arguments::

    python tools/reachability.py

Unreached is not dead: the CLI, the job service, the fault harness and
the scalar test oracles are reached from other entry points.  Calls made
inside multiprocessing workers are not seen; the fast presets run every
experiment in one process.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"


def function_lines(path: Path) -> dict[tuple[int, ...], int]:
    """Body-line count of each function in ``path``, keyed by start lines.

    The key holds the ``def`` line and, for decorated functions, the
    first decorator's line: ``co_firstlineno`` is one or the other
    depending on the Python version.  Each body line is attributed to
    its innermost enclosing function.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    owner: dict[int, tuple[int, ...]] = {}

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (child.lineno,) + tuple(
                    d.lineno for d in child.decorator_list[:1]
                )
                for line in range(child.body[0].lineno, child.end_lineno + 1):
                    owner[line] = key
            visit(child)

    visit(tree)
    counts: dict[tuple[int, ...], int] = {}
    for key in owner.values():
        counts[key] = counts.get(key, 0) + 1
    return counts


def run_experiments() -> set:
    """``(filename, first line)`` of every code object the pass entered."""
    entered: set = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.path.insert(0, str(PACKAGE.parent))
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        from repro.api import RunSpec, execute, experiment_ids

        for experiment_id in experiment_ids():
            print(f"running {experiment_id}", file=sys.stderr, flush=True)
            execute(RunSpec(experiment_id, preset="fast", seed=0))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return {(str(Path(name).resolve()), line) for name, line in entered}


def main() -> int:
    entered = run_experiments()
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        filename = str(path)
        unreached = total = 0
        for key, lines in function_lines(path).items():
            total += lines
            if not any((filename, line) in entered for line in key):
                unreached += lines
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        rows.append((unreached, total, module.removesuffix(".__init__")))
    rows.sort(key=lambda row: (-row[0], row[2]))
    width = max(len(row[2]) for row in rows)
    print(f"{'module':<{width}}  unreached  of lines")
    for unreached, total, module in rows:
        print(f"{module:<{width}}  {unreached:>9}  {total:>8}")
    unreached = sum(row[0] for row in rows)
    total = sum(row[1] for row in rows)
    print(f"{'TOTAL':<{width}}  {unreached:>9}  {total:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
