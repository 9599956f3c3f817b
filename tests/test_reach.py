"""Every function under src/diracctx runs for some command.

A subprocess profiles every call from before `import diracctx.cli` on, runs
each command through `main` in JSON and CSV (plus a beta grid and an explicit
xi), and reports the functions it entered. Each `def` in the package must be
among them, save the allow-list below: code that only the tests reach does
not belong in src/.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diracctx"

# module.qualname -> why it stays though no command calls it
ALLOWED = {
    "cli.render": "benchmarks/layers.py traces it",
}

# functions are keyed by file and first line, decorators counted, as
# co_firstlineno gives them: Python 3.10 has no co_qualname
PROBE = r"""
import contextlib, io, json, os, sys

package = os.path.realpath(sys.argv[1])
sys.path.insert(0, os.path.dirname(package))
entered = set()


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(profile)
import diracctx.cli as cli

assert os.path.realpath(cli.__file__).startswith(package), cli.__file__
runs = [[name, "--format", fmt] for name in cli.COMMANDS for fmt in ("json", "csv")]
runs += [["free-electron", "--beta-grid", "0:0.9:3"], ["excited", "--xi", "0.3"]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
sys.setprofile(None)
print(json.dumps(sorted([os.path.basename(f), line] for f, line in entered)))
"""


def _defs():
    """(file name, first line) -> module.qualname of every def in the package."""
    found = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[module + ".py", first] = f"{module}.{name}"
                walk(child, module, name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_every_function_runs_for_some_command():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(PACKAGE)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    defs = _defs()
    assert len(defs) > 50
    never = {name for key, name in defs.items() if key not in entered}
    # code only the tests reach, and allow-list entries a command now reaches
    assert sorted(never - set(ALLOWED)) == []
    assert sorted(set(ALLOWED) - never) == []
