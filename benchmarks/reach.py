"""Which ``src/`` functions does no product path reach?

Runs the product entry set with a profiler in every Python process it
starts, then lists each ``src/repro`` function that never ran, with its
line count.  The entry set:

- the CI "CLI smoke" steps (read from ``.github/workflows/ci.yml``);
- every ``examples/*.py``;
- the script benches (a ``__main__`` guard and ``--scale``) at
  ``--scale 0.1``, each writing its report to a scratch file;
- the pytest benches at ``REPRO_BENCH_SCALE=0.1 --benchmark-disable``;
- ``benchmarks/chaos_smoke.py``;
- ``benchmarks/e2e/test_e2e_smoke.py``.

Every process, CLI subprocesses included, loads a ``sitecustomize.py``
from a scratch directory on its ``PYTHONPATH``; it installs
``sys.setprofile`` and ``threading.setprofile`` and appends each code
object it sees enter to a per-process file, so a process killed
mid-run still counts.  A function matches by ``(file,
co_firstlineno)``, which for a decorated function is its first
decorator line.  A failing entry (a bench whose quality floor does not
hold at scale 0.1) is reported and the run goes on.

Run from anywhere, no options (stdlib only; tens of minutes)::

    python benchmarks/reach.py
"""

from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
BENCH_SCALE = "0.1"

SITECUSTOMIZE = '''\
import os
import sys
import threading

_src = os.environ["REPRO_REACH_SRC"]
_seen = set()
_out = open(os.path.join(os.environ["REPRO_REACH_OUT"],
                         "%d.txt" % os.getpid()), "a")


def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    key = (code.co_filename, code.co_firstlineno)
    if key in _seen:
        return
    _seen.add(key)
    path = os.path.abspath(code.co_filename)
    if path.startswith(_src):
        _out.write("%s:%d\\n" % (path, code.co_firstlineno))
        _out.flush()


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def ci_cli_smoke() -> List[Tuple[str, str]]:
    """``(step name, script)`` of every CI step named "... CLI smoke ..."."""
    lines = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text() \
        .splitlines()
    steps = []
    for i, line in enumerate(lines):
        name = re.match(r"\s*- name: (.*CLI smoke.*)$", line)
        if not name:
            continue
        run = re.match(r"(\s*)run: \|$", lines[i + 1])
        if not run:
            continue
        body = []
        for text in lines[i + 2:]:
            if text.strip() and len(text) - len(text.lstrip()) <= len(
                    run.group(1)):
                break
            body.append(text.strip())
        steps.append((name.group(1), "\n".join(body)))
    return steps


def entry_set(work: pathlib.Path) -> List[Tuple[str, List[str], Dict]]:
    """``(label, argv, extra env)`` for every entry, in run order."""
    python = sys.executable
    entries = []
    for name, script in ci_cli_smoke():
        # the steps write under /tmp and pin PYTHONPATH=src inline
        script = script.replace("/tmp/", "%s/" % work)
        script = script.replace("PYTHONPATH=src",
                                "PYTHONPATH=%s:src" % (work / "site"))
        entries.append(("ci: " + name, ["bash", "-e", "-c", script], {}))
    for example in sorted((REPO_ROOT / "examples").glob("*.py")):
        entries.append(("example: " + example.name,
                        [python, str(example)], {}))
    pytest_benches = []
    for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        text = bench.read_text()
        if "__main__" in text and "--scale" in text:
            entries.append((
                "script: " + bench.name,
                [python, str(bench), "--scale", BENCH_SCALE,
                 "--out", str(work / (bench.stem + ".json"))], {}))
        else:
            pytest_benches.append(bench)
    for bench in pytest_benches:
        entries.append((
            "pytest: " + bench.name,
            [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "--benchmark-disable", str(bench)],
            {"REPRO_BENCH_SCALE": BENCH_SCALE}))
    entries.append(("script: chaos_smoke.py",
                    [python, str(REPO_ROOT / "benchmarks" / "chaos_smoke.py"),
                     "--artifacts", str(work / "chaos")], {}))
    entries.append(("pytest: e2e/test_e2e_smoke.py",
                    [python, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                     str(REPO_ROOT / "benchmarks" / "e2e" /
                         "test_e2e_smoke.py")], {}))
    return entries


def src_functions() -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(file, first line) -> (qualified name, line count)`` of every
    ``def`` under ``src/repro``, nested ones included."""
    functions = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                functions[(path, first)] = (name, child.end_lineno - first + 1)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted((SRC / "repro").rglob("*.py")):
        visit(ast.parse(path.read_text()), str(path), "")
    return functions


def _recorded(out_dir: pathlib.Path) -> int:
    return sum(record.stat().st_size for record in out_dir.glob("*.txt"))


def reached(out_dir: pathlib.Path) -> Set[Tuple[str, int]]:
    keys = set()
    for record in out_dir.glob("*.txt"):
        for line in record.read_text().splitlines():
            path, _, lineno = line.rpartition(":")
            keys.add((path, int(lineno)))
    return keys


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = pathlib.Path(tmp)
        (work / "site").mkdir()
        (work / "site" / "sitecustomize.py").write_text(SITECUSTOMIZE)
        out_dir = work / "reached"
        out_dir.mkdir()
        failed = []
        for label, argv, extra in entry_set(work):
            env = dict(os.environ, REPRO_REACH_OUT=str(out_dir),
                       REPRO_REACH_SRC=str(SRC), **extra)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(work / "site"), str(SRC)]
                + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
            start, recorded = time.perf_counter(), _recorded(out_dir)
            code = subprocess.run(argv, cwd=REPO_ROOT, env=env,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL).returncode
            print("%-50s exit %d  %6.1f s%s"
                  % (label, code, time.perf_counter() - start,
                     "" if _recorded(out_dir) > recorded
                     else "  (recorded nothing)"),
                  file=sys.stderr, flush=True)
            if code:
                failed.append(label)
        seen = reached(out_dir)
    functions = src_functions()
    unreached = sorted(key for key in functions if key not in seen)
    for path, first in unreached:
        name, lines = functions[(path, first)]
        print("%s:%d  %s  %d" % (os.path.relpath(path, REPO_ROOT), first,
                                 name, lines))
    print("%d of %d src/ functions (%d lines) never run"
          % (len(unreached), len(functions),
             sum(functions[key][1] for key in unreached)))
    if failed:
        print("entries that exited nonzero (their reach still counts): %s"
              % ", ".join(failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
