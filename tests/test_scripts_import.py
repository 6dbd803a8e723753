"""Every example and standalone bench script imports against ``repro``.

Each script is loaded as a plain module, which runs its imports and
module-level code but not ``main``: the scripts keep that behind
``if __name__ == "__main__"``.  A public name deleted from ``repro``
then fails here instead of in a user's hands.  ``benchmarks/bench_*.py``
files without that guard are pytest benches and are not imported here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GUARD = 'if __name__ == "__main__":'

EXAMPLES = sorted(ROOT.glob("examples/*.py"))
BENCH_SCRIPTS = sorted(path for path in ROOT.glob("benchmarks/*.py")
                       if GUARD in path.read_text())
SCRIPTS = EXAMPLES + BENCH_SCRIPTS


def test_scripts_found():
    assert len(EXAMPLES) >= 4 and len(BENCH_SCRIPTS) >= 7


@pytest.mark.parametrize("path", SCRIPTS,
                         ids=[str(p.relative_to(ROOT)) for p in SCRIPTS])
def test_script_imports_without_running(path, monkeypatch):
    assert GUARD in path.read_text(), "%s runs on import" % path.name
    # the bench scripts put their own directory on sys.path to import
    # their sibling ``common``; undo that and drop what it loaded
    monkeypatch.setattr(sys, "path", list(sys.path))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location(
        "_script_%s_%s" % (path.parent.name, path.stem), path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        for name in set(sys.modules) - loaded:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if Path(origin).parent in (ROOT / "benchmarks", ROOT / "examples"):
                del sys.modules[name]
    assert callable(module.main)
