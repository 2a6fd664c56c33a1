"""Every import in the package is used, every private name is read, and
every public name exists.

A stdlib stand-in for pyflakes' F401: an imported name must be read
somewhere in its module, be listed in `__all__`, or sit on a line
marked `# noqa: F401`.  Since `__all__` counts as a use, each of its
names must also be an attribute of the package.  A module-level name
with one leading underscore must be read somewhere in the package, as a
name or as an attribute, so no helper outlives its last caller.  Only
forked.py uses os.fork, and no module imports multiprocessing or
concurrent.futures.  Only corpus.py splits a corpus file into lines or
parses its JSONL records.
"""

import ast
import importlib
from pathlib import Path

import pytest

import espunct

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "espunct"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from re import compile\n"
        "__all__ = ['compile']\n"
        "print(osp)\n"
    )
    assert _unused_imports(source) == ["line 2: os"]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    (module, n.id)
                    for t in targets
                    for n in ast.walk(t)
                    if isinstance(n, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module}: {name}"
        for module, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_every_private_name_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert _unread_private_names(sources) == []


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a.py": "_used = 1\n_unused, _pair = 2, 3\n__all__ = []\ndef _helper():\n    return _used\n",
        "b.py": "import a\nclass _Thing:\n    pass\nprint(a._pair)\n",
    }
    assert _unread_private_names(sources) == [
        "a.py: _unused", "a.py: _helper", "b.py: _Thing"
    ]


# Forking lives in forked.run_forked alone; no module starts processes
# another way.
_OTHER_MECHANISMS = ("multiprocessing", "concurrent.futures")


def _process_mechanisms(source: str) -> list[str]:
    """Each import of multiprocessing or concurrent.futures in source, and
    each use of os.fork."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            modules += [f"{node.module}.{alias.name}" for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "fork"
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        ):
            modules = ["os.fork"]
        else:
            continue
        found.extend(
            m for m in modules
            if m == "os.fork" or any(m == o or m.startswith(o + ".") for o in _OTHER_MECHANISMS)
        )
    return found


def test_only_forked_starts_processes():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        uses = _process_mechanisms(path.read_text(encoding="utf-8"))
        if uses:
            found[path.name] = uses
    assert found == {"forked.py": ["os.fork"]}


# Every corpus file is read by corpus.read_corpus (or read_jsonl); no
# other module splits a file into lines or parses JSONL records itself.
_READER_PARTS = ("jsonl_records", "_text_lines")


def _reader_parts(source: str) -> list[str]:
    """Each name in _READER_PARTS that source defines, imports or reads,
    once per occurrence, sorted."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name.rpartition(".")[2])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
    return sorted(name for name in names if name in _READER_PARTS)


def test_only_corpus_reads_a_corpus_file():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        parts = _reader_parts(path.read_text(encoding="utf-8"))
        if parts:
            found[path.name] = sorted(set(parts))
    assert found == {"corpus.py": sorted(_READER_PARTS)}


def test_the_check_sees_every_reader_part():
    source = (
        "from .corpus import jsonl_records as records\n"
        "import espunct.corpus\n"
        "def _text_lines(data):\n"
        "    return data\n"
        "lines = espunct.corpus.jsonl_records(b'')\n"
        "text_lines = _text_lines\n"
    )
    assert _reader_parts(source) == [
        "_text_lines", "_text_lines", "jsonl_records", "jsonl_records"
    ]


def test_the_check_sees_every_process_mechanism():
    source = (
        "import os, multiprocessing.pool\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from os import fork\n"
        "import concurrently, forkserver\n"
        "pid = os.fork()\n"
        "ok = hasattr(os, 'fork')\n"
    )
    assert _process_mechanisms(source) == [
        "multiprocessing.pool",
        "concurrent.futures",
        "concurrent.futures",
        "concurrent.futures.ProcessPoolExecutor",
        "os.fork",
        "os.fork",
    ]


def test_every_public_name_exists():
    assert [name for name in espunct.__all__ if not hasattr(espunct, name)] == []


def _wrapped_names(source: str) -> list[tuple[str, str]]:
    """(module, name) for every name bench/worker.py's install_tracer
    wraps: its tuples of names, looked up in espunct.cli and (for grid)
    espunct.pipeline, and each wrap call given literal strings."""
    tree = ast.parse(source)
    tuples = {
        t.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for t in node.targets
        if isinstance(t, ast.Name) and t.id in ("_SHARED_NAMES", "_PIPELINE_ONLY")
    }
    shared, pipeline_only = tuples["_SHARED_NAMES"], tuples["_PIPELINE_ONLY"]
    wanted = [("espunct.cli", name) for name in shared]
    wanted += [("espunct.pipeline", name) for name in shared + pipeline_only]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "wrap"
            and len(node.args) >= 2
            and all(isinstance(a, ast.Constant) for a in node.args[:2])
        ):
            wanted.append((node.args[0].value, node.args[1].value))
    return wanted


def test_every_name_the_benchmark_wraps_exists():
    # A traced benchmark run replaces each name where its caller looks it
    # up, and fails if the caller no longer imports it.
    wanted = _wrapped_names((ROOT / "bench" / "worker.py").read_text(encoding="utf-8"))
    assert ("espunct.evaluate", "repair_pairing") in wanted
    assert ("espunct.pipeline", "run_strategy") in wanted
    missing = [f"{m}.{n}" for m, n in wanted if not hasattr(importlib.import_module(m), n)]
    assert missing == []


def _bench_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) for every espunct import in a bench script, at top
    level or inside a function; name is None for a plain `import`."""
    wanted: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("espunct"):
            wanted.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            wanted.extend(
                (alias.name, None) for alias in node.names if alias.name.startswith("espunct")
            )
    return wanted


def test_the_bench_import_check_sees_nested_imports():
    source = (
        "import os\n"
        "from espunct.corpus import PunctClass, render\n"
        "def f():\n"
        "    import espunct.cli as cli\n"
        "    from espunct.pipeline import restore\n"
    )
    assert _bench_imports(source) == [
        ("espunct.corpus", "PunctClass"),
        ("espunct.corpus", "render"),
        ("espunct.cli", None),
        ("espunct.pipeline", "restore"),
    ]


def test_every_name_the_benchmark_imports_exists():
    # The benchmark imports most of what it runs inside its workload
    # functions, so a renamed name would otherwise fail only at run time.
    wanted = {
        item
        for path in sorted((ROOT / "bench").glob("*.py"))
        for item in _bench_imports(path.read_text(encoding="utf-8"))
    }
    assert "espunct.crosslingual" in {module for module, _ in wanted}
    assert ("espunct.postprocess", "validate_pairing") in wanted
    assert ("espunct.synthetic", "transfer_benchmark") in wanted
    missing = []
    for module, name in sorted(wanted, key=lambda item: (item[0], item[1] or "")):
        try:
            imported = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(imported, name):
            missing.append(f"{module}.{name}")
    assert missing == []
