"""Every name a module imports is used in that module, every private
module-level name and UPPER_CASE constant is read somewhere in the
package, only ``policy`` solves tables by kind (the others call
``policy_table``), only the command line's ``main`` builds the
environment and the meta and writes output, and only ``environment``
words the real-number rule and tests finiteness."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "standout"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nimport os\nos.getcwd()\n") == ["math (line 1)"]
    assert unused_imports("from a import b as c\nc()\n") == []


def unread_names(sources: dict) -> list:
    """Private module-level names and UPPER_CASE constants defined in
    ``sources`` (file name -> text) that no source reads, by name or as
    an attribute."""
    defined, read = {}, set()
    for fname, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.isupper() or (name.startswith("_") and not name.startswith("__")):
                    defined[f"{fname}: {name}"] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(where for where, name in defined.items() if name not in read)


def test_every_private_name_and_constant_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_names(sources) == []


def test_checker_flags_an_unread_name():
    sources = {"a.py": "LIMIT = 3\n_spare = 1\n__version__ = '1'\n"
                       "def _helper():\n    return 0\n",
               "b.py": "from a import _helper\nx = _helper()\nPUBLIC = 1\n"}
    assert unread_names(sources) == ["a.py: LIMIT", "a.py: _spare", "b.py: PUBLIC"]


def calls_of(names, sources: dict) -> list:
    """Calls of a function in ``names``, by name or as an attribute, in
    ``sources`` (file name -> text)."""
    calls = []
    for fname, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in names:
                calls.append(f"{fname}: {name} (line {node.lineno})")
    return sorted(calls)


TABLE_SOLVES = ("optimal_table", "myopic_table")


def test_only_policy_solves_tables_by_kind():
    sources = {p.name: p.read_text() for p in MODULES if p.name != "policy.py"}
    assert calls_of(TABLE_SOLVES, sources) == []


def test_checker_flags_a_table_solve():
    sources = {"a.py": "from .policy import optimal_table\nt = optimal_table(env)\n",
               "b.py": "from . import policy\nsolve = policy.optimal_table\n"
                       "t = policy.myopic_table(env)\n"
                       "u = policy.policy_table(env, 'myopic')\n"}
    assert calls_of(TABLE_SOLVES, sources) == ["a.py: optimal_table (line 2)",
                                               "b.py: myopic_table (line 3)"]


def test_only_environment_tests_finiteness():
    sources = {p.name: p.read_text() for p in MODULES if p.name != "environment.py"}
    assert calls_of(("isfinite",), sources) == []


def test_checker_flags_a_second_finiteness_test():
    sources = {"a.py": "import math\nok = math.isfinite(x)\n",
               "b.py": "import numpy as np\nfrom math import isfinite\n"
                       "ok = np.isfinite(a).all() and isfinite(b)\n"
                       "ok = is_finite_real(x) and np.isnan(y)\n"}
    assert calls_of(("isfinite",), sources) == ["a.py: isfinite (line 2)",
                                                "b.py: isfinite (line 3)",
                                                "b.py: isfinite (line 3)"]


def cli_writers(source: str) -> list:
    """Calls of ``_env_from_args``, of ``_meta`` or of a ``.write`` method
    inside any function of ``source`` other than ``main``."""
    calls = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = callee.id if isinstance(callee, ast.Name) else None
            if name in ("_env_from_args", "_meta") or (
                    isinstance(callee, ast.Attribute) and callee.attr == "write"):
                calls.add(f"{func.name}: {name or 'write'} (line {node.lineno})")
    return sorted(calls)


def test_only_cli_main_builds_the_environment_and_writes():
    assert cli_writers((SRC / "cli.py").read_text()) == []


def test_checker_flags_a_second_writer():
    source = ("def main(args):\n"
              "    sys.stdout.write(_cmd(args, _env_from_args(args)))\n"
              "def _cmd(args, env):\n"
              "    env = _env_from_args(args)\n"
              "    meta = _meta(env, args)\n"
              "    with open(args.out, 'w') as fh:\n"
              "        fh.write(str(env) + str(meta))\n")
    assert cli_writers(source) == ["_cmd: _env_from_args (line 4)",
                                   "_cmd: _meta (line 5)",
                                   "_cmd: write (line 7)"]


def real_rule_messages(sources: dict) -> list:
    """String constants, f-string parts included, that say "must be
    finite" in ``sources`` (file name -> text)."""
    found = []
    for fname, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "must be finite" in node.value):
                found.append(f"{fname}: line {node.lineno}")
    return sorted(found)


def test_only_environment_words_the_real_rule():
    sources = {p.name: p.read_text() for p in MODULES if p.name != "environment.py"}
    assert real_rule_messages(sources) == []


def test_checker_flags_a_second_real_rule():
    sources = {"a.py": "if not x > 0:\n"
                       "    raise ValueError(f'{name} must be finite, got {x!r}')\n",
               "b.py": "msg = 'rate must be finite and > 0'\n"
                       "ok = require_real('rate', rate, least=0)\n"
                       "note = 'n must be an integer'\n"}
    assert real_rule_messages(sources) == ["a.py: line 2", "b.py: line 1"]
