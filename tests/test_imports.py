"""Every name a module imports is used in that module, every private
module-level name and UPPER_CASE constant is read somewhere in the
package, only ``policy`` solves tables by kind (the others call
``policy_table``), only the command line's ``main`` builds the
environment and the meta and writes output, only ``environment``
words the real-number rule and the count and position rule and tests
finiteness, and only ``gaussmath``
imports scipy, inside a function, so the subcommands that need only
scalar Gaussian math never load it."""

import ast
import json
import os
import subprocess
import sys
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


def rule_messages(phrases, sources: dict) -> list:
    """String constants, f-string parts included, that contain one of
    ``phrases`` in ``sources`` (file name -> text)."""
    found = []
    for fname, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and any(phrase in node.value for phrase in phrases)):
                found.append(f"{fname}: line {node.lineno}")
    return sorted(found)


REAL_RULE = ("must be finite",)
# the count and position rule's words, and the wordings it replaced
POSITION_RULE = ("must be an integer in", "must be an integer >=", "or an integer",
                 "must lie in ", "out of range")


def test_only_environment_words_the_real_rule():
    sources = {p.name: p.read_text() for p in MODULES if p.name != "environment.py"}
    assert rule_messages(REAL_RULE, sources) == []


def test_checker_flags_a_second_real_rule():
    sources = {"a.py": "if not x > 0:\n"
                       "    raise ValueError(f'{name} must be finite, got {x!r}')\n",
               "b.py": "msg = 'rate must be finite and > 0'\n"
                       "ok = require_real('rate', rate, least=0)\n"
                       "note = 'n must be an integer'\n"}
    assert rule_messages(REAL_RULE, sources) == ["a.py: line 2", "b.py: line 1"]


def test_only_environment_words_the_position_rule():
    sources = {p.name: p.read_text() for p in MODULES if p.name != "environment.py"}
    assert rule_messages(POSITION_RULE, sources) == []


def test_checker_flags_a_second_position_rule():
    sources = {"a.py": "if not 1 <= t <= N:\n"
                       "    raise ValueError(f'draw index must lie in 1..{N}, got {t}')\n"
                       "if j > t:\n    raise ValueError('label out of range')\n",
               "b.py": "msg = f'{where}: depth must be an integer in 1..{N}'\n"
                       "msg = f'J must be null or an integer in 0..{t}'\n"
                       "msg = 'k must be an integer >= 2'\n"
                       "ok = require_count('t', t, 1, N)\n"
                       "msg = 'p must lie strictly in (0, 1)'\n"
                       "msg = f'THREADS must be an integer, got {raw!r}'\n"}
    assert rule_messages(POSITION_RULE, sources) == [
        "a.py: line 2", "a.py: line 4", "b.py: line 1", "b.py: line 2", "b.py: line 3"]


def scipy_imports(sources: dict) -> list:
    """Imports of scipy in ``sources`` (file name -> text) other than
    those inside a function of ``gaussmath.py``."""
    found = []
    for fname, source in sources.items():
        tree = ast.parse(source)
        in_function = {id(node) for func in ast.walk(tree)
                       if isinstance(func, ast.FunctionDef) for node in ast.walk(func)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                roots = [node.module.split(".")[0]]
            else:
                continue
            if "scipy" in roots and not (fname == "gaussmath.py"
                                         and id(node) in in_function):
                found.append(f"{fname}: line {node.lineno}")
    return sorted(found)


def test_only_gaussmath_imports_scipy_inside_a_function():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert scipy_imports(sources) == []


def test_checker_flags_a_scipy_import():
    sources = {"gaussmath.py": "from scipy import special\n"
                               "def cdf(d):\n    from scipy import special\n",
               "policy.py": "import numpy as np\n"
                            "def solve():\n    import scipy.optimize\n",
               "belief.py": "from .gaussmath import special\n"
                            "from scipy.special import erfc\n"}
    assert scipy_imports(sources) == ["belief.py: line 2", "gaussmath.py: line 1",
                                      "policy.py: line 3"]


ENV_ARGS = ["--N", "3", "--sigma-x2", "1.0", "--sigma-e2", "1.0",
            "--v0", "1.0", "--c", "0.1", "--x-b", "-0.3"]
PROBE = ("import json, sys\n"
         "from standout.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(json.dumps([code, 'scipy' in sys.modules]))\n")


def loads_scipy(argv, out) -> bool:
    """Run the command line ``argv`` in a fresh interpreter; whether it
    imported scipy.  The command must exit 0."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE, argv[0], *ENV_ARGS,
                           *argv[1:], "--out", str(out)],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return loaded


@pytest.mark.parametrize("argv", [
    ["policy"], ["policy", "--policy", "myopic"], ["first-stop"],
    ["region", "--t", "3"], ["curse-scan", "--steps", "4"],
    ["simulate", "--n", "200"],
    ["abtest", "--method", "monte_carlo", "--n", "2000", "--steps", "3"],
    ["abtest", "--N", "2", "--steps", "3"],
], ids=["policy", "policy-myopic", "first-stop", "region", "curse-scan", "simulate",
        "abtest-monte_carlo", "abtest-closed_form_n2"])
def test_scalar_commands_never_import_scipy(tmp_path, argv):
    assert not loads_scipy(argv, tmp_path / "out.txt")


def test_depth_dist_imports_scipy_for_phi_on_arrays(tmp_path):
    assert loads_scipy(["depth-dist"], tmp_path / "out.txt")
