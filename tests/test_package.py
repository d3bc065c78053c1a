import ast
import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import commscale

# The modules whose public names the package root re-exports.
MODULES = ("ensemble", "errors", "graphio", "meanfield", "promisegraph", "uslkit")

SRC = Path(commscale.__file__).parent
BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
# The timed stages of the traced runs, "layer.function"; import times are not stages of a function.
TRACED_STAGES = [m["name"][:-2] for m in BENCHMARK["per_layer"] if m["name"].endswith("_s")
                 and not m["name"].endswith(".import_s")]
# Stages that the tracer names after something other than the function it wraps.
TRACED_AS = {"cli.main_self": "cli.main", "promisegraph.construct": "promisegraph.PromiseGraph.__init__"}


@pytest.mark.parametrize("name", MODULES)
def test_root_binds_each_public_name_to_the_modules_own_object(name):
    module = importlib.import_module(f"commscale.{name}")
    assert module.__all__
    for public in module.__all__:
        assert getattr(commscale, public) is getattr(module, public), f"commscale.{public}"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from commscale import *", namespace)
    wanted = {public for name in MODULES for public in importlib.import_module(f"commscale.{name}").__all__}
    assert wanted - namespace.keys() == set()


def _fresh(code: str) -> str:
    """stdout of code run in a fresh `python -I` interpreter that imports commscale from this checkout."""
    # -I ignores PYTHONDONTWRITEBYTECODE, so -B passes the caller's choice on.
    isolated = [sys.executable, "-I", *(["-B"] if sys.dont_write_bytecode else [])]
    proc = subprocess.run([*isolated, "-c", f"import sys; sys.path.insert(0, sys.argv[1])\n{code}", str(SRC.parent)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(*sorted(m for m in sys.modules if m.startswith('commscale.')))"


class TestLazyRoot:
    """import commscale loads no submodule; a name loads what serves it on first use."""

    def test_import_loads_no_submodule(self):
        assert _fresh(f"import commscale\n{LOADED}") == "\n"

    def test_a_submodule_name_loads_that_submodule_alone(self):
        # cli's handlers import their modules this way; a search of every __all__ would load the whole package.
        assert _fresh(f"from commscale import uslkit\n{LOADED}") == "commscale._record commscale.errors commscale.uslkit\n"

    def test_a_public_name_and_a_submodule_resolve(self):
        out = _fresh("import commscale\nfrom commscale import cli\nimport commscale.promisegraph as pg\n"
                     "print(commscale.adjacency is pg.adjacency, cli.main is sys.modules['commscale.cli'].main)\n"
                     "print('adjacency' in vars(commscale))")
        # A public name is bound on first use, so later lookups are plain attribute reads.
        assert out == "True True\nTrue\n"

    def test_dir_holds_every_public_name(self):
        wanted = {public for name in MODULES for public in importlib.import_module(f"commscale.{name}").__all__}
        assert wanted | set(MODULES) <= set(_fresh("import commscale\nprint(*dir(commscale))").split())

    def test_an_unknown_attribute_is_named(self):
        code = "import commscale\ntry:\n    commscale.no_such_name\nexcept AttributeError as exc:\n    print(exc)"
        assert _fresh(code) == "module 'commscale' has no attribute 'no_such_name'\n"


@pytest.mark.parametrize("stage", TRACED_STAGES)
def test_each_traced_stage_names_a_public_function_of_its_layer(stage):
    # The tracer wraps a layer's public functions under "module.name"; were one renamed or moved, its
    # stage would read zero in every traced run and nothing would fail.
    layer, public, *attrs = TRACED_AS.get(stage, stage).split(".")
    module = importlib.import_module(f"commscale.{layer}")
    assert public in module.__all__
    fn = getattr(module, public)
    for attr in attrs:
        fn = vars(fn)[attr]
    assert inspect.isfunction(fn) and (fn.__module__, fn.__name__) == (module.__name__, [public, *attrs][-1])


def _number_rules(tree: ast.AST) -> list:
    """The imports of numbers, uses of operator.index and mentions of __index__ in a module's tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "numbers"]
        elif isinstance(node, ast.ImportFrom) and node.module in ("numbers", "operator"):
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if node.module == "numbers" or alias.name == "index"]
        elif isinstance(node, ast.Attribute) and (node.attr == "__index__" or ast.unparse(node) == "operator.index"):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Constant) and node.value == "__index__":
            found.append("'__index__'")
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"], ids=lambda p: p.name)
def test_only_errors_holds_a_number_rule(path):
    # errors._real and errors._integer decide what a number is; a second rule would need one of these.
    assert _number_rules(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_number_rule_probe_sees_each_old_rule():
    old = ("from numbers import Real\nimport operator\noperator.index(n)\nhasattr(type(v), '__index__')\n"
           "v.__index__()\nfrom operator import index\nimport numbers\n")
    assert sorted(_number_rules(ast.parse(old))) == sorted(["numbers.Real", "operator.index", "'__index__'",
                                                            "v.__index__", "operator.index", "numbers"])


def _ranges_in_record_inits(tree: ast.AST) -> list:
    """The __init__ methods of the module's Record subclasses that name math.inf, as a hand-written range would."""
    found = []
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and "Record" in map(ast.unparse, cls.bases):
            for init in cls.body:
                if isinstance(init, ast.FunctionDef) and init.name == "__init__":
                    named = {ast.unparse(n) for n in ast.walk(init) if isinstance(n, (ast.Attribute, ast.Name))}
                    if named & {"math.inf", "inf"}:
                        found.append(f"{cls.name}.__init__")
    return found


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "errors.py"], ids=lambda p: p.name)
def test_records_state_their_ranges_in_the_number_rule(path):
    # A field's interval is written once, in the errors._real call that reads it.
    assert _ranges_in_record_inits(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_range_probe_sees_a_hand_written_range():
    old = ("class Queue(Record):\n    def __init__(self, lam):\n        if not 0 <= lam < math.inf:\n            pass\n"
           "class Spec(Record):\n    def __init__(self, n):\n        assert n < inf\n    def bound(self):\n"
           "        return math.inf\nclass Plain:\n    def __init__(self, x):\n        self.x = math.inf\n")
    assert _ranges_in_record_inits(ast.parse(old)) == ["Queue.__init__", "Spec.__init__"]


def _object_setattr_uses(tree: ast.AST) -> list:
    """Each object.__setattr__ that a module's tree reads, whether it calls it at once or binds it to a name."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__"]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "_record.py"], ids=lambda p: p.name)
def test_records_set_their_fields_through_record_alone(path):
    # _record.Record builds each class's slot setters; a second way to store a field would get round them.
    assert _object_setattr_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_field_setter_probe_sees_object_setattr():
    # Promise.__init__ as it stored its fields before records had setters, and a direct call.
    old = ("class Promise(Record):\n    def __init__(self, giver, receiver):\n"
           "        set_field = object.__setattr__\n        set_field(self, 'giver', giver)\n"
           "        set_field(self, 'receiver', receiver)\n"
           "class Agent(Record):\n    def __init__(self, id):\n        object.__setattr__(self, 'id', id)\n")
    assert _object_setattr_uses(ast.parse(old)) == ["line 3", "line 8"]
