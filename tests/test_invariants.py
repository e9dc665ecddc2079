import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

import tetrastable
from tetrastable import InvariantError, cli, speed

SRC = Path(tetrastable.__file__).resolve().parent


def test_source_has_no_assert_statements():
    # invariants must survive python -O, which strips assert statements
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_cli_reports_a_violated_invariant_and_exits_one(capsys, monkeypatch):
    def broken(a):
        raise InvariantError(f"closed form broke at a={a}")

    monkeypatch.setattr(speed, "speed_exact", broken)
    code = cli.main(["speed", "501"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: invariant violated: closed form broke at a=501\n"
    assert captured.out == ""


LAYERS = [importlib.import_module(f"tetrastable.{name}") for name in ("arith", "decadic", "speed", "oracle", "stability")]


def test_every_public_name_is_the_object_its_modules_bind():
    assert len(tetrastable.__all__) == 45
    for name in tetrastable.__all__:
        if name == "__version__":
            continue
        value = getattr(tetrastable, name)
        binders = [m for m in LAYERS if name in vars(m)]
        assert binders, name
        assert all(vars(m)[name] is value for m in binders), name
        if inspect.isclass(value) or inspect.isfunction(value):
            assert vars(sys.modules[value.__module__])[name] is value, name
    assert tetrastable.oracle.NeedsLargerBudget is tetrastable.NeedsLargerBudget


def test_the_lazy_namespace_lists_binds_and_refuses_names():
    assert set(tetrastable.__all__) <= set(dir(tetrastable))
    star: dict = {}
    exec("from tetrastable import *", star)
    for name in tetrastable.__all__:
        assert star[name] is getattr(tetrastable, name), name
    for missing in ("no_such_name", "_tower_walk", "_HOME_"):
        with pytest.raises(AttributeError, match=missing):
            getattr(tetrastable, missing)
