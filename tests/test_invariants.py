import ast
import importlib
import inspect
import pickle
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


def test_each_speed_rule_text_is_written_once():
    # a map that would restate another map's row hands the base to it instead.
    # A row is SpeedResult(speed, "text") or _rule(a, label, *names), named by
    # its text or label (an f-string label by its source).
    rows, names = [], {name for r20 in range(1, 20, 2) for name in speed._names(r20)}
    for node in ast.walk(ast.parse((SRC / "speed.py").read_text())):
        func = getattr(node, "func", None)
        if getattr(func, "id", None) == "SpeedResult":
            args = [*node.args[1:2], *(k.value for k in node.keywords if k.arg == "rule")]
            rows += [arg.value for arg in args if isinstance(arg, ast.Constant)]
        elif getattr(func, "id", None) == "_rule":
            label, *named = node.args[1:]
            rows.append(label.value if isinstance(label, ast.Constant) else ast.unparse(label))
            names |= {arg.value for arg in named if isinstance(arg, ast.Constant)}
    assert sorted(r for r in set(rows) if rows.count(r) > 1) == []
    assert len(rows) == 16  # 13 rows in speed_mod100, 1 in speed_mod20 and 2 in speed_exact
    assert names == set(speed._VALUATIONS)  # every name a rule prints is computed, and no other


def test_no_residue_table_in_the_constants_or_the_closed_forms():
    # decadic derives the fifteen solutions and speed the tiers from a residue's
    # roots mod 4 and mod 5; a dict or set display of more than 6 integers (or
    # integer tuples) would restate that by hand
    def is_integral(node):
        try:
            value = ast.literal_eval(node)
        except ValueError:
            return False
        items = value if isinstance(value, tuple) else (value,)
        return all(type(x) is int for x in items)

    found = []
    for name in ("decadic.py", "speed.py"):
        for node in ast.walk(ast.parse((SRC / name).read_text())):
            items = node.keys if isinstance(node, ast.Dict) else node.elts if isinstance(node, ast.Set) else []
            if sum(item is not None and is_integral(item) for item in items) > 6:
                found.append(f"{name}:{node.lineno}")
    assert found == []


def test_no_function_keeps_a_process_wide_cache():
    # a cache must come with a workload that shows its traffic
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    target = deco.func if isinstance(deco, ast.Call) else deco
                    if ast.unparse(target).split(".")[-1] in ("lru_cache", "cache"):
                        found.append(f"{path.name}:{node.name}")
    assert found == []


def test_stability_runs_no_oracle_and_takes_no_budget():
    # every count in stability comes from the valuation lines (_count), so it
    # names no oracle run and no digit budget, and min_height bisects the counts
    names, loops = set(), []
    for func in ast.parse((SRC / "stability.py").read_text()).body:
        for node in ast.walk(func):
            names |= {getattr(node, field) for field in ("id", "attr", "arg", "name", "asname")
                      if isinstance(getattr(node, field, None), str)}
            if getattr(func, "name", None) == "min_height" and isinstance(node, (ast.For, ast.While, ast.comprehension)):
                loops.append(node.lineno)
    banned = {"certified_sequence", "speed_sequence", "_stable_counts"}
    assert sorted(n for n in names if n in banned or "budget" in n.lower()) == []
    assert loops == []


def test_only_main_emits_a_cli_report():
    # the commands return (inputs, result, lines); main alone prints, serializes and writes
    emitters = {"print", "open", "json.dumps", "json.dump"}
    found = []
    for func in ast.parse((SRC / "cli.py").read_text()).body:
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in emitters:
                found.append(f"{func.name}:{node.lineno}")
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
    assert len(tetrastable.__all__) == 44
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


# Each result type, one instance, and its repr as the dataclass versions printed it.
RESULT_TYPES = [
    ("AlphaTag", ("x2", "x1"), lambda: tetrastable.AlphaTag(5, 1), "AlphaTag(x2=5, x1=1)"),
    (
        "AlphaDigits",
        ("tag", "n", "digits"),
        lambda: tetrastable.alpha_digits(tetrastable.AlphaTag(5, 1), 6),
        "AlphaDigits(tag=AlphaTag(x2=5, x1=1), n=6, digits='218751')",
    ),
    (
        "KeyDigitReport",
        ("l", "s_l", "diff"),
        lambda: tetrastable.key_digit(7, tetrastable.AlphaTag(0, 7)),
        "KeyDigitReport(l=3, s_l=0, diff=-8)",
    ),
    (
        "SpeedResult",
        ("speed", "rule"),
        lambda: tetrastable.speed_exact(7),
        "SpeedResult(speed=2, rule='mod20=7, l=3, |s_l-alpha_07[l]|=8!=5: v5(a^2+1)')",
    ),
    (
        "SpeedSequence",
        ("a", "entries", "frozen_prefix", "stabilized_at"),
        lambda: tetrastable.speed_sequence(7, 5),
        "SpeedSequence(a=7, entries=[0, 2, 2, 2, 2], frozen_prefix=[0, 2, 4, 6, 8], stabilized_at=2)",
    ),
    (
        "StableCount",
        ("kind", "value", "lower", "upper", "formula_id"),
        lambda: tetrastable.stable_count(7, 2),
        "StableCount(kind='exact', value=2, lower=2, upper=2, formula_id='stabilized tail: n(bbar) + (b-bbar)V')",
    ),
    ("HeightPlan", ("target", "height"), lambda: tetrastable.min_height(7, 10), "HeightPlan(target=10, height=6)"),
]


@pytest.mark.parametrize("name, fields, make, text", RESULT_TYPES, ids=[t[0] for t in RESULT_TYPES])
def test_result_types_are_immutable_named_tuples(name, fields, make, text):
    cls = getattr(tetrastable, name)
    value = make()
    assert type(value) is cls
    assert cls._fields == fields
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, fields[0], getattr(value, fields[0]))
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value
    assert value._replace()._asdict() == dict(zip(fields, value))


def test_alpha_tag_checks_every_way_it_is_built():
    AlphaTag = tetrastable.AlphaTag
    with pytest.raises(ValueError, match=r"\.\.\.11"):
        AlphaTag(1, 1)
    with pytest.raises(ValueError, match=r"\.\.\.11"):
        AlphaTag(5, 1)._replace(x2=1)
    table = {AlphaTag.from_label("51"): "one minus twice e5"}
    assert table[AlphaTag(5, 1)] == table[(5, 1)] == "one minus twice e5"
    assert str(AlphaTag.from_label("07")) == "alpha_07"
