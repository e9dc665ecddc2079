import ast
from pathlib import Path

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
