import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tetrastable
from tetrastable import cli, oracle
from tetrastable.cli import _verify_base, main
from tetrastable.speed import speed_mod20


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestSpeedCommand:
    def test_named_base(self, capsys):
        code, report, _ = run_json(capsys, "speed", "501")
        assert code == 0
        assert report["status"] == "ok"
        assert report["inputs"] == {"a": "501"}
        assert report["result"]["speed"] == 2
        assert report["result"]["mod100_map"] == 2
        assert report["result"]["mod20_map"] == 2
        assert report["result"]["agreement"] is True
        assert report["result"]["speed_bound"] == 3

    def test_zero(self, capsys):
        code, report, _ = run_json(capsys, "speed", "0")
        assert code == 0
        assert report["result"]["speed"] == 0

    def test_multiple_of_ten_is_undefined_but_exits_zero(self, capsys):
        code, report, _ = run_json(capsys, "speed", "30")
        assert code == 0
        assert report["result"]["speed"] is None
        code, out, _ = run(capsys, "speed", "30")
        assert "undefined" in out

    def test_arbitrary_precision_base(self, capsys):
        code, report, _ = run_json(capsys, "speed", "45215487480163574218751")
        assert code == 0
        assert report["result"]["speed"] == 25

    def test_parse_failures_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["speed", "abc"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["speed", "-5"])
        assert exc.value.code == 2


class TestSequenceCommand:
    def test_named_sequences(self, capsys):
        code, report, _ = run_json(capsys, "sequence", "163574218751", "--max-b", "8")
        assert code == 0
        assert report["result"]["entries"] == [12, 19, 15, 15, 15, 15, 13, 13]
        code, report, _ = run_json(capsys, "sequence", "2", "--max-b", "5")
        assert report["result"]["entries"] == [0, 0, 1, 1, 1]
        code, report, _ = run_json(capsys, "sequence", "1", "--max-b", "3")
        assert report["result"]["entries"] == [1, 0, 0]

    def test_budget_exhaustion_exits_three(self, capsys):
        code, out, err = run(capsys, "sequence", "163574218751", "--max-b", "8", "--budget", "64")
        assert code == 3
        assert "needs-larger-budget" in err


class TestSmallCommands:
    def test_stable(self, capsys):
        code, report, _ = run_json(capsys, "stable", "5", "3")
        assert code == 0
        assert report["result"]["value"] == 8
        assert report["result"]["kind"] == "exact"

    def test_stable_bounded(self, capsys):
        code, report, _ = run_json(capsys, "stable", "163574218751", "4")
        assert report["result"]["kind"] == "bounded"
        assert report["result"]["lower"] <= report["result"]["upper"]

    def test_unrepresentable_multiple_of_ten_names_the_requested_height(self, capsys):
        code, _, err = run(capsys, "stable", "10", "5")
        assert code == 2
        assert "height-5 tower of 10" in err

    def test_ratio(self, capsys):
        code, report, _ = run_json(capsys, "ratio", "2", "4")
        assert code == 0
        assert report["result"]["numerator"] == 2
        assert report["result"]["denominator"] == 5

    def test_min_height(self, capsys):
        code, report, _ = run_json(capsys, "min-height", "4", "7")
        assert report["result"]["height"] == 8

    def test_classify(self, capsys):
        code, report, _ = run_json(capsys, "classify", "807")
        assert report["result"]["tier"] == "V>=3"
        code, report, _ = run_json(capsys, "classify", "23")
        assert report["result"]["tier"] == "V=1"

    def test_alpha(self, capsys):
        code, report, _ = run_json(capsys, "alpha", "99", "4")
        assert report["result"]["digits"] == "9999"
        code, out, _ = run(capsys, "alpha", "51", "17")
        assert out.strip() == "87480163574218751"

    def test_alpha_rejects_unknown_tags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["alpha", "12", "4"])
        assert exc.value.code == 2


class TestJsonDiscipline:
    @pytest.mark.parametrize(
        "argv",
        [
            ["speed", "51"],
            ["sequence", "5", "--max-b", "4"],
            ["stable", "2", "4"],
            ["ratio", "5", "2"],
            ["min-height", "5", "1"],
            ["classify", "35"],
            ["alpha", "07", "12"],
            ["verify", "--range", "2..12"],
        ],
    )
    def test_reports_round_trip(self, capsys, argv):
        code, out, _ = run(capsys, *argv, "--json")
        report = json.loads(out)
        assert json.loads(json.dumps(report, sort_keys=True)) == report
        assert {"command", "inputs", "result", "status"} <= set(report)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, report, _ = run_json(capsys, "speed", "51", "--out", str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == report


class TestVerifyCommand:
    def test_clean_range(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--range", "2..120")
        assert code == 0
        assert report["status"] == "ok"
        assert report["result"]["failures"] == []
        assert report["result"]["bases_checked"] == 107

    def test_single_base_range(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--range", "2..2")
        assert code == 0
        assert report["result"]["bases_checked"] == 1

    def test_spot_scan_near_a_high_speed_base(self, capsys):
        code, report, _ = run_json(
            capsys, "verify", "--range", "160000000000..160000000100", "--max-b", "6"
        )
        assert code == 0
        assert report["result"]["failures"] == []
        assert report["result"]["bases_checked"] == 90

    def test_deterministic_across_worker_counts(self, capsys):
        _, one, _ = run_json(capsys, "verify", "--range", "2..80", "--max-b", "4")
        _, two, _ = run_json(capsys, "verify", "--range", "2..80", "--max-b", "4", "--workers", "2")
        assert one == two

    def test_uncertified_stabilization_is_a_failed_check(self, monkeypatch):
        real = oracle.speed_sequence

        def uncertified(*args):
            return dataclasses.replace(real(*args), stabilized_at=None)

        monkeypatch.setattr(oracle, "speed_sequence", uncertified)
        _, failures = _verify_base(7, 6, oracle.DEFAULT_BUDGET)
        assert {"a": "7", "check": "stabilization height bound", "expected": "<= 4", "got": "None"} in failures
        assert {"a": "7", "check": "bound width at b=2", "expected": "<= V+1 = None", "got": "3"} in failures

    def test_rejects_bad_ranges(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--range", "9..2"])
        assert exc.value.code == 2


def _digits_to_int(digits: str) -> int:
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return int(digits)
    finally:
        sys.set_int_max_str_digits(old)


class TestPastTheStrDigitsLimit:
    @pytest.mark.parametrize("ending", ["51", "37"])
    def test_speed_of_a_5000_digit_base(self, capsys, ending):
        text = "3" + "1234567890" * 499 + "7" + ending
        code, report, _ = run_json(capsys, "speed", text)
        assert code == 0
        assert report["inputs"] == {"a": text}
        assert report["result"]["agreement"] is True
        assert report["result"]["speed"] == speed_mod20(_digits_to_int(text)).speed

    def test_alpha_to_5000_digits(self, capsys):
        code, report, _ = run_json(capsys, "alpha", "51", "5000")
        assert code == 0
        digits = report["result"]["digits"]
        assert len(digits) == 5000 and digits.endswith("218751")
        y, m = _digits_to_int(digits), 10**5000
        assert pow(y, 5, m) == y

    def test_limit_is_restored(self, capsys, monkeypatch):
        before = sys.get_int_max_str_digits()
        assert run(capsys, "alpha", "51", "17")[0] == 0
        assert sys.get_int_max_str_digits() == before
        with pytest.raises(SystemExit):
            main(["speed", "abc"])
        assert sys.get_int_max_str_digits() == before

        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_speed", broken)
        with pytest.raises(RuntimeError):
            main(["speed", "51"])
        assert sys.get_int_max_str_digits() == before


def test_import_stays_light():
    src = str(Path(tetrastable.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, tetrastable.cli; print(sorted({'mpmath', 'concurrent.futures.process'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
