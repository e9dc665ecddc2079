import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tetrastable
from tetrastable import cli, oracle, speed
from tetrastable.cli import _verify_base, main
from tetrastable.speed import speed_mod20
from tetrastable.stability import stable_bounds


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
        with pytest.raises(SystemExit) as exc:
            main(["sequence", "7", "--max-b", "0"])
        assert exc.value.code == 2
        assert "value must be positive" in capsys.readouterr().err


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


class TestOptions:
    def test_budget_belongs_to_the_oracle_commands(self, capsys):
        # stable, ratio and min-height read the valuation lines and run no oracle pass
        for argv in (("alpha", "51", "10"), ("speed", "51"), ("classify", "51"), ("stable", "5", "3"),
                     ("ratio", "2", "4"), ("min-height", "4", "7")):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--budget", "64"])
            assert exc.value.code == 2, argv
            assert "--budget" in capsys.readouterr().err, argv
        for argv in (("sequence", "5", "--max-b", "3"), ("verify", "--range", "2..3")):
            assert run(capsys, *argv, "--budget", "64")[0] == 0, argv

    def test_unwritable_out_path_exits_two(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "speed", "5", "--out", str(path))
        assert code == 2
        assert err == f"error: cannot write {path}: No such file or directory\n"
        assert not path.exists()


class TestSmallCommands:
    def test_stable(self, capsys):
        code, report, _ = run_json(capsys, "stable", "5", "3")
        assert code == 0
        assert report["result"]["value"] == 8
        assert report["result"]["kind"] == "exact"

    def test_stable_below_stabilization_is_exact(self, capsys):
        # 163574218751 stabilizes at height 7; the paper's bracket at height 4 is [52, 65]
        code, report, _ = run_json(capsys, "stable", "163574218751", "4")
        assert code == 0
        assert report["result"] == {"kind": "exact", "value": 61, "lower": 61, "upper": 61,
                                    "formula": "valuation lines (b < bbar)"}
        bracket = stable_bounds(163574218751, 4)
        assert bracket.lower <= 61 <= bracket.upper
        code, out, _ = run(capsys, "stable", "163574218751", "4")
        assert out.splitlines()[0] == "stable digits of the height-4 tower of 163574218751: 61"

    def test_stable_and_min_height_answer_past_the_budget(self, capsys):
        # 10^90 + 1 has speed 90: its certified run to height 93 needs more
        # than 8,192 digits, but a count at height 2 is two valuation lines
        a = str(10**90 + 1)
        code, report, _ = run_json(capsys, "sequence", a, "--max-b", "2")
        assert (code, report["result"]["cumulative"]) == (0, [91, 270])
        code, report, _ = run_json(capsys, "stable", a, "2")
        assert (code, report["result"]["value"]) == (0, 270)
        code, report, _ = run_json(capsys, "min-height", a, "50")
        assert (code, report["result"]["height"]) == (0, 1)
        code, report, _ = run_json(capsys, "min-height", "7", str(10**20))
        assert (code, report["result"]["height"]) == (0, 5 * 10**19 + 1)

    def test_unrepresentable_multiple_of_ten_names_the_requested_height(self, capsys):
        code, _, err = run(capsys, "stable", "10", "5")
        assert code == 2
        assert "height-5 tower of 10" in err

    def test_ratio(self, capsys):
        code, report, _ = run_json(capsys, "ratio", "2", "4")
        assert code == 0
        assert report["result"]["numerator"] == 2
        assert report["result"]["denominator"] == 5

    def test_ratio_past_2_53(self, capsys):
        code, report, _ = run_json(capsys, "ratio", "15", "3")
        assert code == 0
        assert report["result"]["denominator"] == 515003176870815368

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

    def test_speed_90_exceeds_the_default_budget(self, capsys):
        # its certified run reaches height 93, whose counts pass 8,192 digits
        a = str(10**90 + 1)
        code, _, err = run(capsys, "verify", "--range", f"{a}..{a}")
        assert code == 3
        assert f"height-93 tower of {a} exceed the 8192-digit budget" in err

    def test_deterministic_across_worker_counts(self, capsys):
        _, one, _ = run_json(capsys, "verify", "--range", "2..80", "--max-b", "4")
        _, two, _ = run_json(capsys, "verify", "--range", "2..80", "--max-b", "4", "--workers", "2")
        assert one == two

    @pytest.mark.parametrize("cpus,workers,hi,pools", [(4, "100000", 10**9, [4]), (2, "2", 80, [2]), (None, "8", 80, [])])
    def test_the_pool_is_capped_at_the_cpu_count(self, capsys, monkeypatch, cpus, workers, hi, pools):
        # a stand-in records the pool size and answers every chunk at once, so no process starts
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                return [(0, 0, []) for _ in chunks]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, report, _ = run_json(capsys, "verify", "--range", f"2..{hi}", "--max-b", "4", "--workers", workers)
        assert code == 0 and sizes == pools
        if not pools:  # one CPU, or an unknown count: the range runs in this process
            _, serial, _ = run_json(capsys, "verify", "--range", "2..80", "--max-b", "4")
            assert report == serial

    def test_uncertified_stabilization_is_a_failed_check(self, monkeypatch):
        real = oracle.speed_sequence

        def uncertified(*args):
            return real(*args)._replace(stabilized_at=None)

        monkeypatch.setattr(oracle, "speed_sequence", uncertified)
        _, failures = _verify_base(7, 6, oracle.DEFAULT_BUDGET)
        assert {"a": "7", "check": "stabilization height bound", "expected": "<= 4", "got": "None"} in failures
        assert {"a": "7", "check": "bound width at b=2", "expected": "<= V+1 = None", "got": "3"} in failures

    def test_rejects_bad_ranges(self, capsys):
        for text, message in (("9..2", "empty range"), ("5", "range must look like LO..HI")):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--range", text])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_a_failing_scan_exits_one_and_keeps_every_failure(self, capsys, monkeypatch):
        # a mod-20 map off by one; speed_exact hands its non-coprime bases to it too,
        # so both failures there name the same row's rule
        real = speed.speed_mod20
        monkeypatch.setattr(speed, "speed_mod20", lambda a: real(a)._replace(speed=real(a).speed + 1))
        expected = []
        for a in range(2, 41):
            if a % 10 == 0:
                continue
            v = oracle.certified_sequence(a).speed
            got = f"{v + 1} ({real(a).rule})"
            checks = ["speed: mod-20 map vs oracle"] + (["speed: exact vs oracle"] if a % 2 == 0 or a % 5 == 0 else [])
            expected += [{"a": str(a), "check": c, "expected": str(v), "got": got} for c in sorted(checks)]
        assert len(expected) > 20
        code, report, _ = run_json(capsys, "verify", "--range", "2..40")
        assert code == 1
        assert report["status"] == "failed"
        assert report["result"]["failures"] == expected
        code, out, _ = run(capsys, "verify", "--range", "2..40")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == f"verified 35 bases in 2..40 ({report['result']['checks']} checks): {len(expected)} failure(s)"
        assert lines[1:] == [f"  a={f['a']}: {f['check']}: expected {f['expected']}, got {f['got']}" for f in expected[:20]]


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


# sha256 of the --json stdout of a fixed set of runs: a change that keeps the
# package's answers must leave every one of these reports byte-identical
_BIG = "3" * 998
GOLDEN_REPORTS = [
    (("speed", "0"), "8a4ed9211708fa1be471eed0365a9c79cc826ff6b7164814db652d00f895548b"),
    (("speed", "1"), "b32c7ed15063ffb32f2e2322be6630bba25e4cc8bed18b0e7189ea57025c865c"),
    (("speed", "2"), "4e7ae243033a23348612c29293e1149acea2fc9c2964156adffae4adf82a1aae"),
    (("speed", "3"), "631914da8690b1acb12653c17a992521327d6b0f9c0b1fb6b8a1a71f06eac4a8"),
    (("speed", "5"), "5c7ac1968b2d73138def3c05964e125ce3f705f543f62824ce8bd4065f0b7e19"),
    (("speed", "7"), "1abdcb444fce889588c73a08b1eb0585be6a5a86b324ce4884866cc44491dde6"),
    (("speed", "25"), "8a49c50245f7c9e4288ccaf82f9683a58eda2be0cf196f097d8272ddc0225380"),
    (("speed", "30"), "100a9e16919f4cdca8ff5da411b4f7dc32a3ecc88b03e14a539392453bb8086c"),
    (("speed", "51"), "667a14f9b6bb587ac4e1b5f7b89f2e1a460990475922b7a923b6660ac25d274b"),
    (("speed", "99"), "f188d773ac4848d74c92043486cb9b20ef5eee7ca344ce7d01ea407b7d437326"),
    (("speed", "501"), "04b8804aab39c7364b788eecac1a7f5cfdad532672e4a55a78101ba9abf04ebb"),
    (("speed", _BIG + "51"), "07376b4f9ec15b679cba76f5de57f2a7405a12cb6ba01d1c61e3e8cfb29a968d"),
    (("speed", _BIG + "49"), "6f13f079d33995301b37eaa28261208c4498b4210c97fa3ed7dfb6c9802b9c9c"),
    (("speed", _BIG + "37"), "baa80f7d0fd3ae347935ea60f318b42f9074ccc207c063e954e55fb64743bd7b"),
    (("speed", _BIG + "93"), "7dc0c9c798618c686618a2ce63064b063eb1e7fdfd1f03dd4c0b06b2daf970cc"),
    (("sequence", "3", "--max-b", "100"), "3749be9347e73e7bc07c37b496f63617080292a7adaaa9abd8971e7c216b2dd3"),
    (("sequence", "99", "--max-b", "60"), "65f1d4a1cbd289b6425107a19a66da280d697e67c4f3d2dbe8314594b73cd021"),
    (("sequence", "163574218751", "--max-b", "20"), "9f75a9a48cf68b478338dca78f1b055667a10ed03eda4c02e07bdafee4f3d2de"),
    (("sequence", "2", "--max-b", "60"), "c2ba2ea9e26196e0c27ae32c2ef8339b3d88a35a71911812aea0081f6a60b5b0"),
    (("sequence", "15", "--max-b", "25"), "07c9ef32ded34069194be5aa4a7b47d53688a05cf40c411bcfc45d280966874f"),
    (("stable", "3", "10"), "343d629ccacffc1ea3cf23ea59bf14ca0a2eb48a8176a095f1eb05c49238830c"),
    (("stable", "5", "6"), "18164abe9043a164a1007c92fb4092ed652524345256473ddbecf2b350e27f9c"),
    (("stable", "163574218751", "7"), "0dc7bd1e4dc28b6576b906bdb6c028304b2e98441af08ea995d00ddca937e41c"),
    (("ratio", "3", "3"), "daaba0a25746bbe087654307f8a416d2be0c90c676861abc4de6256a81515856"),
    (("ratio", "7", "3"), "6c0707831ce6f0899a417268b88dd9ae50676401254dce50b7d85462dec0f2bf"),
    (("min-height", "3", "50"), "f26359c9f94c29f17a8c1f808f617628142540a324a74638fec97b01f92b2738"),
    (("min-height", "7", "20"), "2d9e8312cc13a4d74d439a72c905846025af08f1433e5bac6f4dac9cdfe1d567"),
    (("classify", "163574218751"), "f2f664da3be560c8afc211e5292253626c6a506d45c7be6c99fc6d2a739c6872"),
    (("classify", "3"), "6380254afbda9e914050d07830b336d61921d93ece7075a7a8287a39e9ed3fb9"),
    (("alpha", "51", "100"), "39bb13dec326aa758f5a28303db7c41d5d32d83948086d00475d229e6120f319"),
    (("alpha", "07", "50"), "4a502cf76f108b413b3829a457540896cbb794fb3b72a746fc412f0e9fb8513b"),
    (("alpha", "93", "4300"), "4f32a778bc3335ffe758a6bac57c2db80adef92b53b75b999bf9c950c13ea466"),
    (("alpha", "32", "2700"), "1f348fe01483c80c453ad103de49e46e33ffdff6277eba890593ddeb9092a07e"),
    (("alpha", "57", "1000"), "b0f3802c808d9d2ad5dcb073bbb9bca48e9943ae708469c80c323b6571f395e6"),
    (("speed", "45215487480163574218751"), "94a724dc345c2dd954599a56820d09aeaacccb758939f8898f72bcd46c37493f"),
    (("verify", "--range", "2..2000"), "0721e6269d7815c167af887a4ff66837271a84c54fead8f7467bf813c6a1f213"),
    (("verify", "--range", "1..30"), "aad6a256f6a926382e7e523ab9578861a2079dfe63ae95ad3d421295d02d8df0"),
    (("verify", "--range", "1..3", "--max-b", "1"), "17d3dd6adb1d77c1c403cae4d7be1490f8ac20830c1b1a03a3faae2f83c42965"),
]


def test_golden_reports_are_byte_identical(capsys):
    for argv, want in GOLDEN_REPORTS:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv[:2]


# sha256 of the text stdout of the same runs, in the same order: the text
# lines and the JSON report come from one report path, so both are pinned
GOLDEN_TEXT = [
    "9406a11befa49c202395fabd58cf724ed4fe8b2f2c3d80cd6c874f801010a990",
    "470fc5a2e57dcf8f8098ced1ec9744816aead8996e3eabcf49faa5436b198e2e",
    "0733de2d3fdfe3a0eb8e90d5b9aa9f5317b060f3a8c05649dc859464c12dd3ac",
    "ded3209b681060aa48285a9edcacd7f92e853ac22f6910da0c3d6e1b81384730",
    "2afe577ab7e901f062baf00debbbeaad3cbe7015e0483c98585a773f59a7d633",
    "6afede377ef022f75785ef58f1cf7b7dd154aed121fba2652c403c4d34dd499e",
    "87a3f1b0abae6f505303c545661a49c99e588dbc6251bfd54ad79052f41a81c7",
    "782274c408ae688a472d73bd5c92bd117305b510e006539dfe533e84402b8a47",
    "262957408709f086821d0ce311bfe2c91e66a651d7f2ae539f4687ffb7674033",
    "8316d8e93c3f169ee07b8e017b7d5c5f13ffead36103f59d1056e69a38d114c9",
    "35d10746a6ddba2e85b6154f3a5a2fd81a8134bbae3597366bd215db75ce029f",
    "35f26eb20b5d3058078588492dfaeefb10a45379120a577c1ffe20c6cec748b9",
    "a47271f2452b1ed6fa195aa0f17e89d7e3b1f701a3b831c5e98f406a0eb9148d",
    "c643998bffc71fc13273f0bf5fe0e40381b34e40e094c9b29137cf599f5a8b92",
    "80a5560e77c016b508580f038d3ab2212ddf0fdcb230f72b2412e83430f02c40",
    "9fc7ac5f912412f58258cbfee17520bea8ce2b6ff67a37ec729b42bba12e40cb",
    "465bcfaebe7af04ebf0463e6b752f096515639d4a526a1e13d8244da596a3f4e",
    "41ce55a1a1ec89aac9301904da53444b93bd1e3718a9ea04afbc8f766751234b",
    "83d07f5db1f970c79a77233ec71622b91b992b499541d1522ca5fa9d5fabe6bd",
    "4b3bb09af4a3aaea333eaa3e53a627fb82e2d21bfbd041a3d5451a647741f2a1",
    "4ea417d7ba1f45bb8711dd41d0d0a70317ca364d467ca341fbc9a6e1c621da69",
    "e1741863e7f3edf5a79dcbfe1c518e118c79ed63433b2e1ee977b36b6e98a5c4",
    "2d7bbe80d071f7c502767341a0db81e2d7aff4ea5c9b6998994f19d211fa8e95",
    "072491c66d14e657f62d159aa927e4702bc095cc1d8f2217c0516dd4869a95f9",
    "7a741f63b0f8f4363f56a676dc91103549bc4afece9e6e594b9b4247c70e352c",
    "954109eb22b50e3489fe62280689299c878b320ab42b182af17bc6aef147790d",
    "8ddba4b2f2d562342e859335a8ec2448a51fb77069b65c33a50fece320829d4b",
    "1d5a43e24a153890e843df8f6b026038fe8b7c88546796bf7cad291cb276cd98",
    "c7783d5728d3ac2be9316377d411ee4c9ea831799162b97554a6793c92fecf13",
    "ae9526b770750784382d862ac75af128b416bb0178feaba87434e832d4df3cec",
    "ca9b5a0f87a2a081bb3a4825c4b1912174cdc73d5982f32466f42ba29410dc42",
    "68511f21d78776fcc7af6e55370caf2fb2c3abf197558bdf4b32f6d26396a81b",
    "065b3b3cf804bb3f43a73f3e7bf27ce2bbe04a92c93a4e4d73d4817cea0e3b57",
    "a86a83094421c3decabdcfd7efd2258364dcd3827ef8bf1855556f74447e96f2",
    "b6832035979db5ed080f5e540498bec5b89acf4711f1a0a354978dcba3e24b62",
    "7ee6570797b5d835080c8390c1f2d6dda15a02eec750d0b418427af7425033d1",
    "2f32297f1523ae1e81a9d9edab272171175c21ff590f26722e24904fc9b70976",
    "de7e2e22c56cb9698378bc1e1facb5b049d7473645a98606345d85b49973094c",
]


def test_golden_text_is_byte_identical(capsys):
    assert len(GOLDEN_TEXT) == len(GOLDEN_REPORTS)
    together = hashlib.sha256()
    for (argv, _), want in zip(GOLDEN_REPORTS, GOLDEN_TEXT):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == want, argv[:2]
        together.update(out.encode())
    assert together.hexdigest() == "1015c64b3cca60cfdfd6d61e7f24f98b895a34a60924d5eefccba73ab2f72f5b"


@pytest.mark.parametrize("argv", [("alpha", "07", "50"), ("speed", _BIG + "93")])
def test_golden_reports_survive_a_cold_call(argv):
    # the path a shell call takes: runpy, the lazy package, the commands' own imports
    out = _fresh([sys.executable, "-m", "tetrastable.cli", *argv, "--json"])
    assert hashlib.sha256(out.encode()).hexdigest() == dict(GOLDEN_REPORTS)[argv]


def test_import_stays_light():
    code = (
        "import sys, tetrastable\n"
        "print(sorted(m for m in sys.modules if m.startswith('tetrastable.')))\n"
        "print(sorted(set(tetrastable.__all__) - set(dir(tetrastable))))\n"
        "from tetrastable.cli import main\n"
        "main(['alpha', '51', '40', '--json']); main(['speed', '7', '--json'])\n"
        "heavy = {'mpmath', 'concurrent.futures.process', 'tetrastable.oracle', 'tetrastable.stability',\n"
        "         'decimal', 'fractions', 'dataclasses', 'inspect'}\n"
        "print(sorted(heavy & set(sys.modules)))\n"
        "for name in tetrastable.__all__: getattr(tetrastable, name)\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    out = _python(code).splitlines()
    assert out[0] == "[]"  # the bare package import loads no submodule
    assert out[1] == "[]"  # and dir() lists every public name before its first read
    assert out[-2] == "[]"  # a cold alpha or speed call stays off the heavy imports
    assert out[-1] == "[]"  # and no module of the package imports dataclasses


def _fresh(cmd: list[str]) -> str:
    src = str(Path(tetrastable.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout


def _python(code: str) -> str:
    return _fresh([sys.executable, "-c", code])


def test_ratio_runs_without_mpmath():
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from tetrastable.cli import main\n"
        "print(main(['ratio', '7', '3', '--json']), main(['ratio', '15', '3', '--json']))"
    )
    out = _python(code).splitlines()
    assert out[-1] == "0 0"
    assert json.loads(out[0])["result"]["denominator"] == 695975
    assert json.loads(out[1])["result"]["denominator"] == 515003176870815368


def test_the_oracle_runs_without_the_closed_forms():
    # its slopes come from arith, so a measured run never loads speed
    code = (
        "import sys, tetrastable\n"
        "tetrastable.speed_bound(7)\n"
        "from tetrastable.oracle import certified_sequence, speed_sequence\n"
        "speed_sequence(7, 5); certified_sequence(7)\n"
        "from tetrastable.cli import main\n"
        "main(['sequence', '7', '--json'])\n"
        "print('tetrastable.speed' in sys.modules)"
    )
    assert _python(code).splitlines()[-1] == "False"


def test_verify_starts_no_pool_for_one_chunk():
    code = (
        "import sys; from tetrastable.cli import main\n"
        "main(['verify', '--range', '2..60', '--workers', '2'])\n"
        "print('concurrent.futures.process' in sys.modules)"
    )
    assert _python(code).splitlines()[-1] == "False"
