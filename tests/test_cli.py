import csv
import io
import json

import pytest

from atomic import fixtures
from atomic.cli import main
from test_acceptance import assert_fixture_group


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_image_json(capsys):
    code, out, _ = run_cli(capsys, "image", "--type", "A2", "--weight", "1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["values"] == list(fixtures.RANK2_IMAGES["A2"])
    assert payload["max"] == 4
    assert payload["missing"] == [2]
    assert payload["orbit_size"] == 6


def test_image_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "image", "--type", "B3", "--json")
    payload = json.loads(out)
    values = payload["values"]
    assert payload["max"] == values[-1]
    assert payload["missing"] == [
        v for v in range(payload["max"] + 1) if v not in set(values)
    ]


def test_w0_text(capsys):
    code, out, _ = run_cli(capsys, "w0", "--type", "E6")
    assert code == 0 and out.strip() == "156"


def test_cores_output(capsys):
    code, out, _ = run_cli(capsys, "cores", "--n", "2", "--max", "5", "--json")
    payload = json.loads(out)
    assert payload["sizes"] == {"0": 1, "1": 1, "2": 2, "4": 2, "5": 1}
    assert payload["missing"] == [3]


def test_affine_probe_json(capsys):
    code, out, _ = run_cli(
        capsys, "affine", "--type", "A2~", "--weight", "1,0,0", "--radius", "12", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["attained"][0:3] == [0, 1, 2]
    assert 3 in payload["missing"]


def test_shi_pyramid(capsys):
    code, out, _ = run_cli(capsys, "shi", "--type", "A4", "--word", "1,2,3,4,3,2,1")
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert rows[-1] == ["-1", "0", "0", "-1"]  # bottom row, simple roots
    assert rows[0] == ["-1"]  # highest root on top


def test_susanfe_list(capsys):
    code, out, _ = run_cli(capsys, "susanfe", "--type", "B4", "--list", "--json")
    payload = json.loads(out)
    lengths = {tuple(r["word"]): r["restricted"] for r in payload["reflections"]}
    assert lengths[(1, 2, 3, 4, 3, 2, 1)] == 28


def test_entropy_csv(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--n", "3", "--stats")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 6
    table = {r["one_line"]: r for r in rows}
    assert table["321"]["invsum"] == "4"
    assert table["321"]["entropy"] == "8"
    assert table["123"]["cosine"] == "14"
    assert table["132"]["length"] == "1"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["image"])  # missing required --type
    assert err.value.code == 2


def test_image_e8_under_raised_cap(capsys):
    code, out, _ = run_cli(
        capsys, "image", "--type", "E8", "--cap", "696729600", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max"] == 1240
    assert payload["missing"] == []
    assert payload["orbit_size"] == 696729600


def test_stress_option_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["image", "--type", "E8", "--stress"])
    assert err.value.code == 2


def test_cap_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "image", "--type", "B4", "--cap", "10")
    assert code == 3
    assert "cap" in err


def test_invalid_type_exit_code(capsys):
    code, out, err = run_cli(capsys, "image", "--type", "H3")
    assert code == 2
    assert "error" in err


def test_verify_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("checks passed")


def test_one_table_feeds_verify_and_acceptance(capsys, monkeypatch):
    monkeypatch.setitem(fixtures.RANK2_IMAGES, "A2", (0, 1, 2, 3, 4))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failed) == 1 and failed[0].startswith("FAIL  rank2-image/A2  ")
    with pytest.raises(AssertionError, match="rank2-image/A2"):
        assert_fixture_group(fixtures.check_rank2_image_sets)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("cores", "--n", "0", "--max", "5"), "modulus"),
        (("cores", "--n", "2", "--max", "-1"), "size bound -1"),
        (("affine", "--type", "A2~", "--weight", "1,0,0", "--radius", "-1"), "radius -1"),
        (("image", "--type", "A2~"), "A2~ is affine"),
        (("w0", "--type", "A2~"), "A2~ is affine"),
        (("susanfe", "--type", "A2~", "--list"), "A2~ is affine"),
    ],
)
def test_bad_input_exits_as_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "cap" not in err
