import csv
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from atomic import affine, atomiclen, cli, fixtures, weyl
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
    assert code == 0 and out.strip() == str(fixtures.W0_EXCEPTIONAL["E6"])


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
    code, out, _ = run_cli(capsys, "entropy", "--n", "3")
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


def test_image_e8_answers(capsys):
    code, out, _ = run_cli(capsys, "image", "--type", "E8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max"] == fixtures.W0_EXCEPTIONAL["E8"]
    assert payload["missing"] == []
    assert payload["orbit_size"] == 696729600


def test_stress_option_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["image", "--type", "E8", "--stress"])
    assert err.value.code == 2


def test_cap_option_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["image", "--type", "E8", "--cap", "1"])
    assert err.value.code == 2


def test_cap_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(atomiclen, "MEMO_CAP", 10)
    code, out, err = run_cli(capsys, "image", "--type", "B4")
    assert code == 3
    assert "cap" in err


def test_invalid_type_exit_code(capsys):
    code, out, err = run_cli(capsys, "image", "--type", "H3")
    assert code == 2
    assert "error" in err


def fresh_stdout(*argv):
    """stdout of `atomic <argv>` run alone in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    result = subprocess.run(
        [sys.executable, "-m", "atomic.cli", *argv], capture_output=True, env=env,
        timeout=120, check=True,
    )
    return result.stdout.decode()


@pytest.mark.parametrize("first, second", [
    ("image --type C3 --weight 1,2,1 --json", "image --type C3 --json"),
    ("susanfe --type B4 --list", "susanfe --type B4"),
])
def test_parser_is_shared_and_keeps_no_state(capsys, first, second):
    assert cli.build_parser() is cli.build_parser()
    run_cli(capsys, *first.split())
    code, out, _ = run_cli(capsys, *second.split())
    assert code == 0 and out == fresh_stdout(*second.split())


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


def test_symmetry_check_compares_two_routes(monkeypatch):
    # with the inverse replaced by the element itself, L(w) = L(w^{-1})
    # holds vacuously: the G2 pair (3, 5) can no longer be seen, and the A4
    # and D4 checks see that w^{-1} w moves rho
    monkeypatch.setattr(weyl.WeylElement, "inverse", lambda self: self)
    results = {label: ok for label, ok, _ in fixtures.check_simply_laced_symmetry()}
    assert results == {
        "symmetry/A4": False,
        "symmetry/D4": False,
        "symmetry/g2-counterexample": False,
        "symmetry/d4-example-15": True,
    }


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


def test_entropy_stats_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as err:
        main(["entropy", "--n", "2", "--stats"])
    assert err.value.code == 2


@pytest.mark.parametrize("bound, code", [(100001, 3), (100000, 0)])
def test_cores_max_cap(capsys, bound, code):
    got, out, err = run_cli(
        capsys, "cores", "--n", "1", "--max", str(bound), "--count-only"
    )
    assert got == code
    if code:
        assert out == "" and "100001" in err and "100000" in err
    else:
        last = out.splitlines()[-1]
        assert last.startswith("missing sizes: [2, 4, 5, ")
        assert last.endswith(", 100000]")


def test_not_dominant_message_prints_integers(capsys):
    code, out, err = run_cli(capsys, "image", "--type", "A3", "--weight", "1,-1,0")
    assert code == 2 and out == ""
    assert err == "error: weight (1, -1, 0) is not dominant integral\n"


@pytest.mark.parametrize("n", ["-2", "0"])
def test_entropy_n_below_one_is_usage_error(capsys, n):
    with pytest.raises(SystemExit) as err:
        main(["entropy", "--n", n])
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


def test_entropy_n_cap(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "entropy", "--n", str(cli.ENTROPY_N_CAP + 1))
    assert code == 3 and out == ""
    assert "--n 11 is above the cap 10" in err
    # the cap itself is allowed: shown at a lowered cap, as 10! rows take minutes
    monkeypatch.setattr(cli, "ENTROPY_N_CAP", 4)
    code, out, _ = run_cli(capsys, "entropy", "--n", "4")
    assert code == 0 and len(out.splitlines()) == 1 + 24
    assert run_cli(capsys, "entropy", "--n", "5")[0] == 3
    code, out, _ = run_cli(capsys, "entropy", "--n", "1")
    assert code == 0 and out.splitlines()[1:] == ["1,0,0,0,0,1"]


def test_affine_radius_cap(capsys, monkeypatch):
    argv = ("affine", "--type", "A2~", "--weight", "1,0,0", "--radius", "12")
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(affine, "PROBE_CAP", 10)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert "more than 10 lattice points tried" in err


def test_affine_not_dominant_message_prints_integers(capsys):
    code, out, err = run_cli(capsys, "affine", "--type", "C2~", "--weight", "1,-1,0")
    assert code == 2 and out == ""
    assert err == "error: affine weight (1, -1, 0) is not dominant integral\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """Every `atomic ...` command in the README, once each: the lines of its
    sh blocks, comments dropped, and its inline code spans."""
    text = README.read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        commands += [
            line.split("#")[0].strip()
            for line in block.splitlines()
            if line.startswith("atomic ")
        ]
    commands += re.findall(r"`(atomic [^`\n]+)`", text)
    return list(dict.fromkeys(commands))


def test_readme_commands_are_found():
    commands = readme_commands()
    for expected in (
        "atomic image --type E8",
        "atomic affine --type E6~ --weight 1,0,0,0,0,0,0 --radius 12",
        "atomic cores --n 6 --max 120 --count-only",
        "atomic verify",
    ):
        assert expected in commands


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_exits_zero(capsys, command):
    code, out, err = run_cli(capsys, *shlex.split(command)[1:])
    assert code == 0 and out and err == ""


@pytest.mark.parametrize("n", range(1, 8))
def test_entropy_csv_matches_pair_counts(capsys, n):
    lines = ["one_line,length,invsum,ninvsum,entropy,cosine"]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for w in permutations(range(1, n + 1)):
        inv = [j - i for i, j in pairs if w[i - 1] > w[j - 1]]
        non = [j - i for i, j in pairs if w[i - 1] < w[j - 1]]
        entropy = sum((k - v) ** 2 for k, v in enumerate(w, start=1))
        cosine = sum(k * v for k, v in enumerate(w, start=1))
        row = ("".join(map(str, w)), len(inv), sum(inv), sum(non), entropy, cosine)
        lines.append(",".join(map(str, row)))
    code, out, err = run_cli(capsys, "entropy", "--n", str(n))
    assert (code, out, err) == (0, "\r\n".join(lines) + "\r\n", "")


# SHA-256 of `atomic entropy --n N` stdout, pinned from the table built by
# itertools.permutations and one pass over each permutation's pairs
ENTROPY_SHA256 = {
    6: "8298435222c552ae7a5412097ae34e7512e8ef1bf4ff46f3b9b85a38b49de7f8",
    7: "c2b3b31fa9ddf374023e2ee9b03ea8ae6e08cea2b84031569e3adb2c3ab7524c",
    8: "29f5dc20c1a021a46f74c403af4719b8a73b79a2490e70dab76b2d9ebcf7fb53",
}


@pytest.mark.parametrize("n", sorted(ENTROPY_SHA256))
def test_entropy_csv_is_byte_identical_to_the_pinned_digest(capsys, n):
    code, out, err = run_cli(capsys, "entropy", "--n", str(n))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ENTROPY_SHA256[n]
