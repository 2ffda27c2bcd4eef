import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import N2_FIXTURES, POLYTOPE_FIXTURES
from su3poly.cli import main, parse_number, parse_vector
from su3poly.moment_map import InvalidWeight
from su3poly.polytope import ChamberPolytope, build_polytope_n3


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_numbers(self):
        assert parse_number("4") == 4 and isinstance(parse_number("4"), int)
        assert parse_number("4/3") == F(4, 3)
        assert parse_number("-1.5") == -1.5 and isinstance(parse_number("-1.5"), float)

    def test_vector(self):
        assert parse_vector("4,2,-1") == (4, 2, -1)

    @pytest.mark.parametrize("text", ["nan", "inf", "x", "4/", "1/0", "1e400", "-inf.0", ""])
    def test_bad_number_names_the_text(self, text):
        with pytest.raises(InvalidWeight, match=re.escape(repr(text))):
            parse_number(text)


class TestErrors:
    @pytest.mark.parametrize(
        "argv, kind",
        [
            (["classify", "--gamma", "4,nan,-1"], "InvalidWeight"),
            (["classify", "--gamma", "4,2,-1", "--tolerance", "nan"], "InvalidTolerance"),
            (["polytope", "--gamma", "4,2,-1,3"], "LengthMismatch"),
            (["verify", "--gamma", "4,2,-1", "--count", "0"], "InvalidCount"),
            (["verify", "--gamma", "4,2,-1", "--count", "1000", "--tolerance", "nan"], "InvalidTolerance"),
            (["verify", "--gamma", "4,2,-1", "--count", "1000", "--tolerance", "-1"], "InvalidTolerance"),
            (["bounds", "--lambdas", "1,1,1", "--target", "2,0,-2", "--tolerance", "nan"], "InvalidTolerance"),
            (["bounds", "--lambdas", "1,1,1", "--target", "2,0,-2", "--tolerance", "-1"], "InvalidTolerance"),
            (["sample", "--gamma", "4,2,-1", "--count", "-1"], "InvalidCount"),
            (["sweep", "--start", "1,1,1", "--end", "2,1,1", "--steps", "0"], "InvalidCount"),
            (["sweep", "--start", "1,1,1", "--end", "2,1"], "LengthMismatch"),
            (["bounds", "--lambdas", "1,1,1,1"], "LengthMismatch"),
            (["bounds", "--lambdas", "1,1,1", "--target", "1,2"], "LengthMismatch"),
        ],
    )
    def test_bad_input_is_one_line_and_exit_2(self, capsys, argv, kind):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"su3poly: error: {kind}: ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_console_exit_status_without_traceback(self):
        done = subprocess.run(
            [sys.executable, "-m", "su3poly.cli", "classify", "--gamma", "4,nan,-1"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=60,
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == ["su3poly: error: InvalidWeight: 'nan' is not an integer, a fraction p/q or a finite decimal number"]


class TestClassify:
    def test_region_c(self, capsys):
        code, out = run_cli(capsys, "classify", "--gamma", "4,2,-1")
        data = json.loads(out)
        assert code == 0
        assert data["label"] == "C" and data["starred"] is False

    def test_fraction_weights_stay_exact(self, capsys):
        _, out = run_cli(capsys, "classify", "--gamma", "4/3,2/3,-1/3")
        data = json.loads(out)
        assert data["sorted_gammas"] == ["4/3", "2/3", "-1/3"]

    def test_n2(self, capsys):
        _, out = run_cli(capsys, "classify", "--gamma", "1,-1")
        assert json.loads(out)["label"] == "TransF"


class TestPolytope:
    def test_json_roundtrip(self, capsys):
        _, out = run_cli(capsys, "polytope", "--gamma", "4,2,-1")
        parsed = ChamberPolytope.from_json_dict(json.loads(out))
        direct = build_polytope_n3((4, 2, -1))
        assert parsed.vertices == direct.vertices
        assert parsed.label == "C"

    def test_emit_cones(self, capsys):
        _, out = run_cli(capsys, "polytope", "--gamma", "1,1,1", "--emit-cones")
        data = json.loads(out)
        assert data["label"] == "AAA"
        assert data["cones"]["b"]["apex"] == ["0", "0", "0"]
        assert data["cones"]["a"]["generators"] == [{"kind": "line", "root": "alpha3"}]

    def test_svg(self, capsys):
        _, out = run_cli(capsys, "polytope", "--gamma", "1,1,1", "--format", "svg")
        assert out.startswith("<svg") and "polygon" in out and "</svg>" in out

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(capsys, "polytope", "--gamma", "4,2,-1")
        _, out2 = run_cli(capsys, "polytope", "--gamma", "4,2,-1")
        assert out1 == out2


DATA = Path(__file__).parent / "data"
# one weight per three-factor label, the first in sorted fixture order
N3_GOLDEN = {}
for _g in sorted(POLYTOPE_FIXTURES):
    N3_GOLDEN.setdefault(POLYTOPE_FIXTURES[_g][0], _g)


class TestGoldenOutput:
    """Byte-for-byte output of ``polytope`` against files in tests/data."""

    @pytest.mark.parametrize("label,gammas", sorted(N3_GOLDEN.items()))
    def test_polytope_with_cones(self, capsys, label, gammas):
        _, out = run_cli(capsys, "polytope", "--gamma=" + ",".join(map(str, gammas)), "--emit-cones")
        assert out == (DATA / f"polytope_cones_{label}.json").read_text()

    def test_cones_of_starred_weights_are_those_of_the_printed_polytope(self, capsys):
        # (-4, -2, 1) is starred: its polygon is the star image of that of
        # (4, 2, -1), and so are its cones; both start from the anchor a
        _, out = run_cli(capsys, "polytope", "--gamma=-4,-2,1", "--emit-cones")
        data = json.loads(out)
        assert data["starred"]
        assert data["cones"]["a"]["apex"] == data["vertices"][0] == ["5/3", "5/3", "-10/3"]

    @pytest.mark.parametrize("gammas,label", [(f[0], f[1]) for f in N2_FIXTURES])
    def test_polytope_two_factors(self, capsys, gammas, label):
        _, out = run_cli(capsys, "polytope", "--gamma=" + ",".join(map(str, gammas)))
        assert out == (DATA / f"polytope_{label}.json").read_text()


class TestSampleAndVerify:
    def test_sample_csv_deterministic(self, capsys):
        _, out1 = run_cli(capsys, "sample", "--gamma", "1,1,1", "--count", "50", "--seed", "3")
        _, out2 = run_cli(capsys, "sample", "--gamma", "1,1,1", "--count", "50", "--seed", "3")
        assert out1 == out2
        header, *rows = out1.strip().splitlines()
        assert header == "lambda1,lambda2,lambda3,p,q"
        assert len(rows) == 50

    def test_verify_exit_zero(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--gamma", "4,2,-1", "--count", "5000", "--seed", "7", "--tolerance", "1e-6"
        )
        assert code == 0
        assert json.loads(out)["n_violations"] == 0


class TestBounds:
    def test_two_matrices(self, capsys):
        _, out = run_cli(capsys, "bounds", "--lambdas", "1,1")
        data = json.loads(out)
        assert data["lambda1"] == 2 and data["lambda2_interval"] == [-1, 2]

    def test_three_matrices_with_target(self, capsys):
        _, out = run_cli(capsys, "bounds", "--lambdas", "1,1,1", "--target", "3,0,-3")
        data = json.loads(out)
        assert data["target_inside"] is True
        _, out = run_cli(capsys, "bounds", "--lambdas", "1,1,1", "--target", "4,0,-4")
        assert json.loads(out)["target_inside"] is False


class TestSweep:
    def test_b_to_a_transition(self, capsys):
        _, out = run_cli(capsys, "sweep", "--start", "7/2,2,1", "--end", "5/2,2,1", "--steps", "20")
        labels = [json.loads(line)["label"] for line in out.strip().splitlines()]
        assert labels[0] == "B" and labels[-1] == "A"
        assert labels.count("AB") == 1 and labels[10] == "AB"
        # monotone: no flicker back and forth
        assert labels == ["B"] * 10 + ["AB"] + ["A"] * 10
