"""Command-line interface: exit codes, JSON schemas, determinism."""

import json
import pathlib
import subprocess
import sys

import pytest

from sonckit.cli import main

from _gen import MOTZKIN_TEXT

SEP_POINT = {"n": 1, "points": [[0], [1], [2], [3], [4]], "values": [2, 0, 1, 1, 1]}
QUARTIC_SUPPORT = {"n": 1, "points": [[0], [1], [2], [3], [4]]}


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        path = tmp_path / name
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        return str(path)

    return write


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCircuits:
    def test_univariate_quartic_catalog(self, files, capsys):
        code, out, _ = run_main(["circuits", files("a4.json", QUARTIC_SUPPORT)], capsys)
        assert code == 0
        blob = json.loads(out)
        pairs = [
            (tuple(tuple(v) for v in c["vertices"]), tuple(c["beta"]))
            for c in blob["circuits"]
            if len(c["vertices"]) == 2
        ]
        assert pairs == [
            (((0,), (2,)), (1,)),
            (((0,), (4,)), (1,)),
            (((0,), (4,)), (2,)),
            (((0,), (4,)), (3,)),
            (((2,), (4,)), (3,)),
        ]
        assert blob["circuits"][3]["mu"] == ["1/2", "1/2"]

    def test_motzkin_support_from_polynomial(self, files, capsys):
        code, out, _ = run_main(["circuits", files("m.txt", MOTZKIN_TEXT)], capsys)
        assert code == 0
        blob = json.loads(out)
        higher = [c for c in blob["circuits"] if len(c["vertices"]) >= 2]
        assert len(higher) == 1 and higher[0]["beta"] == [2, 2]

    def test_single_even_point(self, files, capsys):
        code, out, _ = run_main(["circuits", files("pt.json", {"n": 2, "points": [[2, 0]]})], capsys)
        assert code == 0
        blob = json.loads(out)
        assert len(blob["circuits"]) == 1

    def test_cap_error_exits_2(self, files, capsys):
        big = {"n": 1, "points": [[2 * i] for i in range(21)]}
        code, _, err = run_main(["circuits", files("big.json", big)], capsys)
        assert code == 2 and "cap" in err


class TestCheck:
    def test_dual_member_separating_point(self, files, capsys):
        code, out, _ = run_main(["check", "dual-member", files("v.json", SEP_POINT)], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["member"] is True and len(blob["witnesses"]) == 5

    def test_dual_member_rejection(self, files, capsys):
        bad = dict(SEP_POINT, values=[1, 2, 1, 1, 1])
        code, out, _ = run_main(["check", "dual-member", files("v.json", bad)], capsys)
        assert code == 1
        assert json.loads(out)["violated_circuit"]["beta"] == [1]

    def test_quartic_dual_and_psd_flag(self, files, capsys):
        path = files("v.json", {"v": [2, 0, 1, 1, 1]})
        assert run_main(["check", "quartic-dual", path], capsys)[0] == 0
        assert run_main(["check", "quartic-dual", "--psd", path], capsys)[0] == 1

    def test_nonneg_circuit_motzkin(self, files, capsys):
        payload = {"vertices": [[0, 0], [2, 4], [4, 2]], "beta": [2, 2], "c": [1, 1, 1], "delta": -3.0}
        path = files("c.json", payload)
        code, out, _ = run_main(["check", "nonneg-circuit", path], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["nonneg"] is True and abs(blob["theta"] - 3.0) < 1e-9

        payload["delta"] = -3.01
        code, out, _ = run_main(["check", "nonneg-circuit", files("c2.json", payload)], capsys)
        assert code == 1

    def test_sage_dual(self, files, capsys):
        ones = dict(SEP_POINT, values=[1, 1, 1, 1, 1])
        assert run_main(["check", "sage-dual", files("s.json", ones)], capsys)[0] == 0

    def test_garbage_input_exits_2(self, files, capsys):
        code, _, err = run_main(["check", "dual-member", files("g.json", "{not json")], capsys)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("kind", ["dual-member", "sage-dual"])
    def test_nonfinite_dual_vector_exits_2(self, files, capsys, kind, bad):
        path = files("v.json", '{"n": 1, "points": [[0], [1], [2]], "values": [1.0, %s, 1.0]}' % bad)
        code, out, err = run_main(["check", kind, path], capsys)
        assert code == 2 and out == "" and "finite" in err

    @pytest.mark.parametrize("flags", [[], ["--psd"]])
    def test_nonfinite_quartic_vector_exits_2(self, files, capsys, flags):
        path = files("v.json", '{"v": [1, NaN, 1, 0, 1]}')
        code, out, err = run_main(["check", "quartic-dual", *flags, path], capsys)
        assert code == 2 and out == "" and "finite" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_main(["check", "quartic-dual", "/nonexistent/v.json"], capsys)
        assert code == 2


class TestBound:
    def test_motzkin(self, files, capsys):
        code, out, _ = run_main(["bound", files("m.txt", MOTZKIN_TEXT)], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["status"] == "optimality_certified"
        assert abs(blob["p_sonc"]) <= 1e-6
        assert max(abs(z - 1.0) for z in blob["optimal_point"]) <= 1e-4

    def test_quartic(self, files, capsys):
        code, out, _ = run_main(["bound", files("q.txt", "1 + x1^4 - 3*x1^2")], capsys)
        assert code == 0
        blob = json.loads(out)
        assert abs(blob["p_sonc"] + 1.25) <= 1e-6
        assert abs(blob["optimal_point"][0] - 1.2247448) <= 1e-4

    def test_constant(self, files, capsys):
        code, out, _ = run_main(["bound", files("c.txt", "7")], capsys)
        assert code == 0
        assert json.loads(out)["p_sonc"] == 7.0

    def test_unbounded_exits_1(self, files, capsys):
        code, out, _ = run_main(["bound", files("x.txt", "x1")], capsys)
        assert code == 1
        blob = json.loads(out)
        assert blob["status"] == "dual_only" and blob["p_sonc"] is None


    def test_coefficients_near_float_max(self, files, capsys):
        # The circuit number of the certificate's piece exceeds the float range.
        code, out, _ = run_main(["bound", files("big.txt", "1e308*x1^2 - 1e308*x1")], capsys)
        assert code in (0, 1)

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        blob = json.loads(out, parse_constant=reject)
        # inf p = -2.5e307 at x1 = 1/2; a certified bound may not exceed it.
        assert blob["p_sonc"] is None or blob["p_sonc"] <= -2.5e307


class TestCertify:
    def test_motzkin_certified(self, files, capsys):
        code, out, _ = run_main(["certify", files("m.txt", MOTZKIN_TEXT)], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["certified"] is True
        assert len(blob["certificate"]["pieces"]) == 1

    def test_not_certified(self, files, capsys):
        code, out, _ = run_main(["certify", files("q.txt", "1 + x1^4 - 3*x1^2")], capsys)
        assert code == 1
        assert json.loads(out)["certified"] is False


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, files, capsys):
        path = files("m.txt", MOTZKIN_TEXT)
        _, out1, _ = run_main(["--seed", "5", "bound", path], capsys)
        _, out2, _ = run_main(["--seed", "5", "bound", path], capsys)
        assert out1 == out2

    def test_catalog_matches_golden_file(self, files, capsys):
        golden = pathlib.Path(__file__).parent / "data" / "catalog_a4.golden.json"
        code, out, _ = run_main(["circuits", files("a4.json", QUARTIC_SUPPORT)], capsys)
        assert code == 0
        assert out == golden.read_text()

    def test_text_format(self, files, capsys):
        code, out, _ = run_main(
            ["--format", "text", "check", "quartic-dual", files("v.json", {"v": [2, 0, 1, 1, 1]})],
            capsys,
        )
        assert code == 0 and "member: true" in out


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"v": [2, 0, 1, 1, 1]}))
        proc = subprocess.run(
            [sys.executable, "-m", "sonckit.cli", "check", "quartic-dual", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["member"] is True

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "sonckit" in out and "schema" in out

    def test_bad_tol_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--tol", "-1", "circuits", "x.json"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_nonfinite_tol_rejected(self, files, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "check", "dual-member", files("v.json", SEP_POINT)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol must be positive and finite" in captured.err
