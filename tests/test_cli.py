"""Command-line interface: exit codes, JSON schemas, determinism."""

import ast
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest
import scipy.optimize

import sonckit
from sonckit.cli import main

from _gen import MOTZKIN_TEXT

SEP_POINT = {"n": 1, "points": [[0], [1], [2], [3], [4]], "values": [2, 0, 1, 1, 1]}
QUARTIC_SUPPORT = {"n": 1, "points": [[0], [1], [2], [3], [4]]}
SEGMENT = {"vertices": [[0], [2]], "beta": [1]}
#: A JSON integer beyond the float range.
BEYOND_FLOATS = pytest.param("1" + "0" * 400, id="10**400")


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

    def test_dual_member_large_moment_vector(self, files, capsys):
        # x = 256 on {0, 1, 4, 6}: v* = 2^32 at beta = 4, where the gap's
        # rounding alone is about 1e-5.
        v = {"n": 1, "points": [[0], [1], [4], [6]], "values": [1.0, 256.0, 256.0**4, 256.0**6]}
        code, out, _ = run_main(["check", "dual-member", files("v.json", v)], capsys)
        assert code == 0 and json.loads(out)["member"] is True

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

    def test_nonneg_circuit_pairs_c_with_the_vertices_as_given(self, files, capsys):
        # 0.25 x^4 - 0.9 x + 0.75 >= 0.098 everywhere, in either vertex order.
        for vertices, c in [([[4], [0]], [0.25, 0.75]), ([[0], [4]], [0.75, 0.25])]:
            payload = {"vertices": vertices, "beta": [1], "c": c, "delta": -0.9}
            code, out, _ = run_main(["check", "nonneg-circuit", files("c.json", payload)], capsys)
            blob = json.loads(out)
            assert code == 0 and blob["nonneg"] is True and blob["theta"] == 1.0, vertices

    # json reads 1e400 as inf, and 10**400 as an int beyond the float range.
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400", BEYOND_FLOATS])
    def test_nonfinite_circuit_delta_exits_2(self, files, capsys, bad):
        path = files("c.json", '{"vertices": [[0], [4]], "beta": [2], "c": [1, 1], "delta": %s}' % bad)
        code, out, err = run_main(["check", "nonneg-circuit", path], capsys)
        assert code == 2 and out == "" and "finite" in err

    def test_sage_dual(self, files, capsys):
        ones = dict(SEP_POINT, values=[1, 1, 1, 1, 1])
        assert run_main(["check", "sage-dual", files("s.json", ones)], capsys)[0] == 0

    def test_sage_dual_large_entries_member(self, files, capsys):
        # (1,1) = (2,0)/2 + (0,2)/2 and 1e40 <= sqrt(3e40 * 2e40): a member at any scale.
        obj = {"n": 2, "points": [[0, 0], [2, 0], [0, 2], [1, 1]], "values": [1e40, 3e40, 2e40, 1e40]}
        code, out, _ = run_main(["check", "sage-dual", files("v.json", obj)], capsys)
        assert code == 0 and json.loads(out) == {"member": True}

    def test_sage_dual_lp_failure_exits_2(self, files, capsys, monkeypatch):
        # All ones on the unit square passes the circuit screen (its one even
        # point makes no circuit with k >= 2), so HiGHS decides; a failed
        # solve is no verdict.
        failed = scipy.optimize.OptimizeResult(status=4, message="numerical difficulties")
        monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
        obj = {"n": 2, "points": [[0, 0], [1, 0], [0, 1], [1, 1]], "values": [1, 1, 1, 1]}
        code, out, err = run_main(["check", "sage-dual", files("v.json", obj)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1 and "HiGHS failed" in err

    def test_garbage_input_exits_2(self, files, capsys):
        code, _, err = run_main(["check", "dual-member", files("g.json", "{not json")], capsys)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", BEYOND_FLOATS])
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

    def test_nonneg_circuit_theta_beyond_float_range(self, files, capsys):
        # Theta = 2e308 has no float value; |delta| = 1e308 is within it.
        obj = {"vertices": [[0], [2]], "beta": [1], "c": [1e308, 1e308], "delta": -1e308}
        code, out, _ = run_main(["check", "nonneg-circuit", files("c.json", obj)], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["nonneg"] is True and blob["theta"] is None

    @pytest.mark.parametrize("flags", [[], ["--psd"]])
    def test_quartic_vector_with_huge_entry(self, files, capsys, flags):
        path = files("v.json", {"v": [1e100, 0, 1, 0, 1]})
        code, out, _ = run_main(["check", "quartic-dual", *flags, path], capsys)
        assert code == 0 and json.loads(out)["member"] is True

    @pytest.mark.parametrize("flags", [[], ["--psd"]])
    def test_quartic_tolerance_scales_with_degree(self, files, capsys, flags):
        path = files("v.json", {"v": [1e10, 0, -1e10, 0, 1e10]})
        code, out, _ = run_main(["check", "quartic-dual", *flags, path], capsys)
        assert code == 1 and json.loads(out)["member"] is False

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "points": 5, "values": [1]}',
            '{"n": 1, "points": [[0], [2]], "values": [1, null]}',
            "[1, 2]",
        ],
    )
    def test_malformed_dual_vector_exits_2(self, files, capsys, text):
        code, out, err = run_main(["check", "dual-member", files("v.json", text)], capsys)
        assert code == 2 and out == "" and err.startswith("error:")

    # One file serves all four commands: each reads the keys it needs.
    @pytest.mark.parametrize("bad", ["Infinity", "1e400"])
    @pytest.mark.parametrize(
        "command",
        [["circuits"], ["check", "dual-member"], ["check", "sage-dual"], ["check", "nonneg-circuit"]],
        ids=lambda command: command[-1],
    )
    def test_nonfinite_exponent_exits_2(self, files, capsys, command, bad):
        text = (
            '{"n": 1, "points": [[0], [%s]], "values": [1, 1],'
            ' "vertices": [[0], [%s]], "beta": [2], "c": [1, 1], "delta": 0}' % (bad, bad)
        )
        code, out, err = run_main([*command, files("e.json", text)], capsys)
        assert code == 2 and out == "" and "finite" in err

    # JSON converts nothing: a digit string or a boolean is no number, a
    # string is no array of numbers, and a fraction is no dimension.
    @pytest.mark.parametrize(
        "command, blob",
        [
            pytest.param(["check", "nonneg-circuit"], {**SEGMENT, "c": "11", "delta": 0}, id="c"),
            pytest.param(["check", "nonneg-circuit"], {**SEGMENT, "c": [1, 1], "delta": "-2"}, id="delta"),
            pytest.param(["check", "quartic-dual"], {"v": "10101"}, id="v"),
            pytest.param(["check", "quartic-dual"], "10101", id="bare-v"),
            pytest.param(["check", "dual-member"], {"n": 1, "points": [[0], [1]], "values": "11"}, id="dual-values"),
            pytest.param(["check", "sage-dual"], {"n": 1, "points": [[0], [1]], "values": "11"}, id="sage-values"),
            pytest.param(["bound"], {"n": 1, "terms": [{"exp": [0], "coef": "1"}]}, id="coef"),
            pytest.param(["check", "dual-member"], {"n": 1, "points": [[0], [1]], "values": [True, 1]}, id="true"),
            pytest.param(["circuits"], {"n": "2", "points": [[0, 0], [2, 0]]}, id="n"),
            pytest.param(["circuits"], {"n": 1.5, "points": [[0], [2]]}, id="fractional-n"),
            pytest.param(["check", "dual-member"], {"n": 1.5, "points": [[0], [1]], "values": [1, 1]}, id="dual-fractional-n"),
            pytest.param(["bound"], {"n": 1.5, "terms": [{"exp": [2], "coef": 1}]}, id="bound-fractional-n"),
        ],
    )
    def test_json_strings_and_booleans_exit_2(self, files, capsys, command, blob):
        code, out, err = run_main([*command, files("j.json", json.dumps(blob))], capsys)
        assert code == 2 and out == "" and err.startswith("error:")

    # Nesting past the decoder's recursion limit is bad input, not a verdict.
    @pytest.mark.parametrize(
        "command",
        [["circuits"], *[["check", kind] for kind in ("nonneg-circuit", "dual-member", "sage-dual", "quartic-dual")], ["bound"], ["certify"]],
        ids=lambda command: command[-1],
    )
    def test_deeply_nested_json_exits_2(self, files, capsys, command):
        text = '{"a": ' + "[" * 100000 + "]" * 100000 + "}"
        code, out, err = run_main([*command, files("deep.json", text)], capsys)
        assert code == 2 and out == "" and err.count("\n") == 1 and err.startswith("error:")

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

    @pytest.mark.parametrize(
        "text",
        [
            "x1^6 + 1e303*x1^5",
            "1e308*x1^3",
            "-0.0*x1^60*x2^7 + 3.5*x2^7 + x1*x2^1000 - 7*x1^1000*x2^60 - 0.0*x1^60*x2^5",
        ],
    )
    def test_huge_coefficients_answer_dual_only(self, files, capsys, text):
        # Valid input: the bracket search stops where the shifted constant
        # leaves the float range, 1e308*x1^3 is settled at its Newton polytope,
        # and the dual solve skips a candidate whose moments at the
        # zero terms' exponents leave the float range.
        code, out, err = run_main(["bound", files("h.txt", text)], capsys)
        assert code == 1 and err == ""

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        blob = json.loads(out, parse_constant=reject)
        assert blob["status"] == "dual_only" and blob["p_sonc"] is None

    def test_exponent_at_parser_cap(self, files, capsys):
        code, out, _ = run_main(["bound", files("cap.txt", "x1^1048576 - x1")], capsys)
        assert code in (0, 1)
        blob = json.loads(out)
        # inf p = z * (1/N - 1) at z = N^(-1/(N-1)), N = 2^20.
        big = 2.0**20
        inf_p = big ** (-1.0 / (big - 1.0)) * (1.0 / big - 1.0)
        assert blob["p_sonc"] is None or blob["p_sonc"] <= inf_p + 1e-12

    @pytest.mark.parametrize("command", ["bound", "certify"])
    def test_json_exponent_cap(self, files, capsys, command):
        # Past 2^53 a float power loses the exponent's parity, so JSON input
        # takes the text grammar's cap: 2^20 answers, 2^20 + 1 exits 2.
        def text(e):
            return json.dumps({"n": 1, "terms": [{"exp": [e], "coef": 1}, {"exp": [1], "coef": -1}]})

        code, out, _ = run_main([command, files("cap.json", text(1 << 20))], capsys)
        assert code in (0, 1) and json.loads(out)
        code, out, err = run_main([command, files("over.json", text((1 << 20) + 1))], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cap" in err and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["x1000000", '{"n": 1000000, "terms": [{"exp": [1], "coef": 1}]}'])
    def test_variable_count_beyond_cap_exits_2(self, files, capsys, text):
        code, out, err = run_main(["bound", files("wide.txt", text)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    # int() refuses more than 4300 digits; the parser reports the token instead.
    @pytest.mark.parametrize("text, position", [("x" + "1" * 5000, 0), ("1 + x1^" + "9" * 5000, 7)], ids=["index", "exponent"])
    def test_digit_run_beyond_cap_exits_2(self, files, capsys, text, position):
        code, out, err = run_main(["bound", files("long.txt", text)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "cap" in err and f"(at position {position})" in err and err.count("\n") == 1


    def test_many_even_points_without_a_bad_term(self, files, capsys):
        # 22 even points with the constant, over the enumeration cap, but no
        # odd or negative term: settled at the origin without a catalog.
        path = files("sq.txt", " + ".join(f"x{i}^2" for i in range(1, 22)))
        code, out, _ = run_main(["bound", path], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["status"] == "optimality_certified" and blob["p_sonc"] == 0.0
        code, out, _ = run_main(["certify", path], capsys)
        assert code == 0 and json.loads(out)["certified"] is True


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
        _, out1, _ = run_main(["bound", path], capsys)
        _, out2, _ = run_main(["bound", path], capsys)
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

    def test_text_format_prints_empty_nested_lists(self, files, capsys):
        code, out, _ = run_main(["--format", "text", "circuits", files("c.txt", "7")], capsys)
        assert code == 0
        assert out.splitlines() == [
            "circuits:",
            "  -",
            "    vertices:",
            "      - []",
            "    beta: []",
            "    mu:",
            '      - "1"',
            "    beta_even: true",
        ]


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

    def test_import_loads_no_scipy(self):
        # Only one LP needs scipy, the dual SAGE test's, and it imports it on first use.
        code = "import sys, sonckit, sonckit.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(sonckit.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"

    def test_bound_path_loads_no_scipy(self):
        # The unbounded curve is a nearest-point search in integers: bounding
        # criterion 9's inputs, 83 of them unbounded, loads no scipy module.
        code = """if True:
            import sys
            import numpy as np
            from _gen import random_sparse_poly
            from sonckit import Status, certify_optimality, parse_polynomial
            rng = np.random.default_rng(109)
            polys = [random_sparse_poly(rng, int(rng.integers(1, 3)), max_degree=6, max_terms=5) for _ in range(100)]
            polys += [parse_polynomial("x1^2*x2 + 1"), parse_polynomial("1 + x1^3 + 0*x1^8")]
            unbounded = sum(certify_optimality(p).status is Status.DUAL_ONLY for p in polys)
            print(unbounded, [m for m in sys.modules if m.split('.')[0] == 'scipy'])
        """
        paths = [pathlib.Path(sonckit.__file__).parent.parent, pathlib.Path(__file__).parent]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "85 []"

    def test_readme_quickstart_runs(self):
        # Each line "expr  # value" (or "# value; remark") shows repr(expr).
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        namespace: dict = {}
        exec(blocks[0], namespace)
        shown = [line.partition("  #")[::2] for line in blocks[0].splitlines()]
        shown = [(code, comment.split(";")[0].strip()) for code, comment in shown if code.strip() and comment]
        assert [repr(eval(code, namespace)) for code, _ in shown] == [value for _, value in shown]
        assert len(shown) == 4

    def test_readme_commands_exit_as_stated(self, tmp_path, monkeypatch, capsys):
        # The command-line block, run through main in a scratch directory:
        # each "echo '...' > file" writes its file, and each command whose
        # comment states "exit N" exits N.
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        (block,) = [b for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "sonckit bound" in b]
        monkeypatch.chdir(tmp_path)
        outputs = {}
        for line in block.splitlines():
            code, _, comment = line.partition("  #")
            words = shlex.split(code)
            if words[:1] == ["echo"]:
                pathlib.Path(words[3]).write_text(words[1] + "\n")
            elif words[:1] == ["sonckit"] and (stated := re.match(r"\s*exit (\d)", comment)):
                exit_code, out, _ = run_main(words[1:], capsys)
                assert exit_code == int(stated[1]), line
                outputs[" ".join(words[1:])] = json.loads(out)
        assert {"bound p.txt", "bound u.txt", "certify p.txt"} <= set(outputs)
        assert outputs["bound p.txt"]["p_sonc"] == -1.25
        unbounded = outputs["bound u.txt"]
        assert unbounded["status"] == "dual_only" and unbounded["p_dual"] is None and unbounded["dual_point"] is None
        assert unbounded["unbounded"] == {"vertex": [3], "w": [1], "s": [-1]}

    def test_readme_guarantees_name_existing_tests(self):
        # Each bullet of the Guarantees section cites tests/<file>.py::<name>,
        # and each citation is a test function of that file (in its class).
        tests = pathlib.Path(__file__).parent
        readme = (tests.parent / "README.md").read_text()
        section = readme.split("\n## Guarantees\n")[1].split("\n## ")[0]
        bullets = re.split(r"\n(?=- )", section)[1:]
        cited = [re.findall(r"tests/(\w+\.py)::([\w:]+)", bullet) for bullet in bullets]
        assert bullets and all(cited), bullets
        for file, name in sum(cited, []):
            scope = ast.parse((tests / file).read_text()).body
            for part in name.split("::"):
                defs = {node.name: node for node in scope if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
                assert part in defs, f"{file}::{name}"
                scope = defs[part].body
            assert isinstance(defs[part], ast.FunctionDef) and part.startswith("test_"), f"{file}::{name}"

    def test_readme_names_no_private_identifier(self):
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        assert re.findall(r"\b_[A-Za-z]\w*", readme) == []

    def test_exports_resolve(self):
        missing = [name for name in sonckit.__all__ if not hasattr(sonckit, name)]
        assert missing == []

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

    # The bound is deterministic, so there is no seed to set: any --seed,
    # negative or not, is a usage error, whatever the polynomial.
    @pytest.mark.parametrize(
        "text",
        [
            "1 + x1^4 - 3*x1^2",
            "-3.983966921073806 - 0.028504524402727265*x1 + 37.54616029719675*x1^4 - 0.001262498285006704*x1^6",
        ],
    )
    def test_negative_seed_rejected(self, files, capsys, text):
        path = files("p.txt", text)
        for seed in ("-1", "0"):
            with pytest.raises(SystemExit) as exc:
                main(["--seed", seed, "bound", path])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "error" in captured.err

    def test_seed_environment_variable_ignored(self, files, capsys, monkeypatch):
        argvs = [["circuits", files("a4.json", QUARTIC_SUPPORT)], ["check", "dual-member", files("v.json", SEP_POINT)]]
        plain = [run_main(argv, capsys) for argv in argvs]
        monkeypatch.setenv("SONC_SEED", "abc")
        assert [run_main(argv, capsys) for argv in argvs] == plain
        assert [code for code, _, _ in plain] == [0, 0]

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_nonfinite_tol_rejected(self, files, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main([f"--tol={tol}", "check", "dual-member", files("v.json", SEP_POINT)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--tol must be positive and finite" in captured.err
