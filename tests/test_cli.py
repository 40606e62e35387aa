import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from speccy.cli import run
from speccy.lattice import QuadLattice


@pytest.fixture()
def files(tmp_path):
    l0 = tmp_path / "l0_d7.json"
    l0.write_text('{"gram": [[-2, -1], [-1, -4]], "name": "d7"}')
    big = tmp_path / "L_d7_A1.json"
    big.write_text('{"gram": [[-2,-1,0],[-1,-4,0],[0,0,2]]}')
    sub = tmp_path / "sub.json"
    sub.write_text('{"basis": [[1,0],[0,1],[0,0]]}')
    a1 = tmp_path / "a1.json"
    a1.write_text('{"gram": [[2]]}')
    # also d = -7, with Q(e1) = -2 where l0 has Q(e1) = -1
    l0_a2 = tmp_path / "l0_d7_a2.json"
    l0_a2.write_text('{"gram": [[-4, -1], [-1, -2]]}')
    return {"l0": str(l0), "L": str(big), "sub": str(sub), "a1": str(a1), "l0_a2": str(l0_a2)}


def capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


class TestDisc:
    def test_d7_report(self, files):
        code, out = capture(["disc", "--lattice", files["l0"]])
        assert code == 0
        blob = json.loads(out)
        assert blob["elementary_divisors"] == [7]
        assert blob["cosets"][0]["q"] == "0"
        assert len(blob["cosets"]) == 7

    def test_byte_stable(self, files):
        _, out1 = capture(["disc", "--lattice", files["l0"]])
        _, out2 = capture(["disc", "--lattice", files["l0"]])
        assert out1 == out2

    def test_csv(self, files):
        code, out = capture(["--format", "csv", "disc", "--lattice", files["l0"]])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,coords,q,order"
        assert len(lines) == 8

    def test_rank_zero(self, tmp_path):
        # the empty lattice has one coset, the zero coset with q = 0
        empty = tmp_path / "empty.json"
        empty.write_text('{"gram": []}')
        assert QuadLattice([]).quadratic(()) == Fraction(0)
        assert type(QuadLattice([]).quadratic(())) is Fraction
        code, out = capture(["disc", "--lattice", str(empty)])
        assert code == 0
        blob = json.loads(out)
        assert [(c["coords"], c["q"], c["order"]) for c in blob["cosets"]] == [([], "0", 1)]
        code, out = capture(["--format", "csv", "disc", "--lattice", str(empty)])
        assert code == 0
        assert out.strip().split("\n") == ["index,coords,q,order", "0,,0,1"]


class TestTheta:
    def test_a1_table(self, files):
        code, out = capture(["theta", "--lattice", files["a1"], "--cutoff", "1"])
        assert code == 0
        blob = json.loads(out)
        coeffs = {c["exponent"]: c["vector"] for c in blob["theta"]["coefficients"]}
        assert coeffs["0"] == ["1", "0"]
        assert coeffs["1/4"] == ["0", "2"]
        assert coeffs["1"] == ["2", "0"]

    def test_indefinite_is_input_error(self, files, tmp_path):
        bad = tmp_path / "u.json"
        bad.write_text('{"gram": [[0,1],[1,0]]}')
        code, _ = capture(["theta", "--lattice", str(bad)])
        assert code == 1


class TestEisenstein:
    def test_d7_table(self, files):
        code, out = capture(["eisenstein", "--lattice", files["l0"], "--cutoff", "1"])
        assert code == 0
        blob = json.loads(out)
        assert blob["field"] == {"d": -7, "h": 1, "w": 2}
        by_key = {(c["exponent"], tuple(c["coset"])): c["value"]
                  for c in blob["coefficients"]}
        assert by_key[("1", (0,))]["logs"] == {"7": "-2"}


class TestDegrees:
    def test_two_agreeing_columns(self, files):
        code, out = capture(["degrees", "--lattice", files["l0"],
                             "--m", "1", "--mu", "0", "--oracle"])
        assert code == 0
        blob = json.loads(out)
        assert blob["formula"]["degree"]["logs"] == {"7": "1"}
        assert blob["oracle"]["degree"]["logs"] == {"7": "1"}
        assert blob["oracle"]["agrees"] is True

    def test_bad_m_is_input_error(self, files):
        code, _ = capture(["degrees", "--lattice", files["l0"], "--m", "0"])
        assert code == 1

    @pytest.mark.parametrize("mu", ["99", "-1"])
    def test_mu_out_of_range_is_input_error(self, files, mu, capsys):
        code, _ = capture(["degrees", "--lattice", files["l0"], "--m", "1", "--mu", mu])
        assert code == 1
        err = capsys.readouterr().err
        assert f"coset index {mu} out of range" in err and "7 cosets" in err


class TestChowla:
    def test_by_disc(self):
        code, out = capture(["chowla", "--disc", "-7"])
        assert code == 0
        blob = json.loads(out)
        assert blob["L_at_0"] == "1"
        assert blob["L_at_0_equals_2h_over_w"] is True

    def test_requires_input(self, capsys):
        code, err = error_of(["chowla"], capsys)
        assert code == 1
        assert err.startswith("error: one of the arguments --lattice --disc is required")

    def test_lattice_and_disc_exclude_each_other(self, files, capsys):
        code, err = error_of(["chowla", "--lattice", files["l0"], "--disc", "-23"], capsys)
        assert code == 1
        assert err.startswith("error: --disc: not allowed with argument --lattice")

    def test_one_cpu_prints_the_same_bytes(self, monkeypatch):
        # the Lambda values are shared over the CPUs of the affinity mask
        argv = ["--precision", "15", "chowla", "--disc", "-103"]
        outs = []
        for mask in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask)
            outs.append(capture(argv))
        assert outs[0][0] == 0 and outs[0] == outs[1]


class TestVerify:
    def test_ok_exit_zero(self, files):
        code, out = capture(["verify", "--lattice", files["L"], "--sub", files["sub"],
                             "--pp", '{"1,0":1}'])
        assert code == 0
        blob = json.loads(out)
        assert blob["totals"]["all_match"] is True
        assert blob["totals"]["residual"]["rational"] == "0"

    def test_fault_exit_two(self, files):
        code, out = capture(["verify", "--lattice", files["L"], "--sub", files["sub"],
                             "--pp", '{"1,0":1}', "--fault-inject", "1,0"])
        assert code == 2
        blob = json.loads(out)
        assert blob["totals"]["all_match"] is False

    def test_pp_from_file(self, files, tmp_path):
        ppf = tmp_path / "pp.json"
        ppf.write_text('{"1,0": 1, "const": "0"}')
        code, _ = capture(["verify", "--lattice", files["L"], "--sub", files["sub"],
                           "--pp", f"@{ppf}"])
        assert code == 0

    def test_unreadable_input(self, files):
        code, _ = capture(["verify", "--lattice", "/nonexistent.json",
                           "--sub", files["sub"], "--pp", '{"1,0":1}'])
        assert code == 1

    def test_pp_must_be_an_object(self, files, capsys):
        code, _ = capture(["verify", "--lattice", files["L"], "--sub", files["sub"],
                           "--pp", "[1]"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --pp:") and "JSON object" in err and "list" in err

    def test_pp_key_needs_m_and_coset(self, files, capsys):
        code, _ = capture(["verify", "--lattice", files["L"], "--sub", files["sub"],
                           "--pp", '{"1":1}'])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --pp: key '1'") and '"m,cosetindex"' in err

    def test_round_trip_principal_part(self, files):
        from speccy.lattice import QuadLattice, discriminant_group
        from speccy.serialize import parse_principal_part
        g = discriminant_group(QuadLattice([[-2, -1, 0], [-1, -4, 0], [0, 0, 2]]))
        pp = parse_principal_part('{"1,0": 1, "const": "2"}', g)
        assert pp.constant == 2
        assert pp.entries == {(1, g.zero().coords): 1}


def error_of(argv, capsys):
    """Exit code and stderr of a run that must print nothing on stdout."""
    code, out = capture(argv)
    assert out == ""
    return code, capsys.readouterr().err


class TestBadInput:
    @pytest.mark.parametrize("argv,flag", [
        (["theta", "--lattice", "{a1}", "--cutoff", "1/0"], "--cutoff"),
        (["eisenstein", "--lattice", "{l0}", "--cutoff", "1/0"], "--cutoff"),
        (["degrees", "--lattice", "{l0}", "--m", "1/0"], "--m"),
        (["chowla", "--disc", "-7", "--precision", "-5"], "--precision"),
        (["--precision", "0", "chowla", "--disc", "-7"], "--precision"),
        (["chowla", "--disc", "-7", "--precision", "abc"], "--precision"),
        (["degrees", "--lattice", "{l0}", "--m", "1", "--mu", "x"], "--mu"),
        (["chowla", "--disc", "abc"], "--disc"),
    ])
    def test_bad_numeric_flag(self, files, capsys, argv, flag):
        argv = [a.format(**files) for a in argv]
        code, err = error_of(argv, capsys)
        assert code == 1
        assert err.startswith(f"error: {flag}")

    @pytest.mark.parametrize("argv,number", [
        (["degrees", "--lattice", "{l0}", "--m", "1000000000000000000000000000057"],
         "1000000000000000000000000000057"),
        (["chowla", "--disc", "-1000000000000000000000000000059"],
         "-1000000000000000000000000000059"),
        (["degrees", "--lattice", "{l0_a2}", "--m", "1000000000000000000000000000057"],
         "1000000000000000000000000000057"),
    ])
    def test_number_past_the_factorisation_bound(self, files, capsys, argv, number):
        # the refusal names the number as typed, not Q(e1) times it
        argv = [a.format(**files) for a in argv]
        start = time.perf_counter()
        code, err = error_of(argv, capsys)
        assert time.perf_counter() - start < 5
        assert code == 1
        assert err.startswith(f"error: cannot factor {number}:")

    def test_fault_target_beyond_every_row(self, tmp_path, capsys):
        # on L0(-7)+E8 with principal part q^-1 at the zero coset, no row
        # reads a+ at m = 2, so the table stops before it and has no target
        from test_qseries import E8
        gram = [[0] * 10 for _ in range(10)]
        gram[0][:2], gram[1][:2] = [-2, -1], [-1, -4]
        for i in range(8):
            gram[2 + i][2:] = E8.gram[i]
        lat, sub = tmp_path / "L.json", tmp_path / "sub.json"
        lat.write_text(json.dumps({"gram": gram}))
        sub.write_text(json.dumps({"basis": [[1, 0], [0, 1]] + [[0, 0]] * 8}))
        code, err = error_of(["verify", "--lattice", str(lat), "--sub", str(sub),
                              "--pp", '{"1,0":1}', "--fault-inject", "2,0"], capsys)
        assert code == 1
        assert "fault target has no nonzero coefficient" in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "exit codes" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_bad_precision_environment(self, monkeypatch, capsys, value):
        monkeypatch.setenv("SPECCY_PRECISION", value)
        code, err = error_of(["chowla", "--disc", "-7"], capsys)
        assert code == 1
        assert err.startswith("error: SPECCY_PRECISION")

    @pytest.mark.parametrize("gram", [
        [[2 ** 1100, 0], [0, 2]],
        [[2, 2 ** 601], [2 ** 601, 2 ** 1201 + 2]],  # skewed by k = 2^600
    ])
    def test_enumeration_input_past_the_float_range(self, tmp_path, capsys, gram):
        bad = tmp_path / "g.json"
        bad.write_text(json.dumps({"gram": gram}))
        code, err = error_of(["theta", "--lattice", str(bad), "--cutoff", "2"], capsys)
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err

    def test_non_integral_gram_entry(self, tmp_path, capsys):
        bad = tmp_path / "g.json"
        bad.write_text('{"gram": [[2, 1.5], [1.5, 2]]}')
        code, err = error_of(["disc", "--lattice", str(bad)], capsys)
        assert code == 1
        assert "gram entry [0][1] = 1.5 is not an integer" in err

    @pytest.mark.parametrize("text,needle", [
        ('{"gram": [[2, true], [true, 2]]}', "gram entry [0][1] = True is not an integer"),
        ('{"gram": [["2", "4/4"], ["1", "2"]]}', "gram entry [0][0] = '2' is not an integer"),
    ])
    def test_bool_or_string_gram_entry(self, tmp_path, capsys, text, needle):
        bad = tmp_path / "g.json"
        bad.write_text(text)
        code, err = error_of(["disc", "--lattice", str(bad)], capsys)
        assert code == 1
        assert needle in err

    @pytest.mark.parametrize("text", ['{"gram": 5}', '{"gram": [1, 2]}',
                                      '{"gram": [[2], [2, 1]]}', "[1]"])
    def test_gram_must_be_a_matrix(self, tmp_path, capsys, text):
        bad = tmp_path / "g.json"
        bad.write_text(text)
        code, err = error_of(["disc", "--lattice", str(bad)], capsys)
        assert code == 1
        assert err.startswith("error: ") and "'gram'" in err

    @pytest.mark.parametrize("text,needle", [
        ('{"basis": 3}', "'basis' must be a list"),
        ('{"basis": [[1, 0], [0, 1]]}', "has 2 rows"),
        ('{"basis": [[1, 0], [0, 0.5], [0, 0]]}', "basis entry [1][1] = 0.5"),
        ('{"basis": [[1, 0], [0, true], [0, 0]]}', "basis entry [1][1] = True"),
        ('{"basis": [[1, 0], ["0", 1], [0, 0]]}', "basis entry [1][0] = '0'"),
    ])
    def test_basis_must_be_an_integer_matrix(self, files, tmp_path, capsys, text, needle):
        bad = tmp_path / "sub.json"
        bad.write_text(text)
        code, err = error_of(["verify", "--lattice", files["L"], "--sub", str(bad),
                              "--pp", '{"1,0":1}'], capsys)
        assert code == 1
        assert needle in err


def test_import_leaves_mpmath_unloaded():
    # only the L-function analytics need mpmath; it is imported on first use.
    # The records are plain classes, so dataclasses and the inspect module it
    # pulls in stay unloaded too, while every layer is still imported
    import speccy
    src = os.path.dirname(os.path.dirname(speccy.__file__))
    layers = ("linalg", "lattice", "cyclotomic", "weil", "qseries", "imq",
              "eisenstein", "cm", "pullback", "serialize", "cli")
    code = ("import sys, speccy.cli; "
            "print(sorted(m for m in ('mpmath', 'dataclasses', 'inspect') if m in sys.modules)); "
            f"print([m for m in {layers!r} if 'speccy.' + m not in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"
