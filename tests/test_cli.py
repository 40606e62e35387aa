import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from speccy import cm, imq
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

    # sha256 of the stdout, recorded before the a+ table became a VVFormQ
    PINS = {
        ("-7", "0", "json"): "8511d6fcd749a90d2be3c8ed096ecdad8501b2cae98936df4f482dfc8ae7de87",
        ("-7", "0", "csv"): "7498c08546865e3a396f2dcb5f3f54c6e250f977618632a021baed641fa195c2",
        ("-7", "1", "json"): "1684e2c0bce553c70adedbe024d9fc0d31c6e7e8b0ec17fb7e9f98d3702b5139",
        ("-7", "1", "csv"): "3675dbeb4e90b2ec5a273055d59fec99f9434ad9554e08a1806f6c3c4f18394c",
        ("-7", "5/2", "json"): "2e047d0436683d3be61b32e42fa79a1130a3db541e386bc4de04d63cd443560b",
        ("-7", "5/2", "csv"): "abaf85148af4b70e1c87b5f0df553b10ff814aca6561ea7700279c50564ff2dc",
        ("-23", "0", "json"): "75069d7714d9b1a1e20302fe18b7f5ad965aa21d81e2d2af61af00e42dd6cedb",
        ("-23", "0", "csv"): "bbdfd942f28e04cec31de2869bb10a8657e1f3b42bccb949e28583e8286400e9",
        ("-23", "1", "json"): "3aeee9ee08bfeb26ad2b05f85dcff53f6af8588b0c69b4c0662208b37c8a2e6d",
        ("-23", "1", "csv"): "81c92302c1ea558883257e7f5177130f6a0eacd9775f4e184c5a3da781ea62fd",
        ("-23", "5/2", "json"): "934fa80560356fb4698a0003f2cd5c60fc6ce98cc23e85f4986698234455d452",
        ("-23", "5/2", "csv"): "7c0242efbb67d5ebe1fec3cc7b82752b0c1d1efb11a627698fd5c403803b4e58",
    }

    @pytest.mark.parametrize("d,cutoff,fmt", sorted(PINS))
    def test_stdout_pinned(self, d, cutoff, fmt, tmp_path, monkeypatch):
        # the payload names the lattice file, so it is read by a fixed
        # relative name from inside tmp_path
        gram = {"-7": [[-2, -1], [-1, -4]], "-23": [[-2, -1], [-1, -12]]}[d]
        name = f"l0_d{d[1:]}.json"
        (tmp_path / name).write_text(json.dumps({"gram": gram}))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPECCY_PRECISION", raising=False)
        code, out = capture(["--format", fmt, "eisenstein", "--lattice", name,
                             "--cutoff", cutoff])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINS[d, cutoff, fmt]


class TestCsvPinned:
    # sha256 of the --format csv stdout, recorded before the CSV rows were
    # read off the JSON payload
    FILES = {
        "l0_d7.json": {"gram": [[-2, -1], [-1, -4]]},
        "L_d7_A1.json": {"gram": [[-2, -1, 0], [-1, -4, 0], [0, 0, 2]]},
        "sub.json": {"basis": [[1, 0], [0, 1], [0, 0]]},
        "a1.json": {"gram": [[2]]},
        "a1a1.json": {"gram": [[2, 0], [0, 2]]},
        "empty.json": {"gram": []},
    }
    PINS = [
        (["disc", "--lattice", "l0_d7.json"],
         "1d01c7f3c2150684d90c0c07c0c5ddaa85ab4b2f2f70067b9a6368c5bf6af562"),
        (["disc", "--lattice", "a1a1.json"],
         "bc7d8d7cba357d5d37f18b78246ab3c73b29be0d0fcdafe6696eb162e2b30f18"),
        (["disc", "--lattice", "empty.json"],
         "f4a26749cfe38db573acb477ffd7f6ead12b676070a46fcf7993fec59532c9a4"),
        (["theta", "--lattice", "empty.json", "--cutoff", "2"],
         "d6c5bd3d6e27c79fa8f16de378a4eaf194528772a1f1d871e50d813e9af5cb46"),
        (["theta", "--lattice", "a1.json", "--cutoff", "3"],
         "c8070b740ac7cd560f4ace0159cbd048533781d7a0490907007390ada6b7b09a"),
        (["theta", "--lattice", "a1a1.json", "--cutoff", "2"],
         "1330730360a45982dd70843b238aca0f3681da61228d3c07d2e07a018316e8eb"),
        (["degrees", "--lattice", "l0_d7.json", "--m", "1", "--oracle"],
         "1db3f444bf284020a1f5e2438ac9e3787aee22b8ea0602f17bac06d537a9895c"),
        (["degrees", "--lattice", "l0_d7.json", "--m", "2", "--mu", "0", "--oracle"],
         "86ff95f44d29349028d20d64f5716dc3880638a827ae6e4ade10b91c921a9b71"),
        (["--precision", "15", "chowla", "--disc", "-7"],
         "5ba8dc4b5f9fb9ae4f046b37ea9ecff019cf54f01fe3f1d54f41a78556242a6f"),
        (["chowla", "--disc", "-23"],
         "c20d874efb23b568278b3b5c85be29992ae305cccaf51a9d1447e2003319c0ff"),
        (["verify", "--lattice", "L_d7_A1.json", "--sub", "sub.json", "--pp", '{"1,0":1}'],
         "7af8e34610a010314c8bbe1669ac1582670c330dba2b4ac5078c8e5f523a26b6"),
        (["verify", "--lattice", "L_d7_A1.json", "--sub", "sub.json", "--pp",
          '{"1,0":1,"10/7,2":"1/2","10/7,12":"1/2","const":"1/2"}'],
         "2d7e93c00f11c4de6e6ef4cddf5112588eab384ea14464bbbd830ce36ea965e5"),
        (["verify", "--lattice", "L_d7_A1.json", "--sub", "sub.json", "--pp", '{"5/4,7":2}'],
         "b6b5e3a70db180f5922f8440f10f0e0a66e38b57559cabf63499aa8b9641c147"),
    ]

    @pytest.mark.parametrize("argv,pin", PINS, ids=[" ".join(argv) for argv, _ in PINS])
    def test_stdout_pinned(self, argv, pin, tmp_path, monkeypatch):
        for name, blob in self.FILES.items():
            (tmp_path / name).write_text(json.dumps(blob))
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SPECCY_PRECISION", raising=False)
        code, out = capture(["--format", "csv", *argv])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == pin


class TestDegrees:
    def test_two_agreeing_columns(self, files):
        code, out = capture(["degrees", "--lattice", files["l0"],
                             "--m", "1", "--mu", "0", "--oracle"])
        assert code == 0
        blob = json.loads(out)
        assert blob["formula"]["degree"]["logs"] == {"7": "1"}
        assert blob["oracle"]["degree"]["logs"] == {"7": "1"}
        assert blob["oracle"]["agrees"] is True

    def test_oracle_at_a_large_diff_prime(self, files):
        # Diff(99991) = {99991}: every algebra model (-7, -q) has 99991 | q
        code, out = capture(["degrees", "--lattice", files["l0"],
                             "--m", "99991", "--oracle"])
        assert code == 0
        blob = json.loads(out)
        assert blob["formula"]["degree"]["logs"] == {"99991": "2"}
        assert blob["oracle"]["agrees"] is True

    def test_oracle_without_a_model_is_input_error(self, files, monkeypatch, capsys):
        monkeypatch.setattr(cm, "_MODEL_SEARCH", 1)
        cm._cm_order_data.cache_clear()
        cm._coset_frame.cache_clear()
        code, _ = capture(["degrees", "--lattice", files["l0"], "--m", "3", "--oracle"])
        assert code == 1
        assert "no algebra model (d, -q) with q < 3 found for p = 3, d = -7" in \
            capsys.readouterr().err

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

    def test_builds_its_field_and_sums_L_at_0_once(self, monkeypatch):
        # L_derivative_data checks the character sum against 2h/w and hands
        # the checked value, with the field, to the L' cache
        imq._lderiv_cached.cache_clear()
        calls = []
        field, char_sum = imq.ImQField.from_discriminant.__func__, imq.L_chi_exact_at_0
        monkeypatch.setattr(imq.ImQField, "from_discriminant",
                            classmethod(lambda cls, d: calls.append("field") or field(cls, d)))
        monkeypatch.setattr(imq, "L_chi_exact_at_0", lambda K: calls.append("sum") or char_sum(K))
        assert capture(["chowla", "--disc", "-23"])[0] == 0
        assert sorted(calls) == ["field", "sum"]

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

    @pytest.mark.parametrize("pp,message", [
        ('{"1/3,0":1}', "support law violated at (1/3, Coset(0,))"),
        # the support law is tested at every entry before the symmetry
        ('{"31/28,1":1,"1/3,0":1}', "support law violated at (1/3, Coset(0,))"),
        ('{"31/28,1":1}', "coefficient at (31/28, Coset(1,)) breaks mu -> -mu symmetry"),
        ('{"31/28,1":1,"31/28,13":2}',
         "coefficient at (31/28, Coset(1,)) breaks mu -> -mu symmetry"),
        ('{"1,14":0}', "key '1,14': coset index out of range, the group has 14 cosets"),
    ])
    def test_bad_principal_part_names_pp(self, files, capsys, pp, message):
        # L0(-7) + A1 has 14 cosets, coset 1 with Q = 3/28 and -1 = 13
        code, err = error_of(["verify", "--lattice", files["L"], "--sub", files["sub"],
                              "--pp", pp], capsys)
        assert (code, err) == (1, f"error: --pp: {message}\n")

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
        assert pp.entries == {(1, 0): 1}


def l0_d7_e8(tmp_path):
    """Files of L0(-7) + E8 and of its L0 basis."""
    from test_qseries import E8
    gram = [[0] * 10 for _ in range(10)]
    gram[0][:2], gram[1][:2] = [-2, -1], [-1, -4]
    for i in range(8):
        gram[2 + i][2:] = E8.gram[i]
    lat, sub = tmp_path / "L_e8.json", tmp_path / "sub_e8.json"
    lat.write_text(json.dumps({"gram": gram}))
    sub.write_text(json.dumps({"basis": [[1, 0], [0, 1]] + [[0, 0]] * 8}))
    return str(lat), str(sub)


def block_sum(a, b):
    """The Gram matrix of the orthogonal sum of Grams a and b."""
    return ([row + [0] * len(b) for row in a]
            + [[0] * len(a) + row for row in b])


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
        (["degrees", "--lattice", "{l0}", "--m", "0"], "--m"),
        (["degrees", "--lattice", "{l0}", "--m", "-3"], "--m"),
        (["theta", "--lattice", "{a1}", "--cutoff", "-1"], "--cutoff"),
        (["degrees", "--lattice", "{l0}", "--m", "1", "--mu", "99"], "--mu"),
        (["degrees", "--lattice", "{l0}", "--m", "1", "--mu", "-1"], "--mu"),
        (["chowla", "--disc", "-4"], "--disc"),
        (["chowla", "--disc", "5"], "--disc"),
        (["chowla", "--disc", "0"], "--disc"),
        (["chowla", "--disc", "-5"], "--disc"),
        (["chowla", "--disc", "-27"], "--disc"),
        (["verify", "--lattice", "{l_e8}", "--sub", "{sub_e8}", "--pp", '{{"1,0":1}}',
          "--fault-inject", "1,99"], "--fault-inject"),
        (["verify", "--lattice", "{l_e8}", "--sub", "{sub_e8}", "--pp", '{{"1,0":1}}',
          "--fault-inject", "1,-1"], "--fault-inject"),
        (["verify", "--lattice", "{l_e8}", "--sub", "{sub_e8}", "--pp", '{{"1,0":1}}',
          "--fault-inject", "2,0"], "--fault-inject"),
        # over cli.MAX_PRECISION: refused before the L-function sums start
        (["chowla", "--disc", "-7", "--precision", "100000000000"], "--precision"),
        (["--precision", "201", "chowla", "--disc", "-7"], "--precision"),
        # past Python's 4,300-digit int() limit, judged by length alone
        (["chowla", "--disc", "-7", "--precision", "9" * 5000], "--precision"),
        (["--precision", "0" * 10 + "9" * 5000, "chowla", "--disc", "-7"], "--precision"),
        (["chowla", "--disc", "-7", "--precision", "-" + "9" * 5000], "--precision"),
        # usage errors name the subcommand or flag on one line, with no usage text
        (["frob"], "command"),
        ([], "command"),
        (["verify", "--lattice", "{l_e8}", "--sub", "{sub_e8}", "--pp"], "--pp"),
        (["--format", "xml", "chowla", "--disc", "-7"], "--format"),
    ])
    def test_bad_numeric_flag(self, files, tmp_path, capsys, argv, flag):
        if "{l_e8}" in argv:
            files = dict(zip(("l_e8", "sub_e8"), l0_d7_e8(tmp_path)), **files)
        argv = [a.format(**files) for a in argv]
        start = time.perf_counter()
        code, err = error_of(argv, capsys)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err.startswith(f"error: {flag}: ") and "Traceback" not in err
        assert len(err.splitlines()) == 1 and len(err) < 200

    INPUTS = {
        "a2": {"gram": [[2, 1], [1, 2]]},
        "degenerate": {"gram": [[2, 2], [2, 2]]},
        "not_maximal": {"gram": [[-2, -1, 0], [-1, -4, 0], [0, 0, 8]]},
        "rows10": {"basis": [[1, 0], [0, 1]] + [[0, 0]] * 8},
        "rank1": {"basis": [[1], [0], [0]]},
        "non_primitive": {"basis": [[2, 0], [0, 1], [0, 0]]},
        "l0_d23": {"gram": [[-2, -1], [-1, -12]]},  # class number 3
        "odd_diagonal": {"gram": [[1, 0], [0, 2]]},
        "asymmetric": {"gram": [[2, 1], [0, 2]]},
        # 2^102 + 3 cosets, over the coset bound
        "huge_group": {"gram": [[2, 1], [1, 2 * (2 ** 100 + 1)]]},
        "l0_d7_huge": {"gram": block_sum([[-2, -1], [-1, -4]],
                                         [[2, 1], [1, 2 * (2 ** 100 + 1)]])},
        # L0(-7) + a skew A1 + A1, k = 2^40: the complement's conditioning
        # guard refuses it
        "l0_d7_skew": {"gram": block_sum([[-2, -1], [-1, -4]],
                                         [[2, 2 ** 41], [2 ** 41, 2 ** 81 + 2]])},
        "sub4": {"basis": [[1, 0], [0, 1], [0, 0], [0, 0]]},
        "l0_d27": {"gram": [[-2, -1], [-1, -14]]},  # d = -27, odd but not fundamental
        "row": {"gram": [[2, 1]]},
        # L0(-7) + U: the complement U is indefinite
        "l0_d7_u": {"gram": [[-2, -1, 0, 0], [-1, -4, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]},
    }

    @pytest.mark.parametrize("argv,message", [
        (["eisenstein", "--lattice", "{a2}"],
         "--lattice: even Clifford discriminant requires a negative definite binary lattice"),
        (["degrees", "--lattice", "{a2}", "--m", "1"],
         "--lattice: even Clifford discriminant requires a negative definite binary lattice"),
        (["chowla", "--lattice", "{a2}"],
         "--lattice: even Clifford discriminant requires a negative definite binary lattice"),
        (["disc", "--lattice", "{degenerate}"], "--lattice: degenerate lattice"),
        (["verify", "--lattice", "{degenerate}", "--sub", "{sub}"],
         "--lattice: degenerate lattice"),
        (["verify", "--lattice", "{l0}", "--sub", "{rows10}"],
         "--sub: sublattice basis has 10 rows, the ambient lattice rank 2"),
        (["verify", "--lattice", "{L}", "--sub", "{rank1}"],
         "--sub: distinguished sublattice must be negative definite binary"),
        (["verify", "--lattice", "{L}", "--sub", "{non_primitive}"],
         "--sub: non-primitive sublattice"),
        (["verify", "--lattice", "{not_maximal}", "--sub", "{sub}"],
         "--lattice: ambient lattice must be maximal"),
        (["degrees", "--lattice", "{l0_d23}", "--m", "1", "--oracle"],
         "--lattice: brute-force oracle requires class number one"),
        (["degrees", "--lattice", "{l0}", "--m", "15", "--oracle"],
         "--m: oracle requires Diff = {p}; degree vanishes otherwise"),
        (["degrees", "--lattice", "{l0}", "--m", "1/7", "--mu", "1", "--oracle"],
         "--m: oracle requires ord_p(m) >= 0"),
        (["verify", "--lattice", "{l0_d7_skew}", "--sub", "{sub4}"],
         "--lattice: enumeration input too ill-conditioned or too large to search"),
        (["disc", "--lattice", "{odd_diagonal}"],
         "--lattice: gram diagonal must be even (Q must be Z-valued)"),
        (["theta", "--lattice", "{asymmetric}"], "--lattice: gram matrix must be symmetric"),
        (["disc", "--lattice", "{huge_group}"],
         f"--lattice: the discriminant group has {2 ** 102 + 3} cosets, "
         "over the listing bound of 1000000"),
        (["verify", "--lattice", "{l0_d7_huge}", "--sub", "{sub4}"],
         f"--lattice: the discriminant group has {7 * (2 ** 102 + 3)} cosets, "
         "over the listing bound of 1000000"),
        (["eisenstein", "--lattice", "{l0_d27}"],
         "--lattice: discriminant must be fundamental (squarefree, 1 mod 4), got -27"),
        (["disc", "--lattice", "{row}"], "--lattice: gram matrix must be square"),
        (["eisenstein", "--lattice", "{l0}", "--cutoff", "-1"],
         "--cutoff: cutoff must be nonnegative, got -1"),
        (["verify", "--lattice", "{L}", "--sub", "{sub}", "--pp", '{{"0,0":1}}'],
         "--pp: principal part exponents -m require m > 0"),
        (["verify", "--lattice", "{L}", "--sub", "{sub}", "--pp", '{{"1,x":1}}'],
         "--pp: key '1,x': coset index 'x' is not an integer"),
        (["verify", "--lattice", "{l0_d7_u}", "--sub", "{sub4}"],
         "--lattice: complement must be positive definite"),
        (["verify", "--lattice", "{L}", "--sub", "{sub}", "--fault-inject", "1,x"],
         "--fault-inject: key '1,x': coset index 'x' is not an integer"),
        (["verify", "--lattice", "{L}", "--sub", "{sub}", "--fault-inject", "1"],
         '--fault-inject: key \'1\': expected "m,cosetindex"'),
        (["verify", "--lattice", "{L}", "--sub", "{sub}", "--fault-inject", "x,0"],
         "--fault-inject: key 'x,0': exponent: 'x' is not a rational number"),
    ])
    def test_refused_input_names_its_flag(self, files, tmp_path, capsys, argv, message):
        for name, blob in self.INPUTS.items():
            files[name] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(blob))
        if argv[0] == "verify" and "--pp" not in argv:
            argv = argv + ["--pp", '{{"1,0":1}}']
        start = time.perf_counter()
        code, err = error_of([a.format(**files) for a in argv], capsys)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,number", [
        (["degrees", "--lattice", "{l0}", "--m", "1000000000000000000000000000057"],
         "1000000000000000000000000000057"),
        (["chowla", "--disc", "-1000000000000000000000000000059"],
         "-1000000000000000000000000000059"),
        (["degrees", "--lattice", "{l0_a2}", "--m", "1000000000000000000000000000057"],
         "1000000000000000000000000000057"),
    ])
    def test_number_past_the_factorisation_bound(self, files, capsys, argv, number):
        # the refusal names the number as typed, not Q(e1) times it, and the
        # flag that brought it in
        argv = [a.format(**files) for a in argv]
        flag = "--disc: " if argv[0] == "chowla" else "--m: "
        start = time.perf_counter()
        code, err = error_of(argv, capsys)
        assert time.perf_counter() - start < 5
        assert code == 1
        assert err.startswith(f"error: {flag}cannot factor {number}:")

    def test_oracle_search_past_the_bound(self, files, capsys):
        # the size guard admits this m, and the search would visit about
        # 2 * 10^13 values of its outer coordinate: refused before it starts
        start = time.perf_counter()
        code, err = error_of(["degrees", "--lattice", files["l0"],
                              "--m", "9999999999999999999999999999", "--oracle"], capsys)
        assert time.perf_counter() - start < 2
        assert code == 1
        assert err.startswith("error: --m: ") and "bound" in err
        assert "Traceback" not in err

    def test_eisenstein_cutoff_past_the_budget(self, files, capsys):
        # refused before the walk, like theta's refusal of the same cutoff
        start = time.perf_counter()
        code, err = error_of(["eisenstein", "--lattice", files["l0"],
                              "--cutoff", "1000000000000000000000000000057"], capsys)
        assert time.perf_counter() - start < 5
        assert code == 1
        assert err.startswith("error: --cutoff: ") and "budget" in err

    @pytest.mark.parametrize("complement", ["A1", "E8"])
    def test_verify_pp_past_the_budget(self, files, tmp_path, capsys, complement):
        # 7 cosets up to m = 20000 pass the a+ budget: refused by the flag's
        # name before any sweep (on E8 the theta sweep alone would run for
        # minutes)
        lat, sub = ((files["L"], files["sub"]) if complement == "A1"
                    else l0_d7_e8(tmp_path))
        start = time.perf_counter()
        code, err = error_of(["verify", "--lattice", lat, "--sub", sub,
                              "--pp", '{"20000,0":1}'], capsys)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err.startswith("error: --pp: 7 cosets up to 20000") and "budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,flag", [
        (["verify", "--lattice", "{l_e8}", "--sub", "{sub_e8}", "--pp", '{{"200,0":1}}'], "--pp"),
        (["theta", "--lattice", "{e8}", "--cutoff", "200"], "--cutoff"),
    ])
    def test_sweep_past_the_budget(self, tmp_path, capsys, command, flag):
        # the E8 ball to Q = 200 holds about 10^11 points by the volume
        # estimate, over lattice.SWEEP_BUDGET: refused before the sweep
        # starts, by the flag that set the bound (verify's 7 x 201 a+
        # evaluations are within their own budget)
        from test_qseries import E8
        e8 = tmp_path / "e8.json"
        e8.write_text(json.dumps({"gram": E8.gram}))
        l_e8, sub_e8 = l0_d7_e8(tmp_path)
        start = time.perf_counter()
        code, err = error_of([a.format(l_e8=l_e8, sub_e8=sub_e8, e8=e8) for a in command], capsys)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err == (f"error: {flag}: enumeration input too ill-conditioned "
                       "or too large to search\n")

    def test_fault_target_beyond_every_row(self, tmp_path, capsys):
        # on L0(-7)+E8 with principal part q^-1 at the zero coset, no row
        # reads a+ at m = 2, so the table stops before it and has no target
        lat, sub = l0_d7_e8(tmp_path)
        code, err = error_of(["verify", "--lattice", lat, "--sub", sub,
                              "--pp", '{"1,0":1}', "--fault-inject", "2,0"], capsys)
        assert code == 1
        assert err == ("error: --fault-inject: fault target has no nonzero coefficient "
                       "at m = 2, coset index 0\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "exit codes" in capsys.readouterr().out

    @pytest.mark.parametrize("value", [
        "abc", "0", "201", "100000000000",
        # past Python's 4,300-digit int() limit, judged by length alone
        pytest.param("9" * 5000, id="nines5000"),
        pytest.param("0" * 10 + "9" * 5000, id="zeros10-nines5000"),
        pytest.param("-" + "9" * 5000, id="minus-nines5000"),
    ])
    def test_bad_precision_environment(self, monkeypatch, capsys, value):
        monkeypatch.setenv("SPECCY_PRECISION", value)
        start = time.perf_counter()
        code, err = error_of(["chowla", "--disc", "-7"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert err.startswith("error: SPECCY_PRECISION: ") and err.count("\n") == 1
        assert len(err) < 200

    def test_precision_bound_message(self, monkeypatch, capsys):
        monkeypatch.setenv("SPECCY_PRECISION", "201")
        assert error_of(["chowla", "--disc", "-7"], capsys) == (
            1, "error: SPECCY_PRECISION: 201 digits is over the bound of 200\n")
        assert error_of(["--precision", "100000000000", "chowla", "--disc", "-7"], capsys) == (
            1, "error: --precision: 100000000000 digits is over the bound of 200\n")

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

    @pytest.mark.parametrize("gram,cutoff,flag", [
        ([[2, 1], [1, 2]], "1e400", "--cutoff"),  # the size guard
        ([[2, 2 ** 601], [2 ** 601, 2 ** 1201 + 2]], "2", "--lattice"),  # conditioning
    ])
    def test_theta_refusal_names_its_flag(self, tmp_path, capsys, gram, cutoff, flag):
        lat = tmp_path / "g.json"
        lat.write_text(json.dumps({"gram": gram}))
        code, err = error_of(["theta", "--lattice", str(lat), "--cutoff", cutoff], capsys)
        assert code == 1
        assert err == (f"error: {flag}: enumeration input too ill-conditioned "
                       "or too large to search\n")

    @pytest.mark.parametrize("flag,text", [
        ("--lattice", '{"gram": [[2,1],[1,2]]'),
        ("--sub", '{"basis": [[1, 0], [0, 1]'),
    ])
    def test_malformed_json_names_the_file(self, tmp_path, capsys, flag, text):
        # verify reads two files; the message says which one is broken
        lat, sub = l0_d7_e8(tmp_path)
        bad = tmp_path / "broken.json"
        bad.write_text(text)
        files = {"--lattice": lat, "--sub": sub, flag: str(bad)}
        code, err = error_of(["verify", "--lattice", files["--lattice"], "--sub",
                              files["--sub"], "--pp", '{"1,0":1}'], capsys)
        assert code == 1
        assert err.startswith(f"error: {flag}: {bad}: not valid JSON: ")
        assert "Traceback" not in err
        if flag == "--lattice":
            code, err = error_of(["disc", "--lattice", str(bad)], capsys)
            assert code == 1 and err.startswith(f"error: --lattice: {bad}: not valid JSON: ")

    @pytest.mark.parametrize("kind", ["missing", "directory", "malformed"])
    def test_pp_file_errors_name_the_flag_and_the_file(self, files, tmp_path, capsys, kind):
        path = tmp_path / "pp.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "malformed":
            path.write_text('{"1,0": 1')
        code, err = error_of(["verify", "--lattice", files["L"], "--sub", files["sub"],
                              "--pp", f"@{path}"], capsys)
        assert code == 1 and "Traceback" not in err
        want = {"missing": f"error: --pp: cannot read {str(path)!r}: No such file or directory",
                "directory": f"error: --pp: cannot read {str(path)!r}: Is a directory",
                "malformed": f"error: --pp: {path}: not valid JSON: "}[kind]
        assert err.startswith(want), err

    @pytest.mark.parametrize("flag", ["--lattice", "--sub"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_unreadable_matrix_file_names_the_file(self, files, tmp_path, capsys, flag, kind):
        # the lattice and basis loaders read through serialize.load_json too
        path = tmp_path / "m.json"
        if kind == "directory":
            path.mkdir()
        given = {"--lattice": files["L"], "--sub": files["sub"], flag: str(path)}
        code, err = error_of(["verify", "--lattice", given["--lattice"], "--sub",
                              given["--sub"], "--pp", '{"1,0":1}'], capsys)
        reason = {"missing": "No such file or directory", "directory": "Is a directory"}[kind]
        assert code == 1 and "Traceback" not in err
        assert err.startswith(f"error: {flag}: cannot read {str(path)!r}: {reason}"), err

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
