"""Command-line interface: argument parsing, output formats, exit codes,
and deterministic, machine-readable output.
"""

import argparse
import errno
import hashlib
import json
import os
import random
import subprocess
import sys
import time

import mpmath
import pytest

from qprodasym import _backend, analysis, asymptotics
from qprodasym.cli import (COMMANDS, _parse_plain, build_parser, main, parse_spec,
                           SpecParseError)

from conftest import RR


# beyond every float and index range; fails before anything is allocated
BIG = str(10 ** 400)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseSpec:
    def test_single_and_multiple_terms(self):
        assert parse_spec(["5:1:-1"]).m == (5,)
        spec = parse_spec(["5:2:-2", "10:2:1", "10:4:2"])
        assert spec.m == (5, 10, 10)
        assert spec.r == (2, 2, 4)
        assert spec.delta == (-2, 1, 2)

    def test_empty_specification(self):
        with pytest.raises(SpecParseError, match="^empty specification$"):
            parse_spec([])

    @pytest.mark.parametrize("token,needle", [
        ("5:1", "expected m:r:delta"),
        ("5:x:1", "integers"),
        ("1:1:1", "m must be at least 2"),
        ("5:0:1", "r out of range"),
        ("5:5:1", "r out of range"),
        ("5:1:0", "delta must be nonzero"),
    ])
    def test_positioned_errors(self, token, needle):
        with pytest.raises(SpecParseError) as exc:
            parse_spec(["5:1:-1", token])
        assert "spec term 2" in str(exc.value)
        assert needle in str(exc.value)


class TestExpand:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "expand", "5:1:-1", "--order", "5")
        assert code == 0
        assert out.splitlines() == ["n,g", "0,1", "1,1", "2,1", "3,1", "4,2", "5,2"]

    def test_json_roundtrip_is_canonical(self, capsys):
        code, out, _ = run(capsys, "expand", "5:1:1", "5:2:-1",
                           "--order", "30", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["truncation_order"] == 30
        assert json.dumps(doc, separators=(",", ":"), sort_keys=True) == out.strip()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "series.csv"
        code, out, _ = run(capsys, "expand", "5:1:-1", "--order", "3",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "n,g"


class TestArcs:
    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "arcs", "5:1:1", "5:2:-1",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["L"] == 5
        assert doc["Omega"] == "24/5"
        assert doc["positive_classes"] == [[2, 5], [3, 5]]
        assert doc["assumption"] is True
        assert doc["violations"] == []

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "arcs", "5:1:-1")
        assert code == 0
        assert "L = 5" in out
        assert "Omega = -2/5" in out
        assert "assumption satisfied: True" in out


    def test_large_L_reads_divisor_cells(self, capsys, monkeypatch):
        # L = 504 has 127,260 classes but sigma(504) = 1560 divisor cells;
        # the spec builds one table, and the classes are printed from it
        # without an ArcClass each
        calls = []
        real = asymptotics._cell_nums

        def counted(*args):
            calls.append(args)
            return real(*args)

        def refuse(*args):
            raise AssertionError("arcs built an ArcClass")

        monkeypatch.setattr(asymptotics, "_cell_nums", counted)
        monkeypatch.setattr(asymptotics, "ArcClass", refuse)
        code, out, _ = run(capsys, "arcs", "7:1:-1", "8:1:-1", "9:1:-1",
                           "--format", "json")
        assert code == 0
        assert len(calls) <= 1560
        # the document of the direct O(L^2) enumeration
        assert hashlib.sha256(out.encode()).hexdigest().startswith("8c27898b3d7098e6")


class TestAsym:
    def test_value_tracks_exact_coefficient(self, capsys):
        import math
        from qprodasym import expand_spec
        code, out, _ = run(capsys, "asym", "5:1:-1", "--n", "500")
        assert code == 0
        doc = json.loads(out)
        exact = expand_spec(parse_spec(["5:1:-1"]), 500)[500]
        assert doc["sign"] == 1
        assert abs(float(doc["log_abs"]) - math.log(exact)) < 1e-9
        assert float(doc["imag_over_real"]) < 1e-8

    def test_hypothesis_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "asym", "2:1:-13", "--n", "100")
        assert code == 2
        assert "hypothesis" in err.lower()

    def test_n_out_of_range_exit_code(self, capsys):
        code, _, err = run(capsys, "asym", "5:1:-1", "--n", "0")
        assert code == 2

    def test_default_K_at_least_one(self, capsys):
        # floor(sqrt(2 pi Omega/24)) = floor(sqrt(pi/6)) = 0 would sum nothing
        code, out, _ = run(capsys, "asym", "2:1:-1", "--n", "0")
        assert code == 0
        assert out == ('{"K":1,"imag_over_real":"0","log_abs":"-0.12767347840335",'
                       '"n":0,"sign":1}\n')

    @pytest.mark.parametrize("K", ["0", "-3"])
    def test_nonpositive_K_exit_code(self, capsys, K):
        code, out, err = run(capsys, "asym", "5:1:-1", "--n", "100", "--K", K)
        assert code == 1
        assert out == ""
        assert "K must be at least 1" in err

    @pytest.mark.parametrize("argv,expected", [
        (("5:1:-1", "--n", "1468"),
         '{"K":96,"imag_over_real":"0","log_abs":"55.1509515007097",'
         '"n":1468,"sign":1}'),
        (("5:1:1", "5:2:-1", "--n", "1468"),
         '{"K":96,"imag_over_real":"1.22464679914735e-16",'
         '"log_abs":"33.9611714663368","n":1468,"sign":-1}'),
        (("5:2:-2", "10:2:1", "10:4:2", "--n", "1468"),
         '{"K":96,"imag_over_real":"0","log_abs":"37.7816270026885",'
         '"n":1468,"sign":1}'),
        (("60:5:-1", "--n", "2610"),
         '{"K":127,"imag_over_real":"0","log_abs":"18.2734591751286",'
         '"n":2610,"sign":1}'),
        (("30:2:-1", "--n", "1434"),
         '{"K":94,"imag_over_real":"0","log_abs":"19.3505104178466",'
         '"n":1434,"sign":1}'),
        (("12:5:-1", "--n", "1434"),
         '{"K":94,"imag_over_real":"0","log_abs":"31.9532341955559",'
         '"n":1434,"sign":1}'),
    ])
    def test_golden_stdout(self, capsys, argv, expected):
        # pinned to the output of the Fraction phase assembly, bit for bit
        code, out, _ = run(capsys, "asym", *argv)
        assert code == 0
        assert out == expected + "\n"

    def test_golden_stdout_large_n(self, capsys):
        # TG at K = 354: per-member kernels with k far beyond the class level
        code, out, _ = run(capsys, "asym", "5:2:-2", "10:2:1", "10:4:2",
                           "--n", "20000")
        assert code == 0
        assert out == ('{"K":354,"imag_over_real":"0",'
                       '"log_abs":"154.380603933585","n":20000,"sign":1}\n')

    def test_extended_keeps_global_precision(self, capsys, monkeypatch):
        # the extended backend (only transform-test takes it) runs in a
        # private mpmath context
        monkeypatch.setattr(_backend, "_EXTENDED", None)   # built afresh
        dps = mpmath.mp.dps
        code, _, _ = run(capsys, "transform-test", "5:1:1", "5:2:-1",
                         "--samples", "2", "--precision", "extended")
        assert code == 0
        assert mpmath.mp.dps == dps

    @pytest.mark.parametrize("argv", [
        ("asym", "5:1:-1", "--n", "100"),
        ("compare", "5:1:-1", "--n-list", "100"),
        ("analyze", "5:1:-1"),
    ], ids=lambda a: a[0])
    def test_precision_is_unrecognized(self, capsys, monkeypatch, argv):
        # the main sum has one double-precision path
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--precision", "extended"])
        captured = capsys.readouterr()
        assert exc.value.code == 1
        assert captured.out == ""
        assert captured.err == (build_parser().format_usage() + "qprodasym: error: "
                                "unrecognized arguments: --precision extended\n")


class TestCompare:
    def test_csv_table(self, capsys):
        code, out, _ = run(capsys, "compare", "5:1:1", "5:2:-1",
                           "--n-list", "200,400")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,exact,log_abs_exact,log_abs_asym,rel_error"
        assert len(lines) == 3
        rel = abs(float(lines[2].split(",")[-1]))
        assert rel < 1e-6

    def test_golden_json(self, capsys):
        # bit for bit the table of the per-arc Fraction assembly
        code, out, _ = run(capsys, "compare", "5:1:1", "5:2:-1",
                           "--n-list", "200,500,1000", "--format", "json")
        assert code == 0
        assert out == (
            '[{"exact":"58172","log_abs_asym":"10.9711587917428",'
            '"log_abs_exact":"10.9711594182976","n":200,'
            '"rel_error":"-6.26554611748986e-07"},'
            '{"exact":"302614540","log_abs_asym":"19.5279704081739",'
            '"log_abs_exact":"19.5279704083955","n":500,'
            '"rel_error":"-2.21586304860466e-10"},'
            '{"exact":"5993121914765","log_abs_asym":"29.4216335800585",'
            '"log_abs_exact":"29.4216335800585","n":1000,"rel_error":"0"}]\n')

    @pytest.mark.parametrize("n_list", [",", ",,"])
    def test_empty_n_list_exit_code(self, capsys, n_list):
        code, out, err = run(capsys, "compare", "5:1:-1", "--n-list", n_list)
        assert code == 1
        assert out == ""
        assert "--n-list" in err

    def test_negative_n_reports_zero(self, capsys):
        # Omega = 46 admits n = -1, where g(-1) = 0
        code, out, _ = run(capsys, "compare", "10:1:5", "--n-list=-1,2")
        assert code == 0
        assert out.splitlines()[1:] == [
            "-1,0,,0.160423402799051,inf",
            "2,10,2.30258509299405,1.25514521101752,-0.649165221189244"]
        code, out, _ = run(capsys, "compare", "10:1:5", "--n-list=-1")
        assert code == 0
        assert out.splitlines()[1:] == ["-1,0,,0.160423402799051,inf"]

    def test_n_out_of_range_exit_code(self, capsys):
        # same exit code as asym for an n outside n > -Omega/24
        code, out, err = run(capsys, "compare", "5:1:-1", "--n-list", "0")
        assert code == 2
        assert out == ""
        assert "hypothesis" in err.lower()


class TestAnalyze:
    def test_vanishing_residue_reported(self, capsys):
        code, out, _ = run(capsys, "analyze", "5:2:-2", "10:2:1", "10:4:2")
        assert code == 0
        doc = json.loads(out)
        assert doc["modulus"] == 5
        assert doc["signs"][1] == "vanishing"
        assert doc["levels"][0]["members"] == [[0, 1, 1], [0, 5, 5],
                                               [2, 5, 5], [3, 5, 5]]
        assert doc["inconclusive"] is False

    @pytest.mark.parametrize("spec,expected", [
        (("5:1:-1",),
         '{"amplitudes":["0.85065080835204"],"inconclusive":false,'
         '"level_index":0,"levels":[{"members":[[0,1,1],[0,5,5]],'
         '"value":"0.632455532033676"},{"members":[[0,2,2],[0,5,10],[1,2,2]],'
         '"value":"0.316227766016838"},{"members":[[0,3,3],[0,5,15],[1,3,3],'
         '[2,3,3]],"value":"0.210818510677892"}],"modulus":1,'
         '"signs":["positive"]}'),
        (("5:1:1", "5:2:-1"),
         '{"amplitudes":["1.8595529717765","-1.93716632225726",'
         '"1.27484797949738","-0.125581039058627","-1.07165358995799"],'
         '"inconclusive":false,"level_index":0,"levels":[{"members":'
         '[[2,5,5],[3,5,5]],"value":"0.438178046004133"},{"members":'
         '[[2,5,10],[3,5,10]],"value":"0.219089023002066"},{"members":'
         '[[2,5,15],[3,5,15]],"value":"0.146059348668044"}],"modulus":5,'
         '"signs":["positive","negative","positive","negative","negative"]}'),
        (("5:2:-2", "10:2:1", "10:4:2"),
         '{"amplitudes":["3.07768353717525","-1.11022302462516e-16",'
         '"1.17557050458495","2.35114100916989","-0.726542528005361"],'
         '"inconclusive":false,"level_index":0,"levels":[{"members":'
         '[[0,1,1],[0,5,5],[2,5,5],[3,5,5]],"value":"0.447213595499958"},'
         '{"members":[[1,10,10],[2,10,10],[3,10,10],[4,10,10],[6,10,10],'
         '[7,10,10],[8,10,10],[9,10,10]],"value":"0.282842712474619"},'
         '{"members":[[0,3,3],[0,5,15],[1,3,3],[2,3,3],[2,5,15],[3,5,15]],'
         '"value":"0.149071198499986"}],"modulus":5,'
         '"signs":["positive","vanishing","positive","positive","negative"]}'),
    ])
    def test_golden_stdout(self, capsys, spec, expected):
        # the amplitudes reuse one kernel per member across the P residues
        code, out, _ = run(capsys, "analyze", *spec)
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("argv,prefix", [
        (("840:420:-1",), "7d395b17f5e2a124"),
        (("1009:504:1",), "dfa4d7954a1de869"),
        (("2520:630:-1", "--depth", "1"), "77d96ef1e94a1aa9"),
    ], ids=lambda a: " ".join(a) if isinstance(a, tuple) else a)
    def test_large_L_stdout(self, capsys, argv, prefix):
        # the documents of the per-class level ranking
        code, out, _ = run(capsys, "analyze", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest().startswith(prefix)

    def test_no_major_arcs_exit_code(self, capsys):
        code, _, err = run(capsys, "analyze", "2:1:1", "2:1:-1")
        assert code == 2

    def test_hypothesis_failure_exit_code(self, capsys):
        # the same spec on which asym and compare fail their hypothesis
        code, out, err = run(capsys, "analyze", "3:1:1", "6:3:-2")
        assert code == 2
        assert out == ""
        assert "(2, 6), (4, 6)" in err
        assert run(capsys, "asym", "3:1:1", "6:3:-2", "--n", "100")[0] == 2


class TestLargeInputsAnswerFast:
    """A huge n or L answers within a second: the default k-sum stops at
    its error budget (default K = 25,066,282,746 and 250,662 here), and
    sigma(L) is checked before the divisor cells are built, or a modulus
    above the cell limit before it is factored."""

    @pytest.mark.parametrize("argv, code", [
        (("asym", "5:1:-1", "--n", "100000000000000000000"), 0),
        (("asym", "5:1:-1", "--n", "10000000000"), 0),
        (("asym", "997:1:-1", "991:1:-1", "983:1:-1", "--n", "100000"), 1),
        (("asym", "997:1:-1", "991:1:-1", "--n", "1000"), 1),
        (("compare", "997:1:-1", "991:1:-1", "--n-list", "1000"), 1),
        # a prime modulus above the cell limit is refused before it is factored
        (("arcs", "100000000000031:1:-1"), 1),
    ], ids=lambda a: " ".join(a) if isinstance(a, tuple) else str(a))
    def test_answers_within_a_second(self, capsys, argv, code):
        start = time.perf_counter()
        got, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert got == code
        if code:
            assert out == "" and "divisor cells, more than the limit of" in err
            assert len(err.splitlines()) == 1
        else:
            assert err == "" and '"sign":1' in out


class TestHypothesisFailsFast:
    # L = 924: 66,939 of the 427,350 classes violate the inequality
    SPEC = ("7:1:-1", "11:1:-1", "12:1:-1")
    FIRST = ("[(0, 4), (0, 6), (0, 7), (1, 7), (6, 7), (0, 8), (4, 8), "
             "(0, 11), (1, 11), (2, 11)]")

    @pytest.mark.parametrize("argv", [("asym", "--n", "100"),
                                      ("compare", "--n-list", "100,200"),
                                      ("analyze",)], ids=lambda a: a[0])
    def test_exits_before_classifying(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("ran after a failed hypothesis check")

        monkeypatch.setattr(asymptotics, "classify_arcs", refuse)
        monkeypatch.setattr(asymptotics, "_arc_kernel", refuse)
        monkeypatch.setattr(analysis, "dominant_levels", refuse)
        monkeypatch.setattr(analysis, "expand_spec", refuse)
        code, out, err = run(capsys, argv[0], *self.SPEC, *argv[1:])
        assert code == 2
        assert out == ""
        assert ("fails at 66939 classes, the first 10: " + self.FIRST) in err
        assert len(err) < 300

    def test_large_prime_L_fails_fast(self, capsys):
        # 9973:1:-1 fails only in the cells of D = L: the walk to the first
        # ten violations skips each level below L at one lookup
        start = time.perf_counter()
        code, out, err = run(capsys, "asym", "9973:1:-1", "--n", "1000")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (2, "")
        assert "fails at 1128 classes, the first 10: [(1, 9973), (2, 9973)" in err

    def test_arcs_lists_every_violation(self, capsys):
        spec = ("2:1:-2", "4:1:-1", "8:5:-3")
        code, out, _ = run(capsys, "arcs", *spec, "--format", "json")
        assert code == 0
        assert len(json.loads(out)["violations"]) == 21
        code, _, err = run(capsys, "asym", *spec, "--n", "100")
        assert code == 2
        assert "fails at 21 classes, the first 10: [(0, 1), (0, 2), " in err


class TestSigns:
    def test_scan(self, capsys):
        code, out, _ = run(capsys, "signs", "5:2:-2", "10:2:1", "10:4:2",
                           "--mod", "5", "--range", "50..400")
        assert code == 0
        doc = json.loads(out)
        assert [d["verdict"] for d in doc] == [
            "all-positive", "all-zero", "all-positive",
            "all-positive", "all-negative"]

    def test_bad_range_exit_code(self, capsys):
        code, _, err = run(capsys, "signs", "5:1:-1",
                           "--mod", "5", "--range", "50")
        assert code == 1


class TestTransformTest:
    def test_small_corpus(self, capsys):
        code, out, _ = run(capsys, "transform-test", "5:1:-1",
                           "--samples", "5", "--seed", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 5
        assert float(doc["max_discrepancy"]) < 1e-9

    @pytest.mark.parametrize("argv,expected", [
        (("5:1:-1", "--samples", "25", "--seed", "0"),
         '{"max_discrepancy":"5.94900970129167e-14","samples":25}'),
        (("5:1:1", "5:2:-1", "--samples", "25", "--seed", "0"),
         '{"max_discrepancy":"4.03092531199099e-14","samples":25}'),
        (("5:2:-2", "10:2:1", "10:4:2", "--samples", "25", "--seed", "0"),
         '{"max_discrepancy":"9.90870013846118e-14","samples":25}'),
        (("5:2:-2", "10:2:1", "10:4:2", "--samples", "5", "--seed", "3",
          "--precision", "extended"),
         '{"max_discrepancy":"1.20777325353444e-38","samples":5}'),
    ])
    def test_golden_stdout(self, capsys, argv, expected):
        # pinned to the output of the Fraction transformation data
        code, out, _ = run(capsys, "transform-test", *argv)
        assert code == 0
        assert out == expected + "\n"

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_rejects_empty_run(self, capsys, samples):
        code, out, err = run(capsys, "transform-test", "5:1:-1",
                             "--samples", samples)
        assert code == 1
        assert out == ""
        assert "--samples must be at least 1" in err


    def test_unmet_tail_exits_one(self, capsys):
        # a straightened product has Im(tau) = Re(1/z)/(10000 k) for k
        # prime to 10: its tail needs more factors than the cap, which once
        # truncated it silently and reported a discrepancy of 1.4e-5
        code, out, err = run(capsys, "transform-test", "10000:1:1",
                             "--samples", "3", "--seed", "0")
        assert code == 1
        assert out == ""
        assert "factors" in err and "cap of 200000" in err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("expand", "5:1:-1", "--order", "5"),
        ("arcs", "5:1:-1"),
        ("asym", "5:1:-1", "--n", "100"),
        ("compare", "5:1:-1", "--n-list", "100"),
        ("analyze", "5:1:-1"),
        ("signs", "5:1:-1", "--mod", "5", "--range", "0..20"),
        ("transform-test", "5:1:-1", "--samples", "1"),
    ], ids=lambda a: a[0])
    def test_out_into_missing_directory(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("qprodasym: error: ") and err.count("\n") == 1
        assert str(target) in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("argv", [
        ("asym", "5:1:-1", "--n", BIG),
        ("compare", "5:1:-1", "--n-list", f"10,{BIG}"),
        ("expand", "5:1:-1", "--order", BIG),
        ("signs", "5:1:-1", "--mod", "5", "--range", f"0..{BIG}"),
        # the growth factor, with Omega about 19,988, and a product to the 900th
        ("transform-test", "10000:1:1", "--samples", "25", "--seed", "1"),
        ("transform-test", "3:1:900", "--samples", "3", "--seed", "0"),
        # underflows to 0 ahead of a division: the product to the -900th, and
        # a straightened product of modulus 10,000 to the -1st
        ("transform-test", "3:1:-900", "--samples", "3", "--seed", "0"),
        ("transform-test", "10000:1:-1", "--samples", "2", "--seed", "1"),
    ], ids=lambda a: " ".join(a).replace(BIG, "BIG"))
    def test_overflow_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("qprodasym: error: ") and err.count("\n") == 1
        if argv[0] == "transform-test":
            assert "double range" in err and "'extended'" in err

    def test_parse_error_is_one(self, capsys):
        code, _, err = run(capsys, "expand", "5:9:1", "--order", "5")
        assert code == 1
        assert "r out of range" in err

    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "5:1:-1"])          # missing --order
        assert exc.value.code == 1


class TestOutputPath:
    """`main` opens --out only once the handler has computed, and writes
    there exactly the bytes that stdout gets without it."""

    @pytest.mark.parametrize("argv", [
        ("expand", "5:1:-1", "--order", "30", "--format", "csv"),
        ("expand", "5:1:-1", "--order", "30", "--format", "json"),
        ("arcs", "2:1:-2", "4:1:-1", "8:5:-3", "--format", "text"),
        ("arcs", "2:1:-2", "4:1:-1", "8:5:-3", "--format", "json"),
        ("asym", "5:1:-1", "--n", "100"),
        ("compare", "5:1:1", "5:2:-1", "--n-list", "200,400", "--format", "csv"),
        ("compare", "5:1:1", "5:2:-1", "--n-list", "200,400", "--format", "json"),
        ("analyze", "5:1:1", "5:2:-1"),
        ("signs", "5:1:-1", "--mod", "5", "--range", "0..40"),
        ("transform-test", "5:1:-1", "--samples", "2"),
    ], ids=" ".join)
    def test_file_holds_stdout_bytes(self, capsys, tmp_path, argv):
        code, stdout, err = run(capsys, *argv)
        assert (code, err) == (0, "") and stdout
        target = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == stdout.encode()

    @pytest.mark.parametrize("argv,expected", [
        (("asym", "5:1:-1", "--n", "0"), 2),
        (("compare", "5:1:-1", "--n-list", "100", "--K", "0"), 1),
        (("expand", "5:1:-1", "--order", "-1"), 1),
        (("signs", "5:1:-1", "--mod", "0", "--range", "0..9"), 1),
    ], ids=lambda a: " ".join(a) if isinstance(a, tuple) else str(a))
    def test_failed_query_writes_no_file(self, capsys, tmp_path, argv, expected):
        target = tmp_path / "out"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (expected, "")
        assert err.startswith("qprodasym: ") and err.count("\n") == 1
        assert not target.exists()

    def test_out_of_memory_is_one_line(self, capsys, monkeypatch):
        # a real allocation of that size may succeed under overcommit
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("qprodasym.cli.expand_spec", exhausted)
        assert run(capsys, "expand", "5:1:-1", "--order", "10") == (
            1, "", "qprodasym: error: not enough memory for this query\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt,head", [("csv", b"n,g\n"), ("json", b'{"coefficients":[')],
                             ids=["csv", "json"])
    def test_closed_stdout_exits_one_silently(self, fmt, head, unbuffered):
        # about 1 MB either way, far more than a pipe buffer holds; the JSON
        # document goes out in one write, which a raw unbuffered stdout
        # would cut short without an error
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.abspath(src)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "qprodasym.cli", "expand", "5:1:-1", "--order", "20000",
             "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(20).startswith(head)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv,target", [
        (("expand", "5:1:-1", "--order", "10", "--out", "/dev/full"), "/dev/full"),
        (("asym", "5:1:-1", "--n", "100"), "stdout"),
    ], ids=["--out", "stdout"])
    def test_full_device_is_one_line(self, argv, target):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "qprodasym.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": os.path.abspath(src)})
        assert (proc.returncode, proc.stderr.decode()) == (
            1, f"qprodasym: error: cannot write {target}: No space left on device\n")

    def test_failed_write_is_one_line(self, capsys, monkeypatch, tmp_path):
        # the partial file stays: --out may name a device
        def full(out):
            out.write("partial")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setitem(COMMANDS, "asym", (lambda spec, args: full, *COMMANDS["asym"][1:]))
        target = tmp_path / "out"
        assert run(capsys, "asym", "5:1:-1", "--n", "100", "--out", str(target)) == (
            1, "", f"qprodasym: error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n")
        assert target.read_text() == "partial"


class TestDeterminism:
    def test_identical_output_across_runs(self, capsys):
        args = ("analyze", "5:1:1", "5:2:-1", "--depth", "2")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


with open(os.path.join(os.path.dirname(__file__), "cli_usage.json"),
          encoding="utf-8") as _fh:
    USAGE_CASES = json.load(_fh)


class TestParser:
    """Help, usage and parse errors, captured from the parser that built
    every subcommand for every query, at COLUMNS=80."""

    @pytest.mark.parametrize("case", USAGE_CASES, ids=lambda c: " ".join(c["argv"]))
    def test_usage_output_unchanged(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(list(case["argv"]))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            case["code"], case["stdout"], case["stderr"])

    def test_builds_every_subparser_once_off_the_plain_path(self, capsys, monkeypatch):
        """A plain query builds no parser; any other argv builds every
        subcommand's parser once."""
        calls = []
        real = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return real(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        assert run(capsys, "asym", "5:1:-1", "--n", "100")[0] == 0
        assert calls == []
        with pytest.raises(SystemExit):
            main(["asym", "5:1:-1", "--n", "x"])
        assert calls == [*COMMANDS]
        calls.clear()
        with pytest.raises(SystemExit):
            main(["asym", "5:1:-1", "--n", "100", "--bogus"])
        assert calls == [*COMMANDS]


with open(os.path.join(os.path.dirname(__file__), "cli_outputs.json"),
          encoding="utf-8") as _fh:
    OUTPUT_CASES = json.load(_fh)


class TestOutputs:
    """Exit code, stdout and stderr of a sweep over every subcommand: asym on
    the oneshot benchmark's specs and n pools (default K and K = 1/5/17),
    analyze at depth 1/3/5, compare, arcs, expand at order 300, a sign scan,
    transform-test in double and extended precision and the hypothesis,
    n-range and K errors.  The file holds the outputs of an earlier
    version; a deliberate output change recaptures its entries."""

    @pytest.mark.parametrize("case", OUTPUT_CASES, ids=lambda c: " ".join(c["argv"]))
    def test_output_unchanged(self, capsys, case):
        code = main(list(case["argv"]))
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            case["code"], case["stdout"], case["stderr"])


class TestPlainParser:
    """`_parse_plain` reads plain argv from `COMMANDS` and leaves every other
    form to argparse, which is the reference: whatever it accepts, argparse
    parses to the same namespace with nothing left over."""

    FLAGS = sorted({"--out", *(f for _, _, opts in COMMANDS.values() for f in opts)})
    CHOICES = sorted({c for _, _, opts in COMMANDS.values()
                      for kw in opts.values() for c in kw.get("choices", ())})
    SPECS = ["5:1:-1", "5:2:1", "10:4:2", "", "-5"]
    ODD = ["--n=5", "--ord", "--", "-h", "--bogus"]
    VALUES = ["0", "3", "100", "x", *CHOICES]

    def _corpus(self):
        """The argv of both JSON files, then subcommand x 0-7 tokens drawn
        from one of four groups each, again with the subcommand's required
        flags appended (each with a value), so that those subcommands are
        accepted too."""
        rng = random.Random(17)
        groups = [self.SPECS, self.FLAGS, self.ODD, self.VALUES]
        corpus = [c["argv"] for c in USAGE_CASES + OUTPUT_CASES]
        for _ in range(50000):
            name = rng.choice(list(COMMANDS))
            argv = [name] + [rng.choice(rng.choice(groups))
                             for _ in range(rng.randint(0, 7))]
            required = [tok for flag, kw in COMMANDS[name][2].items()
                        if kw.get("required") for tok in (flag, rng.choice(self.VALUES))]
            corpus += [argv, argv + required] if required else [argv]
        return corpus

    def test_accepts_only_what_argparse_parses_alike(self, capsys):
        parser = build_parser()
        accepted = 0
        for argv in self._corpus():
            plain = _parse_plain(argv)
            if plain is None:
                continue
            accepted += 1
            # a repeated flag goes to argparse even where its last value agrees
            dashed = [tok for tok in argv if tok.startswith("-")]
            assert len(dashed) == len(set(dashed)), argv
            try:
                args, extra = parser.parse_known_args(argv)
            except SystemExit:
                pytest.fail(f"argparse rejects {argv}: {capsys.readouterr().err}")
            assert (vars(plain), extra) == (vars(args), []), argv
        assert accepted >= 3000

    @pytest.mark.parametrize("argv", [
        [], ["asymm", "5:1:-1", "--n", "5"], ["asym", "-h"],
        ["asym", "5:1:-1", "--n", "5", "--help"], ["asym", "5:1:-1", "--n=5"],
        ["expand", "5:1:-1", "--ord", "5"], ["asym", "5:1:-1", "--", "--n", "5"],
        ["asym", "5:1:-1", "--n", "-5"], ["asym", "-5:1:1", "--n", "5"],
        ["asym", "5:1:-1", "--n", "5", "--n", "6"], ["asym", "5:1:-1", "--n", "x"],
        ["asym", "5:1:-1", "--n", ""], ["asym", "5:1:-1", "--n"],
        ["expand", "5:1:-1", "--order", "5", "--format", "xml"],
        ["asym", "5:1:-1"], ["asym", "--n", "5"],
        ["asym", "5:1:-1", "--n", "5", "5:2:1"],
    ], ids=" ".join)
    def test_leaves_other_forms_to_argparse(self, argv):
        assert _parse_plain(argv) is None


class TestReadme:
    """The README's CLI lines and library example run as written."""

    README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

    @staticmethod
    def _block(text, heading, lang):
        body = text.split(heading + "\n", 1)[1]
        return body.split(f"```{lang}\n", 1)[1].split("```", 1)[0]

    def test_examples_run(self, capsys, monkeypatch, tmp_path):
        with open(self.README, encoding="utf-8") as fh:
            text = fh.read()
        lines = [line.split("#", 1)[0].split()
                 for line in self._block(text, "## CLI", "sh").splitlines()
                 if line.startswith("qprodasym ")]
        assert lines
        monkeypatch.chdir(tmp_path)                 # for --out c.json
        for argv in lines:
            assert run(capsys, *argv[1:])[0] == 0, argv
        exec(self._block(text, "## Library example", "python"), {})
        exact, sign, _ = capsys.readouterr().out.split()
        assert int(exact) > 0 and sign == "1"
