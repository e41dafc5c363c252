"""Command-line interface: exit codes, JSON output, determinism."""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
import sympy
from test_finfield import oracle_primes

from abelcentral import cli, finfield

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_ffrak_ok(self, capsys):
        code, out, _ = run(["ffrak", "--p", "7", "--n", "3"], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["invariant_factors"] == [3]

    def test_ffrak_f191_report_pinned(self, capsys):
        # sha256 of the report of the route over all n power tables.
        code, out, _ = run(["ffrak", "--p", "191", "--n", "190"], capsys)
        assert code == cli.EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "ab29f8031661e79f266ad6de0c11a2bfa35ad8bcc439f674115e9054ec0eabc1"

    def test_machinery_reports_pinned(self, capsys, tmp_path):
        # One sha256 over the report texts of groupcoh on the exported
        # Heisenberg groups, the machinery suite on the cyclic and elementary
        # groups of the group_machinery benchmark, and propA1 at rank 2.
        argvs = []
        for n in range(2, 6):
            table = str(tmp_path / f"heis{n}.json")
            assert cli.main(["heisenberg", "--n", str(n), "--output", table]) == cli.EXIT_OK
            argvs += [["groupcoh", "--input", table, "--n", str(n), "--seed", s] for s in ("0", "7")]
        for n, m in [(2, 4), (3, 9)]:
            table = tmp_path / f"cyclic{m}.json"
            table.write_text(json.dumps({"table": [[(i + j) % m for j in range(m)] for i in range(m)]}))
            argvs += [["verify", "--suite", "machinery", "--input", str(table), "--n", str(n), "--seed", s] for s in ("0", "7")]
        for n, rank in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]:
            argvs += [["verify", "--suite", "machinery", "--n", str(n), "--rank", str(rank), "--seed", s] for s in ("0", "7")]
        argvs += [["verify", "--suite", "propA1", "--n", str(n), "--rank", "2"] for n in range(2, 6)]
        capsys.readouterr()
        digest = hashlib.sha256()
        for argv in argvs:
            code, out, err = run(argv, capsys)
            assert (code, err) == (cli.EXIT_OK, ""), argv
            digest.update(out.encode())
        assert digest.hexdigest() == "ce6136a36d7298e2ccdeb0f75787abfafdc9d58e47fb7fa1d3a7a6f8bf712522"

    def test_verify_ffrak_f65537_full_order(self, capsys):
        # The route over all n power tables needed a 64 GiB array here.
        code, out, err = run(["verify", "--suite", "ffrak", "--p", "65537", "--n", "65536"], capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out)["invariant_factors"] == [65536]

    def test_ffrak_generator_list_above_the_bound(self, capsys):
        code, out, err = run(["ffrak", "--p", "65537", "--n", "65536"], capsys)
        assert code == cli.EXIT_USAGE
        assert not out and err.startswith("error: ")
        assert "cells of the 65535 generator tables: 8589672450 exceeds" in err

    def test_failed_table_check_is_a_counterexample(self, capsys, monkeypatch):
        # 4 = 2^2 is a square in F_13, so it cannot generate F_13^x.
        monkeypatch.setattr(finfield, "_generator", lambda p, k, poly: 4)
        code, out, err = run(["field", "--p", "13", "--n", "3"], capsys)
        assert (code, out) == (cli.EXIT_COUNTEREXAMPLE, "")
        assert err == "counterexample: generator order verification failed\n"

    def test_field_missing_roots_of_unity(self, capsys):
        # mu_4 is not contained in F_7.
        code, _, err = run(["field", "--p", "7", "--n", "4"], capsys)
        assert code == cli.EXIT_USAGE
        assert err

    def test_field_polynomial_of_the_wrong_degree(self, capsys):
        # With k = 1 the polynomial was ignored: exit 0 and "poly": [12, 1].
        code, out, err = run(["field", "--p", "13", "--poly", "1,0,1", "--n", "3"], capsys)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "error: defining polynomial must be monic of degree k\n"

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_verify_propA1(self, capsys):
        code, out, _ = run(["verify", "--suite", "propA1", "--n", "3", "--rank", "2"], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["violations"] == 0

    def test_verify_heisenberg(self, capsys):
        code, out, _ = run(["verify", "--suite", "heisenberg", "--n", "2"], capsys)
        assert code == cli.EXIT_OK
        assert json.loads(out)["ok"]

    @pytest.mark.parametrize("n,pairs", [(2, 64), (3, 729), (4, 4096), (5, 15625), (6, 46656)])
    def test_verify_heisenberg_report_pinned(self, capsys, n, pairs):
        code, out, err = run(["verify", "--suite", "heisenberg", "--n", str(n)], capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        assert out == (
            "{\n"
            '  "extension_cocycle_ok": true,\n'
            f'  "n": {n},\n'
            '  "ok": true,\n'
            f'  "pairs_checked": {pairs},\n'
            '  "series_sizes_ok": true,\n'
            '  "suite": "heisenberg"\n'
            "}\n"
        )

    @pytest.mark.parametrize(
        "n,message",
        [
            ("1", "modulus must be >= 2"),
            ("-2", "modulus must be >= 2"),
            ("2147483648", "modulus must be >= 2 and <= 2^31-1, got 2147483648"),
            pytest.param("22", "group order: 10648 exceeds the supported bound 10000", id="22-exceeds the bound"),
        ],
    )
    def test_verify_heisenberg_out_of_range(self, capsys, n, message):
        # 22^3 exceeds the table bound: refused before any pair is checked.
        code, out, err = run(["verify", "--suite", "heisenberg", "--n", n], capsys)
        assert code == cli.EXIT_USAGE
        assert not out and message in err

    def test_verify_machinery_rank_zero(self, capsys):
        code, out, _ = run(["verify", "--suite", "machinery", "--n", "2", "--rank", "0"], capsys)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert (doc["rank"], doc["kernel_size"], doc["ok"]) == (0, 0, True)

    def test_verify_machinery_negative_rank(self, capsys):
        code, _, err = run(["verify", "--suite", "machinery", "--n", "2", "--rank", "-1"], capsys)
        assert code == cli.EXIT_USAGE
        assert err

    @pytest.mark.parametrize("n", ["1", "0", "-2"])
    def test_heisenberg_modulus_below_two(self, capsys, n):
        # n = -2 used to print numpy's "negative dimensions are not allowed".
        code, out, err = run(["heisenberg", "--n", n], capsys)
        assert code == cli.EXIT_USAGE
        assert not out and "modulus must be >= 2" in err

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(
            ["relations", "--p", "13", "--n", "3", "--input", str(tmp_path / "nope.json")],
            capsys,
        )
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("value", [1.5, None, "1", [1]])
    def test_relations_character_value_not_an_integer(self, capsys, tmp_path, value):
        # 1.5 used to run as 1 and exit 0; null ended in a TypeError
        # traceback with exit 1, the counterexample status.
        inp = tmp_path / "fam.json"
        inp.write_text(json.dumps({"pairs": [{"sigma": 1, "tau": 2}, {"sigma": 2, "tau": value}]}))
        code, out, err = run(["relations", "--p", "13", "--n", "3", "--input", str(inp)], capsys)
        assert code == cli.EXIT_USAGE
        assert not out and f"character value must be an integer, got {value!r}" in err

    @pytest.mark.parametrize("doc", [{"pairs": [[1, 2]]}, [1], {"pairs": 3}, {"pairs": [{"sigma": True, "tau": 1}]}])
    def test_relations_input_of_the_wrong_shape(self, capsys, tmp_path, doc):
        # The first three ended in a TypeError traceback with exit 1, the
        # counterexample status; "sigma": true ran as 1 and exited 0.
        inp = tmp_path / "fam.json"
        inp.write_text(json.dumps(doc))
        code, out, err = run(["relations", "--p", "13", "--n", "3", "--input", str(inp)], capsys)
        assert code == cli.EXIT_USAGE
        assert not out and err.startswith("error: ")

    @pytest.mark.parametrize("n,rank,message", [
        ("3", "100000000", "group order: 3^100000000 exceeds the supported bound 10000"),
        pytest.param("1", "40", "modulus must be >= 2 and <= 2^31-1, got 1", id="1-40-modulus"),
    ])
    def test_verify_machinery_group_out_of_range(self, capsys, n, rank, message):
        # (Z/3)^(10^8) hung on forming 3^(10^8); (Z/1)^40 died in numpy's
        # bare ValueError on its 80-axis grid.
        start = time.perf_counter()
        code, out, err = run(["verify", "--suite", "machinery", "--n", n, "--rank", rank], capsys)
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_USAGE
        assert not out and err.startswith("error: ") and message in err

    def test_field_above_the_bound(self, capsys):
        # 1048583 is the least prime above FIELD_MAX = 2^20.
        code, out, err = run(["field", "--p", "1048583", "--n", "2"], capsys)
        assert code == cli.EXIT_USAGE
        assert not out and "exceeds the supported bound" in err

    def test_field_degree_above_the_bound(self, capsys):
        # Refused before 2**(10**8) is formed, so no message formats it.
        code, out, err = run(["field", "--p", "2", "--k", "100000000", "--n", "3"], capsys)
        assert code == cli.EXIT_USAGE
        assert not out and "exceeds the supported bound" in err


def readme_cli_lines():
    """The lines of the fenced ``sh`` block under ``## CLI`` in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip() and not line.startswith("#")]


class TestReadmeExamples:
    def test_every_example_exits_zero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        ran = 0
        for line in readme_cli_lines():
            words = shlex.split(line)
            if words[0] == "echo":
                assert words[2] == ">", line
                Path(words[3]).write_text(words[1] + "\n")
                continue
            assert words[0] == "abelcentral", line
            code, _, err = run(words[1:], capsys)
            assert code == cli.EXIT_OK, (line, err)
            ran += 1
        assert ran == 9


class TestReports:
    def test_empty_report_shape(self, capsys):
        cli.emit_report({}, None)
        assert capsys.readouterr().out.strip() == "{}"

    def test_deterministic_output(self, capsys):
        a = run(["ffrak", "--p", "13", "--n", "4"], capsys)
        b = run(["ffrak", "--p", "13", "--n", "4"], capsys)
        assert a == b

    def test_relations_roundtrip(self, capsys, tmp_path):
        inp = tmp_path / "fam.json"
        inp.write_text(json.dumps({"pairs": [{"sigma": 1, "tau": 1}, {"sigma": 2, "tau": 2}]}))
        out = tmp_path / "rep.json"
        code = cli.main(["relations", "--p", "13", "--n", "3", "--input", str(inp), "--output", str(out)])
        assert code == cli.EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["1"] is True and doc["5"] is True and doc["7"] is True

    def test_groupcoh_on_exported_heisenberg(self, capsys, tmp_path):
        table = tmp_path / "heis2.json"
        code = cli.main(["heisenberg", "--n", "2", "--output", str(table)])
        assert code == cli.EXIT_OK
        code = cli.main(["groupcoh", "--input", str(table), "--n", "2", "--output", str(tmp_path / "rep.json")])
        assert code == cli.EXIT_OK
        doc = json.loads((tmp_path / "rep.json").read_text())
        assert doc["ok"] is True

    def test_groupcoh_and_machinery_suite_agree(self, capsys, tmp_path):
        table = tmp_path / "heis3.json"
        assert cli.main(["heisenberg", "--n", "3", "--output", str(table)]) == cli.EXIT_OK
        coh = run(["groupcoh", "--input", str(table), "--n", "3", "--seed", "5"], capsys)
        suite = run(["verify", "--suite", "machinery", "--input", str(table), "--n", "3", "--seed", "5"], capsys)
        assert coh[0] == cli.EXIT_OK
        assert coh == suite

    def test_negative_seed(self, capsys, tmp_path):
        # A negative seed draws the random lifts as its absolute value does;
        # the report echoes the seed as given.
        table = tmp_path / "heis3.json"
        assert cli.main(["heisenberg", "--n", "3", "--output", str(table)]) == cli.EXIT_OK
        capsys.readouterr()
        code, out, err = run(["groupcoh", "--input", str(table), "--n", "3", "--seed", "-3"], capsys)
        assert (code, err) == (cli.EXIT_OK, "")
        assert json.loads(out) == {
            "alternative_decomposition_violations": 0,
            "group_order": 27,
            "identity_violations": 0,
            "kernel_size": 1,
            "n": 3,
            "ok": True,
            "omega_image_matches": True,
            "omega_injective": True,
            "omega_total": True,
            "omega_well_defined": True,
            "rank": 2,
            "seed": -3,
        }

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_groupcoh_modulus_below_two(self, capsys, tmp_path, n):
        # Both used to report "first layer is not elementary of exponent n".
        table = tmp_path / "heis3.json"
        assert cli.main(["heisenberg", "--n", "3", "--output", str(table)]) == cli.EXIT_OK
        capsys.readouterr()
        code, out, err = run(["groupcoh", "--input", str(table), "--n", n], capsys)
        assert code == cli.EXIT_USAGE
        assert not out and "modulus must be >= 2" in err

    @pytest.mark.parametrize("command", [["groupcoh"], ["verify", "--suite", "machinery"]])
    def test_wrong_label_count_rejected(self, capsys, tmp_path, command):
        doc = {"table": [[(i + j) % 4 for j in range(4)] for i in range(4)], "labels": ["0", "1", "2"]}
        table = tmp_path / "c4.json"
        table.write_text(json.dumps(doc))
        code, out, err = run(command + ["--input", str(table), "--n", "2"], capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and "label count" in err

    @pytest.mark.parametrize("command", [["groupcoh"], ["verify", "--suite", "machinery"]])
    @pytest.mark.parametrize("labels", [5, "ab", None, ["0", 1], [["0"], ["1"]], {"0": "a"}])
    def test_labels_not_a_list_of_strings(self, capsys, tmp_path, command, labels):
        # 5 and null ended in a TypeError traceback with exit 1, the
        # counterexample status; "ab" was split into the labels "a", "b"
        # and a C2 report printed with exit 0.
        table = tmp_path / "c2.json"
        table.write_text(json.dumps({"table": [[0, 1], [1, 0]], "labels": labels}))
        code, out, err = run(command + ["--input", str(table), "--n", "2"], capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and '"labels" must be a list of strings' in err

    def test_labels_list_of_strings_pass(self, capsys, tmp_path):
        table = tmp_path / "c2.json"
        table.write_text(json.dumps({"table": [[0, 1], [1, 0]], "labels": ["e", "a"]}))
        code, out, _ = run(["groupcoh", "--input", str(table), "--n", "2"], capsys)
        assert code == cli.EXIT_OK and json.loads(out)

    @pytest.mark.parametrize("command", [["groupcoh"], ["verify", "--suite", "machinery"]])
    @pytest.mark.parametrize("doc,message", [
        ({"table": [[0, 1.7], [1.2, 0]]}, "table entries must be integers of at most 64 bits, got dtype float64"),
        ({"table": [[10**30]]}, "table entries must be integers of at most 64 bits, got dtype object"),
        ({"table": [[False, True], [True, False]]}, "got dtype bool"),
        ([[0, 1], [1, 0]], "input must be a JSON object"),
        ({"table": [[0, True], [True, 0]]}, "table entries must be integers of at most 64 bits, got a bool entry"),
    ])
    def test_table_input_not_of_integers(self, capsys, tmp_path, command, doc, message):
        # The float table used to run as [[0, 1], [1, 0]] and print a C2
        # report with exit 0, the bools too; 10**30 and a bare table ended in
        # a traceback with exit 1, the counterexample status.
        table = tmp_path / "bad.json"
        table.write_text(json.dumps(doc))
        code, out, err = run(command + ["--input", str(table), "--n", "2"], capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("error: ") and message in err


class TestParserCache:
    ARGVS = [
        ["ffrak", "--p", "13", "--n", "4"],
        ["field", "--p", "13", "--n", "3"],
        ["verify", "--suite", "propA1", "--n", "3", "--rank", "2"],
        ["heisenberg", "--n", "2"],
        ["verify", "--suite", "ffrak", "--p", "7", "--n", "3"],
        ["ffrak", "--p", "7", "--k", "2", "--n", "3", "--omega-index", "2"],
        ["field", "--p", "7", "--n", "4"],
    ]

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_back_to_back_commands_match_a_fresh_parser(self, capsys):
        # Run every command on the shared parser first, then each again on a
        # parser built for it alone; namespaces and outputs must agree.
        shared = [run(argv, capsys) for argv in self.ARGVS]
        for argv, got in zip(self.ARGVS, shared):
            fresh = cli.build_parser.__wrapped__()
            assert vars(cli.build_parser().parse_args(argv)) == vars(fresh.parse_args(argv))
            cli.build_parser.cache_clear()
            assert run(argv, capsys) == got


def fresh_interpreter(args, cwd):
    """Run ``python *args`` in a new process on the package in ``src/``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


class TestStartup:
    def test_no_command_loads_sympy(self, tmp_path):
        # Every command and every verify suite, prime and extension fields,
        # in one fresh process: the library computes without sympy.
        script = textwrap.dedent(
            """
            import sys

            from abelcentral import cli

            with open("fam.json", "w") as fh:
                fh.write('{"pairs": [{"sigma": 1, "tau": 2}]}')
            for argv in [
                ["heisenberg", "--n", "2", "--output", "heis2.json"],
                ["groupcoh", "--input", "heis2.json", "--n", "2"],
                ["verify", "--suite", "heisenberg", "--n", "3"],
                ["verify", "--suite", "propA1", "--n", "4", "--rank", "2"],
                ["verify", "--suite", "machinery", "--n", "2", "--rank", "2"],
                ["verify", "--suite", "ffrak", "--p", "13", "--n", "4"],
                ["verify", "--suite", "ffrak", "--p", "3", "--k", "2", "--n", "4"],
                ["field", "--p", "13", "--n", "3"],
                ["field", "--p", "5", "--k", "2", "--n", "3"],
                ["ffrak", "--p", "7", "--n", "3"],
                ["ffrak", "--p", "2", "--k", "4", "--n", "3"],
                ["relations", "--p", "13", "--n", "3", "--input", "fam.json"],
                ["relations", "--p", "3", "--k", "2", "--n", "4", "--input", "fam.json"],
            ]:
                assert cli.main(argv) == 0, argv
            print(sorted(name for name in sys.modules if name.split(".")[0] == "sympy"), file=sys.stderr)
            """
        )
        result = fresh_interpreter(["-c", script], tmp_path)
        assert result.returncode == 0, result.stderr
        assert result.stderr == "[]\n"

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["verify", "--suite", "ffrak", "--p", "13", "--n", "4"],
                {"invariant_factors": [4], "n": 4, "ok": True, "p": 13, "suite": "ffrak"},
            ),
            (["field", "--p", "5", "--k", "2", "--n", "3"], {"generator": 6, "k": 2, "n": 3, "p": 5, "poly": [2, 0, 1]}),
        ],
    )
    def test_reports_under_python_m(self, tmp_path, argv, expected):
        result = fresh_interpreter(["-m", "abelcentral", *argv], tmp_path)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_prime_field_reports(self, capsys):
        # The descriptor with sympy's primitive_root as the generator: every
        # odd prime below 5000, with n the least prime factor of p - 1, and
        # every 30th prime of the sample up to 2^20.
        primes = oracle_primes()
        small = [p for p in primes if p < 5000]
        for p in small[1:] + primes[len(small) :: 30]:
            n = min(sympy.primefactors(p - 1))
            code, out, err = run(["field", "--p", str(p), "--n", str(n)], capsys)
            doc = {"generator": sympy.primitive_root(p), "k": 1, "n": n, "p": p, "poly": [p - 1, 1]}
            assert (code, err) == (cli.EXIT_OK, "")
            assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n", p
