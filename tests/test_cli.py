"""Command-line surface: tables, records, verify sweeps, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sgforge as sf
from sgforge import conjectures
from sgforge.cli import main
from test_conjectures import doctor

# verify names that once ran in one process only and rejected --workers;
# TestOnceSequentialSweeps checks that they now take it like every other name.
ONCE_SEQUENTIAL_SWEEPS = ("zhai-lemma", "kunz-oracle", "recurrence")

# Every verify name with a bound that runs fast.
VERIFY_BOUNDS = [
    ("wilf", "12"),
    ("ye", "10"),
    ("bras-amoros", "12"),
    ("ordinarization", "10"),
    ("pflueger", "10"),
    ("zhai-lemma", "10"),
    ("kunz-oracle", "8"),
    ("recurrence", "10"),
    ("buchweitz", "10"),
]

# The exact stderr line of each verify name at -1 and at one below its least
# bound.  wilf, bras-amoros and ordinarization walk before they check their
# bound, so at -1 the walk's own check answers first.
_NEGATIVE = "error: g_max must be nonnegative\n"
_GENUS_1 = "error: g_max must be >= 1; smaller bounds leave no genus to check\n"
_GENUS_2 = "error: g_max must be >= 2; smaller bounds leave no genus to check\n"
_MG_CELL = ("error: g_max must be >= 1; smaller bounds leave no (m, g) cell "
            "to check\n")
_CLASS = ("error: f_max must be >= 3; smaller bounds leave no (m, F) class "
          "to check\n")
_CRITERION = "error: g_max must be >= 2; the criterion needs genus >= 2\n"
VACUOUS_BOUND_ERRORS = {
    ("bras-amoros", "-1"): _NEGATIVE,
    ("bras-amoros", "0"): _GENUS_2,
    ("bras-amoros", "1"): _GENUS_2,
    ("pflueger", "-1"): _GENUS_1,
    ("pflueger", "0"): _GENUS_1,
    ("buchweitz", "-1"): _CRITERION,
    ("buchweitz", "0"): _CRITERION,
    ("buchweitz", "1"): _CRITERION,
    ("ye", "-1"): "error: g_max must be >= 0; smaller bounds leave no genus "
                  "to check\n",
    ("wilf", "-1"): _NEGATIVE,
    ("wilf", "0"): _GENUS_1,
    ("ordinarization", "-1"): _NEGATIVE,
    ("ordinarization", "0"): "error: g_max must be >= 1; smaller bounds leave "
                             "no cell to check\n",
    ("zhai-lemma", "-1"): _CLASS,
    ("zhai-lemma", "0"): _CLASS,
    ("zhai-lemma", "2"): _CLASS,
    ("kunz-oracle", "-1"): _MG_CELL,
    ("kunz-oracle", "0"): _MG_CELL,
    ("recurrence", "-1"): _MG_CELL,
    ("recurrence", "0"): _MG_CELL,
}

# The CSV header line of each verify name; None where it prints no table.
CSV_HEADERS = {
    "wilf": "g,violations",
    "ye": None,
    "bras-amoros": "g,fib_ratio,phi_ratio",
    "ordinarization": "g,r,count",
    "pflueger": "g,max_ewt,bound",
    "zhai-lemma": None,
    "kunz-oracle": "m,g,count_polytope,count_tree,match",
    "recurrence": None,
    "buchweitz": "g,failures,total",
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_line_error(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


class TestCount:
    def test_by_genus_reference(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--max-genus", "15",
                               "--workers", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "genus,count"
        assert len(lines) == 17
        assert lines[-1] == "15,2857"
        assert lines[1] == "0,1"

    def test_zero_genus(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--max-genus", "0",
                               "--workers", "1")
        assert code == 0
        assert out == "genus,count\n0,1\n"

    def test_by_multiplicity_contains_reference_cell(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--max-genus", "10",
                               "--by", "multiplicity", "--workers", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,g,count"
        assert "7,10,44" in lines
        keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
        assert keys == sorted(keys)

    def test_by_efficacy(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--max-genus", "4",
                               "--by", "efficacy", "--workers", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "g,h,count"
        assert "0,1,1" in lines             # the root has one child
        assert "3,0,1" in lines             # <3,4> is childless

    def test_by_frobenius(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--max-genus", "6",
                               "--by", "frobenius", "--workers", "1")
        assert code == 0
        assert out == "F,count\n1,1\n2,1\n3,2\n4,2\n5,5\n6,4\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--max-genus", "3",
                               "--format", "json", "--workers", "1")
        assert code == 0
        rows = json.loads(out)
        assert rows == [{"genus": 0, "count": 1}, {"genus": 1, "count": 1},
                        {"genus": 2, "count": 2}, {"genus": 3, "count": 4}]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "count", "--max-genus", "2",
                               "--workers", "1", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "genus,count\n0,1\n1,1\n2,2\n"

    def test_output_file_is_replaced(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        target.write_bytes(b"old\nbytes" * 9)
        code, _, _ = run_cli(capsys, "count", "--max-genus", "2",
                             "--output", str(target))
        assert code == 0
        assert target.read_text() == "genus,count\n0,1\n1,1\n2,2\n"

    def test_output_to_devnull(self, capsys):
        # A device cannot be truncated, so only a regular file is.
        code, out, err = run_cli(capsys, "count", "--max-genus", "3",
                                 "--output", os.devnull)
        assert (code, out, err) == (0, "", "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_failed_write_is_one_line_error(self, capsys):
        err = one_line_error(capsys, "count", "--max-genus", "3",
                             "--output", "/dev/full")
        assert "Traceback" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"),
                        reason="needs /dev/stdout")
    def test_output_to_stdout_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sgforge.cli", "count", "--max-genus", "2",
             "--output", "/dev/stdout"], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, "genus,count\n0,1\n1,1\n2,2\n", "")

    def test_deterministic_across_configs(self, capsys):
        outputs = set()
        for workers in (1, 2, 3):
            _, out, _ = run_cli(capsys, "count", "--max-genus", "12",
                                "--workers", str(workers))
            outputs.add(out)
        assert len(outputs) == 1

    def test_negative_genus_rejected(self, capsys):
        code, _, err = run_cli(capsys, "count", "--max-genus", "-3",
                               "--workers", "1")
        assert code == 1
        assert "nonnegative" in err


class TestInspect:
    def test_record_fields_in_order(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "2", "5")
        assert code == 0
        record = json.loads(out)
        assert list(record) == ["generators", "multiplicity", "frobenius",
                                "genus", "gaps", "efficacy", "weight", "ewt",
                                "kunz", "partition", "wilf"]
        assert record["genus"] == 2
        assert record["frobenius"] == 3
        assert record["kunz"] == [2]

    def test_childless_example(self, capsys):
        code, out, _ = run_cli(capsys, "inspect", "3", "4")
        record = json.loads(out)
        assert code == 0
        assert record["efficacy"] == 0
        assert record["gaps"] == [1, 2, 5]
        assert record["partition"] == [3, 1, 1]
        assert record["weight"] + record["genus"] == sum(record["partition"])

    def test_gcd_error_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "inspect", "2", "4")
        assert code == 1
        assert "gcd" in err


class TestVerify:
    @pytest.mark.parametrize("name,bound", VERIFY_BOUNDS)
    def test_all_names_exit_zero(self, capsys, name, bound):
        code, _out, err = run_cli(capsys, "verify", name, "--max-genus", bound,
                                  "--workers", "1")
        assert code == 0
        assert "ok" in err

    def test_bras_amoros_tiny_bound(self, capsys):
        # m_max = 9 exceeds every stored multiplicity at g_max = 3.
        code, out, _ = run_cli(capsys, "verify", "bras-amoros", "--max-genus",
                               "3", "--format", "json", "--workers", "1")
        assert code == 0
        assert json.loads(out) == {
            "name": "bras-amoros", "params": {"g_max": 3, "m_max": 9},
            "ok": True, "violations": [],
            "stats": {"rows": [[2, 1.0, 2.0], [3, 0.75, 2.0]]},
        }

    @pytest.mark.parametrize("name,bound", list(VACUOUS_BOUND_ERRORS))
    def test_vacuous_bound_is_one_line_error(self, capsys, name, bound):
        err = one_line_error(capsys, "verify", name, "--max-genus", bound)
        assert err == VACUOUS_BOUND_ERRORS[name, bound]

    def test_violation_exits_two_with_witness_lines(self, capsys,
                                                   monkeypatch):
        # A doctored class (2, 3) of sixteen nodes with h = g breaks the
        # lemma's bound 15; its witness is the one stdout line.
        def edit(found):
            found["strong"].classes[2, 3] = [(1, 1)] * 16
        doctor(monkeypatch, conjectures, "collect", edit)
        code, out, err = run_cli(capsys, "verify", "zhai-lemma",
                                 "--max-genus", "3")
        assert code == 2
        assert out == '{"m": 2, "F": 3, "lhs": 16.0, "rhs": 15.0}\n'
        assert err == 'verify zhai-lemma: VIOLATIONS ({"f_max": 3})\n'

    @pytest.mark.parametrize("name", conjectures.SWEEPS)
    def test_vacuous_bound_cases_end_below_the_least_bound(self, capsys,
                                                           name):
        # The cases above take each name at -1 and at one below its least
        # bound: one more than the largest of them runs.
        bounds = [int(b) for n, b in VACUOUS_BOUND_ERRORS if n == name]
        assert -1 in bounds
        code, _, err = run_cli(capsys, "verify", name, "--max-genus",
                               str(max(bounds) + 1))
        assert code == 0 and "ok" in err

    def test_sweep_table_matches_cli(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        usage = capsys.readouterr().out
        choices = {c for c in re.findall(r"\{([\w,-]+)\}", usage)
                   if "wilf" in c}
        assert len(choices) == 1
        names = choices.pop().split(",")
        assert names == list(conjectures.SWEEPS)
        assert names == [name for name, _ in VERIFY_BOUNDS]
        assert names == list(CSV_HEADERS)

    def test_readme_table_matches_sweeps(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([\w-]+)` \| (\d+) \| [\w ]+ \|",
                          readme, re.MULTILINE)
        assert rows == [(name, str(sweep.default_bound))
                        for name, sweep in conjectures.SWEEPS.items()]

    @pytest.mark.parametrize("name", CSV_HEADERS)
    def test_csv_header_and_json_name(self, capsys, name):
        code, out, _ = run_cli(capsys, "verify", name, "--max-genus", "4")
        assert code == 0
        if CSV_HEADERS[name] is None:
            assert out == ""
        else:
            assert out.splitlines()[0] == CSV_HEADERS[name]
        code, out, _ = run_cli(capsys, "verify", name, "--max-genus", "4",
                               "--format", "json")
        assert code == 0
        assert json.loads(out)["name"] == name

    def test_unknown_name_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "fermat"])
        assert exc.value.code == 1

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ye", "--max-genus", "8",
                               "--format", "json", "--workers", "1")
        assert code == 0
        report = json.loads(out)
        assert report["name"] == "ye" and report["ok"] is True

    def test_pflueger_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "pflueger", "--max-genus",
                               "6", "--workers", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "g,max_ewt,bound"
        assert len(lines) == 7

    def test_ordinarization_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "ordinarization",
                               "--max-genus", "4", "--workers", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "g,r,count"
        assert "2,1,1" in lines

    def test_violations_exit_two_with_witness_lines(self, capsys, monkeypatch):
        from sgforge.conjectures import VerificationReport

        def fake_run(bound, workers):
            return VerificationReport("wilf", {"g_max": bound},
                                      [{"gaps": [1, 2, 5]}], {})

        monkeypatch.setitem(conjectures.SWEEPS, "wilf",
                            conjectures.SWEEPS["wilf"]._replace(run=fake_run))
        code, out, err = run_cli(capsys, "verify", "wilf", "--max-genus", "5",
                                 "--workers", "1")
        assert code == 2
        assert "VIOLATIONS" in err
        assert json.loads(out.splitlines()[-1]) == {"gaps": [1, 2, 5]}


class TestParallelKnobs:
    @pytest.mark.parametrize("command", [["count"], ["verify", "wilf"]],
                             ids=["count", "verify"])
    def test_split_depth_flag_is_gone(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--max-genus", "5", "--split-depth", "3"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--split-depth" in captured.err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_is_one_line_error(self, capsys, workers):
        err = one_line_error(capsys, "count", "--max-genus", "5",
                             "--workers", workers)
        assert "workers" in err

    def test_workers_alone_runs_the_pool(self, capsys, monkeypatch):
        # No split depth: workers > 1 alone runs the spine's jobs on a
        # pool, workers = 1 runs them in this process, and the outputs
        # are the same.  Two CPUs are reported whatever the host has, as
        # one CPU starts no pool.
        import multiprocessing
        import os

        pools = []
        real = multiprocessing.get_context

        def spy(*args):
            pools.append(args)
            return real(*args)

        monkeypatch.setattr(multiprocessing, "get_context", spy)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        seq = sf.enumerate_tree(12)
        assert pools == []
        assert sf.enumerate_tree(12, workers=2).counts_equal(seq)
        assert len(pools) == 1
        _, seq_out, _ = run_cli(capsys, "count", "--max-genus", "12",
                                "--by", "efficacy", "--workers", "1")
        assert len(pools) == 1
        code, par_out, _ = run_cli(capsys, "count", "--max-genus", "12",
                                   "--by", "efficacy", "--workers", "2")
        assert code == 0
        assert par_out == seq_out
        assert len(pools) == 2

    def test_buchweitz_passes_parallel_knobs(self, capsys, monkeypatch):
        seen = {}
        real = conjectures.buchweitz_sweep

        def spy(bound, **kwargs):
            seen.update(kwargs)
            return real(bound, **kwargs)

        monkeypatch.setattr(conjectures, "buchweitz_sweep", spy)
        code, _, _ = run_cli(capsys, "verify", "buchweitz", "--max-genus", "6",
                             "--workers", "2")
        assert code == 0
        assert seen == {"workers": 2}


class TestOnceSequentialSweeps:
    @pytest.mark.parametrize("name", ONCE_SEQUENTIAL_SWEEPS)
    @pytest.mark.parametrize("knob", [["--workers", "2"], ["--workers", "1"]],
                             ids=["workers", "explicit-one"])
    def test_workers_change_nothing(self, capsys, name, knob):
        # --workers 1 and 2 print the same bytes, and exit the same way, as
        # no --workers at all.
        plain = run_cli(capsys, "verify", name, "--max-genus", "9")
        assert plain[0] == 0
        assert run_cli(capsys, "verify", name, "--max-genus", "9",
                       *knob) == plain

    @pytest.mark.parametrize("name", ONCE_SEQUENTIAL_SWEEPS)
    def test_thread_variable_alone_is_fine(self, capsys, monkeypatch, name):
        # SGFORGE_THREADS is no longer read, so not even a bad value matters.
        monkeypatch.setenv("SGFORGE_THREADS", "abc")
        code, _out, err = run_cli(capsys, "verify", name, "--max-genus", "6")
        assert code == 0
        assert "ok" in err

    @pytest.mark.parametrize("name,bound", [
        ("zhai-lemma", "0"),
        ("zhai-lemma", "2"),
        ("kunz-oracle", "0"),
        ("recurrence", "0"),
    ])
    def test_vacuous_bound_is_one_line_error(self, capsys, name, bound):
        err = one_line_error(capsys, "verify", name, "--max-genus", bound)
        assert err == VACUOUS_BOUND_ERRORS[name, bound]


class TestWorkerResolution:
    # --workers is passed through as given, and defaults to 1.
    @staticmethod
    def _workers_seen(capsys, monkeypatch, *knob):
        from sgforge import cli

        seen = []

        def spy(real):
            def call(g_max, **kwargs):
                seen.append(kwargs["workers"])
                return real(g_max, **kwargs)
            return call

        # count --by genus runs the count-only walk through cli, verify
        # bras-amoros the census walk through conjectures.
        monkeypatch.setattr(cli, "_counts", spy(cli._counts))
        monkeypatch.setattr(conjectures, "enumerate_tree",
                            spy(sf.enumerate_tree))
        for command in (["count"], ["verify", "bras-amoros"]):
            code, _, _ = run_cli(capsys, *command, "--max-genus", "6", *knob)
            assert code == 0
        return seen

    def test_explicit_request(self, capsys, monkeypatch):
        assert self._workers_seen(capsys, monkeypatch, "--workers", "2") \
            == [2, 2]

    def test_default_positive(self, capsys, monkeypatch):
        assert self._workers_seen(capsys, monkeypatch) == [1, 1]


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sgforge.cli", "count", "--max-genus", "5",
             "--workers", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.endswith("5,12\n")

    def test_start_up_imports_no_dataclasses(self):
        # dataclasses would pull inspect, ast, dis and tokenize into every
        # start; the records are named tuples and CensusTable a plain class.
        code = ("import sys, sgforge, sgforge.cli\n"
                "sgforge.cli.main(['count', '--max-genus', '3'])\n"
                "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.endswith("3,4\n[]\n")

    def test_missing_subcommand_exits_one(self):
        proc = subprocess.run([sys.executable, "-m", "sgforge.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 1


# Inputs each command rejects with exit 1, after --output is opened.
REJECTED_COMMANDS = [
    ["count", "--max-genus", "-1"],
    ["count", "--max-genus", "0", "--by", "frobenius"],
    ["count", "--max-genus", "3", "--workers", "0"],
    ["verify", "wilf", "--max-genus", "0"],
    ["verify", "zhai-lemma", "--workers", "0"],
    ["inspect", "4", "6"],
    ["inspect", "0", "3"],
    ["verify", "ordinarization", "--max-genus", "0"],
]


class TestUsageErrors:
    # argparse's own errors follow the same contract as every other bad
    # input: exit 1, nothing on stdout, one "error:" line on stderr.
    @pytest.mark.parametrize("argv", [
        ["count", "--max-genus", "5", "--bogus"],
        ["count", "--max-genus", "5", "--by", "colour"],
        ["count", "--max-genus", "five"],
        [],
    ], ids=["unknown-flag", "bad-choice", "non-integer", "no-subcommand"])
    def test_one_line_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("command", [["count"], ["verify", "pflueger"]],
                             ids=["count", "verify"])
    def test_huge_genus_is_one_line_error(self, capsys, command):
        # Too large for a list length, so the first counter table fails
        # with OverflowError before anything is allocated.
        err = one_line_error(capsys, *command, "--max-genus", "9" * 20)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["count", "--max-genus", "100000000000"],
        ["inspect", "1000000000000", "1000000000001"],
    ], ids=["count", "inspect"])
    def test_out_of_memory_is_one_line_error(self, capsys, monkeypatch,
                                             tmp_path, command):
        # Such inputs exhaust memory in the walk or in the constructor;
        # faked here, so nothing large is allocated.
        from sgforge import cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "_counts", exhausted)
        monkeypatch.setattr(cli, "from_generators", exhausted)
        target = tmp_path / "new.csv"
        err = one_line_error(capsys, *command, "--output", str(target))
        assert err == "error: out of memory\n"
        assert not target.exists()

    @pytest.mark.parametrize("command", REJECTED_COMMANDS)
    def test_rejected_input_leaves_output_file(self, capsys, tmp_path,
                                               command):
        target = tmp_path / "kept.csv"
        target.write_bytes(b"9 bytes\r\n")
        one_line_error(capsys, *command, "--output", str(target))
        assert target.read_bytes() == b"9 bytes\r\n"

    @pytest.mark.parametrize("command", REJECTED_COMMANDS)
    def test_rejected_input_creates_no_output_file(self, capsys, tmp_path,
                                                   command):
        target = tmp_path / "new.csv"
        one_line_error(capsys, *command, "--output", str(target))
        assert not target.exists()

    def test_os_error_of_the_command_removes_its_file(self, capsys,
                                                      monkeypatch, tmp_path):
        from sgforge import cli

        def failing_walk(*args, **kwargs):
            raise OSError("walk failed")

        monkeypatch.setattr(cli, "_counts", failing_walk)
        target = tmp_path / "new.csv"
        err = one_line_error(capsys, "count", "--max-genus", "3",
                             "--output", str(target))
        assert err == "error: walk failed\n"
        assert not target.exists()

    @pytest.mark.parametrize("command", [
        ["count", "--max-genus", "3"],
        ["verify", "pflueger", "--max-genus", "3"],
    ], ids=["count", "verify"])
    def test_unopenable_directory_fails_before_the_walk(
            self, capsys, monkeypatch, tmp_path, command):
        from sgforge import cli

        def no_walk(*args, **kwargs):
            raise AssertionError("the walk ran before --output was opened")

        monkeypatch.setattr(cli, "_counts", no_walk)
        monkeypatch.setitem(conjectures.SWEEPS, "pflueger",
                            conjectures.SWEEPS["pflueger"]._replace(run=no_walk))
        err = one_line_error(capsys, *command, "--output", str(tmp_path))
        assert str(tmp_path) in err
        assert tmp_path.is_dir()

    @pytest.mark.parametrize("command", [
        ["count", "--max-genus", "3"],
        ["verify", "pflueger", "--max-genus", "3"],
    ], ids=["count", "verify"])
    def test_unopenable_output_is_one_line_error(self, capsys, monkeypatch,
                                                 tmp_path, command):
        from sgforge import cli

        def no_walk(*args, **kwargs):
            raise AssertionError("the walk ran before --output was opened")

        # The path is tried before the walk, so a bad one costs no sweep.
        monkeypatch.setattr(cli, "_counts", no_walk)
        monkeypatch.setitem(conjectures.SWEEPS, "pflueger",
                            conjectures.SWEEPS["pflueger"]._replace(run=no_walk))
        path = tmp_path / "missing" / "x.csv"
        err = one_line_error(capsys, *command, "--output", str(path))
        assert str(path) in err
        assert not path.exists()
