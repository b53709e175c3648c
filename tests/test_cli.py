"""Command-line surface: tables, records, verify sweeps, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from sgforge.cli import main, _resolve_workers

# verify names without a parallel path.
SEQUENTIAL_SWEEPS = ("zhai-lemma", "kunz-oracle", "recurrence")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_deterministic_across_configs(self, capsys):
        outputs = set()
        for split, workers in [(0, 1), (3, 1), (3, 2), (5, 2)]:
            _, out, _ = run_cli(capsys, "count", "--max-genus", "12",
                                "--split-depth", str(split),
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
    @pytest.mark.parametrize("name,bound", [
        ("wilf", "12"),
        ("ye", "10"),
        ("bras-amoros", "12"),
        ("ordinarization", "10"),
        ("pflueger", "10"),
        ("zhai-lemma", "10"),
        ("kunz-oracle", "8"),
        ("recurrence", "10"),
        ("buchweitz", "10"),
    ])
    def test_all_names_exit_zero(self, capsys, name, bound):
        # The sequential sweeps take no --workers; see TestSequentialSweeps.
        knobs = [] if name in SEQUENTIAL_SWEEPS else ["--workers", "1"]
        code, _out, err = run_cli(capsys, "verify", name, "--max-genus", bound,
                                  *knobs)
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
        from sgforge import cli
        from sgforge.conjectures import VerificationReport

        def fake_run(name, bound, split_depth, workers):
            return VerificationReport(name, {"g_max": bound},
                                      [{"gaps": [1, 2, 5]}], {})

        monkeypatch.setattr(cli, "_run_verify", fake_run)
        code, out, err = run_cli(capsys, "verify", "wilf", "--max-genus", "5",
                                 "--workers", "1")
        assert code == 2
        assert "VIOLATIONS" in err
        assert json.loads(out.splitlines()[-1]) == {"gaps": [1, 2, 5]}


class TestParallelKnobs:
    @staticmethod
    def _run(argv, env=None):
        return subprocess.run([sys.executable, "-m", "sgforge.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, **(env or {})})

    def test_split_depth_beyond_genus_is_one_line_error(self):
        proc = self._run(["count", "--max-genus", "5", "--split-depth", "9"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "split_depth" in proc.stderr

    def test_non_integer_threads_is_one_line_error(self):
        proc = self._run(["count", "--max-genus", "5"],
                         env={"SGFORGE_THREADS": "abc"})
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert "SGFORGE_THREADS" in proc.stderr

    def test_buchweitz_passes_parallel_knobs(self, capsys, monkeypatch):
        from sgforge import conjectures

        seen = {}
        real = conjectures.buchweitz_sweep

        def spy(bound, **kwargs):
            seen.update(kwargs)
            return real(bound, **kwargs)

        monkeypatch.delenv("SGFORGE_THREADS", raising=False)
        monkeypatch.setattr(conjectures, "buchweitz_sweep", spy)
        code, _, _ = run_cli(capsys, "verify", "buchweitz", "--max-genus", "6",
                             "--split-depth", "2", "--workers", "2")
        assert code == 0
        assert seen == {"split_depth": 2, "workers": 2}


class TestSequentialSweeps:
    @staticmethod
    def _one_line_error(capsys, *argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return err

    @pytest.mark.parametrize("name", SEQUENTIAL_SWEEPS)
    @pytest.mark.parametrize("knob", [["--workers", "2"],
                                      ["--split-depth", "3"],
                                      ["--workers", "1", "--split-depth", "0"]],
                             ids=["workers", "split-depth", "both"])
    def test_parallel_knobs_rejected(self, capsys, name, knob):
        err = self._one_line_error(capsys, name, "--max-genus", "6", *knob)
        assert name in err

    @pytest.mark.parametrize("name", SEQUENTIAL_SWEEPS)
    def test_thread_variable_alone_is_fine(self, capsys, monkeypatch, name):
        monkeypatch.setenv("SGFORGE_THREADS", "2")
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
        self._one_line_error(capsys, name, "--max-genus", bound)


class TestWorkerResolution:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SGFORGE_THREADS", "3")
        assert _resolve_workers(8) == 3

    def test_explicit_request(self, monkeypatch):
        monkeypatch.delenv("SGFORGE_THREADS", raising=False)
        assert _resolve_workers(2) == 2

    def test_default_positive(self, monkeypatch):
        monkeypatch.delenv("SGFORGE_THREADS", raising=False)
        assert _resolve_workers(None) >= 1


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sgforge.cli", "count", "--max-genus", "5",
             "--workers", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.endswith("5,12\n")

    def test_missing_subcommand_exits_one(self):
        proc = subprocess.run([sys.executable, "-m", "sgforge.cli"],
                              capture_output=True, text=True)
        assert proc.returncode == 1
