"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestTables:
    def test_table1(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        assert "DUP" in out and "USP" in out

    def test_table2_markdown(self, capsys):
        _, out = run_cli(capsys, "table2", "--markdown")
        assert "| ST" in out

    def test_table3(self, capsys):
        _, out = run_cli(capsys, "table3")
        assert "MorphoSys" in out


class TestFigures:
    @pytest.mark.parametrize("number", ["1", "2", "3", "4", "5", "6", "7"])
    def test_every_figure_renders(self, capsys, number):
        code, out = run_cli(capsys, "fig", number)
        assert code == 0
        assert out.strip()

    def test_invalid_figure(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig", "9"])


class TestClassify:
    def test_classify_morphosys_shape(self, capsys):
        _, out = run_cli(
            capsys, "classify",
            "--ips", "1", "--dps", "64",
            "--ip-dp", "1-64", "--ip-im", "1-1",
            "--dp-dm", "64-1", "--dp-dp", "64x64",
        )
        assert "IAP-II" in out
        assert "flexibility 2" in out

    def test_classify_dataflow(self, capsys):
        _, out = run_cli(
            capsys, "classify",
            "--ips", "0", "--dps", "16",
            "--dp-dm", "16x6", "--dp-dp", "16x16",
        )
        assert "DMP-IV" in out


class TestExplain:
    def test_explain_architecture(self, capsys):
        _, out = run_cli(capsys, "explain", "GARP")
        assert "GARP" in out
        assert "IAP-IV" in out
        assert "MIPS" in out  # from the survey description

    def test_explain_unknown_exits_2_with_diagnostic(self, capsys):
        code = main(["explain", "UNOBTAINIUM"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "UNOBTAINIUM" in captured.err
        assert captured.err.count("\n") == 1  # one-line diagnostic


class TestErrorContract:
    """Any ReproError surfaces as exit code 2 + a stderr one-liner."""

    def test_bad_signature_exits_2(self, capsys):
        code = main(
            ["classify", "--ips", "0", "--dps", "4", "--ip-dp", "1-4"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert "IP-DP" in captured.err
        assert captured.out == ""

    def test_untolerated_fault_is_reported_not_raised(self, capsys):
        # fail-fast on a plan with events: the FaultError is caught by
        # main() for the IAP demo loop (reported inline), never escapes.
        code = main(
            ["faults", "--seed", "7", "--rate", "0.3",
             "--policy", "fail-fast", "--out", "-"]
        )
        captured = capsys.readouterr()
        assert code == 0  # the demo reports per-machine faults and continues
        assert "fail-fast abort" in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep-worker", "--listen", "127.0.0.1:0"],
            ["costs", "--workers", "127.0.0.1:7070"],
            ["dse", "--workers=127.0.0.1:7070"],
            ["faults", "--supervise", "2"],
            ["costs", "--max-lease-size", "8"],
            ["dse", "--rejoin-backoff", "0.5"],
            ["serve", "--fabric-workers", "127.0.0.1:7070"],
            ["costs", "--jobs", "2"],
            ["dse", "--jobs=4"],
            ["faults", "--jobs", "0", "--out", "-"],
        ],
        ids=lambda argv: " ".join(token.partition("=")[0] for token in argv[:2]),
    )
    def test_removed_surface_exits_2(self, capsys, argv):
        # One error line naming the removed surface and why it went.
        name = argv[0] if argv[0] == "sweep-worker" else argv[1].partition("=")[0]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        what = "the process pool" if name == "--jobs" else "the distributed sweep fabric"
        assert lines[0].startswith(f"error: {name} was removed with {what}; ")
        if name == "--jobs":
            assert "runs its sweep as one serial loop" in lines[0]
        else:
            assert "own process" in lines[0] and "--jobs" not in lines[0]

    def test_serve_module_rejects_fabric_workers(self, capsys):
        from repro.serve.__main__ import main as serve_main

        assert serve_main(["--fabric-workers=127.0.0.1:7070"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --fabric-workers was removed")
        assert "serve prices /v1/survey?costs=true in its own process" in lines[0]

    def test_serve_workers_is_still_the_thread_count(self):
        from repro.cli import build_parser

        assert build_parser().parse_args(["serve", "--workers", "2"]).workers == 2

    @pytest.mark.parametrize("rates", ["nan", "2", "-0.1", "0.1,x"])
    def test_bad_faults_rates_exit_2_before_any_output(self, capsys, rates):
        code = main(["faults", "--rates", rates, "--out", "-"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestFaultsCommand:
    def test_deterministic_across_runs(self, capsys):
        code = main(["faults", "--seed", "0", "--rate", "0.05", "--out", "-"])
        first = capsys.readouterr().out
        assert code == 0
        main(["faults", "--seed", "0", "--rate", "0.05", "--out", "-"])
        second = capsys.readouterr().out
        assert first == second

    def test_remap_demo_contrasts_direct_and_switched(self, capsys):
        _, out = run_cli(
            capsys, "faults", "--seed", "7", "--rate", "0.3", "--out", "-"
        )
        # The all-direct array cannot remap; the all-switched one can.
        assert "IAP-I    remap(spares=0) FAULT" in out
        assert "IAP-IV   remap(spares=0) cycles=" in out

    def test_sweep_table_and_correlation(self, capsys):
        _, out = run_cli(capsys, "faults", "--out", "-")
        assert "FPGA" in out
        assert "Spearman rank correlation" in out

    def test_csv_written(self, tmp_path, capsys):
        out_path = tmp_path / "resilience.csv"
        code, _ = run_cli(capsys, "faults", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("rank,architecture,class,flexibility")
        assert len(lines) == 26  # header + 25 surveyed architectures

    def test_spares_report_costed_by_eq1(self, capsys):
        _, out = run_cli(
            capsys, "faults", "--spares", "2", "--policy", "remap:2",
            "--out", "-",
        )
        assert "spare PEs" in out
        assert "GE" in out


class TestDse:
    def test_dse_recommendation(self, capsys):
        _, out = run_cli(capsys, "dse", "--min-flexibility", "5")
        assert "recommended:" in out

    def test_dse_objectives(self, capsys):
        for objective in ("config", "area", "flex-per-area"):
            _, out = run_cli(capsys, "dse", "--objective", objective)
            assert "feasible classes" in out


class TestErrata:
    def test_errata_lists_pact_xpp(self, capsys):
        _, out = run_cli(capsys, "errata")
        assert "PACT XPP" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestAuditCommand:
    def test_audit_passes_and_exits_zero(self, capsys):
        code, out = run_cli(capsys, "audit")
        assert code == 0
        assert "all checks passed" in out

    def test_baselines_report(self, capsys):
        _, out = run_cli(capsys, "baselines")
        assert "19 are new versus Skillicorn" in out
        assert "MIMD" in out
