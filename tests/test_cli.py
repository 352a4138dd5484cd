"""Tests for the command-line interface."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(*argv: str) -> tuple:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestParser:
    def test_requires_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_all_commands_registered(self) -> None:
        parser = build_parser()
        for command in ("info", "fig4a", "fig4b", "fig4c", "cost", "hops", "search", "net", "check"):
            required = {"search": ["terms"]}
            args = parser.parse_args([command, *required.get(command, [])])
            assert callable(args.handler)

    def test_network_flags_parse(self) -> None:
        args = build_parser().parse_args(
            ["info", "--transport", "lossy", "--drop", "0.1",
             "--latency-model", "lognormal", "--latency", "80",
             "--timeout", "250", "--retries", "2", "--net-seed", "5"]
        )
        assert args.transport == "lossy"
        assert args.drop == 0.1
        assert args.latency_model == "lognormal"

    def test_bad_transport_rejected_by_parser(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "--transport", "telepathy"])

    def test_the_retired_perf_command_is_a_usage_error(self, capsys) -> None:
        """The route sweep is a paper bench now
        (``benchmarks/test_bench_route.py``), not a subcommand."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli("perf", "--small")
        assert exit_info.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    def test_out_of_range_drop_is_clean_error(self) -> None:
        code, output = run_cli("info", "--drop", "1.5")
        assert code == 2
        assert output.startswith("error:")
        assert "drop_probability" in output


class TestInfo:
    def test_shows_paper_defaults(self) -> None:
        code, output = run_cli("info")
        assert code == 0
        assert "initial_terms = 5" in output
        assert "queries_per_original = 9" in output
        assert "overlap_ratio = 0.7" in output

    def test_one_section_per_config_and_none_for_the_baseline(self) -> None:
        """eSearch is ``SpriteConfig.static_baseline()``: it has no
        options of its own to print."""
        __, output = run_cli("info")
        sections = [line.strip() for line in output.splitlines() if line.startswith("  [")]
        assert sections == [
            "[corpus]", "[querygen]", "[sprite]", "[chord]", "[workload]", "[network]",
        ]

    def test_small_flag_changes_scale(self) -> None:
        __, big = run_cli("info")
        __, small = run_cli("info", "--small")
        assert "num_documents = 2500" in big
        assert "num_documents = 220" in small

    def test_network_section_shown(self) -> None:
        __, output = run_cli("info")
        assert "[network]" in output
        assert "transport = perfect" in output

    def test_network_flags_override_config(self) -> None:
        __, output = run_cli("info", "--transport", "lossy", "--drop", "0.25")
        assert "transport = lossy" in output
        assert "drop_probability = 0.25" in output


class TestNet:
    def test_sweep_table_and_monotone_retries(self) -> None:
        code, output = run_cli(
            "net", "--small", "--sweep", "0.0,0.2", "--lookups", "120",
            "--net-seed", "11",
        )
        assert code == 0
        lines = [l for l in output.splitlines() if l.strip()]
        # lines[0] is the run preamble; the table follows.
        assert lines[1].split() == [
            "drop", "ok", "failed", "retries", "hops_mean", "hops_p99",
            "lkp_msgs", "p50_ms", "p99_ms", "p99.9_ms", "by", "category",
        ]
        rows = [l.split() for l in lines[2:]]
        assert [r[0] for r in rows] == ["0.00", "0.20"]
        retries = [int(r[3]) for r in rows]
        assert retries[0] == 0  # no loss, no retries
        assert retries[1] > retries[0]
        # Hop columns are live: lookups route, so messages and means > 0.
        assert all(float(r[4]) > 0 for r in rows)
        assert all(int(r[6]) > 0 for r in rows)

    def test_hop_columns_come_from_the_rings_one_histogram(self) -> None:
        """Mean / p99 hops are read from ``ring.stats``, the one place a
        completed lookup's hops are counted; the table is byte for byte
        the one printed before, from a second hop counter on the trace log."""
        code, output = run_cli("net", "--small", "--seed", "7", "--sweep", "0,0.1,0.3")
        assert code == 0
        assert output == (
            '32 peers [chord ring], 500 lookups per rate, latency=constant, timeout=400ms, retries=3\n'
            'drop        ok    failed    retries  hops_mean  hops_p99  lkp_msgs    p50_ms    p99_ms  p99.9_ms    by category\n'
            '0.00       500         0          0       3.17         6      1587      60.0      60.0      60.0    routing=1587\n'
            '0.10       500         0        156       3.17         6      1587      60.0     579.4    1194.2    routing=1587\n'
            '0.30       490        10        645       3.16         6      1578      60.0    1991.7    2009.4    routing=1578\n'
        )

    def test_sweep_rows_carry_category_breakdown(self) -> None:
        code, output = run_cli(
            "net", "--small", "--sweep", "0.0", "--lookups", "40",
            "--net-seed", "3",
        )
        assert code == 0
        row = [l for l in output.splitlines() if l.startswith("0.00")][0]
        # Lookup-only traffic: the rollup shows a single routing bucket.
        assert "routing=" in row
        assert "write=" not in row

    def test_net_seed_reproducible(self) -> None:
        argv = ("net", "--small", "--sweep", "0.1", "--lookups", "80",
                "--net-seed", "4")
        assert run_cli(*argv) == run_cli(*argv)

    def test_every_rate_is_validated_before_the_table_starts(self) -> None:
        code, output = run_cli("net", "--small", "--sweep", "0.1,1.5", "--lookups", "5")
        assert code == 2
        assert output == "error: drop_probability must be in [0, 1]\n"

    @pytest.mark.parametrize("lookups", ["0", "-5"])
    def test_lookups_below_one_is_rejected_before_the_header(self, lookups) -> None:
        code, output = run_cli("net", "--small", "--lookups", lookups)
        assert code == 2
        assert output == "error: --lookups must be >= 1\n"


class TestHops:
    def test_hops_table(self) -> None:
        code, output = run_cli("hops", "--seed", "3")
        assert code == 0
        lines = [l for l in output.splitlines() if l.strip()]
        assert lines[0].split() == ["N", "mean", "hops", "log2(N)"]
        assert len(lines) == 6  # header + 5 ring sizes


class TestSearch:
    def test_search_known_corpus_term(self) -> None:
        """Search for a term we know exists: take it from the corpus
        vocabulary hint produced by a miss first."""
        code, output = run_cli("search", "--small", "definitely-not-a-term")
        assert code == 0
        assert "hint:" in output
        hint_terms = output.split("hint: the synthetic corpus vocabulary starts:")[1]
        term = hint_terms.strip().split(",")[0].strip()
        code, output = run_cli("search", "--small", term)
        assert code == 0
        assert "results for" in output or "no results" in output

    def test_empty_after_analysis_errors(self) -> None:
        code, output = run_cli("search", "--small", "the", "and")
        assert code == 2
        assert "empty" in output

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_is_rejected_before_training(self, top: str) -> None:
        # --top -1 used to train for a minute and then report "no
        # results" for a term three documents are indexed under.
        code, output = run_cli("search", "--small", "--top", top, "bagok")
        assert code == 2
        assert output == "error: --top must be >= 1\n"


class TestRingFlags:
    def test_net_ring_flags_select_record_ring(self) -> None:
        code, output = run_cli(
            "net", "--small", "--sweep", "0.0", "--lookups", "40",
            "--ring-arity", "8",
        )
        assert code == 0
        assert "[record:8 ring]" in output

    def test_check_record_ring_runs_clean(self) -> None:
        code, output = run_cli(
            "check", "--random", "--seed", "0", "--events", "12",
            "--peers", "12",
            "--ring-arity", "4",
        )
        assert code == 0
        assert "all invariants held" in output

    def test_check_and_net_share_ring_validation(self) -> None:
        """Every value below 2 — 0 included, which a truthiness test
        once read as "flag absent" — is refused before any output."""
        for command in (("net", "--small"), ("check", "--random")):
            for arity in ("0", "1", "-8"):
                code, output = run_cli(*command, "--ring-arity", arity)
                assert code == 2
                assert output == "error: --ring-arity must be >= 2\n"

    def test_catalogue_rejects_ring_flags(self) -> None:
        code, output = run_cli(
            "check", "--catalogue", "flash_crowd", "--ring-arity", "8"
        )
        assert code == 2
        assert "drop --ring-arity" in output

    def test_catalogue_rejects_every_network_flag(self) -> None:
        """A catalogue entry brings its own transport: a network flag is
        refused before any output, not silently ignored."""
        for flag, value in (
            ("--transport", "lossy"), ("--drop", "0.9"), ("--latency-model", "lognormal"),
            ("--latency", "5"), ("--timeout", "250"), ("--retries", "2"), ("--net-seed", "5"),
        ):
            code, output = run_cli(
                "check", "--catalogue", "flash_crowd", "--seed", "0", flag, value
            )
            assert code == 2, flag
            assert output == (
                "error: --catalogue scenarios define their own engine "
                f"configuration; drop {flag}\n"
            )
        code, output = run_cli(
            "check", "--catalogue", "flash_crowd", "--transport", "lossy", "--drop", "0.9"
        )
        assert code == 2
        assert output.endswith("drop --transport --drop\n")


class TestReport:
    def test_report_from_results_dir(self, tmp_path) -> None:
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig4a.txt").write_text("K SPRITE\n5 0.92\n")
        (results / "churn.txt").write_text("failed avail\n10% 0.95\n")
        code, output = run_cli("report", "--results", str(results))
        assert code == 0
        assert "## fig4a" in output and "## churn" in output
        assert "0.92" in output

    def test_report_to_file(self, tmp_path) -> None:
        results = tmp_path / "results"
        results.mkdir()
        (results / "cost.txt").write_text("strategy msgs\n")
        target = tmp_path / "report.md"
        code, output = run_cli(
            "report", "--results", str(results), "--output", str(target)
        )
        assert code == 0
        assert target.exists()
        assert "## cost" in target.read_text()

    def test_missing_results_dir(self, tmp_path) -> None:
        code, output = run_cli("report", "--results", str(tmp_path / "nope"))
        assert code == 2
        assert "pytest benchmarks/" in output

    def test_empty_results_dir(self, tmp_path) -> None:
        empty = tmp_path / "results"
        empty.mkdir()
        code, __ = run_cli("report", "--results", str(empty))
        assert code == 2

    def test_committed_results_md_is_the_report(self) -> None:
        """``benchmarks/RESULTS.md`` is this command's output over the
        committed tables, byte for byte.  Regenerate it after a table
        changes: ``python -m repro report --results benchmarks/results
        --output benchmarks/RESULTS.md``."""
        benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
        code, output = run_cli("report", "--results", str(benchmarks / "results"))
        assert code == 0
        assert output == (benchmarks / "RESULTS.md").read_text(encoding="utf-8")


class TestFigures:
    def test_fig4a_small(self) -> None:
        code, output = run_cli("fig4a", "--small")
        assert code == 0
        assert "SPRITE P" in output
        assert "precision ratio vs number of answers" in output

    def test_cost_small(self) -> None:
        code, output = run_cli("cost", "--small")
        assert code == 0
        assert "index-everything" in output


class TestCheck:
    def test_random_scenario_runs_clean(self) -> None:
        code, output = run_cli(
            "check", "--random", "--seed", "0", "--events", "12",
            "--peers", "12",
        )
        assert code == 0
        assert "random scenario: seed=0, 12 events" in output
        assert "all invariants held" in output

    def test_too_few_random_events_is_a_usage_error_not_a_violation(self) -> None:
        """Exit code 1 means "invariant violated"; a schedule too short
        to hold the closing heal sequence is a bad flag value."""
        code, output = run_cli("check", "--random", "--events", "4")
        assert code == 2
        assert output == "error: --events must be >= 5\n"

    def test_random_check_prints_the_schedule_and_its_invariants_only(self) -> None:
        """The differential is the twin table (``tests/twins.py``); a
        check prints its scenario header and the invariant summary."""
        code, output = run_cli(
            "check", "--random", "--seed", "0", "--events", "8", "--peers", "12"
        )
        assert code == 0
        assert output.startswith("random scenario: seed=0, 8 events\n")
        assert "all invariants held" in output
        assert "oracle" not in output

    def test_requires_exactly_one_source(self) -> None:
        code, output = run_cli("check")
        assert code == 2
        assert output == "error: pass exactly one of --random or --catalogue NAME\n"

    def test_lossy_transport_flags_apply(self) -> None:
        code, output = run_cli(
            "check", "--random", "--seed", "1", "--events", "12",
            "--peers", "12",
            "--transport", "lossy", "--drop", "0.02",
        )
        assert code == 0
        assert "all invariants held" in output


class TestCheckCatalogue:
    def test_single_scenario_runs_clean(self) -> None:
        code, output = run_cli(
            "check", "--catalogue", "flash_crowd", "--seed", "0",
            "--peers", "16",
        )
        assert code == 0
        assert "[flash_crowd]" in output
        assert "quality[before]" in output
        assert "quality[during]" in output
        assert "quality[after]" in output
        assert "all invariants held" in output

    def test_unknown_scenario_lists_the_valid_names(self) -> None:
        code, output = run_cli("check", "--catalogue", "nope")
        assert code == 2
        assert output.startswith("error: unknown catalogue scenario 'nope'")
        assert "flash_crowd" in output
        assert "'all'" in output

    def test_catalogue_counts_toward_exactly_one_source(self) -> None:
        code, output = run_cli(
            "check", "--catalogue", "flash_crowd", "--random"
        )
        assert code == 2
        assert "exactly one" in output

    def test_json_record_emitted(self) -> None:
        import json as json_module

        code, output = run_cli(
            "check", "--catalogue", "hot_term_storm", "--seed", "0",
            "--peers", "16", "--json",
        )
        assert code == 0
        payload = output[output.index("{"):]
        records = json_module.loads(payload)
        assert set(records) == {"hot_term_storm"}
        record = records["hot_term_storm"]
        assert record["final_quiescent"] is True
        assert record["violations"] == 0
        assert set(record["quality"]) == {"before", "during", "after"}

    def test_catalogue_rejects_store_backend(self) -> None:
        code, output = run_cli(
            "check", "--catalogue", "flash_crowd",
            "--store-backend", "sqlite",
        )
        assert code == 2
        assert "drop --store-backend" in output


class TestStoreFlagErrors:
    """Malformed durable-store flags are a usage error (exit 2):
    ``check``, the one command that takes them, names the offending
    flag with these exact messages, and any other command refuses them
    in argparse."""

    CASES = [
        (("--store-dir", "x"),
         "error: --store-dir requires --store-backend sqlite\n"),
        (("--snapshot-dir", "x"),
         "error: --snapshot-dir requires --store-backend sqlite\n"),
        (("--snapshot-interval", "3"),
         "error: --snapshot-interval requires --store-backend sqlite\n"),
        (("--store-backend", "sqlite", "--snapshot-interval", "-1"),
         "error: --snapshot-interval must be >= 0\n"),
    ]

    @pytest.mark.parametrize("flags,message", CASES)
    def test_check_names_the_flag_and_net_refuses_it(
        self, flags, message, capsys
    ) -> None:
        check_code, check_output = run_cli("check", "--random", *flags)
        assert check_code == 2
        assert check_output == message
        with pytest.raises(SystemExit) as exit_info:
            run_cli("net", "--small", *flags)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
