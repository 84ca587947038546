"""Tests for the repro command-line interface."""

import json

import pytest

from repro.cli import main

ROBOTS = (
    "User-agent: GPTBot\n"
    "User-agent: CCBot\n"
    "Disallow: /\n"
    "\n"
    "User-agent: *\n"
    "Disallow: /private/\n"
)


@pytest.fixture()
def robots_file(tmp_path):
    path = tmp_path / "robots.txt"
    path.write_text(ROBOTS)
    return str(path)


class TestCheck:
    def test_disallowed_exit_code_and_output(self, robots_file, capsys):
        code = main(["check", robots_file, "GPTBot", "/art"])
        out = capsys.readouterr().out
        assert code == 1
        assert "DISALLOWED" in out
        assert "line 3" in out

    def test_allowed(self, robots_file, capsys):
        code = main(["check", robots_file, "Googlebot", "/art"])
        assert code == 0
        assert "ALLOWED" in capsys.readouterr().out


class TestClassify:
    def test_default_agent_set(self, robots_file, capsys):
        assert main(["classify", robots_file]) == 0
        out = capsys.readouterr().out
        assert "GPTBot" in out and "FULL" in out
        assert "Bytespider" in out

    def test_explicit_agents(self, robots_file, capsys):
        main(["classify", robots_file, "CCBot"])
        out = capsys.readouterr().out
        assert "CCBot" in out and "GPTBot" not in out

    def test_wildcard_ablation_flag(self, robots_file, capsys):
        main(["classify", robots_file, "Bytespider", "--include-wildcard"])
        out = capsys.readouterr().out
        assert "PARTIAL" in out  # /private/ via the wildcard group


class TestLint:
    def test_clean_file(self, robots_file, capsys):
        assert main(["lint", robots_file]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_mistake_flagged_with_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("User-agent: *\nDisallow: secret/\n")
        assert main(["lint", str(path)]) == 1
        assert "path-missing-slash" in capsys.readouterr().out


class TestCompare:
    def test_disagreement_reported(self, tmp_path, capsys):
        path = tmp_path / "grouped.txt"
        path.write_text("User-agent: GPTBot\nUser-agent: CCBot\nDisallow: /\n")
        main(["compare", str(path), "--agents", "GPTBot", "--paths", "/x"])
        out = capsys.readouterr().out
        assert "differs" in out


class TestAitxt:
    def test_permission_check(self, tmp_path, capsys):
        path = tmp_path / "ai.txt"
        path.write_text("User-Agent: *\nDisallow: /\nAllow: *.jpg\n")
        assert main(["aitxt", str(path), "/a.jpg"]) == 0
        assert main(["aitxt", str(path), "/a.txt"]) == 1
        assert "NOT permitted" in capsys.readouterr().out


class TestAgents:
    def test_registry_printed(self, capsys):
        assert main(["agents"]) == 0
        out = capsys.readouterr().out
        assert "GPTBot" in out and "ByteDance" in out
        assert out.count("\n") >= 25


class TestExperiment:
    def test_fast_survey_experiment(self, capsys):
        assert main(["experiment", "survey"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out and "metrics:" in out

    def test_fast_sec81(self, capsys):
        assert main(["experiment", "sec81", "--fast"]) == 0
        assert "mistakes" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])


class TestServe:
    def test_from_directory_and_serve(self, tmp_path, capsys):
        (tmp_path / "index.html").write_text("<h1>site root</h1>")
        (tmp_path / "robots.txt").write_text("User-agent: *\nDisallow: /tmp/\n")
        sub = tmp_path / "blog"
        sub.mkdir()
        (sub / "post.html").write_text("<p>a post</p>")

        import threading

        from repro.net.realserver import fetch_real
        from repro.net.server import Website

        site = Website.from_directory(tmp_path)
        assert "/index.html" in site.pages
        assert "/" in site.pages
        assert "/blog/post.html" in site.pages
        assert "Disallow: /tmp/" in site.robots_txt

        # Drive the serve command with a request budget so it exits.
        from repro.net.realserver import RealHttpServer

        with RealHttpServer(site) as server:
            response = fetch_real(f"http://{server.address}/blog/post.html")
            assert response.ok and "a post" in response.text
            robots = fetch_real(f"http://{server.address}/robots.txt")
            assert "Disallow" in robots.text

    def test_serve_announces_its_url_to_a_pipe(self, tmp_path):
        import os
        import re
        import subprocess
        import sys
        import threading
        import urllib.request
        from pathlib import Path

        (tmp_path / "index.html").write_text("<h1>site root</h1>")
        # A plain pipe: stdout is block-buffered unless the line flushes.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(tmp_path),
             "--requests", "1"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # readline blocks until the line is flushed (or the process
            # exits); the timer kills the server if it never announces.
            timer = threading.Timer(30, proc.kill)
            timer.start()
            try:
                line = proc.stdout.readline()
            finally:
                timer.cancel()
            match = re.search(r"(http://127\.0\.0\.1:\d+)/", line)
            assert match, f"no URL announced: {line!r}"
            body = urllib.request.urlopen(match.group(1) + "/", timeout=10).read()
            assert b"site root" in body
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 0
        assert "served 1 request(s)" in out


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        import subprocess
        import sys

        robots = tmp_path / "robots.txt"
        robots.write_text("User-agent: GPTBot\nDisallow: /\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", str(robots), "GPTBot", "/x"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1  # disallowed
        assert "DISALLOWED" in proc.stdout


class TestStats:
    """The telemetry analysis command: tables, analyses, and the CI gate."""

    @pytest.fixture()
    def telemetry_dir(self, tmp_path):
        from tests.obs.test_analyze import write_telemetry

        return write_telemetry(tmp_path / "base")

    def test_metrics_tables_from_directory(self, telemetry_dir, capsys):
        assert main(["stats", str(telemetry_dir)]) == 0
        out = capsys.readouterr().out
        assert "counters" in out and "crawl.fetches{agent=GPTBot}" in out

    def test_missing_metrics_is_one_line_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "missing telemetry artifact" in err
        assert "Traceback" not in err
        assert err.count("\n") == 1

    def test_corrupt_metrics_is_one_line_error(self, tmp_path, capsys):
        (tmp_path / "METRICS.json").write_text("{broken")
        assert main(["stats", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "corrupt METRICS.json" in err and "Traceback" not in err

    def test_missing_trace_is_one_line_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path), "--critical-path"]) == 2
        err = capsys.readouterr().err
        assert "missing telemetry artifact" in err and "TRACE" in err

    def test_corrupt_trace_is_one_line_error(self, telemetry_dir, capsys):
        (telemetry_dir / "TRACE.jsonl").write_text("garbage\n")
        assert main(["stats", str(telemetry_dir), "--critical-path"]) == 2
        assert "corrupt TRACE.jsonl" in capsys.readouterr().err

    def test_missing_series_fails_diff(self, telemetry_dir, tmp_path, capsys):
        from tests.obs.test_analyze import write_telemetry

        other = write_telemetry(tmp_path / "other")
        (other / "SERIES.json").unlink()
        assert main(["stats", "--diff", str(telemetry_dir), str(other)]) == 2
        assert "missing telemetry artifact" in capsys.readouterr().err

    def test_corrupt_series_fails_dashboard(self, telemetry_dir, capsys):
        (telemetry_dir / "SERIES.json").write_text("[1, 2")
        assert main(["dashboard", str(telemetry_dir)]) == 2
        err = capsys.readouterr().err
        assert "corrupt SERIES.json" in err and "Traceback" not in err

    def test_critical_path_names_slowest_chain(self, telemetry_dir, capsys):
        assert main(["stats", str(telemetry_dir), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert "experiment:figure2" in out
        assert "classify_sweep" in out
        assert "experiment:sec62" not in out  # the faster sibling

    def test_folded_stacks_written(self, telemetry_dir, tmp_path, capsys):
        folded = tmp_path / "stacks.folded"
        assert main(["stats", str(telemetry_dir), "--folded", str(folded)]) == 0
        lines = folded.read_text().splitlines()
        assert "run_all;experiment:figure2;classify_sweep 900000" in lines

    def test_diff_identical_dirs_exits_zero(self, telemetry_dir, capsys):
        code = main(["stats", "--diff", str(telemetry_dir), str(telemetry_dir)])
        assert code == 0
        assert "RESULT: OK" in capsys.readouterr().out

    def test_diff_detects_injected_slowdown(self, telemetry_dir, tmp_path, capsys):
        # The CI-gate scenario: copy a telemetry dir, synthetically slow
        # one experiment span, and demand a non-zero exit.
        import json
        import shutil

        candidate = tmp_path / "candidate"
        shutil.copytree(telemetry_dir, candidate)
        records = [
            json.loads(line)
            for line in (candidate / "TRACE.jsonl").read_text().splitlines()
        ]
        for record in records:
            if record["name"] == "experiment:figure2":
                record["duration_seconds"] *= 3
        (candidate / "TRACE.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        assert main(["stats", "--diff", str(telemetry_dir), str(candidate)]) == 1
        out = capsys.readouterr().out
        assert "experiment:figure2" in out and "REGRESSED" in out

    def test_diff_detects_injected_metric_change(self, telemetry_dir, tmp_path, capsys):
        import json
        import shutil

        candidate = tmp_path / "candidate"
        shutil.copytree(telemetry_dir, candidate)
        payload = json.loads((candidate / "METRICS.json").read_text())
        payload["counters"]["crawl.fetches{agent=GPTBot}"] *= 2
        (candidate / "METRICS.json").write_text(json.dumps(payload))
        assert main(["stats", "--diff", str(telemetry_dir), str(candidate)]) == 1
        assert "metric drift" in capsys.readouterr().out

    def test_diff_threshold_flag(self, telemetry_dir, tmp_path):
        import json
        import shutil

        candidate = tmp_path / "candidate"
        shutil.copytree(telemetry_dir, candidate)
        payload = json.loads((candidate / "METRICS.json").read_text())
        payload["counters"]["crawl.fetches{agent=GPTBot}"] = 110  # +10%
        (candidate / "METRICS.json").write_text(json.dumps(payload))
        args = ["stats", "--diff", str(telemetry_dir), str(candidate)]
        assert main(args) == 0  # default 25% tolerates it
        assert main(args + ["--threshold", "0.05"]) == 1


class TestDashboard:
    def test_agent_month_matrix(self, tmp_path, capsys):
        from tests.obs.test_analyze import write_telemetry

        telemetry = write_telemetry(tmp_path / "t")
        assert main(["dashboard", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "GPTBot" in out and "CCBot" in out
        assert "2022-10" in out  # month 0 rendered on the paper clock
        assert "25/5/0" in out  # GPTBot month 1: 25 requests, 5 blocked

    def test_category_filter(self, tmp_path, capsys):
        from tests.obs.test_analyze import write_telemetry

        telemetry = write_telemetry(tmp_path / "t")
        assert main(["dashboard", str(telemetry), "--category", "blog"]) == 0
        out = capsys.readouterr().out
        assert "CCBot" in out and "GPTBot" not in out

    def test_missing_series_is_one_line_error(self, tmp_path, capsys):
        assert main(["dashboard", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "missing telemetry artifact" in err and "Traceback" not in err


class TestChaos:
    @pytest.fixture(autouse=True)
    def _tiny_world(self, monkeypatch):
        from repro import cli
        from repro.web.population import PopulationConfig

        monkeypatch.setattr(
            cli,
            "_fast_config",
            lambda: PopulationConfig(
                universe_size=300, list_size=200, top5k_cut=30,
                audit_size=60, seed=11,
            ),
        )

    def test_healable_plan_exits_clean(self, capsys):
        assert main(["chaos", "--plan", "flaky-resets", "--seed", "0",
                     "--fast", "--experiments", "sec62"]) == 0
        out = capsys.readouterr().out
        assert "byte-identical" in out
        assert "chaos.faults" in out

    def test_no_retries_drifts(self, capsys):
        assert main(["chaos", "--plan", "flaky-resets", "--fast",
                     "--no-retries", "--experiments", "sec62"]) == 1
        out = capsys.readouterr().out
        assert "DRIFT" in out

    def test_unknown_plan_is_one_line_error(self, capsys):
        assert main(["chaos", "--plan", "nope", "--fast"]) == 2
        err = capsys.readouterr().err
        assert "unknown plan" in err and "flaky-resets" in err

    def test_results_dir_written(self, tmp_path, capsys):
        assert main(["chaos", "--fast", "--experiments", "sec62",
                     "--results-dir", str(tmp_path)]) == 0
        assert (tmp_path / "baseline" / "sec62.txt").exists()
        assert (tmp_path / "chaos" / "sec62.txt").exists()
        assert (
            (tmp_path / "baseline" / "sec62.txt").read_bytes()
            == (tmp_path / "chaos" / "sec62.txt").read_bytes()
        )


class TestStrataCLI:
    """The --strata surface and the shard-balance telemetry sections."""

    def test_strata_refuses_incremental_and_only(self, capsys):
        assert main(["reproduce", "--fast", "--strata", "top-1k",
                     "--incremental"]) == 2
        err = capsys.readouterr().err
        assert "--strata" in err and "cannot combine" in err
        assert main(["reproduce", "--fast", "--strata", "top-1k",
                     "--only", "figure2"]) == 2

    def test_unknown_stratum_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "--fast", "--strata", "top-5k"])

    def test_strata_run_and_shard_balance_report(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry"
        assert main(["reproduce", "--fast", "--strata", "top-1k",
                     "--shards", "2", "--archive-dir", str(tmp_path / "arch"),
                     "--telemetry-dir", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "figure2@top-1k" in out and "mode=strata" in out
        assert sorted((tmp_path / "arch" / "top-1k").glob("shard-*"))

        assert main(["stats", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "shard balance:" in out
        assert "bytes written" in out

    def test_shard_balance_from_synthetic_metrics(self, tmp_path, capsys):
        import json

        payload = {
            "schema_version": 1,
            "counters": {
                "shard.sites{shard=0,stage=collect}": 30,
                "shard.sites{shard=1,stage=collect}": 10,
                "archive.bytes_written": 4096,
            },
            "gauges": {},
            "histograms": {},
        }
        (tmp_path / "METRICS.json").write_text(json.dumps(payload))
        assert main(["stats", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "collect: 40 sites over 2 shard(s), peak 30 (1.50x mean)" in out
        assert "archive: 4096 bytes written" in out


class TestServeMetrics:
    """The Prometheus endpoint: static exports and error contract."""

    def _serve_and_fetch(self, argv, paths):
        """Run ``serve-metrics`` on a thread; fetch *paths*; return bodies."""
        import contextlib
        import io
        import re
        import threading
        import time
        import urllib.request

        buffer = io.StringIO()
        codes = []

        def run():
            with contextlib.redirect_stdout(buffer):
                codes.append(main(argv + ["--requests", str(len(paths))]))

        thread = threading.Thread(target=run)
        thread.start()
        url = None
        for _ in range(200):
            match = re.search(r"(http://127\.0\.0\.1:\d+)/metrics",
                              buffer.getvalue())
            if match:
                url = match.group(1)
                break
            time.sleep(0.02)
        assert url, "serve-metrics never announced its endpoint"
        bodies = [
            urllib.request.urlopen(f"{url}{path}").read().decode()
            for path in paths
        ]
        thread.join(timeout=10)
        assert codes == [0]
        return bodies

    def test_static_export_serves_identical_totals(self, tmp_path):
        from tests.obs.test_analyze import write_telemetry

        telemetry = write_telemetry(tmp_path / "t")
        metrics_text, health_text = self._serve_and_fetch(
            ["serve-metrics", str(telemetry)], ["/metrics", "/healthz"]
        )
        # The rendered counter total is the METRICS.json value exactly.
        assert 'crawl_fetches_total{agent="GPTBot"} 100' in metrics_text
        assert "measure_policy_cache_hit_rate 0.9" in metrics_text
        # Series render on the monthly suffix with the month label.
        assert ('sim_requests_monthly{agent="GPTBot",outcome="served",'
                'site_category="news",month="1"} 20') in metrics_text
        health = json.loads(health_text)
        assert health["mode"] == "static"

    def test_missing_export_is_one_line_error(self, tmp_path, capsys):
        assert main(["serve-metrics", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "missing telemetry artifact" in err
        assert "Traceback" not in err

    def test_directory_defaults_to_results(self, tmp_path, monkeypatch, capsys):
        # Like stats, dashboard and alerts: no argument reads ./results.
        monkeypatch.chdir(tmp_path)
        assert main(["serve-metrics", "--requests", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "missing telemetry artifact: results/METRICS.json" in err
        assert "Traceback" not in err


class TestAlerts:
    """The SLO gate command: exit 1 firing, 0 clean, 2 operator error."""

    @pytest.fixture()
    def telemetry(self, tmp_path):
        from tests.obs.test_analyze import write_telemetry

        return write_telemetry(tmp_path / "t")

    def _rules(self, tmp_path, body):
        path = tmp_path / "rules.toml"
        path.write_text(body)
        return str(path)

    def test_seeded_burn_rate_breach_exits_one(self, telemetry, tmp_path, capsys):
        # Month 1 serves 25 requests of which 5 are blocked -- a 20%
        # burn against a 10% objective.
        rules = self._rules(tmp_path, (
            '[[rule]]\n'
            'name = "blocked-burn"\n'
            'kind = "burn_rate"\n'
            'series = "sim.requests"\n'
            'labels = {outcome = "blocked_403"}\n'
            'total_labels = {}\n'
            'window = 1\n'
            'threshold = 0.1\n'
        ))
        assert main(["alerts", str(telemetry), "--rules", rules]) == 1
        out = capsys.readouterr().out
        assert "blocked-burn" in out and "FIRING" in out

    def test_clean_baseline_exits_zero(self, telemetry, tmp_path, capsys):
        rules = self._rules(tmp_path, (
            '[[rule]]\n'
            'name = "blocked-burn"\n'
            'kind = "burn_rate"\n'
            'series = "sim.requests"\n'
            'labels = {outcome = "blocked_403"}\n'
            'total_labels = {}\n'
            'window = 1\n'
            'threshold = 0.99\n'
        ))
        assert main(["alerts", str(telemetry), "--rules", rules]) == 0
        assert "RESULT: OK" in capsys.readouterr().out

    def test_bad_rules_file_is_one_line_error(self, telemetry, tmp_path, capsys):
        rules = self._rules(tmp_path, '[[rule]]\nname = "x"\nkind = "sorcery"\n')
        assert main(["alerts", str(telemetry), "--rules", rules]) == 2
        err = capsys.readouterr().err
        assert "unknown kind" in err and "Traceback" not in err

    def test_drift_without_baseline_is_operator_error(
        self, telemetry, tmp_path, capsys
    ):
        rules = self._rules(tmp_path, (
            '[[rule]]\n'
            'name = "fetch-drift"\n'
            'kind = "drift"\n'
            'counter = "crawl.fetches"\n'
            'threshold = 0.25\n'
        ))
        assert main(["alerts", str(telemetry), "--rules", rules]) == 2
        assert "needs a baseline" in capsys.readouterr().err

    def test_drift_against_baseline_fires(self, telemetry, tmp_path, capsys):
        from tests.obs.test_analyze import METRICS, SERIES, write_telemetry

        halved = json.loads(json.dumps(METRICS))
        halved["counters"]["crawl.fetches{agent=GPTBot}"] = 50
        baseline = write_telemetry(tmp_path / "base", metrics=halved,
                                   series=SERIES)
        rules = self._rules(tmp_path, (
            '[[rule]]\n'
            'name = "fetch-drift"\n'
            'kind = "drift"\n'
            'counter = "crawl.fetches"\n'
            'threshold = 0.25\n'
        ))
        assert main(["alerts", str(telemetry), "--rules", rules,
                     "--baseline", str(baseline)]) == 1
        assert "fetch-drift" in capsys.readouterr().out

    def test_missing_telemetry_is_one_line_error(self, tmp_path, capsys):
        rules = self._rules(tmp_path, (
            '[[rule]]\nname = "x"\nkind = "threshold"\ncounter = "c"\n'
        ))
        assert main(["alerts", str(tmp_path / "nowhere"),
                     "--rules", rules]) == 2
        assert "missing telemetry artifact" in capsys.readouterr().err


class TestDashboardCategories:
    def test_unknown_category_is_one_line_exit_two(self, tmp_path, capsys):
        from tests.obs.test_analyze import write_telemetry

        telemetry = write_telemetry(tmp_path / "t")
        assert main(["dashboard", str(telemetry),
                     "--category", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown category 'nosuch'" in err
        assert "blog" in err and "news" in err  # the valid vocabulary
        assert err.count("\n") == 1

    def test_known_category_still_renders(self, tmp_path, capsys):
        from tests.obs.test_analyze import write_telemetry

        telemetry = write_telemetry(tmp_path / "t")
        assert main(["dashboard", str(telemetry), "--category", "blog"]) == 0
        assert "CCBot" in capsys.readouterr().out


class TestReproduceProfile:
    def test_profile_flag_prints_phases_and_exports(self, tmp_path, capsys,
                                                    monkeypatch):
        from repro import cli
        from repro.web.population import PopulationConfig

        monkeypatch.setattr(
            cli,
            "_fast_config",
            lambda: PopulationConfig(
                universe_size=300, list_size=200, top5k_cut=30,
                audit_size=60, seed=11,
            ),
        )
        telemetry = tmp_path / "tele"
        assert main(["reproduce", "--fast", "--only", "sec62",
                     "--profile", "--telemetry-dir", str(telemetry)]) == 0
        out = capsys.readouterr().out
        assert "profile (per phase)" in out
        assert "world_build" in out and "experiment:sec62" in out
        assert (telemetry / "PROFILE.json").exists()
        payload = json.loads((telemetry / "PROFILE.json").read_text())
        assert [p["name"] for p in payload["phases"]] == [
            "world_build", "experiment:sec62",
        ]


@pytest.fixture()
def log_store_dir(tmp_path):
    """A small committed log store with two agents over two months."""
    from repro.net.logstore import LogSink, log_stream

    sink = LogSink()
    rows = [
        ("a.example", "/robots.txt", "GPTBot", "served", "art", 0, 200, True),
        ("a.example", "/one", "GPTBot", "served", "art", 0, 200, False),
        ("a.example", "/one", "GPTBot", "blocked_403", "art", 1, 403, False),
        ("b.example", "/two", "CCBot", "served", "news", 0, 200, False),
        ("b.example", "/two", "CCBot", "challenged", "news", 1, 503, False),
    ]
    with log_stream("unit"):
        for ticks, (host, path, agent, outcome, category, month,
                    status, robots) in enumerate(rows):
            sink.emit(host, path, f"{agent}/1.0", agent, outcome, category,
                      month, status, ticks, robots)
    return str(sink.commit(tmp_path / "logs", config_digest="cfg"))


class TestLogs:
    """``repro logs``: deterministic queries over the wide-event store."""

    def test_query_filters_and_renders_records(self, log_store_dir, capsys):
        assert main(["logs", log_store_dir, "query",
                     "--agent", "GPTBot", "--month", "0"]) == 0
        out = capsys.readouterr().out
        assert "/robots.txt" in out and "/one" in out
        assert "CCBot" not in out
        assert "2 record(s)" in out

    def test_query_output_is_deterministic(self, log_store_dir, capsys):
        assert main(["logs", log_store_dir, "query"]) == 0
        first = capsys.readouterr().out
        assert main(["logs", log_store_dir, "query"]) == 0
        assert capsys.readouterr().out == first

    def test_query_limit_and_no_match(self, log_store_dir, capsys):
        assert main(["logs", log_store_dir, "query", "--limit", "1"]) == 0
        assert "1 record(s)" in capsys.readouterr().out
        assert main(["logs", log_store_dir, "query",
                     "--agent", "nobody"]) == 0
        assert "no matching records" in capsys.readouterr().out

    def test_top_ranks_dimension(self, log_store_dir, capsys):
        assert main(["logs", log_store_dir, "top", "agent", "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "GPTBot" in out and "3" in out
        assert "CCBot" not in out

    def test_timeline_matrix(self, log_store_dir, capsys):
        assert main(["logs", log_store_dir, "timeline"]) == 0
        out = capsys.readouterr().out
        assert "GPTBot" in out and "CCBot" in out
        assert "2022-10" in out  # month 0's label

    def test_verify_clean_store(self, log_store_dir, capsys):
        assert main(["logs", log_store_dir, "verify"]) == 0
        assert "OK -- 5 record(s)" in capsys.readouterr().out

    def test_outcome_agent_and_robots_rollups(self, log_store_dir, capsys):
        assert main(["logs", log_store_dir, "top", "outcome"]) == 0
        out = capsys.readouterr().out
        assert "served" in out and "blocked_403" in out and "challenged" in out
        assert main(["logs", log_store_dir, "top", "agent"]) == 0
        assert "GPTBot" in capsys.readouterr().out
        assert main(["logs", log_store_dir, "query", "--robots-only"]) == 0
        out = capsys.readouterr().out
        assert "/robots.txt" in out and "1 record(s) (of 5 in the store)" in out

    def test_missing_store_is_one_line_exit_two(self, tmp_path, capsys):
        assert main(["logs", str(tmp_path / "nope"), "verify"]) == 2
        err = capsys.readouterr().err
        assert "not a log store" in err
        assert "Traceback" not in err


class TestDashboardFromLogs:
    """A directory holding a log store and no SERIES.json is read as one."""

    def test_matrix_from_raw_records(self, log_store_dir, capsys):
        assert main(["dashboard", log_store_dir]) == 0
        out = capsys.readouterr().out
        # GPTBot month 1: 1 request, 1 blocked; CCBot month 1 challenged.
        assert "1/1/0" in out and "1/0/1" in out

    def test_category_filter_and_unknown_category(self, log_store_dir, capsys):
        assert main(["dashboard", log_store_dir, "--category", "news"]) == 0
        out = capsys.readouterr().out
        assert "CCBot" in out and "GPTBot" not in out
        assert main(["dashboard", log_store_dir, "--category", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "unknown category 'nosuch'" in err
        assert "art" in err and "news" in err
        assert err.count("\n") == 1

    def test_other_shards_are_not_a_log_store(self, tmp_path, capsys):
        (tmp_path / "shard-0000").mkdir()  # e.g. a snapshot archive's shard
        assert main(["dashboard", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (f"repro dashboard: missing telemetry artifact: "
                       f"{tmp_path / 'SERIES.json'}\n")

    def test_series_json_is_read_before_a_log_store(self, log_store_dir, capsys):
        from pathlib import Path

        from tests.obs.test_analyze import write_telemetry

        write_telemetry(Path(log_store_dir))
        assert main(["dashboard", log_store_dir]) == 0
        out = capsys.readouterr().out
        assert "25/5/0" in out and "1/1/0" not in out  # SERIES.json's cells


class TestAlertsLogVolume:
    def _rules(self, tmp_path, body):
        path = tmp_path / "rules.toml"
        path.write_text(body)
        return str(path)

    @pytest.fixture()
    def telemetry(self, tmp_path):
        from tests.obs.test_analyze import write_telemetry

        return write_telemetry(tmp_path / "t")

    def test_breach_fires_from_telemetry_alone(self, telemetry, tmp_path,
                                              capsys):
        # SERIES.json's GPTBot cells: month 0 10 requests, month 1 25.
        rules = self._rules(tmp_path, (
            '[[rule]]\n'
            'name = "gptbot-volume"\n'
            'kind = "log_volume"\n'
            'labels = {agent = "GPTBot"}\n'
            'threshold = 1\n'
        ))
        assert main(["alerts", str(telemetry), "--rules", rules]) == 1
        assert capsys.readouterr().out == (
            f"evaluated 1 rule(s) against {telemetry}\n"
            "  [WARN ] gptbot-volume: log volume for GPTBot in month 1 "
            "is 25 requests (above 1)\n"
            "RESULT: FIRING -- 1 alert(s)\n"
        )

    def test_clean_threshold_exits_zero(self, telemetry, tmp_path, capsys):
        rules = self._rules(tmp_path, (
            '[[rule]]\n'
            'name = "gptbot-volume"\n'
            'kind = "log_volume"\n'
            'threshold = 100\n'
        ))
        assert main(["alerts", str(telemetry), "--rules", rules]) == 0
        assert "RESULT: OK" in capsys.readouterr().out


class TestReproduceLogDir:
    def test_end_to_end_log_dir_run(self, tmp_path, capsys, monkeypatch):
        from repro import cli
        from repro.web.population import PopulationConfig

        monkeypatch.setattr(
            cli,
            "_fast_config",
            lambda: PopulationConfig(
                universe_size=300, list_size=200, top5k_cut=30,
                audit_size=60, seed=11,
            ),
        )
        log_dir = tmp_path / "logs"
        assert main(["reproduce", "--fast", "--only", "sec62",
                     "--log-dir", str(log_dir)]) == 0
        out = capsys.readouterr().out
        assert f"log store: {log_dir}" in out
        assert (log_dir / "FEATURES.json").is_file()
        assert main(["logs", str(log_dir), "verify"]) == 0

    def test_strata_with_log_dir_is_operator_error(self, tmp_path, capsys):
        assert main(["reproduce", "--fast", "--strata", "top-1k",
                     "--log-dir", str(tmp_path / "logs")]) == 2
        err = capsys.readouterr().err
        assert "strata" in err and "Traceback" not in err
