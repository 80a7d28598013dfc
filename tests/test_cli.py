"""End-to-end tests of the command-line interface (run in-process, apart from
``TestProcess``)."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import limitcurves
from limitcurves import fileio
from limitcurves.cli import main, parse_alpha_grid, parse_design, parse_policy
from limitcurves.conformal import default_alpha_grid


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def simulated(tmp_path):
    target = tmp_path / "target.csv"
    trial = tmp_path / "trial.csv"
    pool = tmp_path / "pool.csv"
    code = run(
        "simulate", "--pop", "A", "--n", 400, "--m", 200, "--seed", 7,
        "--target-out", target, "--trial-out", trial, "--pool-out", pool,
        "--m-train", 200,
    )
    assert code == 0
    return target, trial, pool


@pytest.fixture
def model(tmp_path, simulated):
    path = tmp_path / "model.json"
    assert run("fit", "--pool", simulated[2], "--out", path) == 0
    return path


class TestParsing:
    def test_policy_flags(self):
        assert parse_policy("constant:1").kind == "constant"
        assert parse_policy("uniform").kind == "uniform"
        with pytest.raises(ValueError):
            parse_policy("bogus")

    def test_design_flags(self):
        assert parse_design("uniform:2").k_actions == 2
        assert np.allclose(parse_design("probs:0.3,0.7").probs, [0.3, 0.7])
        with pytest.raises(ValueError):
            parse_design("nope")

    def test_alpha_grid(self):
        grid = parse_alpha_grid("0.01:0.99:0.01")
        assert grid.shape == (99,)
        with pytest.raises(ValueError):
            parse_alpha_grid("0.5")
        # a subnormal step makes (stop - start) / step overflow to inf
        with pytest.raises(ValueError, match="more than 1000000 points"):
            parse_alpha_grid("0.01:0.99:5e-324")
        assert parse_alpha_grid("0:0.999999:0.000001").shape == (999999,)
        with pytest.raises(ValueError, match="more than 1000000 points"):
            parse_alpha_grid("0:1:0.000001")

    @pytest.mark.parametrize(
        "spec, points",
        [("0.01:0.99:0.01", 100), ("0.05:0.95:0.05", 20), ("0.001:0.999:0.001", 1000)],
    )
    def test_alpha_grid_points_are_the_decimal_ones(self, spec, points):
        # start + step * k misses 0.06 by an ulp; the parsed grid does not
        assert parse_alpha_grid(spec).tobytes() == (np.arange(1, points) / points).tobytes()
        assert parse_alpha_grid("0.01:0.99:0.01").tobytes() == default_alpha_grid().tobytes()


class TestSimulate:
    def test_row_counts_and_determinism(self, tmp_path):
        t1, d1 = tmp_path / "t1.csv", tmp_path / "d1.csv"
        t2, d2 = tmp_path / "t2.csv", tmp_path / "d2.csv"
        for t, d in ((t1, d1), (t2, d2)):
            assert run(
                "simulate", "--pop", "B", "--n", 50, "--m", 30, "--seed", 3,
                "--target-out", t, "--trial-out", d,
            ) == 0
        assert len(t1.read_text().splitlines()) == 51
        assert len(d1.read_text().splitlines()) == 31
        assert t1.read_bytes() == t2.read_bytes()
        assert d1.read_bytes() == d2.read_bytes()

    def test_unknown_population(self, tmp_path):
        assert run(
            "simulate", "--pop", "Z", "--n", 10, "--m", 10,
            "--target-out", tmp_path / "t.csv", "--trial-out", tmp_path / "d.csv",
        ) == 1

    def test_m_train_without_pool_out_refused(self, tmp_path, capsys):
        argv = ("simulate", "--pop", "A", "--n", 10, "--m", 10,
                "--target-out", tmp_path / "t.csv", "--trial-out", tmp_path / "d.csv")
        line = "error: --m-train is not used without --pool-out\n"
        assert run(*argv, "--m-train", 7) == 1
        assert capsys.readouterr().err == line
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m-train=7\n")
        assert run(*argv, "--config", cfg) == 1
        assert capsys.readouterr().err == line
        assert not (tmp_path / "t.csv").exists() and not (tmp_path / "d.csv").exists()
        assert run(*argv, "--m-train", 7, "--pool-out", tmp_path / "p.csv") == 0
        assert len((tmp_path / "p.csv").read_text().splitlines()) == 1 + 10 + 7


class TestFit:
    def test_noise_pool_gives_small_coefficients(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 2000
        lines = ["x0,x1,s"]
        labels = np.r_[np.ones(n // 2, int), np.zeros(n // 2, int)]
        rng.shuffle(labels)
        for i in range(n):
            lines.append(f"{rng.normal()!r},{rng.normal()!r},{labels[i]}")
        pool = tmp_path / "pool.csv"
        pool.write_text("\n".join(lines) + "\n")
        out = tmp_path / "model.json"
        assert run("fit", "--pool", pool, "--l2", 1e-6, "--out", out) == 0
        payload = read_json(out)
        assert all(abs(c) < 0.15 for c in payload["coefficients"])
        assert payload["converged"] is True

    def test_separable_without_penalty_fails(self, tmp_path):
        lines = ["x0,s"]
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.uniform(0.05, 1.0)
            lines.append(f"{v!r},1")
            lines.append(f"{-v!r},0")
        pool = tmp_path / "pool.csv"
        pool.write_text("\n".join(lines) + "\n")
        assert run(
            "fit", "--pool", pool, "--l2", 0.0, "--out", tmp_path / "model.json"
        ) == 1

    def test_fit_then_score_round_trip(self, tmp_path, simulated):
        _, _, pool = simulated
        out = tmp_path / "model.json"
        assert run("fit", "--pool", pool, "--out", out) == 0
        from limitcurves.fileio import read_pool_csv
        from limitcurves.propensity import fit_logistic, load_model, predict_odds, LogisticConfig

        pool_data = read_pool_csv(pool)
        direct = fit_logistic(pool_data, LogisticConfig(l2=1e-4))
        loaded = load_model(out)
        x = pool_data.x[:10]
        assert np.array_equal(predict_odds(direct, x), predict_odds(loaded, x))


class TestEvaluate:
    def test_curves_and_informativeness(self, tmp_path, simulated):
        _, trial, pool = simulated
        model = tmp_path / "model.json"
        assert run("fit", "--pool", pool, "--out", model) == 0
        out_json = tmp_path / "curves.json"
        out_csv = tmp_path / "curves.csv"
        assert run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", "constant:1", "--design", "uniform:2",
            "--gammas", "1,2", "--split", "matched", "--seed", 5,
            "--l-max", 100.0, "--out-json", out_json, "--out-csv", out_csv,
        ) == 0
        payload = read_json(out_json)
        assert payload["kind"] == "limit-curves"
        assert set(payload["informativeness"]) == {"1.0", "2.0"}
        by_gamma = {}
        for entry in payload["curves"]:
            by_gamma.setdefault(entry["gamma"], []).append(entry)
        assert len(by_gamma[1.0]) == 99
        assert [e["alpha"] for e in by_gamma[1.0]] == default_alpha_grid().tolist()
        assert any(entry["alpha"] == 0.1 for entry in by_gamma[1.0])
        assert "\n1.0,0.1," in out_csv.read_text()
        for one, two in zip(by_gamma[1.0], by_gamma[2.0]):
            assert two["limit"] >= one["limit"]
        assert out_csv.read_text().splitlines()[0] == "gamma,alpha,limit,trivial"

    def test_both_constant_policies_run(self, tmp_path, simulated):
        _, trial, pool = simulated
        model = tmp_path / "model.json"
        assert run("fit", "--pool", pool, "--out", model) == 0
        for a in (0, 1):
            assert run(
                "evaluate", "--trial", trial, "--model", model,
                "--policy", f"constant:{a}", "--gammas", "1",
                "--split", "matched", "--l-max", 100.0,
                "--out-json", tmp_path / f"c{a}.json", "--out-csv", tmp_path / f"c{a}.csv",
            ) == 0

    @staticmethod
    def curves(tmp_path, name, trial, model, *target):
        """Run a matched-split evaluate into ``tmp_path / name``; return its CSV bytes."""
        out = tmp_path / name
        out.mkdir()
        assert run(
            "evaluate", "--trial", trial, *target, "--model", model,
            "--policy", "constant:1", "--gammas", "1,2", "--split", "matched",
            "--l-max", 100.0, "--out-json", out / "c.json", "--out-csv", out / "c.csv",
        ) == 0
        return (out / "c.csv").read_bytes()

    def test_target_file_is_not_opened(self, tmp_path, simulated, model, capsys):
        target, trial, _ = simulated
        missing = tmp_path / "missing.csv"
        capsys.readouterr()
        unread = self.curves(tmp_path, "missing", trial, model, "--target", missing)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"warning: {missing}: not read")
        assert read_json(tmp_path / "missing" / "c.json")["config"]["target"] == str(missing)
        assert unread == self.curves(tmp_path, "real", trial, model, "--target", target)

    def test_without_target(self, tmp_path, simulated, model, capsys):
        target, trial, _ = simulated
        capsys.readouterr()
        bare = self.curves(tmp_path, "bare", trial, model)
        assert capsys.readouterr().err == ""
        assert read_json(tmp_path / "bare" / "c.json")["config"]["target"] is None
        assert bare == self.curves(tmp_path, "real", trial, model, "--target", target)

    def test_extreme_alpha_grid_runs_without_warnings(self, tmp_path, simulated, model, capsys):
        """The smallest and largest alphas the grid's 15-digit rounding keeps,
        at gamma 1 and 1e100, give finite levels: no warning on stderr (and
        none raised here, where every warning is an error)."""
        _, trial, _ = simulated
        capsys.readouterr()
        assert run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", "constant:1", "--gammas", "1,1e100",
            "--alpha-grid", "1e-15:0.999999999999999:0.1", "--l-max", 100.0,
            "--out-json", tmp_path / "c.json", "--out-csv", tmp_path / "c.csv",
        ) == 0
        assert capsys.readouterr().err == ""
        assert len(read_json(tmp_path / "c.json")["curves"]) == 2 * 10

    def test_scores_input(self, tmp_path, simulated):
        _, trial, _ = simulated
        m = len(trial.read_text().splitlines()) - 1
        scores = tmp_path / "scores.csv"
        scores.write_text("id,odds\n" + "\n".join(f"{i},1.0" for i in range(m)) + "\n")
        assert run(
            "evaluate", "--trial", trial, "--scores", scores,
            "--policy", "constant:1", "--gammas", "1", "--split", "matched",
            "--l-max", 100.0,
            "--out-json", tmp_path / "s.json", "--out-csv", tmp_path / "s.csv",
        ) == 0


class TestBenchmarkGamma:
    def test_reports_per_feature_deterministic(self, tmp_path, simulated):
        _, _, pool = simulated
        out1, out2 = tmp_path / "g1.json", tmp_path / "g2.json"
        for out in (out1, out2):
            assert run("benchmark-gamma", "--pool", pool, "--out", out) == 0
        p1, p2 = read_json(out1), read_json(out2)
        assert p1["reports"] == p2["reports"]
        assert [r["feature"] for r in p1["reports"]] == [0, 1]
        for report in p1["reports"]:
            g = report["suggested_gamma"]
            assert 1.0 <= g["0.9"] <= g["0.95"] <= g["1.0"]

    def test_reports_are_the_library_records(self, tmp_path, simulated):
        """Each written report is ``benchmark_all``'s record, key for field
        in the same order; JSON only turns the quantile levels into text."""
        _, _, pool = simulated
        out = tmp_path / "g.json"
        assert run("benchmark-gamma", "--pool", pool, "--rows", "trial", "--out", out) == 0
        records = [
            dataclasses.asdict(r)
            for r in limitcurves.benchmark_all(fileio.read_pool_csv(pool), rows="trial")
        ]
        reports = read_json(out)["reports"]
        assert reports == json.loads(json.dumps(records))
        names = [f.name for f in dataclasses.fields(limitcurves.OmissionReport)]
        assert all(list(report) == names for report in reports)


class TestLibraryDefaults:
    """Every default a flag shows is the library's own, so a command with
    default flags gives what the library call with default arguments gives."""

    def test_flag_defaults_are_the_library_defaults(self):
        from limitcurves.cli import build_parser
        from limitcurves.propensity import LogisticConfig
        from limitcurves.simlab import CertifiedMethod, IpswMethod, SimScenario

        _, registry = build_parser()
        fit = LogisticConfig()
        for command in ("fit", "benchmark-gamma", "miscoverage"):
            sub = registry[command]
            assert sub.get_default("l2") == fit.l2 == 1e-4
            assert sub.get_default("tol") == fit.tol
        for command in ("simulate", "miscoverage"):
            sub = registry[command]
            assert (sub.get_default("n"), sub.get_default("m"), sub.get_default("m_train")) == (
                SimScenario.n, SimScenario.m, SimScenario.m_train
            )
        lab = registry["miscoverage"]
        method = CertifiedMethod(gamma=1.0)
        assert lab.get_default("split") == method.split
        assert lab.get_default("frac") == method.split_frac
        assert lab.get_default("odds") == method.odds_source == IpswMethod().odds_source
        assert method.fit == IpswMethod().fit == fit

    def test_default_flags_equal_library_calls(self, tmp_path, simulated):
        from limitcurves.fileio import read_pool_csv
        from limitcurves.gamma_bench import benchmark_all
        from limitcurves.propensity import fit_logistic

        _, _, pool = simulated
        assert run("fit", "--pool", pool, "--out", tmp_path / "model.json") == 0
        assert run("benchmark-gamma", "--pool", pool, "--out", tmp_path / "g.json") == 0
        pool_data = read_pool_csv(pool)
        model = fit_logistic(pool_data)
        saved = read_json(tmp_path / "model.json")
        assert saved["coefficients"] == model.coefficients.tolist()
        assert saved["intercept"] == model.intercept
        expected = [
            {"feature": r.feature, "rows_used": r.rows_used,
             "suggested_gamma": r.suggested_gamma, "ratio_quantiles": r.ratio_quantiles}
            for r in benchmark_all(pool_data)
        ]
        assert read_json(tmp_path / "g.json")["reports"] == json.loads(json.dumps(expected))


class TestReliability:
    def test_bin_rows_and_counts(self, tmp_path, simulated):
        _, _, pool = simulated
        model = tmp_path / "model.json"
        assert run("fit", "--pool", pool, "--out", model) == 0
        out = tmp_path / "reliability.csv"
        assert run("reliability", "--pool", pool, "--model", model, "--bins", 5, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_lower,bin_upper,mean_nominal,observed,n_target,n_trial"
        counts = sum(int(line.split(",")[4]) + int(line.split(",")[5]) for line in lines[1:])
        assert counts == 600  # 400 target + 200 trial-train rows


class TestIpsw:
    def test_hand_computable_case(self, tmp_path):
        trial = tmp_path / "trial.csv"
        trial.write_text(
            "x0,a,l\n0.0,1,1.0\n0.0,0,5.0\n0.0,1,3.0\n0.0,0,6.0\n"
        )
        target = tmp_path / "target.csv"
        target.write_text("x0\n0.0\n0.0\n0.0\n0.0\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("id,odds\n0,1.0\n1,1.0\n2,1.0\n3,1.0\n")
        out = tmp_path / "ipsw.json"
        assert run(
            "ipsw", "--trial", trial, "--target", target, "--scores", scores,
            "--policy", "constant:1", "--design", "uniform:2",
            "--alphas", "0.25,0.6", "--out", out,
        ) == 0
        payload = read_json(out)
        assert payload["value"] == 2.0
        quantiles = {q["alpha"]: q for q in payload["quantiles"]}
        assert quantiles[0.25]["limit"] == 3.0
        assert quantiles[0.6]["limit"] == 1.0
        assert [q["alpha"] for q in payload["quantiles"]] == [0.25, 0.6]

    def test_unreached_level_is_a_null_trivial_limit(self, tmp_path):
        """Odds 0.25 leave the two treated rows a total mass of 1 against
        n = 4, so the reweighted CDF stops at 0.25: alpha 0.5 is never
        reached, and alpha 0.8 is reached at the second treated loss."""
        trial = tmp_path / "trial.csv"
        trial.write_text("x0,a,l\n0.0,1,1.0\n0.0,0,5.0\n0.0,1,3.0\n0.0,0,6.0\n")
        target = tmp_path / "target.csv"
        target.write_text("x0\n0.0\n0.0\n0.0\n0.0\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("id,odds\n0,0.25\n1,0.25\n2,0.25\n3,0.25\n")
        out = tmp_path / "ipsw.json"
        assert run(
            "ipsw", "--trial", trial, "--target", target, "--scores", scores,
            "--policy", "constant:1", "--design", "uniform:2",
            "--alphas", "0.5,0.8", "--out", out,
        ) == 0
        assert read_json(out)["quantiles"] == [
            {"alpha": 0.5, "limit": None, "trivial": True},
            {"alpha": 0.8, "limit": 3.0, "trivial": False},
        ]

    def test_dimension_mismatch_fails(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        bad_target = tmp_path / "bad.csv"
        bad_target.write_text("x0,x1,x2\n0.0,0.0,0.0\n")
        capsys.readouterr()
        assert run(
            "ipsw", "--trial", trial, "--target", bad_target, "--model", model,
            "--policy", "constant:1", "--out", tmp_path / "i.json",
        ) == 1
        assert capsys.readouterr().err == "error: covariate dimensions differ: trial d=2, target d=3\n"
        assert not (tmp_path / "i.json").exists()

    def test_weights_computed_once(self, tmp_path, simulated, model, monkeypatch):
        """The quantiles and the value share one ``shift_weights`` call."""
        from limitcurves.weights import shift_weights

        calls = []

        def counted(*args):
            calls.append(args)
            return shift_weights(*args)

        for module in ("weights", "conformal", "ipsw", "simlab", "cli"):
            monkeypatch.setattr(f"limitcurves.{module}.shift_weights", counted)
        target, trial, _ = simulated
        assert run(
            "ipsw", "--trial", trial, "--target", target, "--model", model,
            "--policy", "uniform", "--alphas", "0.1,0.5", "--out", tmp_path / "i.json",
        ) == 0
        assert len(calls) == 1


class TestMiscoverage:
    def test_trivial_gamma_gap_equals_alpha(self, tmp_path):
        out = tmp_path / "mc.json"
        assert run(
            "miscoverage", "--pop", "A", "--n", 60, "--m", 40, "--m-train", 40,
            "--method", "certified", "--gamma", 1e12, "--odds", "oracle",
            "--alphas", "0.1,0.3", "--runs", 3, "--per-run", 25,
            "--seed", 1, "--out", out,
        ) == 0
        payload = read_json(out)
        for row in payload["rows"]:
            assert row["exceed_rate"] == 0.0
            assert row["gap"] == row["alpha"]
            assert "se" in row

    def test_deterministic_reports(self, tmp_path):
        args = [
            "miscoverage", "--pop", "B", "--n", 80, "--m", 50, "--m-train", 50,
            "--method", "ipsw", "--odds", "fitted", "--alphas", "0.2",
            "--runs", 3, "--per-run", 20, "--seed", 5,
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(*args, "--out", out1) == 0
        assert run(*args, "--out", out2) == 0
        p1, p2 = read_json(out1), read_json(out2)
        p1.pop("config")
        p2.pop("config")
        assert p1 == p2

    def test_payload_is_the_library_record(self, tmp_path):
        """After its config, the payload is ``miscoverage_gap``'s report, key
        for field in the same order."""
        out = tmp_path / "m.json"
        assert run(
            "miscoverage", "--pop", "C", "--n", 80, "--m", 50, "--m-train", 50,
            "--method", "certified", "--odds", "oracle", "--gamma", 2, "--alphas", "0.1,0.3",
            "--runs", 3, "--per-run", 20, "--seed", 2, "--out", out,
        ) == 0
        scn = limitcurves.scenario("C", n=80, m=50, m_train=50)
        method = limitcurves.CertifiedMethod(gamma=2.0, odds_source="oracle")
        report = limitcurves.miscoverage_gap(scn, method, [0.1, 0.3], runs=3, per_run=20, seed=2)
        payload = read_json(out)
        assert list(payload)[:3] == ["schema_version", "kind", "config"]
        body = {k: v for k, v in payload.items() if k not in ("schema_version", "kind", "config")}
        assert body == dataclasses.asdict(report)
        assert list(body) == [f.name for f in dataclasses.fields(limitcurves.MiscoverageReport)]

    @pytest.mark.parametrize(
        "flags", [("--gamma", "1e200"), ("--split", "random", "--frac", 1.5)]
    )
    def test_bad_setting_fails_before_first_run(self, tmp_path, monkeypatch, capsys, flags):
        def no_study(*args, **kwargs):
            raise AssertionError("a study ran")

        monkeypatch.setattr("limitcurves.cli.miscoverage_gap", no_study)
        assert run(
            "miscoverage", "--pop", "A", "--method", "certified", *flags,
            "--out", tmp_path / "mc.json",
        ) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "mc.json").exists()


    def test_duplicate_alphas_refused(self, tmp_path, capsys):
        out = tmp_path / "mc.json"
        assert run(
            "miscoverage", "--pop", "B", "--n", 60, "--m", 40, "--m-train", 40,
            "--method", "certified", "--gamma", 2, "--alphas", "0.1,0.1",
            "--runs", 2, "--per-run", 20, "--seed", 1, "--out", out,
        ) == 1
        assert capsys.readouterr().err == "error: alphas must be distinct\n"
        assert not out.exists()

    @pytest.mark.parametrize("per_run", [500, 400])
    def test_table_policy_refused_before_any_study(self, tmp_path, monkeypatch, capsys, per_run):
        """Every study draws new rows, so a per-row table has none to align with."""

        def no_draw(*args, **kwargs):
            raise AssertionError("a study was drawn")

        monkeypatch.setattr("limitcurves.simlab.sample_target", no_draw)
        table = tmp_path / "policy.csv"
        table.write_text("p0,p1\n" + "0.5,0.5\n" * 500)
        out = tmp_path / "mc.json"
        assert run(
            "miscoverage", "--pop", "B", "--method", "certified", "--m", 500,
            "--per-run", per_run, "--policy", f"table:{table}", "--out", out,
        ) == 1
        assert capsys.readouterr().err == (
            "error: a table policy cannot be measured: every study draws new trial and "
            "target rows, so a per-row table has no rows to align with\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_impossible_allocation(self, tmp_path, monkeypatch, capsys, cpus):
        # 10^16 rows exceed any address space, so the allocation fails at once;
        # the raised row cap lets them past the refusal and into a worker
        monkeypatch.setattr("limitcurves.simlab._usable_cpus", lambda: cpus)
        monkeypatch.setattr("limitcurves.simlab.MAX_STUDY_ROWS", 10**17)
        out = tmp_path / "mc.json"
        assert run(
            "miscoverage", "--pop", "B", "--n", 60, "--m", 40, "--m-train", 40,
            "--method", "certified", "--runs", 2, "--per-run", 10**16, "--out", out,
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and "Traceback" not in err
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pop=B\nn=40\nm=30\nseed=2\n")
        t1 = tmp_path / "t1.csv"
        d1 = tmp_path / "d1.csv"
        assert run(
            "simulate", "--config", cfg, "--target-out", t1, "--trial-out", d1
        ) == 0
        assert len(t1.read_text().splitlines()) == 41
        t2 = tmp_path / "t2.csv"
        d2 = tmp_path / "d2.csv"
        assert run(
            "simulate", "--config", cfg, "--n", 25,
            "--target-out", t2, "--trial-out", d2,
        ) == 0
        assert len(t2.read_text().splitlines()) == 26

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert run(
            "simulate", "--config", cfg, "--pop", "A", "--n", 10, "--m", 10,
            "--target-out", tmp_path / "t.csv", "--trial-out", tmp_path / "d.csv",
        ) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'bogus'\n"

    def test_bad_value_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("n=abc\n")
        outputs = ("--target-out", tmp_path / "t.csv", "--trial-out", tmp_path / "d.csv")
        assert run("simulate", "--config", cfg, "--pop", "A", *outputs) == 1
        assert capsys.readouterr().err == f"error: {cfg}: n='abc' is not a valid int\n"
        assert not (tmp_path / "t.csv").exists()
        # the same value as a flag keeps argparse's usage error
        assert run("simulate", "--n", "abc", "--pop", "A", *outputs) == 2
        err = capsys.readouterr().err
        assert err.endswith("limitcurves simulate: error: argument --n: invalid int value: 'abc'\n")
        assert not (tmp_path / "t.csv").exists()

    @staticmethod
    def miscoverage(tmp_path, settings, *flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(settings)
        return run(
            "miscoverage", "--config", cfg, "--pop", "A", "--n", 100, "--m", 50,
            "--m-train", 50, "--runs", 2, "--per-run", 40, "--out", tmp_path / "gap.json", *flags,
        )

    def test_bad_choice_is_refused(self, tmp_path, capsys):
        assert self.miscoverage(tmp_path, "method=certifed\n") == 1
        cfg = tmp_path / "run.cfg"
        assert capsys.readouterr().err == f"error: {cfg}: method='certifed' is not one of certified, ipsw\n"
        assert not (tmp_path / "gap.json").exists()

    def test_bad_switch_word_is_refused(self, tmp_path, capsys):
        assert self.miscoverage(tmp_path, "normalized=ture\n", "--method", "ipsw") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "run.cfg" in err
        assert not (tmp_path / "gap.json").exists()

    def test_switch_word_reads_true(self, tmp_path):
        assert self.miscoverage(tmp_path, "normalized=yes\n", "--method", "ipsw") == 0
        assert read_json(tmp_path / "gap.json")["config"]["normalized"] is True

    def test_setting_given_twice(self, tmp_path, capsys):
        assert self.miscoverage(tmp_path, "m-train=30\nm_train=40\n", "--method", "ipsw") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run.cfg" in err and "'m-train'" in err
        assert not (tmp_path / "gap.json").exists()

    def test_abbreviated_config_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=40\n")
        assert run(
            "simulate", "--conf", cfg, "--pop", "A", "--n", 10, "--m", 10,
            "--target-out", tmp_path / "t.csv", "--trial-out", tmp_path / "d.csv",
        ) == 2
        assert not (tmp_path / "t.csv").exists()

    def test_model_from_file(self, tmp_path, simulated, model, monkeypatch):
        _, trial, _ = simulated
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model={model}\n")
        outputs = []
        for name, source in (("file", ["--config", cfg]), ("flag", ["--model", model])):
            workdir = tmp_path / name
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert run(
                "evaluate", "--trial", trial, *source,
                "--policy", "constant:1", "--l-max", 100.0, "--out-json", "o.json", "--out-csv", "o.csv",
            ) == 0
            outputs.append(((workdir / "o.json").read_bytes(), (workdir / "o.csv").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_file_model_with_flag_scores(self, tmp_path, simulated, model):
        _, _, pool = simulated
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model={model}\n")
        assert run(
            "reliability", "--config", cfg, "--pool", pool, "--scores", tmp_path / "s.csv",
            "--out", tmp_path / "r.csv",
        ) == 2
        assert not (tmp_path / "r.csv").exists()


class TestUnusedFlags:
    """A flag that the chosen split, method or odds source leaves unused is
    refused when set away from its default, from the command line or a
    config file; its default is accepted and echoed."""

    @staticmethod
    def argv(tmp_path, simulated, model, command):
        _, trial, _ = simulated
        out = tmp_path / "out.json"
        return {
            "evaluate": ("evaluate", "--trial", trial, "--model", model, "--policy", "constant:1",
                         "--l-max", 100.0, "--out-json", out, "--out-csv", tmp_path / "o.csv"),
            "miscoverage": ("miscoverage", "--pop", "A", "--n", 60, "--m", 40, "--m-train", 40,
                            "--runs", 2, "--per-run", 20, "--out", out),
        }[command]

    @pytest.mark.parametrize(
        "command, chosen, flag, value, default",
        [
            ("evaluate", ("--split", "matched"), "frac", "7", 0.5),
            ("miscoverage", ("--method", "certified", "--split", "matched"), "frac", "0.3", 0.5),
            ("miscoverage", ("--method", "ipsw"), "gamma", "0.5", 1.0),
            ("miscoverage", ("--method", "ipsw"), "split", "random", "matched"),
            ("miscoverage", ("--method", "ipsw"), "frac", "0.3", 0.5),
            ("miscoverage", ("--method", "ipsw"), "gamma", "1e200", 1.0),
            ("miscoverage", ("--method", "certified"), "normalized", None, False),
            ("miscoverage", ("--method", "certified", "--odds", "oracle"), "l2", "0.1", 1e-4),
            ("miscoverage", ("--method", "certified", "--odds", "oracle"), "tol", "nan", 1e-6),
        ],
    )
    def test_unused_flag_refused(
        self, tmp_path, simulated, model, capsys, command, chosen, flag, value, default
    ):
        line = f"error: --{flag} is not used with {' '.join(chosen[-2:])}\n"
        argv = self.argv(tmp_path, simulated, model, command)
        flags = (f"--{flag}",) if value is None else (f"--{flag}", value)
        assert run(*argv, *chosen, *flags) == 1
        assert capsys.readouterr().err == line
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{flag}={'yes' if value is None else value}\n")
        assert run(*argv, *chosen, "--config", cfg) == 1
        assert capsys.readouterr().err == line
        assert not (tmp_path / "out.json").exists()
        # the default is accepted and echoed
        cfg.write_text(f"{flag}={default}\n")
        assert run(*argv, *chosen, "--config", cfg) == 0
        assert read_json(tmp_path / "out.json")["config"][flag.replace("-", "_")] == default


class TestOutputsNeverClobber:
    """An output flag that names the same file as an input or another output
    of the command is refused before any file is read: one error line names
    both flags, the exit code is 1, and every named file keeps its bytes."""

    @staticmethod
    def refused(capsys, argv, flags, path, files):
        before = {f: f.read_bytes() for f in files}
        assert run(*argv) == 1
        assert capsys.readouterr().err == f"error: {flags} name the same file {path}\n"
        assert {f: f.read_bytes() for f in files} == before

    def test_evaluate_json_and_csv(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        same = tmp_path / "same"
        argv = ("evaluate", "--trial", trial, "--model", model, "--policy", "constant:1",
                "--l-max", 100.0, "--out-json", same, "--out-csv", same)
        self.refused(capsys, argv, "--out-csv and --out-json", same, [trial, model])
        assert not same.exists()

    def test_simulate_target_and_trial(self, tmp_path, capsys):
        x = tmp_path / "x.csv"
        x.write_text("kept\n")
        argv = ("simulate", "--pop", "A", "--n", 10, "--m", 10, "--target-out", x, "--trial-out", x)
        self.refused(capsys, argv, "--trial-out and --target-out", x, [x])

    def test_evaluate_json_over_trial(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        argv = ("evaluate", "--trial", trial, "--model", model, "--policy", "constant:1",
                "--l-max", 100.0, "--out-json", trial, "--out-csv", tmp_path / "o.csv")
        self.refused(capsys, argv, "--out-json and --trial", trial, [trial, model])
        assert not (tmp_path / "o.csv").exists()

    def test_other_spellings_and_inputs(self, tmp_path, simulated, model, capsys):
        """Paths are compared once resolved, so a symlink or a ``..`` detour
        to an input is refused too, and so are the policy table and the
        config file."""
        target, trial, pool = simulated
        link = tmp_path / "link.csv"
        link.symlink_to(trial)
        detour = tmp_path / "sub" / ".." / pool.name
        table = tmp_path / "policy.csv"
        table.write_text("p0,p1\n0.5,0.5\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bins=3\n")
        study = ("--trial", trial, "--target", target, "--model", model)
        cases = [
            (("ipsw", *study, "--policy", "constant:1", "--out", link), "--out and --trial", link),
            (("fit", "--pool", pool, "--out", detour), "--out and --pool", detour),
            (("ipsw", *study, "--policy", f"table:{table}", "--out", table), "--out and --policy", table),
            (("reliability", "--config", cfg, "--pool", pool, "--model", model, "--out", cfg),
             "--out and --config", cfg),
        ]
        for argv, flags, path in cases:
            self.refused(capsys, argv, flags, path, [target, trial, pool, model, table, cfg])


class TestInputDecoding:
    """Every input file is read past a byte-order mark; one holding a byte
    that does not decode ends in one error line that names it."""

    @staticmethod
    def with_bad_byte(path):
        """Copy of ``path`` with a 0xff byte before its last character."""
        data = path.read_bytes()
        bad = path.with_name(f"bad-{path.name}")
        bad.write_bytes(data[:-2] + b"\xff" + data[-2:])
        return bad

    @pytest.mark.parametrize(
        "kind", ["trial", "target", "pool", "scores", "policy table", "config", "model"]
    )
    def test_undecodable_byte_names_the_file(self, tmp_path, simulated, model, capsys, kind):
        target, trial, pool = simulated
        scores = tmp_path / "scores.csv"
        scores.write_text("id,odds\n" + "".join(f"{i},1.0\n" for i in range(200)))
        table = tmp_path / "policy.csv"
        table.write_text("p0,p1\n" + "0.25,0.75\n" * 200)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gammas=1,2\n# a comment\n")
        files = {"trial": trial, "target": target, "pool": pool, "scores": scores,
                 "policy table": table, "config": cfg, "model": model}
        bad = self.with_bad_byte(files[kind])
        files[kind] = bad
        out = tmp_path / "out.json"
        if kind == "pool":
            argv = ("fit", "--pool", bad, "--out", out)
        else:
            odds = ("--scores", bad) if kind == "scores" else ("--model", files["model"])
            argv = ("ipsw", "--trial", files["trial"], "--target", files["target"], *odds,
                    "--policy", f"table:{files['policy table']}", "--out", out)
            if kind == "config":
                argv += ("--config", bad)
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_byte_order_mark_is_ignored(self, tmp_path, simulated, model):
        _, trial, _ = simulated
        payloads = []
        for name, encoding in (("plain", "utf-8"), ("marked", "utf-8-sig")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text("policy=uniform\ngammas=1,2\n", encoding=encoding)
            copy = tmp_path / f"{name}.json"
            copy.write_text(model.read_text(), encoding=encoding)
            assert copy.read_bytes().startswith(b"\xef\xbb\xbf") == (name == "marked")
            out_json, out_csv = tmp_path / f"{name}-o.json", tmp_path / f"{name}-o.csv"
            assert run(
                "evaluate", "--config", cfg, "--trial", trial, "--model", copy, "--l-max", 100.0,
                "--out-json", out_json, "--out-csv", out_csv,
            ) == 0
            payload = read_json(out_json)
            for key in ("model", "out_json", "out_csv"):
                payload["config"].pop(key)
            payloads.append((payload, out_csv.read_bytes()))
        assert payloads[0] == payloads[1]
        assert payloads[0][0]["config"]["policy"] == "uniform"


class TestSpecErrors:
    """A bad --policy, --design or --seed value ends in one error line."""

    @staticmethod
    def miscoverage(tmp_path, *flags):
        return run(
            "miscoverage", "--pop", "A", "--n", 40, "--m", 30, "--m-train", 30,
            "--method", "ipsw", "--runs", 2, "--per-run", 20,
            "--out", tmp_path / "gap.json", *flags,
        )

    @pytest.mark.parametrize(
        "flags, line",
        [
            (("--design", "uniform:0"), "k_actions must be at least 1"),
            (("--design", "uniform:-1"), "k_actions must be at least 1"),
            (("--design", "uniform:x"), "bad design 'uniform:x'; use uniform:<K> or probs:<p0,...>"),
            (("--policy", "constant:x"),
             "bad policy 'constant:x'; use constant:<a>, uniform, or table:<path>"),
        ],
        ids=["uniform:0", "uniform:-1", "uniform:x", "constant:x"],
    )
    def test_bad_spec(self, tmp_path, capsys, flags, line):
        assert self.miscoverage(tmp_path, *flags) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "gap.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--pop", "A", "--target-out", "t.csv", "--trial-out", "d.csv"),
            ("miscoverage", "--pop", "A", "--method", "ipsw", "--out", "gap.json"),
            ("evaluate", "--trial", "d.csv", "--model", "m.json",
             "--policy", "constant:1", "--l-max", 10, "--out-json", "c.json", "--out-csv", "c.csv"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_flag(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--seed", -1) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"limitcurves {argv[0]}: error: argument --seed: invalid seed value: '-1'\n")
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n")
        assert self.miscoverage(tmp_path, "--config", cfg) == 1
        assert capsys.readouterr().err == f"error: {cfg}: seed='-1' is not a valid seed\n"
        assert not (tmp_path / "gap.json").exists()


class TestExitCodes:
    def test_missing_file(self, tmp_path):
        assert run(
            "fit", "--pool", tmp_path / "missing.csv", "--out", tmp_path / "m.json"
        ) == 1

    def test_usage_error(self):
        assert run("simulate") == 2

    def test_bare_memory_error(self, tmp_path, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError()

        monkeypatch.setattr("limitcurves.fileio.read_pool_csv", exhausted)
        capsys.readouterr()
        assert run("fit", "--pool", tmp_path / "p.csv", "--out", tmp_path / "m.json") == 1
        assert capsys.readouterr() == ("", "error: out of memory\n")
        assert list(tmp_path.iterdir()) == []


class TestProcess:
    """``python -m limitcurves.cli`` in a fresh interpreter: ``main_entry``'s
    exit codes, and what an ``evaluate`` run imports, which pytest's own
    imports would hide in-process."""

    @staticmethod
    def python(*args):
        src = str(Path(limitcurves.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, *map(str, args)], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120,
        )

    def test_exit_codes(self, tmp_path, model):
        cli = ["-m", "limitcurves.cli", "evaluate"]
        assert self.python(*cli, "--help").returncode == 0
        assert self.python(*cli, "--no-such-flag").returncode == 2
        done = self.python(
            *cli, "--trial", tmp_path / "missing.csv", "--model", model, "--policy", "uniform",
            "--l-max", 100.0, "--out-json", tmp_path / "c.json", "--out-csv", tmp_path / "c.csv",
        )
        assert done.returncode == 1
        assert done.stdout == ""
        assert len(done.stderr.splitlines()) == 1
        assert done.stderr.startswith("error: ") and "missing.csv" in done.stderr

    def test_evaluate_does_not_import_masked_arrays(self, tmp_path, simulated, model):
        # numpy 1.x imports numpy.ma with numpy itself, so compare with the state before the run
        script = (
            "import sys\n"
            "from limitcurves.cli import main\n"
            "before = 'numpy.ma' in sys.modules\n"
            "code = main(sys.argv[1:])\n"
            "print(code, before, 'numpy.ma' in sys.modules)\n"
        )
        done = self.python(
            "-c", script, "evaluate", "--trial", simulated[1], "--model", model,
            "--policy", "constant:1", "--design", "uniform:2", "--l-max", 100.0,
            "--out-json", tmp_path / "c.json", "--out-csv", tmp_path / "c.csv",
        )
        code, before, after = done.stdout.split()
        assert code == "0"
        assert after == before


class TestBadInputs:
    """Empty inputs and broken model files end in one error line and exit 1."""

    @staticmethod
    def evaluate(tmp_path, trial, model, policy="constant:1"):
        return run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", policy, "--gammas", "1", "--split", "random",
            "--l-max", 100.0,
            "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        )

    @staticmethod
    def evaluate_scores(tmp_path, trial, scores):
        return run(
            "evaluate", "--trial", trial, "--scores", scores,
            "--policy", "constant:1", "--l-max", 100.0,
            "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        )

    @staticmethod
    def ipsw(tmp_path, trial, target, model):
        """The command that still reads ``--target``, for the target reader's refusals."""
        return run(
            "ipsw", "--trial", trial, "--target", target, "--model", model,
            "--policy", "constant:1", "--out", tmp_path / "i.json",
        )

    @staticmethod
    def assert_error_line(capsys, text):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and text in err
        assert "Traceback" not in err

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        return path

    def test_empty_trial_file(self, tmp_path, model, empty, capsys):
        assert self.evaluate(tmp_path, empty, model) == 1
        self.assert_error_line(capsys, "empty.csv: empty file")

    def test_empty_target_file(self, tmp_path, simulated, model, empty, capsys):
        _, trial, _ = simulated
        assert self.ipsw(tmp_path, trial, empty, model) == 1
        self.assert_error_line(capsys, "empty.csv: empty file")
        assert not (tmp_path / "i.json").exists()

    def test_empty_pool_file(self, tmp_path, empty, capsys):
        assert run("fit", "--pool", empty, "--out", tmp_path / "m.json") == 1
        self.assert_error_line(capsys, "empty.csv: empty file")

    def test_empty_policy_table(self, tmp_path, simulated, model, empty, capsys):
        _, trial, _ = simulated
        assert self.evaluate(tmp_path, trial, model, f"table:{empty}") == 1
        self.assert_error_line(capsys, "empty.csv: empty file")

    def test_empty_score_file(self, tmp_path, simulated, empty, capsys):
        _, trial, _ = simulated
        assert self.evaluate_scores(tmp_path, trial, empty) == 1
        self.assert_error_line(capsys, "empty.csv: empty file")

    def test_short_trial_row(self, tmp_path, model, capsys):
        trial = tmp_path / "ragged.csv"
        trial.write_text("x0,x1,a,l\n0.1,0.2,1,3.0\n\n0.5,1,0\n")
        assert self.evaluate(tmp_path, trial, model) == 1
        self.assert_error_line(capsys, "ragged.csv:4: expected 4 columns, got 3")

    def test_long_target_row(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        target = tmp_path / "ragged.csv"
        target.write_text("x0,x1\n0.1,0.2\n0.3,0.4,0.5\n")
        assert self.ipsw(tmp_path, trial, target, model) == 1
        self.assert_error_line(capsys, "ragged.csv:3: expected 2 columns, got 3")

    def test_short_pool_row(self, tmp_path, capsys):
        pool = tmp_path / "ragged.csv"
        pool.write_text("x0,x1,s\n0.1,0.2,1\n0.3,0.4\n")
        assert run("fit", "--pool", pool, "--out", tmp_path / "m.json") == 1
        self.assert_error_line(capsys, "ragged.csv:3: expected 3 columns, got 2")

    def test_long_policy_table_row(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        table = tmp_path / "ragged.csv"
        table.write_text("p0,p1\n0.5,0.5\n0.25,0.5,0.25\n")
        assert self.evaluate(tmp_path, trial, model, f"table:{table}") == 1
        self.assert_error_line(capsys, "ragged.csv:3: expected 2 columns, got 3")

    def test_long_score_row(self, tmp_path, simulated, capsys):
        _, trial, _ = simulated
        scores = tmp_path / "ragged.csv"
        scores.write_text("id,odds\n0,1.0\n1,1.0,2.0\n")
        assert self.evaluate_scores(tmp_path, trial, scores) == 1
        self.assert_error_line(capsys, "ragged.csv:3: expected 2 columns, got 3")

    def test_out_of_range_action_evaluate(self, tmp_path, model, capsys):
        trial = tmp_path / "big.csv"
        trial.write_text("x0,x1,a,l\n0.1,0.2,1,3.0\n0.5,0.1,99999999999999999999,1.0\n")
        assert self.evaluate(tmp_path, trial, model) == 1
        self.assert_error_line(capsys, "big.csv: parse failure: ")
        assert not (tmp_path / "o.json").exists()

    def test_out_of_range_label_fit(self, tmp_path, capsys):
        pool = tmp_path / "big.csv"
        pool.write_text("x0,s\n0.1,0\n0.2,99999999999999999999\n")
        assert run("fit", "--pool", pool, "--out", tmp_path / "m.json") == 1
        self.assert_error_line(capsys, "big.csv: parse failure: ")

    # the default warning filters, as outside pytest
    @pytest.mark.filterwarnings("default")
    def test_fractional_action_evaluate(self, tmp_path, model, capsys):
        trial = tmp_path / "frac.csv"
        trial.write_text("x0,x1,a,l\n0.1,0.2,1,3.0\n0.5,0.1,1.5,1.0\n")
        assert self.evaluate(tmp_path, trial, model) == 1
        self.assert_error_line(capsys, "frac.csv: parse failure: ")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.filterwarnings("default")
    def test_fractional_label_fit(self, tmp_path, capsys):
        pool = tmp_path / "frac.csv"
        pool.write_text("x0,s\n0.1,0\n0.2,0.5\n")
        assert run("fit", "--pool", pool, "--out", tmp_path / "m.json") == 1
        self.assert_error_line(capsys, "frac.csv: parse failure: ")

    @pytest.mark.parametrize("l_max", ["inf", "nan"])
    def test_infinite_l_max(self, tmp_path, simulated, model, capsys, l_max):
        _, trial, _ = simulated
        assert run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", "constant:1", "--l-max", l_max,
            "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        ) == 1
        self.assert_error_line(capsys, "l_max must be finite")
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "o.csv").exists()

    def test_l_max_not_above_losses(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        largest = max(float(row.rsplit(",", 1)[1]) for row in trial.read_text().splitlines()[1:])
        for l_max in (largest, largest - 1.0):
            assert run(
                "evaluate", "--trial", trial, "--model", model,
                "--policy", "constant:1", "--l-max", repr(l_max),
                "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
            ) == 1
            err = capsys.readouterr().err
            assert err.splitlines() == [f"error: trial losses must lie strictly below l_max={l_max!r}"]
            assert not (tmp_path / "o.json").exists()
            assert not (tmp_path / "o.csv").exists()

    def test_duplicate_gammas(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        assert run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", "constant:1", "--gammas", "1,1", "--l-max", 100.0,
            "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        ) == 1
        self.assert_error_line(capsys, "gammas must be distinct")
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "o.csv").exists()

    def test_curve_flags_checked_before_any_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        for flags, line in [
            (("--gammas", "1,1"), "gammas must be distinct"),
            (("--gammas", "1e200"), "gamma=1e+200 is too large: its square overflows"),
            (
                ("--alpha-grid", "0.000001:0.999999:0.000001", "--gammas", "1,2"),
                "need at most 1000000 (alpha, gamma) pairs",
            ),
        ]:
            assert run(
                "evaluate", "--trial", missing, "--model", missing,
                "--policy", "constant:1", *flags, "--l-max", 100.0,
                "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
            ) == 1
            assert capsys.readouterr().err == f"error: {line}\n"

    def test_alpha_grid_with_repeated_values(self, tmp_path, simulated, model, capsys):
        # a step below the spacing of floats near 0.5 rounds 555113 grid
        # points onto two distinct alphas
        _, trial, _ = simulated
        assert run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", "constant:1", "--alpha-grid", "0.5:0.5000000000000001:2e-22",
            "--l-max", 100.0, "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        ) == 1
        self.assert_error_line(capsys, "alpha grid must be distinct")
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "o.csv").exists()

    def test_ipsw_duplicate_alphas(self, tmp_path, simulated, model, capsys):
        target, trial, _ = simulated
        assert run(
            "ipsw", "--trial", trial, "--target", target, "--model", model,
            "--policy", "constant:1", "--alphas", "0.1,0.1", "--out", tmp_path / "i.json",
        ) == 1
        self.assert_error_line(capsys, "alphas must be distinct")
        assert not (tmp_path / "i.json").exists()

    @pytest.mark.parametrize(
        "alphas, line",
        [("", "alphas must lie strictly inside (0, 1)"), (",", "alphas must lie strictly inside (0, 1)"),
         ("0.1,1.5", "alphas must lie strictly inside (0, 1)"), ("0.1,0.1", "alphas must be distinct")],
        ids=["empty", "comma", "out-of-range", "repeated"],
    )
    def test_ipsw_alphas_checked_before_any_file(self, tmp_path, capsys, alphas, line):
        missing = tmp_path / "missing.csv"
        assert run(
            "ipsw", "--trial", missing, "--target", missing, "--model", missing,
            "--policy", "constant:1", "--alphas", alphas, "--out", tmp_path / "i.json",
        ) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    @staticmethod
    def odds_argv(tmp_path, simulated, command):
        """The ``command`` flags other than the odds source."""
        target, trial, pool = simulated
        out = tmp_path / "out"
        return {
            "evaluate": ("--trial", trial, "--policy", "constant:1", "--l-max", 100.0,
                         "--out-json", out, "--out-csv", tmp_path / "o.csv"),
            "ipsw": ("--trial", trial, "--target", target, "--policy", "constant:1", "--out", out),
            "reliability": ("--pool", pool, "--out", out),
        }[command]

    @staticmethod
    def three_covariate_model(tmp_path, model):
        payload = read_json(model)
        for key, value in (("coefficients", 0.0), ("feature_mean", 0.0), ("feature_scale", 1.0)):
            payload[key].append(value)
        path = tmp_path / "model3.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize("command", ["evaluate", "ipsw", "reliability"])
    def test_model_covariate_mismatch(self, tmp_path, simulated, model, capsys, command):
        model3 = self.three_covariate_model(tmp_path, model)
        capsys.readouterr()
        assert run(command, "--model", model3, *self.odds_argv(tmp_path, simulated, command)) == 1
        rows = "pool" if command == "reliability" else "trial"
        self.assert_only_error_line(capsys, f"{model3} expects 3 covariates, {rows} has 2")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "ipsw", "reliability"])
    def test_score_row_count_mismatch(self, tmp_path, simulated, capsys, command):
        scores = tmp_path / "s.csv"
        scores.write_text("id,odds\n0,1.0\n1,2.0\n")
        assert run(command, "--scores", scores, *self.odds_argv(tmp_path, simulated, command)) == 1
        rows = "pool has 600" if command == "reliability" else "trial has 200"
        self.assert_only_error_line(capsys, f"{scores} has 2 rows, {rows}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["evaluate", "ipsw", "reliability"])
    @pytest.mark.parametrize("value", ["2", "nan", "0.5"])
    def test_prior_correction_refused_with_model(
        self, tmp_path, simulated, model, capsys, command, value
    ):
        """No command takes the flag or the config key: odds are read as
        given, and a common odds factor cancels in the certified limits,
        which are ratios of weight sums."""
        argv = self.odds_argv(tmp_path, simulated, command)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"prior-correction={value}\n")
        # an argparse usage error
        assert run(command, "--model", model, "--prior-correction", value, *argv) == 2
        flag_line = f"limitcurves: error: unrecognized arguments: --prior-correction {value}"
        assert capsys.readouterr().err.splitlines()[-1] == flag_line
        assert run(command, "--config", cfg, "--model", model, *argv) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'prior-correction'\n"
        assert not (tmp_path / "out").exists()

    def test_reliability_bins_refused_before_allocation(
        self, tmp_path, simulated, model, capsys, monkeypatch
    ):
        def no_allocation(*args, **kwargs):
            raise AssertionError("bin edges allocated")

        monkeypatch.setattr(np, "linspace", no_allocation)
        argv = self.odds_argv(tmp_path, simulated, "reliability")
        assert run("reliability", "--model", model, "--bins", 10**9, *argv) == 1
        self.assert_only_error_line(capsys, "need at most 1000000 bins")
        assert not (tmp_path / "out").exists()

    def test_simulate_impossible_allocation(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("limitcurves.simlab.MAX_STUDY_ROWS", 10**17)  # past the refusal
        assert run(
            "simulate", "--pop", "A", "--n", 10**16,
            "--target-out", tmp_path / "t.csv", "--trial-out", tmp_path / "d.csv",
        ) == 1
        self.assert_error_line(capsys, "Unable to allocate")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize(
        "command, sizes, name",
        [
            ("simulate", ("--n", 10**9), "sample sizes"),
            ("simulate", ("--m", 10**7 + 1), "sample sizes"),
            ("simulate", ("--m-train", 10**9, "--pool-out", "p.csv"), "sample sizes"),
            ("miscoverage", ("--n", 10**9), "sample sizes"),
            ("miscoverage", ("--m-train", 10**9), "sample sizes"),
            ("miscoverage", ("--per-run", 10**9), "per_run"),
        ],
        ids=["simulate-n", "simulate-m", "simulate-m-train", "miscoverage-n", "miscoverage-m-train",
             "miscoverage-per-run"],
    )
    def test_lab_sizes_refused_before_any_draw(self, tmp_path, monkeypatch, capsys, command, sizes, name):
        """A row count above MAX_STUDY_ROWS would otherwise fill the memory
        before numpy refused it; the cap refuses it before a generator is made."""

        def no_draw(*args, **kwargs):
            raise AssertionError("rows drawn")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        monkeypatch.setattr("limitcurves.simlab._draw_population", no_draw)
        argv = {
            "simulate": ("simulate", "--pop", "A", "--target-out", "t.csv", "--trial-out", "d.csv"),
            "miscoverage": ("miscoverage", "--pop", "A", "--method", "certified", "--out", "mc.json"),
        }[command]
        assert run(*argv, *sizes) == 1
        assert capsys.readouterr().err == f"error: {name} must be at most 10000000\n"
        assert list(tmp_path.iterdir()) == []

    def test_nan_l2(self, tmp_path, simulated, capsys):
        assert run("fit", "--pool", simulated[2], "--l2", "nan", "--out", tmp_path / "m.json") == 1
        self.assert_error_line(capsys, "l2 must be finite")

    def test_missing_output_directory(self, tmp_path, simulated, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("fit", "--pool", simulated[2], "--out", "nodir/m.json") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'nodir/m.json'" in err
        assert ".tmp-" not in err

    @pytest.fixture
    def nan_table(self, tmp_path, simulated):
        m = len(simulated[1].read_text().splitlines()) - 1
        table = tmp_path / "nan.csv"
        table.write_text("p0,p1\n" + "nan,0.5\n" * m)
        return table

    def test_nan_policy_table_matched_evaluate(self, tmp_path, simulated, model, nan_table, capsys):
        _, trial, _ = simulated
        assert run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", f"table:{nan_table}", "--split", "matched", "--l-max", 100.0,
            "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        ) == 1
        self.assert_error_line(capsys, "policy probabilities must be finite")
        assert not (tmp_path / "o.json").exists()

    def test_nan_policy_table_ipsw(self, tmp_path, simulated, model, nan_table, capsys):
        target, trial, _ = simulated
        assert run(
            "ipsw", "--trial", trial, "--target", target, "--model", model,
            "--policy", f"table:{nan_table}", "--out", tmp_path / "ipsw.json",
        ) == 1
        self.assert_error_line(capsys, "policy probabilities must be finite")
        assert not (tmp_path / "ipsw.json").exists()

    def test_nan_design_probability(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        assert run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", "constant:1", "--design", "probs:nan,1", "--l-max", 100.0,
            "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        ) == 1
        self.assert_error_line(capsys, "design probabilities must be finite")

    @staticmethod
    def with_cell(tmp_path, source, row, col, value):
        """Copy of the CSV ``source`` with one data cell replaced."""
        lines = source.read_text().splitlines()
        cells = lines[row + 1].split(",")
        cells[col] = value
        lines[row + 1] = ",".join(cells)
        path = tmp_path / f"bad-{source.name}"
        path.write_text("\n".join(lines) + "\n")
        return path

    @staticmethod
    def assert_only_error_line(capsys, line):
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_nan_trial_loss_evaluate(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        bad = self.with_cell(tmp_path, trial, 3, -1, "nan")
        assert self.evaluate(tmp_path, bad, model) == 1
        self.assert_only_error_line(capsys, "trial losses must be finite")
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "o.csv").exists()

    def test_nan_trial_loss_ipsw(self, tmp_path, simulated, model, capsys):
        target, trial, _ = simulated
        bad = self.with_cell(tmp_path, trial, 3, -1, "nan")
        assert run(
            "ipsw", "--trial", bad, "--target", target, "--model", model,
            "--policy", "constant:1", "--out", tmp_path / "ipsw.json",
        ) == 1
        self.assert_only_error_line(capsys, "trial losses must be finite")
        assert not (tmp_path / "ipsw.json").exists()

    def test_infinite_target_covariate_ipsw(self, tmp_path, simulated, model, capsys):
        target, trial, _ = simulated
        bad = self.with_cell(tmp_path, target, 5, 1, "inf")
        assert self.ipsw(tmp_path, trial, bad, model) == 1
        self.assert_only_error_line(capsys, "target covariates must be finite")
        assert not (tmp_path / "i.json").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alpha-grid", "0.01:inf:0.01", "must have a finite start, stop and step"),
            ("--alpha-grid", "0.01:0.99:nan", "must have a finite start, stop and step"),
            ("--alpha-grid", "0.01:0.99:1e-15", "has more than 1000000 points"),
        ],
    )
    def test_grid_flags_refused(self, tmp_path, simulated, model, capsys, flag, value, message):
        _, trial, _ = simulated
        assert run(
            "evaluate", "--trial", trial, "--model", model,
            "--policy", "constant:1", "--l-max", 100.0, flag, value,
            "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["evaluate", "miscoverage"])
    def test_beta_points_refused(self, tmp_path, capsys, command):
        """Every curve uses the fixed BETA_POINTS grid; an old command line
        or config file that sets the grid size fails loudly."""
        missing = tmp_path / "missing.csv"
        argv = {
            "evaluate": ("--trial", missing, "--model", missing, "--policy", "constant:1", "--l-max",
                         100.0, "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv"),
            "miscoverage": ("--pop", "A", "--method", "certified", "--out", tmp_path / "o.json"),
        }[command]
        assert run(command, *argv, "--beta-points", 49) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "limitcurves: error: unrecognized arguments: --beta-points 49"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("beta-points=49\n")
        assert run(command, "--config", cfg, *argv) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'beta-points'\n"
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize("command", ["fit", "benchmark-gamma", "miscoverage"])
    def test_max_iter_refused(self, tmp_path, capsys, command):
        """The Newton fit's step cap is the constant MAX_ITER; an old command
        line or config file that sets it fails loudly."""
        missing = tmp_path / "missing.csv"
        argv = {
            "fit": ("--pool", missing, "--out", tmp_path / "o.json"),
            "benchmark-gamma": ("--pool", missing, "--out", tmp_path / "o.json"),
            "miscoverage": ("--pop", "A", "--method", "certified", "--out", tmp_path / "o.json"),
        }[command]
        assert run(command, *argv, "--max-iter", 400) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "limitcurves: error: unrecognized arguments: --max-iter 400"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max-iter=400\n")
        assert run(command, "--config", cfg, *argv) == 1
        assert capsys.readouterr().err == f"error: {cfg}: unknown config key 'max-iter'\n"
        assert not (tmp_path / "o.json").exists()

    def test_zero_feature_scale_in_model(self, tmp_path, simulated, model, capsys):
        _, trial, _ = simulated
        payload = read_json(model)
        payload["feature_scale"][0] = 0.0
        model.write_text(json.dumps(payload))
        assert self.evaluate(tmp_path, trial, model) == 1
        self.assert_error_line(capsys, "feature_scale values must be positive")
        assert not (tmp_path / "o.json").exists()


class TestNonConvergedModel:
    """A model saved as non-converged still runs, with a warning on stderr."""

    WARNING = "odds model did not converge"

    @pytest.fixture
    def unconverged(self, tmp_path, simulated):
        path = tmp_path / "model.json"
        assert run("fit", "--pool", simulated[2], "--out", path) == 0
        payload = read_json(path)
        payload["converged"] = False
        path.write_text(json.dumps(payload))
        return path

    def test_evaluate_warns(self, tmp_path, simulated, unconverged, capsys):
        _, trial, _ = simulated
        assert run(
            "evaluate", "--trial", trial, "--model", unconverged,
            "--policy", "constant:1", "--gammas", "1", "--l-max", 100.0,
            "--out-json", tmp_path / "o.json", "--out-csv", tmp_path / "o.csv",
        ) == 0
        assert capsys.readouterr().err == f"warning: {unconverged}: {self.WARNING}\n"

    def test_ipsw_warns(self, tmp_path, simulated, unconverged, capsys):
        target, trial, _ = simulated
        assert run(
            "ipsw", "--trial", trial, "--target", target, "--model", unconverged,
            "--policy", "constant:1", "--out", tmp_path / "ipsw.json",
        ) == 0
        assert capsys.readouterr().err == f"warning: {unconverged}: {self.WARNING}\n"

    def test_converged_model_is_silent(self, tmp_path, simulated, capsys):
        target, trial, pool = simulated
        model = tmp_path / "model.json"
        assert run("fit", "--pool", pool, "--out", model) == 0
        assert run(
            "ipsw", "--trial", trial, "--target", target, "--model", model,
            "--policy", "constant:1", "--out", tmp_path / "ipsw.json",
        ) == 0
        assert self.WARNING not in capsys.readouterr().err


class TestTablePolicy:
    def test_evaluate_with_row_aligned_policy(self, tmp_path, simulated):
        _, trial, _ = simulated
        m = len(trial.read_text().splitlines()) - 1
        table = tmp_path / "policy.csv"
        table.write_text("p0,p1\n" + "\n".join("0.25,0.75" for _ in range(m)) + "\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("id,odds\n" + "\n".join(f"{i},1.0" for i in range(m)) + "\n")
        assert run(
            "evaluate", "--trial", trial, "--scores", scores,
            "--policy", f"table:{table}", "--gammas", "1", "--split", "random",
            "--l-max", 100.0,
            "--out-json", tmp_path / "t.json", "--out-csv", tmp_path / "t.csv",
        ) == 0

    def test_wrong_table_length_fails(self, tmp_path, simulated):
        _, trial, _ = simulated
        m = len(trial.read_text().splitlines()) - 1
        table = tmp_path / "policy.csv"
        table.write_text("p0,p1\n0.5,0.5\n")
        scores = tmp_path / "scores.csv"
        scores.write_text("id,odds\n" + "\n".join(f"{i},1.0" for i in range(m)) + "\n")
        assert run(
            "evaluate", "--trial", trial, "--scores", scores,
            "--policy", f"table:{table}", "--gammas", "1", "--split", "random",
            "--l-max", 100.0,
            "--out-json", tmp_path / "t.json", "--out-csv", tmp_path / "t.csv",
        ) == 1


class TestOverflow:
    """A finite input so large that an intermediate overflows ends in one
    error line and exit 1, with no output file."""

    @pytest.fixture
    def big_inputs(self, tmp_path, simulated):
        """A pool with one covariate at 1e308, and a score file with odds
        1e308 on two treated trial rows, whose sum overflows."""
        _, trial, pool = simulated
        lines = pool.read_text().splitlines()
        lines[1] = "1e308," + lines[1].split(",", 1)[1]
        big_pool = tmp_path / "p_big.csv"
        big_pool.write_text("\n".join(lines) + "\n")
        actions = [row.split(",")[-2] for row in trial.read_text().splitlines()[1:]]
        treated = [i for i, a in enumerate(actions) if a == "1"][:2]
        scores = tmp_path / "s_big.csv"
        scores.write_text("id,odds\n" + "".join(
            f"{i},{'1e308' if i in treated else '1.5'}\n" for i in range(len(actions))
        ))
        return big_pool, scores

    # the default warning filters, as outside pytest
    @pytest.mark.filterwarnings("default")
    @pytest.mark.parametrize("command", ["benchmark-gamma", "fit", "ipsw", "evaluate", "miscoverage"])
    def test_overflow_is_one_error_line(
        self, tmp_path, simulated, big_inputs, monkeypatch, capsys, command
    ):
        # miscoverage runs its studies in this process and a forked worker
        monkeypatch.setattr("limitcurves.simlab._usable_cpus", lambda: 2)
        target, trial, _ = simulated
        big_pool, scores = big_inputs
        out = tmp_path / "out.json"
        study = ["--trial", trial, "--scores", scores, "--policy", "constant:1"]
        argv = {
            "benchmark-gamma": ["--pool", big_pool],
            "fit": ["--pool", big_pool],
            "ipsw": [*study, "--target", target],
            "evaluate": [*study, "--split", "matched", "--gammas", "1,2", "--l-max", 1000.0,
                         "--out-csv", tmp_path / "out.csv"],
            "miscoverage": ["--pop", "B", "--n", 200, "--m", 100, "--method", "certified",
                            "--gamma", 1e154, "--policy", "uniform", "--runs", 4, "--per-run", 20],
        }[command]
        out_flag = "--out-json" if command == "evaluate" else "--out"
        capsys.readouterr()
        assert run(command, *argv, out_flag, out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: input values too large: overflow encountered in ")
        assert list(tmp_path.glob("out.*")) == []

    @pytest.mark.filterwarnings("default")
    def test_gamma_whose_square_overflows(self, tmp_path, simulated, model, capsys):
        """A gamma whose square overflows is refused as a setting; one whose
        square is finite but overflows times a level's odds, as an overflow."""
        _, trial, _ = simulated
        for gamma, line in [
            ("1e200", "error: gamma=1e+200 is too large: its square overflows"),
            ("1e154", "error: input values too large: overflow encountered in "),
        ]:
            assert run(
                "evaluate", "--trial", trial, "--model", model, "--policy", "constant:1",
                "--gammas", f"1,{gamma}", "--l-max", 100.0,
                "--out-json", tmp_path / "out.json", "--out-csv", tmp_path / "out.csv",
            ) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1, err
            assert err[0].startswith(line)
            assert list(tmp_path.glob("out.*")) == []


class TestPayloadValues:
    """Every payload reaches ``write_json`` as plain Python values, so no
    conversion pass is needed before ``json`` writes it."""

    PLAIN = (str, int, float, bool, type(None))

    def leaves(self, value):
        if isinstance(value, dict):
            assert all(type(k) in self.PLAIN for k in value), value
            for v in value.values():
                yield from self.leaves(v)
        elif isinstance(value, list):
            for v in value:
                yield from self.leaves(v)
        else:
            yield value

    def test_payload_leaves_are_plain(self, tmp_path, simulated, model, monkeypatch):
        target, trial, pool = simulated
        payloads = []
        write_json = fileio.write_json
        monkeypatch.setattr(
            fileio, "write_json", lambda path, p: (payloads.append(p), write_json(path, p))
        )
        study = ["--trial", trial, "--model", model, "--policy", "uniform"]
        runs = [
            ["evaluate", *study, "--gammas", "1,2", "--l-max", 1000.0,
             "--out-json", tmp_path / "e.json", "--out-csv", tmp_path / "e.csv"],
            ["ipsw", *study, "--target", target, "--normalized", "--out", tmp_path / "i.json"],
            ["miscoverage", "--pop", "B", "--n", 80, "--m", 50, "--m-train", 50,
             "--method", "certified", "--runs", 2, "--per-run", 20, "--out", tmp_path / "m.json"],
            ["benchmark-gamma", "--pool", pool, "--out", tmp_path / "g.json"],
        ]
        for argv in runs:
            assert run(*argv) == 0
        kinds = ["limit-curves", "ipsw-baseline", "miscoverage", "gamma-benchmark"]
        assert [p["kind"] for p in payloads] == kinds
        for payload in payloads:
            bad = [v for v in self.leaves(payload) if type(v) not in self.PLAIN]
            assert bad == [], (payload["kind"], bad)
