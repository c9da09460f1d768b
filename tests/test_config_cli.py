"""Config parsing, presets, CSV output, and CLI exit codes."""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eucbv.cli import _write_csv, cmd_run, cmd_verify_lemmas, main
from eucbv.config import (
    ConfigParseError,
    ConfigValidationError,
    load_config,
    preset_spec,
)
from eucbv.policies import make_batch_policy

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def _src_env() -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH, so a
    child interpreter imports the package under test, installed or not."""
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _write(tmp_path, text, name="expt.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


MINIMAL = """\
[experiment]
name = tiny
horizon = 50
runs = 2
master_seed = 7

[environment]
kind = bernoulli
means = 0.2*2, 0.8

[policy.ucb1]
"""


class TestPresets:
    def test_expt1_contents(self):
        spec = preset_spec("expt1")
        env = spec.env
        assert (env.kind, env.n_arms) == ("bernoulli", 20)
        assert env.means[0] == 0.07 and env.means[19] == 0.1
        assert env.variances[0] == 0.07 * (1.0 - 0.07)
        assert spec.horizon == 60000
        assert spec.runs == 100
        assert "eucbv" in dict(spec.policies)

    def test_expt2_contents(self):
        spec = preset_spec("expt2")
        assert spec.env.n_arms == 100
        assert spec.horizon == 300000
        assert spec.env.kind == "gaussian"
        env = spec.environment()
        assert env is spec.env  # built once, when the spec was
        assert env.optimal_index == 99
        assert dict(spec.policies)["median-elim"] == {"epsilon": 0.1, "delta": 0.1}

    def test_expt3_randomized_variances_are_frozen(self):
        a = preset_spec("expt3")
        b = preset_spec("expt3")
        assert a == b
        middle = a.env.variances[10:99].tolist()
        assert all(0.2 <= v <= 0.24 for v in middle)
        assert len(set(middle)) > 50  # actually randomized

    def test_expt4_variance_groups(self):
        spec = preset_spec("expt4")
        variances = spec.env.variances.tolist()
        assert all(0.0 <= v <= 0.05 for v in variances[:49])
        assert all(0.19 <= v <= 0.24 for v in variances[49:99])
        assert variances[99] == 0.25

    def test_env_seed_changes_draws(self):
        a = preset_spec("expt3", env_seed=1)
        b = preset_spec("expt3", env_seed=2)
        assert a.env != b.env
        assert a.env.means.tolist() == b.env.means.tolist()

    def test_overrides(self):
        spec = preset_spec("expt1", runs=3, horizon=500, master_seed=42)
        assert (spec.runs, spec.horizon, spec.master_seed) == (3, 500, 42)

    def test_unknown_preset(self):
        with pytest.raises(ConfigValidationError):
            preset_spec("expt9")


class TestLoadConfig:
    def test_minimal_roundtrip(self, tmp_path):
        spec = load_config(_write(tmp_path, MINIMAL))
        assert spec.name == "tiny"
        assert spec.env.kind == "bernoulli"
        assert spec.env.means.tolist() == [0.2, 0.2, 0.8]
        assert spec.policies == (("ucb1", {}),)

    def test_repetition_syntax(self, tmp_path):
        text = MINIMAL.replace("0.2*2, 0.8", "0.1*3,0.9")
        spec = load_config(_write(tmp_path, text))
        assert spec.env.means.tolist() == [0.1, 0.1, 0.1, 0.9]

    def test_gaussian_requires_variances(self, tmp_path):
        text = MINIMAL.replace("kind = bernoulli", "kind = gaussian")
        with pytest.raises(ConfigValidationError, match=r"^\[environment\].*variances"):
            load_config(_write(tmp_path, text))

    def test_unknown_experiment_key(self, tmp_path):
        text = MINIMAL.replace("runs = 2", "runs = 2\nrepetitions = 9")
        with pytest.raises(ConfigValidationError, match="repetitions"):
            load_config(_write(tmp_path, text))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigValidationError, match="plotting"):
            load_config(_write(tmp_path, MINIMAL + "\n[plotting]\nstyle = x\n"))

    def test_unknown_policy_param(self, tmp_path):
        text = MINIMAL.replace("[policy.ucb1]", "[policy.ucb1]\nalpha = 2")
        with pytest.raises(ConfigValidationError, match="alpha"):
            load_config(_write(tmp_path, text))

    def test_zero_runs_rejected(self, tmp_path):
        text = MINIMAL.replace("runs = 2", "runs = 0")
        with pytest.raises(ConfigValidationError, match="runs"):
            load_config(_write(tmp_path, text))

    def test_parse_error_carries_line(self, tmp_path):
        bad = "[experiment\nname = broken\n"
        with pytest.raises(ConfigParseError, match="line"):
            load_config(_write(tmp_path, bad))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            load_config(str(tmp_path / "absent.ini"))

    def test_preset_reference_with_policy_override(self, tmp_path):
        text = """\
[experiment]
name = mini1
horizon = 300
runs = 2

[environment]
preset = expt1

[policy.eucbv]
rho = 0.5

[policy.moss]
"""
        spec = load_config(_write(tmp_path, text))
        assert spec.name == "mini1"
        assert spec.env.n_arms == 20
        assert spec.horizon == 300
        assert [p for p, _ in spec.policies] == ["eucbv", "moss"]

    def test_unknown_policy_id(self, tmp_path):
        text = MINIMAL.replace("[policy.ucb1]", "[policy.ucb99]")
        with pytest.raises(ConfigValidationError, match="ucb99"):
            load_config(_write(tmp_path, text))

    def test_preset_config_builds_each_policy_once(self, tmp_path, monkeypatch):
        built = []

        def counting(policy_id, *args, **kwargs):
            built.append(policy_id)
            return make_batch_policy(policy_id, *args, **kwargs)

        monkeypatch.setattr("eucbv.config.make_batch_policy", counting)
        head = "[experiment]\nhorizon = 300\nruns = 2\n\n[environment]\npreset = expt1\n"
        spec = load_config(_write(tmp_path, head + "\n[policy.eucbv]\n[policy.moss]\n"))
        assert built == ["eucbv", "moss"] == [p for p, _ in spec.policies]
        # without [policy.*] sections the preset's roster runs
        built.clear()
        spec = load_config(_write(tmp_path, head, "roster.ini"))
        assert built == [p for p, _ in spec.policies] == [
            "eucbv", "ucb1", "ucbv", "moss", "ocucb", "klucb-plus", "ts-beta", "dmed"]
        assert spec.name == "expt1" and (spec.runs, spec.horizon) == (2, 300)


class TestCmdRun:
    def test_csv_schema_and_determinism(self, tmp_path):
        spec = preset_spec("expt1", runs=3, horizon=400, checkpoints=10)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        # restrict to two cheap policies for speed
        from dataclasses import replace

        spec = replace(spec, policies=(("ucb1", {}), ("moss", {})))
        paths1 = cmd_run(spec, out1)
        paths2 = cmd_run(spec, out2)
        curves1 = paths1[0].read_bytes()
        assert curves1 == paths2[0].read_bytes()
        assert paths1[1].read_bytes() == paths2[1].read_bytes()
        lines = curves1.decode().splitlines()
        assert lines[0] == "policy,run_count,checkpoint_t,mean_regret,stderr_regret"
        body = [line.split(",") for line in lines[1:]]
        # rows ordered by policy id then checkpoint
        assert body == sorted(body, key=lambda r: (r[0], int(r[2])))
        assert {r[0] for r in body} == {"ucb1", "moss"}
        assert all(r[1] == "3" for r in body)
        summary = paths1[1].read_text().splitlines()
        assert summary[0] == "policy,final_mean_regret,final_stderr"
        finals = [float(line.split(",")[1]) for line in summary[1:]]
        assert finals == sorted(finals)

    def test_csv_write_is_atomic(self, tmp_path, monkeypatch):
        def rows(fail):
            yield ("a", "1")
            if fail:
                raise RuntimeError("interrupted")

        target = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            _write_csv(target, "x,y", rows(fail=True))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []
        _write_csv(target, "x,y", rows(fail=False))
        with pytest.raises(RuntimeError):
            _write_csv(target, "x,y", rows(fail=True))
        # an interrupted rewrite keeps the previous complete file
        assert target.read_text() == "x,y\na,1\n"
        assert list(tmp_path.iterdir()) == [target]

        # the lemma report, interrupted before it is in place
        def interrupted(src, dst):
            raise RuntimeError("interrupted")

        out = tmp_path / "lemmas"
        report = out / "lemma_report.txt"
        with monkeypatch.context() as m:
            m.setattr(os, "replace", interrupted)
            with pytest.raises(RuntimeError):
                cmd_verify_lemmas("small", None, 0, out)
        assert list(out.iterdir()) == []
        cmd_verify_lemmas("small", None, 0, out)
        complete = report.read_text()
        with monkeypatch.context() as m:
            m.setattr(os, "replace", interrupted)
            with pytest.raises(RuntimeError):
                cmd_verify_lemmas("small", None, 0, out)
        assert report.read_text() == complete
        assert list(out.iterdir()) == [report]

    def test_oracle_policy_zero_rows(self, tmp_path):
        # a two-arm environment where both arms are optimal: regret is 0
        spec = load_config(_write(tmp_path, MINIMAL.replace("0.2*2, 0.8", "0.5, 0.5")))
        paths = cmd_run(spec, tmp_path / "out")
        for line in paths[0].read_text().splitlines()[1:]:
            assert float(line.split(",")[3]) == 0.0


class TestCli:
    def test_run_and_thread_equivalence(self, tmp_path):
        # expt3 sends Bayes-UCB and TS-Gauss chunks through the worker pool
        for preset in ("expt1", "expt3"):
            args = ["run", "--preset", preset, "--runs", "4", "--horizon", "300",
                    "--checkpoints", "5"]
            assert main(args + ["--out", str(tmp_path / "t1"), "--threads", "1"]) == 0
            assert main(args + ["--out", str(tmp_path / "t2"), "--threads", "2"]) == 0
            for name in (f"{preset}_curves.csv", f"{preset}_summary.csv"):
                assert (tmp_path / "t1" / name).read_bytes() == \
                    (tmp_path / "t2" / name).read_bytes()

    def test_validation_exit_code(self, tmp_path, capsys):
        assert main(["run", "--preset", "expt1", "--runs", "0",
                     "--out", str(tmp_path)]) == 3
        # bad parameters of a later policy fail before the first one runs
        bad = (
            MINIMAL + "[policy.eucbv]\nrho = nan\n",
            MINIMAL + "[policy.eucbv]\npsi = inf\n",
            MINIMAL + "[policy.ocucb]\nalpha = inf\n",
            MINIMAL + "[policy.eucbv]\nrho = -1\n",
            MINIMAL.replace("horizon = 50", "horizon = 3") + "[policy.eucbv]\n",
        )
        # an experiment name must be one plain file-name component: it
        # names the CSVs inside --out
        names = ("", "../escaped", "sub/x", f"sub{os.sep}x", ".", "..", "nul\0byte")
        # ... short enough that ".<name>_summary.csv.<pid>.tmp" fits 255
        # bytes: at most 230 bytes in UTF-8
        names += ("a" * 231, "a" * 300, "\u00e9" * 116)
        bad += tuple(MINIMAL.replace("name = tiny", f"name = {name}") for name in names)
        for i, text in enumerate(bad):
            out = tmp_path / f"out{i}"
            path = _write(tmp_path, text, f"bad{i}.ini")
            assert main(["run", "--config", path, "--out", str(out)]) == 3, text
            assert not out.exists()
            assert "] ucb1:" not in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(f"bad{i}.ini" for i in range(len(bad)))

    def test_name_at_the_byte_cap_runs(self, tmp_path):
        # 115 two-byte characters: 230 bytes in UTF-8, the longest name
        # whose temporary summary file name still fits 255 bytes
        name = "\u00e9" * 115
        path = _write(tmp_path, MINIMAL.replace("name = tiny", f"name = {name}"))
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == \
            sorted(f"{name}_{kind}.csv" for kind in ("curves", "summary"))

    def test_non_finite_environment_exit_code(self, tmp_path):
        text = MINIMAL.replace("kind = bernoulli", "kind = gaussian").replace(
            "means = 0.2*2, 0.8", "means = nan, 0.1\nvariances = 0.25, inf")
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path, text), "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("environment", [
        "kind = poisson\nmeans = 0.2, 0.8",
        "means = 0.2, 0.8",
        "kind = bernoulli\nmeans = 0.2, 0.8\nvariances = 0.16, 0.16",
        "kind = gaussian\nmeans = 0.2, 0.8\nvariances = 0.25",
        "kind = gaussian\nmeans = 0.2, 0.8\nvariances = 0.25, -0.25",
        "kind = bernoulli\nmeans = 0.2, 1.5",
        "kind = bernoulli\nmeans = 0.2",
    ], ids=["unknown-kind", "missing-kind", "bernoulli-variances", "length-mismatch",
            "negative-variance", "bernoulli-range", "one-arm"])
    def test_environment_errors_exit_3(self, tmp_path, capsys, environment):
        text = MINIMAL.replace("kind = bernoulli\nmeans = 0.2*2, 0.8", environment)
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path, text), "--out", str(out)]) == 3
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: [environment] ")

    @pytest.mark.parametrize("means,horizon,policy", [
        ("1e308, -1e308", 20, "ucb1"),          # the gap itself overflows
        ("1e307, 0", 200, "median-elim"),       # T * gap overflows
        ("1e151, 0", 1000, "ucb1"),             # (T * gap)^2 is finite, 3 times it not
    ], ids=["gap", "horizon-times-gap", "sum-of-squares"])
    def test_regret_overflow_exits_3(self, tmp_path, capsys, means, horizon, policy):
        # each mean is finite, but a regret or a stderr's sum of squares
        # need not be; the first two configs used to write inf and nan
        text = MINIMAL.replace("kind = bernoulli", "kind = gaussian").replace(
            "means = 0.2*2, 0.8", f"means = {means}\nvariances = 1, 1").replace(
            "horizon = 50", f"horizon = {horizon}").replace(
            "runs = 2", "runs = 3").replace("[policy.ucb1]", f"[policy.{policy}]")
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path, text), "--out", str(out)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_config_overrides_are_validated(self, tmp_path):
        path = _write(tmp_path, MINIMAL)
        for flag, value in (("--checkpoints", "0"), ("--runs", "0"), ("--horizon", "2")):
            out = tmp_path / f"out{flag}"
            assert main(["run", "--config", path, flag, value, "--out", str(out)]) == 3
            assert not out.exists()

    def test_env_seed_overrides_preset_config(self, tmp_path):
        text = """\
[experiment]
name = mini3
horizon = 600
runs = 2
checkpoints = 3

[environment]
preset = expt3

[policy.ucbv]
"""
        # by T=600 the drawn variances change which arms ucbv pulls
        path = _write(tmp_path, text)
        assert load_config(path, env_seed=1).env == preset_spec("expt3", env_seed=1).env
        summaries = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            assert main(["run", "--config", path, "--env-seed", seed, "--out", str(out)]) == 0
            summaries.append((out / "mini3_summary.csv").read_bytes())
        assert summaries[0] != summaries[1]

    def test_preset_config_roster_replaces_preset_roster(self, tmp_path):
        # T = K = 20 is too small for EUCBV, which this roster does not run
        text = """\
[experiment]
name = own
horizon = 20
runs = 2
checkpoints = 3

[environment]
preset = expt1

[policy.ucb1]
"""
        out = tmp_path / "out"
        assert main(["run", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
        summary = (out / "own_summary.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in summary[1:]] == ["ucb1"]

    def test_parse_exit_code(self, tmp_path):
        bad = _write(tmp_path, "[experiment\n")
        assert main(["run", "--config", bad, "--out", str(tmp_path)]) == 2

    def test_usage_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])  # missing --config/--preset
        assert exc.value.code == 2

    def test_bounds_command(self, tmp_path, capsys):
        assert main(["bounds", "--K", "20", "--T", "60000", "--delta", "0.03",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "eucbv" in out and "ocucb" in out
        table = (tmp_path / "bounds_table1.csv").read_text().splitlines()
        assert table[0] == "algorithm,gap_dependent,gap_independent"
        assert len(table) == 7

    def test_bounds_missing_arguments_are_usage_errors(self, tmp_path):
        assert main(["bounds", "--K", "20", "--T", "100"]) == 2
        assert main(["bounds", "--T", "100", "--delta", "0.1"]) == 2
        # a preset fixes K, T, the gaps and the variances
        for extra in (["--T", "5"], ["--T", "5", "--K", "3", "--delta", "0.2"],
                      ["--K", "3"], ["--delta", "0.2"], ["--sigma-sq", "nan"]):
            out = tmp_path / "_".join(extra)
            assert main(["bounds", "--preset", "expt1", *extra, "--out", str(out)]) == 2
            assert not out.exists()

    def test_bounds_invalid_regime_is_validation_error(self):
        assert main(["bounds", "--K", "20", "--T", "100", "--delta", "-0.5"]) == 3

    @pytest.mark.parametrize("bad", [
        ["--K", "20", "--T", "0", "--delta", "0.1"],
        ["--K", "20", "--T", "100", "--delta", "inf"],
        ["--K", "20", "--T", "100", "--delta", "0.1", "--sigma-sq", "nan"],
        ["--K", "20", "--T", "100", "--delta", "0.1", "--sigma-sq", "-1"],
        ["--K", "20", "--T", "100", "--delta", "0.1", "--sigma-sq", "inf"],
        ["--K", "1", "--T", "100", "--delta", "0.1"],
        # finite inputs whose bounds are not: gap**2 overflows, gap**2
        # underflows to a divisor of 0, and inf * 0 gives nan
        ["--K", "2", "--T", "100", "--delta", "1e200"],
        ["--K", "2", "--T", "100", "--delta", "1e-200"],
        ["--K", "2", "--T", "2", "--delta", "0.5", "--sigma-sq", "1e308"],
    ], ids=["T-zero", "delta-inf", "sigma-sq-nan", "sigma-sq-negative", "sigma-sq-inf",
            "one-arm", "gap-squared-overflows", "gap-squared-underflows", "nan-bound"])
    def test_bounds_invalid_input_is_validation_error(self, tmp_path, capsys, bad):
        assert main(["bounds", *bad, "--out", str(tmp_path)]) == 3
        assert not (tmp_path / "bounds_table1.csv").exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bounds_preset_mode(self, capsys):
        assert main(["bounds", "--preset", "expt1"]) == 0
        assert "eucbv" in capsys.readouterr().out

    def test_verify_lemmas_small(self, tmp_path, capsys):
        assert main(["verify-lemmas", "--grid", "small",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "lemma1" in out and "0 violations" in out
        assert "lemma6" in out
        assert (tmp_path / "lemma_report.txt").exists()

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_verify_lemmas_rejects_tail_samples_below_one(self, tmp_path, capsys, samples):
        assert main(["verify-lemmas", "--tail-samples", samples,
                     "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not (tmp_path / "lemma_report.txt").exists()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eucbv", "bounds", "--K", "4", "--T", "1000",
             "--delta", "0.2"],
            capture_output=True, text=True, env=_src_env(),
        )
        assert proc.returncode == 0
        assert "gap_dependent" in proc.stdout

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_guarantee_warning_printed_once(self, tmp_path, threads):
        # 100 runs on 2 threads make two chunks, built in two workers; the
        # warning shown while the spec is validated is the only one.
        config = _write(tmp_path, "[experiment]\nhorizon = 100\nruns = 100\n"
                        "checkpoints = 3\n\n[environment]\npreset = expt1\n\n"
                        "[policy.eucbv]\n")
        env = {k: v for k, v in _src_env().items() if k != "PYTHONWARNINGS"}
        proc = subprocess.run(
            [sys.executable, "-m", "eucbv", "run", "--config", config,
             "--threads", threads, "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.count("UserWarning") == 1, proc.stderr
        assert "the regret guarantee does not apply" in proc.stderr

    def test_bad_threads_rejected_before_the_spec_warns(self, tmp_path):
        # expt1's EUCBV at T=100 would warn while its spec is built
        env = {k: v for k, v in _src_env().items() if k != "PYTHONWARNINGS"}
        proc = subprocess.run(
            [sys.executable, "-m", "eucbv", "run", "--preset", "expt1", "--horizon", "100",
             "--threads", "0", "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: --threads must be >= 1\n"
        assert not (tmp_path / "out").exists()


def _fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports the package under test;
    its asserts must hold."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_src_env())
    assert proc.returncode == 0, proc.stderr


class TestScipyImport:
    """scipy.special is loaded only where a beta-prior Bayes-UCB is built or
    scored."""

    def test_rosters_without_bayes_ucb_never_load_scipy(self, tmp_path):
        # expt3's preset roster has Bayes-UCB; this config's own roster has not
        moss_only = _write(tmp_path, "[experiment]\nhorizon = 200\nruns = 2\n"
                           "checkpoints = 3\n\n[environment]\npreset = expt3\n\n"
                           "[policy.moss]\n")
        _fresh(f"""
import sys
from eucbv.cli import main
assert "scipy.special" not in sys.modules
assert main(["run", "--preset", "expt1", "--runs", "2", "--horizon", "60",
             "--checkpoints", "3", "--out", {str(tmp_path / "run")!r}]) == 0
assert "scipy.special" not in sys.modules
assert main(["run", "--config", {moss_only!r}, "--out", {str(tmp_path / "moss")!r}]) == 0
assert "scipy.special" not in sys.modules
assert main(["bounds", "--K", "4", "--T", "1000", "--delta", "0.2"]) == 0
assert main(["bounds", "--preset", "expt1"]) == 0
assert main(["verify-lemmas", "--grid", "small"]) == 0
assert "scipy.special" not in sys.modules
""")

    @pytest.mark.parametrize("preset", ["expt2", "expt3"])
    def test_gauss_prior_bayes_ucb_presets_never_load_scipy(self, tmp_path, preset):
        # both rosters have Bayes-UCB with the Gaussian prior, scored by the
        # in-repo ndtri
        _fresh(f"""
import sys
from eucbv.cli import main
from eucbv.config import preset_spec
roster = dict(preset_spec({preset!r}, runs=2, horizon=200).policies)
assert roster["bayes-ucb"] == {{"prior": "gauss"}}
assert main(["run", "--preset", {preset!r}, "--runs", "2", "--horizon", "200",
             "--checkpoints", "3", "--out", {str(tmp_path)!r}]) == 0
assert "scipy.special" not in sys.modules
""")

    def test_bounds_preset_builds_no_policy(self):
        # expt3's roster has Bayes-UCB, but its bounds need only arms and T
        _fresh("""
import sys
import eucbv.config
from eucbv.cli import main

def no_policy(*args, **kwargs):
    raise AssertionError("a policy was built")

eucbv.config.make_batch_policy = no_policy
assert main(["bounds", "--preset", "expt3"]) == 0
assert "scipy.special" not in sys.modules
""")

    def test_bayes_ucb_roster_loads_scipy_before_any_pool(self, tmp_path):
        beta = _write(tmp_path, "[experiment]\nhorizon = 200\nruns = 2\n"
                      "checkpoints = 3\n\n[environment]\npreset = expt3\n\n"
                      "[policy.bayes-ucb]\nprior = beta\n")
        _fresh(f"""
import sys
import eucbv.simulator
from eucbv.config import load_config

def no_pool(*args, **kwargs):
    raise AssertionError("a pool was created")

eucbv.simulator.ProcessPoolExecutor = no_pool
assert "scipy.special" not in sys.modules
spec = load_config({beta!r})
assert dict(spec.policies) == {{"bayes-ucb": {{"prior": "beta"}}}}
assert "scipy.special" in sys.modules
""")

    def test_index_loads_scipy_without_a_policy(self):
        _fresh("""
import math
import sys
from eucbv.policies import bayes_ucb_index
assert "scipy.special" not in sys.modules
bayes_ucb_index(3.0, 5.0, 10, 100, "gauss")
assert "scipy.special" not in sys.modules
got = float(bayes_ucb_index(3.0, 5.0, 10, 100))
from scipy import stats
level = 1.0 - 1.0 / (10 * math.log(100))
assert math.isclose(got, stats.beta(4.0, 3.0).ppf(level), rel_tol=1e-9), got
""")

    def test_beta_prior_without_scipy_exits_before_any_policy_runs(self, tmp_path):
        # scipy is the optional ``beta`` extra; with it hidden from the import
        # system, validation refuses the roster with one error line
        beta = _write(tmp_path, "[experiment]\nname = beta\nhorizon = 200\nruns = 2\n"
                      "checkpoints = 3\n\n[environment]\npreset = expt1\n\n"
                      "[policy.ucb1]\n\n[policy.bayes-ucb]\nprior = beta\n")
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-c", f"""
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)

sys.meta_path.insert(0, NoScipy())
from eucbv.cli import main
sys.exit(main(["run", "--config", {beta!r}, "--out", {str(out)!r}]))
"""], capture_output=True, text=True, env=_src_env())
        assert proc.returncode == 3, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert "scipy" in lines[0] and "eucbv[beta]" in lines[0]
        assert not out.exists()


class TestSetupProbe:
    """The benchmark's set-up probe (perfbench/setup_probe.py, run as the
    benchmark runs it) builds each workload's spec and environment."""

    @pytest.mark.parametrize("workload", [
        "expt1-bern-k20-par2", "expt3-gauss-k100-serial", "elim-gauss-k20-fullcurve",
    ])
    def test_probe_prints_one_json_line(self, tmp_path, monkeypatch, workload):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        work = importlib.import_module("workloads").WORKLOADS[workload]
        work.write_inputs(tmp_path)
        proc = subprocess.run(
            [sys.executable, str(PERFBENCH / "setup_probe.py"), str(SRC),
             *work.probe_args(1, tmp_path)],
            capture_output=True, text=True, cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1, proc.stdout
        record = json.loads(lines[0])
        assert record["import_s"] >= 0.0 and record["config_s"] >= 0.0


class TestTracingHooks:
    """Every library binding the benchmark's tracer (perfbench/tracing.py)
    hooks today still resolves, so a rename fails here instead of silently
    blanking a benchmark metric."""

    RESOLVING = (
        "eucbv.cli._write_csv",
        "eucbv.policies.kl.klucb_index",
        "eucbv.rng.StreamBatch.beta_block",
        "eucbv.rng.StreamBatch.gamma_block",
        "eucbv.rng.StreamBatch.normal_block",
        "eucbv.rng.StreamBatch.uniform_block",
        "eucbv.rng.StreamBatch.uniform_lanes",
        "eucbv.simulator.ProcessPoolExecutor",
        "eucbv.simulator._aggregate",
        "eucbv.simulator._simulate_chunk",
        "eucbv.simulator.make_batch_policy",
        "eucbv.simulator.run_batch",
        "eucbv.simulator.sample_rewards_batch",
        "eucbv.stats.PullStats.means",
        "eucbv.stats.PullStats.record",
        "eucbv.stats.PullStats.variances",
    )

    def test_hooks_resolve(self, tmp_path):
        _fresh(f"""
import sys
sys.path.insert(0, {str(PERFBENCH)!r})
import tracing
hooks = tracing.install(tracing.Tracer({str(tmp_path)!r}))
absent = [key for key in {self.RESOLVING!r} if hooks.get(key) != "present"]
assert not absent, absent
""")
