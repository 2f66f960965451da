import json
import os
import subprocess
import sys
import time

import pytest

from ldp_expand import cli
from ldp_expand.errors import ConfigError
from ldp_expand.model import DiscreteChainSpec, TorusDiffusionSpec


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


BASE = {
    "model": {"builtin": "gaussian_baseline", "grid_n": 64},
    "a_grid": [0.5, 1.0, 2.0],
    "theta_grid": [0.0, 0.5, 1.0],
    "t_grid": [16.0, 32.0, 64.0, 128.0, 181.0, 256.0],
    "simulate": {"a": 1.0, "t": 2.0, "dt": 0.01, "n_paths": 2000},
}


def test_minimal_config_fills_documented_defaults(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, {"model": {"builtin": "gaussian_baseline"}}))
    assert cfg.grid_n == 256
    assert cfg.theta_max == 8.0
    assert cfg.tol == 1e-6


def test_negative_grid_n_names_key(tmp_path):
    with pytest.raises(ConfigError, match="grid_n"):
        cli.parse_config(write_config(tmp_path, {"model": {"builtin": "gaussian_baseline"},
                                                 "grid_n": -4}))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="grdi_n"):
        cli.parse_config(write_config(tmp_path, {"model": {"builtin": "gaussian_baseline"},
                                                 "grdi_n": 64}))
    with pytest.raises(ConfigError, match="simulate"):
        cli.parse_config(write_config(tmp_path, {"model": {"builtin": "gaussian_baseline"},
                                                 "simulate": {"paths": 7}}))


def test_inline_torus_model_parses(tmp_path):
    payload = {"model": {"kind": "torus_diffusion", "grid_n": 64,
                         "fields": {"V": [1.0], "V0": {"type": "zero"}},
                         "observable": {"b": {"type": "harmonic", "kind": "cos", "k": 1},
                                        "sigma": 1.0},
                         "eval_frame": {"x0": 0}}}
    cfg = cli.parse_config(write_config(tmp_path, payload))
    assert isinstance(cfg.spec, TorusDiffusionSpec)
    assert cfg.grid_n == 64


def test_inline_chain_model_parses(tmp_path):
    payload = {"model": {"kind": "discrete_chain",
                         "transition": [[0.5, 0.5], [0.5, 0.5]],
                         "increment_mean": [1.0, -1.0],
                         "increment_var": [0.0, 0.0]}}
    cfg = cli.parse_config(write_config(tmp_path, payload))
    assert isinstance(cfg.spec, DiscreteChainSpec)


def test_invalid_model_rejected(tmp_path):
    payload = {"model": {"kind": "discrete_chain",
                         "transition": [[0.6, 0.39], [0.5, 0.5]],
                         "increment_mean": [1.0, -1.0], "increment_var": [0.0, 0.0]}}
    with pytest.raises(ConfigError, match="validation"):
        cli.parse_config(write_config(tmp_path, payload))


CHAIN = {"kind": "discrete_chain", "transition": [[0.5, 0.5], [0.5, 0.5]],
         "increment_mean": [1.0, -1.0], "increment_var": [0.0, 0.0]}


MALFORMED = [
    ({"tol": "abc"}, "tol"),
    ({"a_grid": ["x"]}, "a_grid"),
    ({"theta_max": None}, "theta_max"),
    ({"model": {"builtin": "gaussian_baseline", "grid_n": "abc"}}, "model.grid_n"),
    ({"model": "bad.json"}, "bad.json"),
    ({"model": dict(CHAIN, increment_mean=["q"])}, "model.increment_mean"),
    ({"grid_n": 64.7}, "grid_n"),
    ({"seed": 1.5}, "seed"),
    ({"model": {"kind": "torus_diffusion", "observable": {
        "b": {"type": "harmonic", "kind": "cos", "k": "abc"}}}}, "model.observable.b.k"),
    ({"model": {"kind": "torus_diffusion", "fields": {
        "V0": {"type": "harmonic", "kind": "sin", "k": 2.5}}}}, "model.fields.V0.k"),
    ({"model": {"kind": "torus_diffusion", "fields": {
        "V": [1.0, {"type": "tabulated", "values": [1.0, "x"]}]}}}, "model.fields.V[1].values"),
    ({"model": {"kind": "torus_diffusion", "observable": {
        "sigma": {"type": "fourier", "cos": 0.5}}}}, "model.observable.sigma.cos"),
]
MALFORMED_CASES = [pytest.param(payload, key, id=key) for payload, key in MALFORMED] + [
    pytest.param({"theta_max": value}, "theta_max", id=f"theta_max-{name}")
    for value, name in ((float("nan"), "NaN"), ("nan", "nan-string"),
                        (float("inf"), "Infinity"), (0, "zero"), (-1, "negative"))]


@pytest.mark.parametrize("payload, key", MALFORMED_CASES)
def test_malformed_config_value_is_a_config_error(tmp_path, monkeypatch, capsys, payload, key):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    path = write_config(tmp_path, {"model": {"builtin": "gaussian_baseline"}, **payload})
    assert cli.main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", [float("nan"), "nan", float("inf"), 0, -1e-6, 1.0],
                         ids=["NaN", "nan-string", "Infinity", "zero", "negative", "one"])
def test_tol_outside_unit_interval_is_a_config_error(tmp_path, capsys, tol):
    path = write_config(tmp_path, {**BASE, "tol": tol})
    start = time.perf_counter()
    assert cli.main(["expand", "--config", str(path), "--force"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "tol" in err


def test_integral_float_config_values_are_accepted():
    cfg = cli.parse_config_dict({"model": {"builtin": "gaussian_baseline"},
                                 "grid_n": 64.0, "seed": 7.0, "order": 3.0})
    assert (cfg.grid_n, cfg.seed, cfg.order) == (64, 7, 3)
    assert all(type(v) is int for v in (cfg.grid_n, cfg.seed, cfg.order))


def test_emit_parse_round_trip(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, BASE))
    emitted = json.dumps(cfg.raw, sort_keys=True)
    cfg2 = cli.parse_config_dict(json.loads(emitted))
    assert cfg2.raw == cfg.raw
    assert cfg2.config_hash() == cfg.config_hash()


def run_cli(args):
    return subprocess.run([sys.executable, "-m", "ldp_expand.cli", *args],
                          capture_output=True, text=True)


def test_unknown_command_usage_error():
    proc = run_cli(["frobnicate", "--config", "x.json"])
    assert proc.returncode != 0


def test_missing_command_prints_usage():
    proc = run_cli([])
    assert proc.returncode == 1
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_rate_csv_contains_expected_row(tmp_path):
    payload = dict(BASE, output_dir=str(tmp_path / "out"))
    path = write_config(tmp_path, payload)
    proc = run_cli(["rate", "--config", str(path)])
    assert proc.returncode == 0
    lines = (tmp_path / "out" / "rate.csv").read_text().splitlines()
    assert lines[2] == "a,theta_a,I,Isecond"
    row = dict(zip(lines[2].split(","), lines[4].split(",")))
    assert float(row["a"]) == 1.0
    assert abs(float(row["I"]) - 0.5) < 1e-9
    assert lines[0].startswith("# ldp-expand rate config_hash=")


def test_validate_exit_codes(tmp_path):
    ok = dict(BASE, output_dir=str(tmp_path / "v1"))
    assert run_cli(["validate", "--config", str(write_config(tmp_path, ok))]).returncode == 0


def test_expand_writes_fit_summary(tmp_path):
    payload = dict(BASE, output_dir=str(tmp_path / "out2"),
                   expand={"a": 1.0, "order": 6})
    path = write_config(tmp_path, payload)
    proc = run_cli(["expand", "--config", str(path), "--svg"])
    assert proc.returncode == 0, proc.stderr
    fit_lines = (tmp_path / "out2" / "expand_fit.csv").read_text().splitlines()
    values = {parts[2]: parts[3] for parts in
              (line.split(",") for line in fit_lines[3:])}
    assert abs(float(values["0"]) - 0.3989422804) < 0.004
    assert abs(float(values["D0_analytic"]) - 0.3989422804) < 1e-6
    assert (tmp_path / "out2" / "expand.svg").exists()
    assert "<svg" in (tmp_path / "out2" / "expand.svg").read_text()


def test_expand_refuses_failing_model_without_force(tmp_path):
    payload = {"model": {"builtin": "two_state_pm1_chain"},
               "expand": {"a": 0.6},
               "t_grid": [10, 20, 40, 60, 80, 100],
               "output_dir": str(tmp_path / "chain")}
    path = write_config(tmp_path, payload)
    proc = run_cli(["expand", "--config", str(path)])
    assert proc.returncode == 2
    assert "pre-check" in proc.stderr


def test_verify_conditions_exit_2_on_negative_control(tmp_path):
    payload = {"model": {"builtin": "checkerboard_chain"},
               "theta_grid": [0.2, 0.5, 1.0],
               "conditions": {"s_grid": [0.5, 3.141592653589793], "t_grid": [1, 2]},
               "output_dir": str(tmp_path / "neg")}
    proc = run_cli(["verify-conditions", "--config", str(write_config(tmp_path, payload))])
    assert proc.returncode == 2
    assert "FAIL" in proc.stdout


def test_verify_conditions_pass_on_baseline(tmp_path):
    payload = dict(BASE, output_dir=str(tmp_path / "ok"),
                   conditions={"s_grid": [0.1, 1.0, 5.0], "t_grid": [1.0, 2.0]})
    proc = run_cli(["verify-conditions", "--config", str(write_config(tmp_path, payload))])
    assert proc.returncode == 0, proc.stdout + proc.stderr


def strip_nondeterministic(lines):
    """Drop the timestamp comment and the wall_time measurement column."""
    out = []
    for ln in lines:
        if ln.startswith("# generated="):
            continue
        if ln.startswith("tilted,") or ln.startswith("naive,"):
            ln = ",".join(ln.split(",")[:-1])
        out.append(ln)
    return out


def test_simulate_csv_and_determinism_across_threads(tmp_path):
    payload = dict(BASE, output_dir=str(tmp_path / "sim"), seed=77)
    path = write_config(tmp_path, payload)
    envs = []
    for threads in ("1", "4"):
        env = dict(os.environ, LDP_EXPAND_THREADS=threads)
        proc = subprocess.run([sys.executable, "-m", "ldp_expand.cli", "simulate",
                               "--config", str(path)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        content = (tmp_path / "sim" / "simulate.csv").read_text().splitlines()
        envs.append(strip_nondeterministic(content))
    assert envs[0] == envs[1]


def test_report_bundles_summary(tmp_path):
    payload = {"model": {"builtin": "gaussian_baseline", "grid_n": 64},
               "a_grid": [0.5, 1.0],
               "t_grid": [16.0, 22.6, 32.0, 45.3, 64.0, 90.5, 128.0, 181.0],
               "simulate": {"a": 1.0, "t": 4.0, "dt": 0.01, "n_paths": 20000},
               "order": 6,
               "output_dir": str(tmp_path / "rep")}
    proc = run_cli(["report", "--config", str(write_config(tmp_path, payload))])
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "rep" / "report.csv").read_text().splitlines()
    header = lines[2].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[3:]]
    assert len(rows) == 2
    for row in rows:
        assert float(row["D0_rel_diff"]) < 0.01
        p_is, p_exact = float(row["p_is"]), float(row["p_exact"])
        assert abs(p_is - p_exact) < 4 * float(row["p_is_stderr"])


def test_emit_config_command(tmp_path):
    path = write_config(tmp_path, BASE)
    proc = run_cli(["emit-config", "--config", str(path)])
    assert proc.returncode == 0
    parsed = json.loads(proc.stdout)
    assert parsed["tol"] == 1e-6
    again = cli.parse_config_dict(parsed)
    assert again.raw == parsed


def test_verify_conditions_reports_library_value_error(tmp_path):
    # the default condition t-grid holds 1.5, which is no step count of a chain
    payload = {"model": {"builtin": "noisy_two_state_chain"},
               "theta_grid": [0.2, 0.5, 1.0],
               "output_dir": str(tmp_path / "noisy")}
    proc = run_cli(["verify-conditions", "--config", str(write_config(tmp_path, payload))])
    assert proc.returncode == 1
    assert "error: chain semigroup times must be nonnegative integers" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_expand_force_reports_library_value_error(tmp_path):
    # the default t-grid holds 22.6, which is no step count of a chain
    payload = {"model": {"builtin": "noisy_two_state_chain"},
               "expand": {"a": 0.3},
               "output_dir": str(tmp_path / "noisy")}
    proc = run_cli(["expand", "--config", str(write_config(tmp_path, payload)), "--force"])
    assert proc.returncode == 1
    assert "error: chain horizons are integer step counts" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_simulate_rejects_bad_step_and_horizon(tmp_path):
    path = write_config(tmp_path, dict(BASE, output_dir=str(tmp_path / "sim")))
    for flags, message in ((["--dt", "0"], "dt=0.0"), (["--dt", "-0.01"], "dt=-0.01"),
                           (["--t", "-1"], "t=-1.0")):
        proc = run_cli(["simulate", "--config", str(path), *flags])
        assert proc.returncode == 1, (flags, proc.stdout)
        assert f"error: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "p_hat" not in proc.stdout


@pytest.mark.parametrize("command, flags, named", [
    ("rate", ["--a-min", "0.2"], "--a-max"),
    ("rate", ["--a-max", "0.8"], "--a-min"),
    ("rate", ["--a-steps", "3"], "--a-min"),
    ("rate", ["--a-min", "0.2", "--a-max", "0.8", "--a-steps", "0"], "--a-steps"),
    ("expand", ["--t-min", "16"], "--t-max"),
    ("expand", ["--t-max", "256", "--t-steps", "3"], "--t-min"),
    ("expand", ["--t-min", "16", "--t-max", "256", "--t-steps", "-2"], "--t-steps"),
    ("expand", ["--t-min", "0", "--t-max", "256"], "--t-min"),
])
def test_half_given_range_is_a_usage_error(tmp_path, capsys, command, flags, named):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(BASE, output_dir=str(out)))
    assert cli.main([command, "--config", str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and named in err
    assert not out.exists()
