import json
import os
import subprocess
import sys
import time

import pytest

import numpy as np

from ldp_expand import cli, verify
from ldp_expand.discretize import operators_for
from ldp_expand.errors import ConfigError
from ldp_expand.model import DiscreteChainSpec, TorusDiffusionSpec, noisy_two_state_chain


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
    # the tilt search has no window to set: its bracket starts at 1 and doubles
    with pytest.raises(ConfigError, match="unknown config key.*theta_max"):
        cli.parse_config(write_config(tmp_path, {"model": {"builtin": "gaussian_baseline"},
                                                 "theta_max": 8.0}))


def test_expand_order_is_no_config_key():
    # expand reads the top-level order, which --order sets
    with pytest.raises(ConfigError, match=r"expand: unknown key\(s\) order"):
        cli.parse_config_dict({"model": {"builtin": "gaussian_baseline"},
                               "expand": {"a": 1.0, "order": 6}})


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
RUN_SECTION_MALFORMED = [
    ({"simulate": {"n_paths": "many"}}, "simulate.n_paths"),
    ({"simulate": {"method": "bogus"}}, "simulate.method"),
    ({"simulate": {"t": "nan"}}, "simulate.t"),
    ({"expand": {"a": "x"}}, "expand.a"),
    ({"order": -3}, "order"),
]
MALFORMED += RUN_SECTION_MALFORMED + [
    ({"simulate": 5}, "simulate"),
    ({"conditions": [1.0]}, "conditions"),
    ({"expand": "x"}, "expand"),
    ({"t_grid": [16, 32, 64, "nan", 256]}, "t_grid entries must be finite"),
    ({"a_grid": [0.5, float("inf")]}, "a_grid entries must be finite"),
    ({"theta_grid": {"min": 0.0, "max": float("nan"), "steps": 3}},
     "theta_grid entries must be finite"),
    ({"a_grid": {"min": 0.2, "max": 0.8, "steps": 3, "scale": "log"}}, "a_grid.scale"),
]
# eval_frame.x0 is an integer index or a finite position, in range for the grid
# (gaussian_baseline at grid_n 256) or the chain's states
GAUSS = {"builtin": "gaussian_baseline"}
FRAME_CASES = [
    pytest.param({"model": dict(model, eval_frame={"x0": x0})}, key, id=f"eval_frame.x0-{name}")
    for model, x0, key, name in (
        (GAUSS, "abc", "eval_frame.x0", "word"), (GAUSS, [1], "eval_frame.x0", "list"),
        (GAUSS, True, "eval_frame.x0", "bool"), (GAUSS, float("nan"), "eval_frame.x0", "NaN"),
        (GAUSS, 256, "index 256 out of range for n=256", "index"),
        (GAUSS, 10**400, "out of range for n=256", "huge-index"),
        (GAUSS, 1.5, "position 1.5 must lie in [0, 1)", "position"),
        (CHAIN, 2, "index 2 out of range for n=2", "chain-index"))]
CONDITION_GRID_CASES = [
    pytest.param({"conditions": {key: value}}, f"conditions.{key}", id=f"conditions.{key}-{name}")
    for key, value, name in (("s_grid", 5, "number"), ("s_grid", ["abc"], "word"),
                             ("s_grid", [float("nan")], "NaN"), ("s_grid", [0.0], "zero"),
                             ("s_grid", [], "empty"),
                             ("s_grid", {"min": 0.0, "max": float("nan"), "steps": 3}, "NaN-max"),
                             ("t_grid", 5, "number"), ("t_grid", ["abc"], "word"),
                             ("t_grid", [float("inf")], "Infinity"))]
# theta_max is no longer a config key: each of its cases (and the None one
# in MALFORMED) is refused as an unknown key, which names it
MALFORMED_CASES = [pytest.param(payload, key, id=key) for payload, key in MALFORMED] + [
    pytest.param({"theta_max": value}, "theta_max", id=f"theta_max-{name}")
    for value, name in ((float("nan"), "NaN"), ("nan", "nan-string"),
                        (float("inf"), "Infinity"), (0, "zero"), (-1, "negative"))
] + CONDITION_GRID_CASES + FRAME_CASES


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


def test_eval_frame_takes_an_index_or_a_position():
    for x0 in (0, 255, 0.0, 0.25):
        frame = cli.parse_config_dict({"model": dict(GAUSS, eval_frame={"x0": x0})}).frame
        assert frame.x0 == x0 and type(frame.x0) is type(x0)


@pytest.mark.parametrize("payload, key", CONDITION_GRID_CASES)
def test_malformed_condition_grid_stops_verify_conditions_at_once(tmp_path, capsys,
                                                                   payload, key):
    path = write_config(tmp_path, {**BASE, **payload, "output_dir": str(tmp_path / "out")})
    start = time.perf_counter()
    assert cli.main(["verify-conditions", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err


@pytest.mark.parametrize("payload, key", [pytest.param(payload, key, id=key)
                                          for payload, key in RUN_SECTION_MALFORMED])
def test_malformed_run_section_stops_report_at_once(tmp_path, capsys, payload, key):
    path = write_config(tmp_path, {**BASE, **payload, "output_dir": str(tmp_path / "out")})
    start = time.perf_counter()
    assert cli.main(["report", "--config", str(path)]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert key in err
    assert not (tmp_path / "out").exists()


def test_condition_grids_accept_the_grid_object_form(tmp_path, capsys):
    payload = {**BASE, "output_dir": str(tmp_path / "out"), "conditions": {
        "s_grid": {"min": 1.0, "max": 5.0, "steps": 3},
        "t_grid": {"min": 1.0, "max": 2.0, "steps": 3}}}
    cfg = cli.parse_config_dict(payload)
    assert cfg.conditions == {"s_grid": (1.0, 3.0, 5.0), "t_grid": (1.0, 1.5, 2.0)}
    assert cli.main(["verify-conditions", "--config", str(write_config(tmp_path, payload))]) == 0
    assert (tmp_path / "out" / "conditions.csv").exists()


def test_repeated_theta_stops_verify_conditions_with_an_error(tmp_path, capsys):
    path = write_config(tmp_path, {**BASE, "theta_grid": [0.5, 0.5, 1.0],
                                   "output_dir": str(tmp_path / "out")})
    assert cli.main(["verify-conditions", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "theta grid" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "conditions.csv").exists()


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


def test_spectral_gap_on_a_chain_is_the_per_step_b2_gap(tmp_path):
    # a chain's gap column is log |lambda_1| - log |lambda_2| of the time-1
    # transfer matrix, the per-step scale of the B2 evidence
    thetas = [0.0, 0.5, 1.0]
    payload = {"model": {"builtin": "noisy_two_state_chain"}, "theta_grid": thetas,
               "output_dir": str(tmp_path / "sp")}
    proc = run_cli(["spectral", "--config", str(write_config(tmp_path, payload))])
    assert proc.returncode == 0, proc.stderr
    lines = (tmp_path / "sp" / "spectral.csv").read_text().splitlines()
    header = lines[2].split(",")
    column = [dict(zip(header, ln.split(",")))["gap"] for ln in lines[3:]]
    ops = operators_for(noisy_two_state_chain())
    b2 = verify._check_b2(ops, thetas).evidence["gaps"]
    assert column == [cli._fmt(b2[th]) for th in thetas]
    for th, golden in zip(thetas, (1.203972804325936, 1.3952718233580639, 1.7235483995079899)):
        lam = np.sort(np.abs(np.linalg.eigvals(ops.tilted(th))))
        assert abs(b2[th] - np.log(lam[-1] / lam[-2])) < 1e-12
        assert abs(b2[th] - golden) < 1e-12


def test_validate_exit_codes(tmp_path):
    ok = dict(BASE, output_dir=str(tmp_path / "v1"))
    assert run_cli(["validate", "--config", str(write_config(tmp_path, ok))]).returncode == 0
    # a zero transition entry is a warning: exit 0, with the warning row
    sparse = {"model": dict(CHAIN, transition=[[0.0, 1.0], [0.5, 0.5]]),
              "output_dir": str(tmp_path / "v2")}
    proc = run_cli(["validate", "--config", str(write_config(tmp_path, sparse))])
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "v2" / "validate.csv").read_text().splitlines()
    assert any(row.startswith("warning,") for row in rows), rows
    # a row that does not sum to 1 is refused at parse time, before any output
    bad = {"model": dict(CHAIN, transition=[[0.5, 0.49], [0.5, 0.5]]),
           "output_dir": str(tmp_path / "v3")}
    proc = run_cli(["validate", "--config", str(write_config(tmp_path, bad))])
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:")
    assert not (tmp_path / "v3" / "validate.csv").exists()


def test_expand_writes_fit_summary(tmp_path):
    payload = dict(BASE, output_dir=str(tmp_path / "out2"), order=6)
    path = write_config(tmp_path, payload)
    proc = run_cli(["expand", "--config", str(path)])
    assert proc.returncode == 0, proc.stderr
    fit_lines = (tmp_path / "out2" / "expand_fit.csv").read_text().splitlines()
    values = {parts[2]: parts[3] for parts in
              (line.split(",") for line in fit_lines[3:])}
    assert abs(float(values["0"]) - 0.3989422804) < 0.004
    assert abs(float(values["D0_analytic"]) - 0.3989422804) < 1e-6


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
    assert "error: chain horizons are nonnegative integer step counts" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_expand_force_reports_library_value_error(tmp_path):
    # the default t-grid holds 22.6, which is no step count of a chain
    payload = {"model": {"builtin": "noisy_two_state_chain"},
               "expand": {"a": 0.3},
               "output_dir": str(tmp_path / "noisy")}
    proc = run_cli(["expand", "--config", str(write_config(tmp_path, payload)), "--force"])
    assert proc.returncode == 1
    assert "error: chain horizons are nonnegative integer step counts" in proc.stderr
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


def test_a_flag_is_checked_as_the_config_entry_it_names(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, dict(BASE, output_dir=str(out)))
    proc = run_cli(["expand", "--config", str(path), "--order", "-3", "--force"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("config error:") and "order must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "expand.csv").exists()


def test_flags_are_hashed_with_the_config(tmp_path, capsys):
    def rate_hash(path, *flags):
        assert cli.main(["rate", "--config", str(path), *flags]) == 0
        header = (tmp_path / "out" / "rate.csv").read_text().splitlines()[0]
        return header.split("config_hash=")[1]

    path = write_config(tmp_path, dict(BASE, output_dir=str(tmp_path / "out")))
    assert rate_hash(path) == cli.parse_config(path).config_hash()
    flagged = rate_hash(path, "--a-min", "0.3", "--a-max", "0.9", "--a-steps", "4")
    assert flagged != cli.parse_config(path).config_hash()
    same = write_config(tmp_path, dict(BASE, output_dir=str(tmp_path / "out"),
                                       a_grid=[float(a) for a in np.linspace(0.3, 0.9, 4)]),
                        name="grid.json")
    assert rate_hash(same) == flagged
