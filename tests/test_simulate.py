import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

import ldp_expand as lx
from ldp_expand import fields, simulate, spectral
from ldp_expand.discretize import operators_for
from ldp_expand.errors import SampleSizeError
from ldp_expand.model import TorusDiffusionSpec


def _nonconstant_v_spec():
    return TorusDiffusionSpec(fields_v=(fields.harmonic("cos", 1, amplitude=0.3).shifted(1.0),),
                              drift_v0=fields.zero(), obs_drift_b=fields.zero(),
                              obs_noise_sigma=fields.constant(1.0))


@pytest.fixture(scope="module")
def tilted_mathieu(mathieu):
    theta = lx.rate_point(mathieu, 0.3, n=256).theta
    return lx.tilted_dynamics(mathieu, theta, n=256)


def test_dt_and_horizon_preconditions(gaussian, mathieu):
    with pytest.raises(ValueError, match="dt"):
        lx.euler_maruyama(gaussian, 1.0, 0.05, 10, seed=0)
    with pytest.raises(ValueError, match="multiple"):
        lx.euler_maruyama(gaussian, 1.005, 0.01, 10, seed=0)
    for spec in (gaussian, mathieu):
        for dt in (0.0, -0.01, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt"):
                lx.euler_maruyama(spec, 1.0, dt, 10, seed=0)
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="t="):
                lx.euler_maruyama(spec, t, 0.01, 10, seed=0)
        with pytest.raises(ValueError, match="n_paths"):
            lx.euler_maruyama(spec, 1.0, 0.01, 0, seed=0)
    assert lx.euler_maruyama(mathieu, 0.0, 0.01, 3, seed=0).y_final.tolist() == [0.0] * 3


def test_estimators_need_two_paths(gaussian, frame):
    for estimate in (lx.estimate_tail_is, lx.estimate_tail_mc):
        with pytest.raises(ValueError, match="n_paths"):
            estimate(gaussian, frame, 1.0, 2.0, 1e-2, 1, seed=0, n=64)
        with pytest.raises(ValueError, match="dt"):
            estimate(gaussian, frame, 1.0, 2.0, 0.0, 100, seed=0, n=64)
    with pytest.raises(ValueError, match="n_paths"):
        lx.decorrelation_check(gaussian, 1.0, [1.0], 1, seed=0, n=64)


def test_noise_blocks_keep_the_philox_layout():
    # digests of blocks drawn by the per-block Philox construction: stream
    # key from SeedSequence(seed, spawn_key=(stream,)), counter word 2 = block
    golden = {(2026, 0, 0, (4,)): "1687b39723112984d70b247cc987b59e31aaa86e9c2868c8676e6df0d024c301",
              (2026, 1, 5, (3, 7)): "66d8c52081af52464dc4145e4a25adc4ea2f3c6e045b2b0094b99a5089582108",
              (907, 0, 937, (8, 1, 125)): "4e87a8e62788b97545c7bcd1733815fc0d0afc90db6f6cc04eb7bd6b1646a94c"}
    for args, digest in golden.items():
        assert hashlib.sha256(simulate._noise_block(*args).tobytes()).hexdigest() == digest


def _two_field_constant_spec():
    return TorusDiffusionSpec(fields_v=(fields.constant(2.0), fields.constant(-0.5)),
                              drift_v0=fields.constant(0.3), obs_drift_b=fields.constant(-0.2),
                              obs_noise_sigma=fields.constant(1.5))


def test_constant_coefficients_draw_one_block_per_stream(monkeypatch, gaussian):
    calls = []

    def counted(*args, _draw=simulate._philox_normals):
        calls.append(args[1])
        return _draw(*args)

    monkeypatch.setattr(simulate, "_philox_normals", counted)
    for t in (0.05, 16.0):
        calls.clear()
        lx.euler_maruyama(gaussian, t, 1e-3, 50, seed=3)
        assert calls == [0, 0]


def test_stepped_run_builds_one_philox_per_stream(monkeypatch):
    built = []

    def counted(*args, _real=np.random.Philox, **kwargs):
        built.append(kwargs.get("key"))
        return _real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    # 200 steps: 7 blocks on each of the two streams
    lx.euler_maruyama(_nonconstant_v_spec(), 0.2, 1e-3, 20, seed=3)
    assert len(built) == 2


def test_constant_coefficients_take_the_closed_form():
    spec = _two_field_constant_spec()
    t, dt, n, seed, x0 = 1.5, 1.0 / 256, 1000, 41, 0.25  # n_steps * dt == t exactly
    batch = lx.euler_maruyama(spec, t, dt, n, seed, x0=x0)
    eta = simulate._noise_block(seed, 1, 0, (n,))
    assert np.array_equal(batch.y_final, -0.2 * t + 1.5 * math.sqrt(t) * eta)
    xi = simulate._noise_block(seed, 0, 0, (2, n))
    x_closed = x0 + 0.3 * t + math.sqrt(t) * (2.0 * xi[0] - 0.5 * xi[1])
    dx = np.abs((batch.x_final - x_closed + 0.5) % 1.0 - 0.5)
    assert np.max(dx) < 1e-12
    assert batch.x_final.min() >= 0.0 and batch.x_final.max() < 1.0


def test_constant_coefficient_observable_moments():
    t, n = 4.0, 200_000
    y = lx.euler_maruyama(_two_field_constant_spec(), t, 1e-2, n, seed=12).y_final
    var = 1.5**2 * t
    assert abs(np.mean(y) - (-0.2 * t)) < 5 * math.sqrt(var / n)
    assert abs(np.var(y, ddof=1) - var) < 5 * var * math.sqrt(2.0 / (n - 1))


def test_zero_horizon_keeps_the_start():
    batch = lx.euler_maruyama(_two_field_constant_spec(), 0.0, 1e-2, 5, seed=2, x0=0.25)
    assert batch.x_final.tolist() == [0.25] * 5
    assert batch.y_final.tolist() == [0.0] * 5


def _reference_paths(spec, t, dt, x_init, seed):
    """Per-step Euler through the fields' own __call__, for V = 1 constant:
    the loop the table-driven stepper replaces."""
    sigma = spec.obs_noise_sigma
    sigma_const = isinstance(sigma, fields.FourierField) and sigma.is_constant
    n_steps, n_paths = round(t / dt), x_init.size
    X, Y = x_init.copy(), np.zeros(n_paths)
    for bidx, block in enumerate(range(0, n_steps, simulate._BLOCK_STEPS)):
        rows = min(simulate._BLOCK_STEPS, n_steps - block)
        dwx = simulate._noise_block(seed, 0, bidx, (rows, 1, n_paths)) * math.sqrt(dt)
        if sigma_const:
            Y += sigma.const * math.sqrt(rows * dt) * simulate._noise_block(seed, 1, bidx, (n_paths,))
        else:
            dwy = simulate._noise_block(seed, 1, bidx, (rows, n_paths)) * math.sqrt(dt)
        for r in range(rows):
            drift = spec.drift_v0(X)
            Y += spec.obs_drift_b(X) * dt
            if not sigma_const:
                Y += sigma(X) * dwy[r]
            X += drift * dt + dwx[r, 0]
    return X - np.floor(X), Y


def test_table_stepper_matches_per_step_reference(tilted_mathieu):
    t, dt, seed = 0.2, 1e-3, 907  # 200 steps
    # the last two paths read the wrap node m: through the slope of cell
    # m - 1, and directly (-2^-60 wraps to exactly 1.0)
    x_init = np.append(np.arange(64) / 64 + 1 / 128, [1.0 - 2.0**-53, -2.0**-60])
    grid = np.arange(256) / 256
    tabulated = replace(tilted_mathieu,
                        obs_drift_b=fields.TabulatedField(tuple(tilted_mathieu.obs_drift_b(grid))))
    assert isinstance(tabulated.drift_v0, fields.TabulatedField)
    noisy = replace(tabulated, obs_noise_sigma=fields.TabulatedField(
        tuple(1.0 + 0.3 * np.sin(2 * np.pi * grid))))
    for spec in (tabulated, noisy, tilted_mathieu):
        batch = lx.euler_maruyama(spec, t, dt, x_init.size, seed, x_init=x_init)
        x_ref, y_ref = _reference_paths(spec, t, dt, x_init, seed)
        dx = np.abs((batch.x_final - x_ref + 0.5) % 1.0 - 0.5)
        assert np.max(dx) < 1e-12
        dy = np.max(np.abs(batch.y_final - y_ref))
        if spec is tilted_mathieu:
            # linear interpolation of cos(2 pi x) on m cells, accumulated over t
            m = simulate._TABLE_MIN_CELLS
            assert 0.0 < dy <= t * (2 * np.pi) ** 2 / (8 * m**2)
        else:
            assert dy < 1e-12


def test_stepper_output_independent_of_thread_count(monkeypatch, tilted_mathieu):
    for spec in (tilted_mathieu, _nonconstant_v_spec()):
        runs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("LDP_EXPAND_THREADS", threads)
            runs.append(lx.euler_maruyama(spec, 0.5, 1e-3, 300, seed=17))
        assert np.array_equal(runs[0].x_final, runs[1].x_final)
        assert np.array_equal(runs[0].y_final, runs[1].y_final)


def test_field_calls_do_not_grow_with_steps(monkeypatch, tilted_mathieu):
    calls = []
    for cls in (fields.FourierField, fields.TabulatedField):
        def counted(self, x, _call=cls.__call__):
            calls.append(1)
            return _call(self, x)
        monkeypatch.setattr(cls, "__call__", counted)
    for spec in (tilted_mathieu, _nonconstant_v_spec()):
        counts = []
        for t in (0.05, 0.4):
            calls.clear()
            lx.euler_maruyama(spec, t, 1e-3, 50, seed=3)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 4


def _stratonovich_v_spec():
    """V = 1 + 0.3 cos(2 pi x), V0 = 0, b = cos(2 pi x): the stationary law of
    dX = V(X) o dW is proportional to 1/V, so E_pi[b] = (sqrt(0.91) - 1) / 0.3."""
    return replace(_nonconstant_v_spec(), obs_drift_b=fields.harmonic("cos", 1))


def test_nonconstant_v_invariant_density_is_inverse_v():
    spec = _stratonovich_v_spec()
    errors = []
    for n in (128, 256):
        ops = operators_for(spec, n)
        dens = lx.invariant_density(ops.stencil)
        ref = 1.0 / spec.fields_v[0](ops.x)
        errors.append(np.max(np.abs(dens.rho - ref / (ref.sum() * dens.weight))))
    assert errors[1] < 5e-5
    assert 3.8 < errors[0] / errors[1] < 4.2  # O(dx^2)


def test_nonconstant_v_mean_slope_matches_closed_form():
    mu1, _ = lx.cgf_derivatives(_stratonovich_v_spec(), 0.0, n=256)
    assert abs(mu1 - (math.sqrt(0.91) - 1.0) / 0.3) < 1e-4


def test_nonconstant_v_stepper_and_generator_model_one_sde(frame):
    # the spectral tail and the tilted paths read the same Stratonovich SDE
    spec = _stratonovich_v_spec()
    est = lx.estimate_tail_is(spec, frame, 0.3, 10.0, 1e-3, 2000, seed=11, n=256)
    exact = lx.exact_tail(spec, frame, 0.3, 10.0, n=256)
    assert abs(est.p_hat - exact) < 3.0 * est.stderr


def test_brownian_variance(gaussian):
    batch = lx.euler_maruyama(gaussian, 8.0, 1e-2, 40000, seed=11)
    var = np.var(batch.y_final)
    stderr = var * np.sqrt(2.0 / batch.n_paths)
    assert abs(var - 8.0) < 3 * stderr


def test_centered_model_mean_drifts_to_zero(mathieu):
    batch = lx.euler_maruyama(mathieu, 20.0, 1e-2, 30000, seed=2)
    mean_rate = np.mean(batch.y_final) / 20.0
    stderr = np.std(batch.y_final) / 20.0 / np.sqrt(batch.n_paths)
    assert abs(mean_rate) < 3 * stderr + 5e-3


def test_seed_determinism_bitwise(mathieu):
    t1 = lx.euler_maruyama(mathieu, 2.0, 1e-2, 3000, seed=42)
    t2 = lx.euler_maruyama(mathieu, 2.0, 1e-2, 3000, seed=42)
    assert np.array_equal(t1.x_final, t2.x_final)
    assert np.array_equal(t1.y_final, t2.y_final)
    t3 = lx.euler_maruyama(mathieu, 2.0, 1e-2, 3000, seed=43)
    assert not np.array_equal(t1.y_final, t3.y_final)


def test_wrapped_final_positions(gradient_drift):
    batch = lx.euler_maruyama(gradient_drift, 5.0, 1e-2, 1000, seed=1)
    assert batch.x_final.min() >= 0.0 and batch.x_final.max() < 1.0


def test_tilted_dynamics_identity_at_zero(mathieu):
    assert lx.tilted_dynamics(mathieu, 0.0, n=256) is mathieu


def test_tilted_dynamics_gaussian(gaussian):
    tspec = lx.tilted_dynamics(gaussian, 1.0, n=64)
    assert tspec.drift_v0 == gaussian.drift_v0  # g constant: no torus drift
    x = np.linspace(0, 1, 9)
    assert np.allclose(tspec.obs_drift_b(x), 1.0, atol=1e-12)  # Y-drift theta sigma^2
    assert tspec.obs_noise_sigma == gaussian.obs_noise_sigma


def test_tilted_dynamics_mathieu_drift_field(mathieu):
    theta = 1.0
    tspec = lx.tilted_dynamics(mathieu, theta, n=256)
    ops = lx.operators_for(mathieu, 256)
    from ldp_expand._eigen import top_eigen_data
    ed = top_eigen_data(ops.tilted(theta), weight=ops.weight, positive=True)
    n = 256
    dlng = (np.roll(np.log(ed.g), -1) - np.roll(np.log(ed.g), 1)) * (0.5 * n)
    x = np.arange(n) / n
    assert np.max(np.abs(tspec.drift_v0(x) - dlng)) < 1e-10  # V V^T = 1
    assert np.allclose(tspec.obs_drift_b(x), np.cos(2 * np.pi * x) + theta, atol=1e-12)


def test_is_estimate_matches_oracle_small(gaussian, frame):
    est = lx.estimate_tail_is(gaussian, frame, 1.0, 4.0, 1e-2, 40000, seed=5, n=64)
    oracle = norm.sf(2.0)
    assert abs(est.p_hat - oracle) < 3 * est.stderr
    assert est.ess > 100
    assert est.n_hits > 0


def test_is_weight_reduces_to_indicator_at_zero_tilt(gaussian, frame):
    # a at the mean slope has theta_a ~ 0; weights collapse to the indicator
    mc = lx.estimate_tail_mc(gaussian, frame, 0.0, 2.0, 1e-2, 4000, seed=9, n=64)
    batch = lx.euler_maruyama(gaussian, 2.0, 1e-2, 4000, seed=9)
    assert mc.p_hat == np.mean(batch.y_final >= 0.0)
    assert mc.ess == mc.n_hits


def test_naive_mc_below_mean_is_near_one(gaussian, frame):
    est = lx.estimate_tail_mc(gaussian, frame, -1.0, 4.0, 1e-2, 4000, seed=3, n=64)
    assert est.p_hat > 0.95


def test_naive_and_is_agree_moderate_regime(gaussian, frame):
    mc = lx.estimate_tail_mc(gaussian, frame, 0.5, 4.0, 1e-2, 40000, seed=2, n=64)
    is_ = lx.estimate_tail_is(gaussian, frame, 0.5, 4.0, 1e-2, 40000, seed=3, n=64)
    joint = np.hypot(mc.stderr, is_.stderr)
    assert abs(mc.p_hat - is_.p_hat) < 3 * joint


def test_is_low_ess_raises(gaussian, frame):
    with pytest.raises(SampleSizeError):
        lx.estimate_tail_is(gaussian, frame, 2.0, 16.0, 1e-2, 30, seed=1, n=64)


def test_effective_diffusivity_gaussian(gaussian):
    for theta in (0.0, 0.7, 2.0):
        assert abs(lx.effective_diffusivity(gaussian, theta, n=64) - 1.0) < 1e-10
    corr = lx.corrector(gaussian, 0.7, n=64)
    assert np.max(np.abs(corr.f - np.mean(corr.f))) < 1e-10  # f constant
    assert abs(corr.c_theta - 0.7) < 1e-12


def test_effective_diffusivity_mathieu_matches_mu2(mathieu):
    import ldp_expand.spectral as sp
    xi = lx.effective_diffusivity(mathieu, 0.0, n=256)
    _, d2 = sp.cgf_fd_derivatives(mathieu, 0.0, n=256)
    assert abs(xi - d2) / d2 < 5e-3
    # independent analytic check: mu''(0) = 1 + 1/(2 pi^2) in the continuum
    assert abs(xi - (1 + 1 / (2 * np.pi**2))) < 1e-4


def test_constant_b_shifts_c_not_f(mathieu):
    from dataclasses import replace
    shifted = replace(mathieu, obs_drift_b=mathieu.obs_drift_b.shifted(0.4))
    c0 = lx.corrector(mathieu, 0.5, n=128)
    c1 = lx.corrector(shifted, 0.5, n=128)
    assert abs((c1.c_theta - c0.c_theta) - 0.4) < 1e-9
    assert np.max(np.abs(c1.f - c0.f)) < 1e-8


def test_decorrelation_gaussian_identically_zero(gaussian):
    rep = lx.decorrelation_check(gaussian, 1.0, [2.0, 4.0], 2000, seed=6, n=64)
    for _, stat, _ in rep.rows:
        assert abs(stat) < 1e-10  # g' zero up to eigensolver noise


def test_decorrelation_empty_horizons(gaussian):
    rep = lx.decorrelation_check(gaussian, 1.0, [], 100, seed=6, n=64)
    assert rep.rows == ()


def test_decorrelation_check_reads_c_theta_without_a_corrector_solve(mathieu, monkeypatch):
    # c_theta = mu'(theta) is the order-1 Taylor coefficient, which takes no solve
    calls, real = [], spectral._perturbation
    monkeypatch.setattr(spectral, "_perturbation", lambda *args: calls.append(args) or real(*args))
    lx.clear_caches()
    lx.decorrelation_check(mathieu, 0.5, (1.0,), 100, seed=3, n=128)
    assert calls == []
    ops = operators_for(mathieu, 128)
    assert spectral.spectral_mu_prime(ops, 0.5) == lx.corrector(mathieu, 0.5, n=128).c_theta


def test_decorrelation_mathieu_decays(mathieu):
    rep = lx.decorrelation_check(mathieu, 1.0, [1.0, 4.0, 16.0], 20000, seed=8, n=256)
    stats = {t: (s, e) for t, s, e in rep.rows}
    s16, e16 = stats[16.0]
    assert abs(s16) < 3 * e16 + 0.01
    # |statistic| <= C / sqrt(t) envelope with C fitted on the measurements
    c_fit = max(abs(s) * np.sqrt(t) for t, s, _ in rep.rows)
    assert c_fit < 1.0


def test_simulation_rejects_chains(pm1_chain, frame):
    with pytest.raises(TypeError):
        lx.euler_maruyama(pm1_chain, 1.0, 1e-2, 10, seed=0)
