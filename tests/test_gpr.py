import inspect
import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_composite_params, random_points
from svfield import baselines, gpr
from svfield.datagen import SceneConfig, add_noise, gen_sh_scene, split_observed
from svfield.errors import CapacityError
from svfield.geom import CollocationPoint, PointSet
from svfield.gpr import (
    FitConfig,
    GprModel,
    build_model,
    fit,
    fit_scatter_table,
    hybrid_coeffs,
    nll,
    nll_grad,
    oracle_params_from_scene,
    predict,
    reg_loss,
    synthesize_augmented,
    tree_digest,
)
from svfield.kernels import ChmatKernelParams, composite_gram_factors
from svfield.metrics import nmse_per_freq
from svfield.modelio import predict_grid
from svfield.physics import free_field_batch
from svfield.sphharm import sh_basis_matrix, sh_ridge_fit

LN_PI = math.log(math.pi)


def _unit_chmat(noise_var: float) -> ChmatKernelParams:
    # alpha = ell^2 makes the prior diagonal exactly one
    return ChmatKernelParams(
        log_alpha=0.0, log_ell=0.0, log_ell_d=0.0, log_noise=math.log(noise_var)
    )


def _single_point() -> PointSet:
    return PointSet([1000.0], [[0.1, 0.0, 0.0]], [[1.5, 0.0, 0.0]])


class TestNll:
    def test_scalar_closed_form_ky2(self):
        # K = 1 (unit chmat diagonal), sigma^2 = 1, y = 0 -> ln pi + ln 2
        val = nll(np.array([0.0 + 0j]), _single_point(), _unit_chmat(1.0), jitter=0.0)
        assert abs(val - (LN_PI + math.log(2.0))) < 1e-12

    def test_scalar_closed_form_ky1(self, rng):
        # K = 0 via a zero scattering field, sigma^2 = 1, y = 1 -> ln pi + 1
        ps = _single_point()
        params = random_composite_params(rng, ps, head_scale=0.0)
        params = replace(params, log_noise=0.0)
        val = nll(np.array([1.0 + 0j]), ps, params, jitter=0.0)
        assert abs(val - (LN_PI + 1.0)) < 1e-12

    def test_permutation_invariance(self, rng):
        ps = random_points(rng, 10)
        params = random_composite_params(rng, ps, head_scale=0.5)
        y = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        perm = rng.permutation(10)
        a = nll(y, ps, params, jitter=0.0)
        b = nll(y[perm], ps.take(perm), params, jitter=0.0)
        assert abs(a - b) < 1e-10


class TestRegLoss:
    def test_zero_coefficients(self):
        assert reg_loss(np.zeros((3, 9), dtype=complex), 1.0, 1.0) == 0.0

    def test_decaying_spectrum_no_penalty(self):
        coeffs = np.zeros((1, 4), dtype=complex)
        coeffs[0, 0] = 2.0  # degree-0 energy 2
        coeffs[0, 1] = 0.5  # degree-1 energy 0.5 / sqrt(3)
        assert reg_loss(coeffs, 0.0, 1.0) == 0.0

    def test_rising_spectrum_penalty(self):
        # spectrum [1, 2]: c00 = 1, each |c1m| = 2 so sqrt(12/3) = 2
        coeffs = np.zeros((1, 4), dtype=complex)
        coeffs[0, 0] = 1.0
        coeffs[0, 1:] = 2.0
        assert abs(reg_loss(coeffs, 0.0, 1.0) - 1.0) < 1e-12

    def test_l1_term(self):
        coeffs = np.zeros((1, 1), dtype=complex)
        coeffs[0, 0] = 3.0
        assert abs(reg_loss(coeffs, 2.0, 0.0) - 6.0) < 1e-12


class TestHybridCoeffs:
    def test_zero_head_returns_table(self, rng):
        scene = gen_sh_scene(SceneConfig(n_freqs=6, n_mics=2, n_dirs=16, f_min_hz=500, f_max_hz=2000, order=1, seed=1))
        table = fit_scatter_table(scene, 1, 1e-8)
        ps = scene.point_set()
        params = random_composite_params(rng, ps, order=1, head_scale=0.0)
        params.table = table
        z = CollocationPoint(ps.omega[0], ps.mic[0], ps.src[0])
        got = hybrid_coeffs(z, params)
        np.testing.assert_allclose(got.values, table.lookup([ps.omega[0]], [ps.mic[0]])[0], rtol=1e-12)

    def test_degree_rule(self):
        # table degree follows floor(sqrt(D) - 1) of the observed directions
        for j, expected in ((8, 1), (16, 3), (64, 7)):
            assert max(0, int(math.floor(math.sqrt(j) - 1))) == expected

    def test_fit_uses_degree_rule(self):
        scene = gen_sh_scene(SceneConfig(n_freqs=4, n_mics=1, n_dirs=8, f_min_hz=500, f_max_hz=2000, order=1, seed=0))
        cfg = FitConfig(iterations=0, pretrain_iterations=0, batch_size=16, encoding_dim=4, hidden_widths=(4,), seed=0)
        model = fit(scene, cfg)
        assert model.kernel.table.degree == 1  # floor(sqrt(8) - 1)

    def test_nf_only_above_table_degree(self, rng):
        scene = gen_sh_scene(SceneConfig(n_freqs=6, n_mics=1, n_dirs=16, f_min_hz=500, f_max_hz=2000, order=1, seed=1))
        table = fit_scatter_table(scene, 1, 1e-8)
        ps = scene.point_set()
        params = random_composite_params(rng, ps, order=3, head_scale=0.3)
        params.table = table
        z = CollocationPoint(ps.omega[0], ps.mic[0], ps.src[0])
        got = hybrid_coeffs(z, params)
        from svfield.nfield import nf_forward

        nf_out = nf_forward(params.nf, PointSet.single(z).as_matrix(), params.bounds)[0]
        np.testing.assert_allclose(got.values[4:], nf_out[4:], rtol=1e-12)


class TestNllGrad:
    def test_sigma_gradient_closed_form(self, rng):
        # zero kernel: d/dsigma2 [N ln sigma2 + |y|^2 / sigma2]
        n = 6
        ps = random_points(rng, n)
        params = random_composite_params(rng, ps, head_scale=0.0)
        sigma2 = params.noise_var
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, grads = nll_grad(y, ps, params, jitter=0.0)
        d_sigma2 = n / sigma2 - float(np.sum(np.abs(y) ** 2)) / sigma2**2
        assert abs(float(grads["log_noise"]) - sigma2 * d_sigma2) < 1e-8 * max(1.0, abs(d_sigma2))

    def test_stationary_alpha_at_matched_scalar(self):
        # N = 1 with y y^H = K_y makes M vanish, so every gradient is zero
        ps = _single_point()
        params = _unit_chmat(1.0)  # K_y = [[2]]
        y = np.array([math.sqrt(2.0) + 0j])
        _, grads = nll_grad(y, ps, params, jitter=0.0)
        assert abs(float(grads["log_alpha"])) < 1e-12

    def test_matches_finite_differences_composite(self, rng):
        from svfield.kernels import CompositeKernelParams

        for draw in range(3):
            n = 10
            ps = random_points(rng, n)
            params = random_composite_params(rng, ps, order=1, encoding=5, widths=(6, 4), head_scale=0.5)
            y = 0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            l1, lexp = 1e-2, 1e-2
            loss, grads = nll_grad(y, ps, params, l1, lexp, jitter=0.0)
            tree0 = params.to_tree()

            def loss_at(tree):
                p = params.with_tree(tree)
                base = nll(y, ps, p, jitter=0.0)
                _, _, coeffs, _, _ = composite_gram_factors(ps, p)
                return base + reg_loss(coeffs, l1, lexp)

            assert abs(loss_at(tree0) - loss) < 1e-9 * max(1.0, abs(loss))
            eps = 1e-5
            for key in tree0:
                fd = np.zeros_like(tree0[key], dtype=float)
                it = np.nditer(fd, flags=["multi_index"])
                while not it.finished:
                    ix = it.multi_index
                    plus = {k: v.copy() for k, v in tree0.items()}
                    plus[key][ix] += eps
                    minus = {k: v.copy() for k, v in tree0.items()}
                    minus[key][ix] -= eps
                    fd[ix] = (loss_at(plus) - loss_at(minus)) / (2 * eps)
                    it.iternext()
                ga = np.asarray(grads[key], dtype=float)
                denom = np.linalg.norm(fd)
                if denom < 1e-5:  # below central-difference resolution
                    assert np.linalg.norm(ga - fd) < 1e-4
                else:
                    assert np.linalg.norm(ga - fd) / denom < 1e-4, key


def _tiny_scene(seed=0, n_dirs=24, n_freqs=8, order=1, noise=1e-4):
    scene = gen_sh_scene(
        SceneConfig(n_freqs=n_freqs, n_mics=2, n_dirs=n_dirs, f_min_hz=500, f_max_hz=2000, order=order, seed=seed)
    )
    noisy = add_noise(scene, noise, seed=seed + 100)
    train, test = split_observed(noisy, 8, seed=seed)
    return scene, train, test


class TestPretrain:
    def test_zero_iterations_unchanged(self):
        scene, train, _ = _tiny_scene()
        cfg = FitConfig(iterations=0, pretrain_iterations=0, batch_size=32, encoding_dim=4, hidden_widths=(4,), seed=0)
        model = fit(train, cfg)
        # config_digest is the digest of the initial parameters
        assert tree_digest(model.kernel.to_tree()) == model.config_digest

    def test_augmented_values_match_sh_baseline(self):
        scene, train, _ = _tiny_scene()
        aug_dirs, aug_values = synthesize_augmented(train, 2, 1e-5)
        degree = int(math.floor(math.sqrt(len(train.source_directions)) - 1))
        basis = sh_basis_matrix(degree, aug_dirs)
        for f in (0, 3):
            for i in (0, 1):
                c = sh_ridge_fit(train.source_directions, train.values[f, i], degree, 1e-5)
                np.testing.assert_allclose(aug_values[f, i], basis @ c.values, rtol=1e-10)

    def test_pretrain_improves_observed_nll(self):
        wins = 0
        for seed in range(5):
            scene, train, _ = _tiny_scene(seed=seed, noise=1e-3)
            cfg = FitConfig(
                iterations=0, pretrain_iterations=80, batch_size=128, eval_every=10,
                encoding_dim=8, hidden_widths=(8,), seed=seed, warmup_steps=200,
            )
            base = fit(train, replace(cfg, pretrain_iterations=0))
            tuned = fit(train, cfg)
            ps = train.point_set()
            y = train.values.reshape(-1)
            before = nll(y, ps, base.kernel)
            after = nll(y, ps, tuned.kernel)
            wins += after <= before
        assert wins >= 4


class TestFit:
    def test_zero_iterations_still_predicts(self):
        scene, train, test = _tiny_scene()
        cfg = FitConfig(iterations=0, pretrain_iterations=0, batch_size=32, encoding_dim=4, hidden_widths=(4,), seed=0)
        model = fit(train, cfg)
        mean, var = predict(model, test.point_set().take(np.arange(10)))
        assert np.all(np.isfinite(mean)) and np.all(var >= 0)

    def test_deterministic_given_seed(self):
        scene, train, _ = _tiny_scene()
        cfg = FitConfig(
            iterations=6, pretrain_iterations=3, batch_size=32, eval_every=3,
            encoding_dim=8, hidden_widths=(8,), seed=7,
        )
        a = fit(train, cfg)
        b = fit(train, cfg)
        assert tree_digest(a.kernel.to_tree()) == tree_digest(b.kernel.to_tree())

    def test_validation_nll_near_oracle_on_matched_scene(self):
        # scene drawn from the generative structure the kernel assumes
        scene = gen_sh_scene(
            SceneConfig(n_freqs=16, n_mics=2, n_dirs=64, f_min_hz=500, f_max_hz=4000, order=2, seed=3)
        )
        noisy = add_noise(scene, 1e-4, seed=5)
        train, _ = split_observed(noisy, 16, seed=3)
        cfg = FitConfig(
            iterations=150, pretrain_iterations=20, batch_size=256, eval_every=25,
            encoding_dim=16, hidden_widths=(16,), seed=3, warmup_steps=50,
        )
        model = fit(train, cfg)
        oracle = oracle_params_from_scene(scene, noise_var=1e-4)

        from svfield.geom import validation_split

        f_n, i_n, j_n = train.shape
        _, va = validation_split(np.arange(f_n * i_n * j_n), (f_n, i_n, j_n), 0.1, cfg.seed)
        ps_va = train.point_set().take(va)
        y_va = train.values.reshape(-1)[va]
        # oracle evaluated on the same observed directions
        got = nll(y_va, ps_va, model.kernel)
        ref = nll(y_va, ps_va, replace(oracle, bounds=model.kernel.bounds))
        assert got <= ref + 0.05 * abs(ref)

    def test_validation_scores_every_retained_frequency(self, monkeypatch):
        # 2,400 validation points, above the cap; their indices are sorted by frequency
        scene = gen_sh_scene(
            SceneConfig(n_freqs=32, n_mics=2, n_dirs=600, f_min_hz=500, f_max_hz=2000, order=1, seed=0)
        )
        scored = []
        real_nll = gpr.nll

        def recording(y, ps, params, jitter=None):
            scored.append(ps.omega)
            return real_nll(y, ps, params, jitter)

        monkeypatch.setattr(gpr, "nll", recording)
        cfg = FitConfig(iterations=0, pretrain_iterations=0, predict_cap=64, encoding_dim=4,
                        hidden_widths=(4,), seed=0)
        fit(scene, cfg)
        assert len(scored) == 1 and scored[0].size == 2048
        retained = 2.0 * math.pi * scene.frequencies[::2]
        np.testing.assert_array_equal(np.unique(scored[0]), retained)

    def test_capacity_cap_respected(self):
        scene, train, _ = _tiny_scene()
        cfg = FitConfig(iterations=0, pretrain_iterations=0, batch_size=32, predict_cap=16,
                        encoding_dim=4, hidden_widths=(4,), seed=0)
        model = fit(train, cfg)
        assert len(model.train) <= 16


def _scored_trees(monkeypatch, module) -> list:
    """Digest of every tree ``module``'s training loop scores on validation, in order."""
    seen = []
    real = gpr._run_steps

    def recording(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        valid_loss = bound.arguments.get("valid_loss")
        if valid_loss is not None:
            def scored(tree):
                seen.append(tree_digest(tree))
                return valid_loss(tree)

            bound.arguments["valid_loss"] = scored
        return real(*bound.args, **bound.kwargs)

    monkeypatch.setattr(module, "_run_steps", recording)
    return seen


class TestCheckpoint:
    def _assert_best_saved(self, history, seen, saved_digest):
        vals = [rec["valid_nll"] for rec in history]
        assert len(vals) == len(seen)
        best = int(np.argmin(vals))
        assert 0 < best < len(vals) - 1  # neither the start nor the last step
        assert saved_digest == seen[best]

    def test_gp_keeps_lowest_validation_nll(self, monkeypatch):
        seen = _scored_trees(monkeypatch, gpr)
        _, train, _ = _tiny_scene(n_freqs=16)  # 16 validation points
        cfg = FitConfig(iterations=40, pretrain_iterations=0, batch_size=64, eval_every=5, encoding_dim=8,
                        hidden_widths=(8,), seed=0, warmup_steps=0, lr_base=1e-3)
        model = fit(train, cfg)
        self._assert_best_saved(model.history, seen, tree_digest(model.kernel.to_tree()))

    def test_neural_field_keeps_lowest_validation_loss(self, monkeypatch):
        seen = _scored_trees(monkeypatch, baselines)
        _, train, _ = _tiny_scene(n_freqs=16)
        cfg = FitConfig.nf_baseline_defaults(iterations=100, batch_size=64, eval_every=10, encoding_dim=8,
                                             hidden_widths=(8,), gains=(1.0,) * 7, seed=0, warmup_steps=0,
                                             lr_base=3e-2)
        model = baselines.pcnn_fit(train, cfg)
        self._assert_best_saved(model.history, seen, tree_digest(model.nf.to_tree()))

    def test_gp_without_improvement_keeps_step_zero(self, monkeypatch):
        # a rate this large moves the parameters but never lowers the validation NLL
        seen = _scored_trees(monkeypatch, gpr)
        _, train, _ = _tiny_scene(n_freqs=16)
        cfg = FitConfig(iterations=40, pretrain_iterations=0, batch_size=64, eval_every=5, encoding_dim=8,
                        hidden_widths=(8,), seed=0, warmup_steps=0, lr_base=0.1)
        model = fit(train, cfg)
        vals = [rec["valid_nll"] for rec in model.history]
        assert min(vals[1:]) > vals[0]
        assert len(set(seen)) == len(seen)  # every evaluation scored other parameters
        # without pretraining, step 0 is the initial tree, whose digest is config_digest
        assert tree_digest(model.kernel.to_tree()) == seen[0] == model.config_digest


class TestPredict:
    def test_noiseless_interpolation_at_training_points(self, rng):
        # small ell against the frequency spacing keeps the spectral Gram
        # well conditioned so the noiseless limit is numerically reachable
        ps = random_points(rng, 20)
        params = random_composite_params(rng, ps, head_scale=0.5)
        params = replace(params, log_noise=math.log(1e-12), log_ell=math.log(150.0))
        _, psi, _, _, _ = composite_gram_factors(ps, params)
        hd = free_field_batch(ps.omega, ps.mic, ps.src)
        y = hd * psi * (1.0 + 0.05 * rng.standard_normal(20))
        model = build_model("gp-steerer", params, ps, y, jitter=0.0)
        mean, _ = predict(model, ps, want_var=False)
        assert np.linalg.norm(mean - y) / np.linalg.norm(y) < 1e-5

    def test_degenerate_single_point(self):
        ps = _single_point()
        params = _unit_chmat(1e-300)  # k identically 1, sigma^2 -> 0
        y = np.array([0.7 - 0.2j])
        model = build_model("gp-chmat-channel", params, ps, y, jitter=0.0)
        mean, var = predict(model, ps)
        assert abs(mean[0] - y[0]) < 1e-12
        assert var[0] < 1e-10

    def test_variance_bounded_by_prior(self, rng):
        ps = random_points(rng, 16)
        params = random_composite_params(rng, ps, head_scale=0.5)
        model = build_model("gp-steerer", params, ps, rng.standard_normal(16) + 0j)
        queries = random_points(rng, 12)
        _, var = predict(model, queries)
        from svfield.gpr import _prior_diag

        prior = _prior_diag(queries, params)
        assert np.all(var <= prior + 1e-10)

    def test_variance_monotone_in_training_set(self, rng):
        ps = random_points(rng, 9)
        params = random_composite_params(rng, ps, head_scale=0.5)
        y = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        sub = ps.take(np.arange(8))
        model_small = build_model("gp-steerer", params, sub, y[:8], jitter=0.0)
        model_full = build_model("gp-steerer", params, ps, y, jitter=0.0)
        queries = random_points(rng, 10)
        _, var_small = predict(model_small, queries)
        _, var_full = predict(model_full, queries)
        assert np.all(var_full <= var_small + 1e-10)

    def test_capacity_error(self, rng):
        ps = random_points(rng, 8)
        params = random_composite_params(rng, ps, head_scale=0.5)
        with pytest.raises(CapacityError, match="subset"):
            build_model("gp-steerer", params, ps, np.ones(8, dtype=complex), predict_cap=4)


class TestFullCovariance:
    def test_diagonal_matches_variance_and_psd(self, rng):
        from svfield.gpr import predict_full_cov

        ps = random_points(rng, 12)
        params = random_composite_params(rng, ps, head_scale=0.5)
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        model = build_model("gp-steerer", params, ps, y)
        queries = random_points(rng, 6)
        mean, var = predict(model, queries)
        mean2, cov = predict_full_cov(model, queries)
        np.testing.assert_allclose(mean, mean2, rtol=1e-12)
        np.testing.assert_allclose(np.maximum(np.real(np.diag(cov)), 0.0), var, atol=1e-10)
        np.testing.assert_array_equal(cov, cov.conj().T)
        eig = np.linalg.eigvalsh(cov)
        assert eig[0] >= -1e-8 * max(eig[-1], 1e-30)


class TestOracleParams:
    def test_oracle_table_reproduces_scene(self):
        scene = gen_sh_scene(
            SceneConfig(n_freqs=6, n_mics=2, n_dirs=20, f_min_hz=500, f_max_hz=2000, order=1, seed=2)
        )
        oracle = oracle_params_from_scene(scene, noise_var=1e-6)
        ps = scene.point_set()
        _, psi, _, _, _ = composite_gram_factors(ps, oracle)
        hd = free_field_batch(ps.omega, ps.mic, ps.src, scene.medium)
        np.testing.assert_allclose(hd * psi, scene.values.reshape(-1), rtol=1e-10)

    def test_oracle_prediction_close_on_heldout_dirs(self):
        scene = gen_sh_scene(
            SceneConfig(n_freqs=8, n_mics=2, n_dirs=48, f_min_hz=500, f_max_hz=2000, order=1, seed=4)
        )
        noisy = add_noise(scene, 1e-4, seed=6)
        train, test = split_observed(noisy, 12, seed=4)
        oracle = oracle_params_from_scene(scene, noise_var=1e-4)
        ps_train = train.point_set()
        model = build_model("gp-steerer", oracle, ps_train, train.values.reshape(-1))
        estimate = predict_grid(model, test)
        nmse = nmse_per_freq(scene.values, estimate)
        assert float(np.median(nmse)) < -20.0
