import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_composite_params, random_direction, random_points
from svfield.baselines import (
    NnModel,
    fit_gp_chmat,
    fit_krr,
    fit_nn,
    fit_sh_ridge,
    krr_fit,
    krr_predict,
    nf_direct_fit,
    nf_gw_fit,
    nn_interp,
    pcnn_fit,
)
from svfield.datagen import FieldDataset, SceneConfig, add_noise, default_mic_positions, gen_sh_scene, split_observed
from svfield.errors import NumericError
from svfield.geom import Direction, PointSet, angular_distance, fibonacci_sphere
from svfield.gpr import FitConfig, build_model, predict
from svfield.kernels import ChmatKernelParams, chmat_cross, chmat_gram, composite_cross, composite_gram
from svfield.metrics import nmse_per_freq
from svfield.modelio import predict_grid
from svfield.nfield import nf_forward
from svfield.physics import free_field_batch, geometric_warp_batch
from svfield.sphharm import sh_spectrum, ShCoefficients


class TestNnInterp:
    def test_exact_at_training_direction(self, rng):
        dirs = fibonacci_sphere(20)
        values = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        assert nn_interp(dirs, values, dirs[7]) == values[7]

    def test_single_point_constant(self, rng):
        dirs = [Direction(0.3, 1.0)]
        values = np.array([1.5 - 0.5j])
        for _ in range(5):
            assert nn_interp(dirs, values, random_direction(rng)) == values[0]

    def test_matches_brute_force_argmin(self, rng):
        dirs = [random_direction(rng) for _ in range(40)]
        values = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        for _ in range(25):
            q = random_direction(rng)
            best = min(range(40), key=lambda k: (angular_distance(dirs[k], q), k))
            assert nn_interp(dirs, values, q) == values[best]

    def test_idempotent_on_training_set(self, rng):
        scene = gen_sh_scene(SceneConfig(n_freqs=4, n_mics=2, n_dirs=12, f_min_hz=500, f_max_hz=2000, order=1, seed=0))
        model = fit_nn(scene)
        np.testing.assert_array_equal(predict_grid(model, scene), scene.values)


class TestKrr:
    def test_interpolates_in_small_lambda_limit(self, rng):
        ps = random_points(rng, 12)
        # alpha = ell^2 gives a unit prior diagonal, so lambda is relative
        kern = ChmatKernelParams(
            log_alpha=2 * math.log(300.0), log_ell=math.log(300.0), log_ell_d=0.0, log_noise=-5.0
        )
        y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        alphas = krr_fit(ps, y, lambda p: chmat_gram(p, kern, jitter=0.0), 1e-10)
        back = krr_predict(alphas, ps, lambda q, t: chmat_cross(q, t, kern), ps)
        assert np.linalg.norm(back - y) / np.linalg.norm(y) < 1e-8

    def test_zero_targets(self, rng):
        ps = random_points(rng, 8)
        kern = ChmatKernelParams(log_alpha=0.0, log_ell=math.log(300.0), log_ell_d=0.0, log_noise=-5.0)
        alphas = krr_fit(ps, np.zeros(8), lambda p: chmat_gram(p, kern, jitter=0.0), 1e-3)
        assert np.allclose(alphas, 0.0)

    @pytest.mark.parametrize("kernel", ["chmat", "composite"])
    def test_equals_gp_mean(self, rng, kernel):
        # representer solution with ridge lambda equals the GP posterior
        # mean whose noise variance is lambda
        ps = random_points(rng, 14)
        queries = random_points(rng, 6)
        y = rng.standard_normal(14) + 1j * rng.standard_normal(14)
        lam = 1e-3
        if kernel == "chmat":
            kern = ChmatKernelParams(
                log_alpha=0.0, log_ell=math.log(300.0), log_ell_d=0.0, log_noise=math.log(lam)
            )
            gram_fn = lambda p: chmat_gram(p, kern, jitter=0.0)
            cross_fn = lambda q, t: chmat_cross(q, t, kern)
            model = build_model("gp-chmat-channel", kern, ps, y, jitter=0.0)
        else:
            kern = random_composite_params(rng, ps, head_scale=0.5)
            kern = replace(kern, log_noise=math.log(lam))
            gram_fn = lambda p: composite_gram(p, kern, jitter=0.0)
            cross_fn = lambda q, t: composite_cross(q, t, kern)
            model = build_model("gp-steerer", kern, ps, y, jitter=0.0)
        alphas = krr_fit(ps, y, gram_fn, lam)
        krr_mean = krr_predict(alphas, ps, cross_fn, queries)
        gp_mean, _ = predict(model, queries, want_var=False)
        assert np.max(np.abs(krr_mean - gp_mean)) < 1e-10

    def test_singular_system(self, rng):
        ps = random_points(rng, 4)
        with pytest.raises(NumericError):
            krr_fit(ps, np.ones(4), lambda p: np.zeros((4, 4), dtype=complex), 0.0)


def _smooth_scene(seed=0, n_dirs=48, noise=1e-4):
    scene = gen_sh_scene(
        SceneConfig(n_freqs=8, n_mics=2, n_dirs=n_dirs, f_min_hz=500, f_max_hz=2000, order=1,
                    smoothness=0.95, seed=seed)
    )
    noisy = add_noise(scene, noise, seed=seed + 50)
    train, _ = split_observed(noisy, 16, seed=seed)
    return scene, train


class TestGpChmat:
    def test_reproduces_observations_small_noise(self, rng):
        ps = random_points(rng, 10)
        kern = ChmatKernelParams(
            log_alpha=0.0, log_ell=math.log(250.0), log_ell_d=0.0, log_noise=math.log(1e-12)
        )
        y = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        model = build_model("gp-chmat-channel", kern, ps, y, jitter=0.0)
        mean, _ = predict(model, ps, want_var=False)
        assert np.linalg.norm(mean - y) / np.linalg.norm(y) < 1e-5

    def test_prior_variance_constant(self, rng):
        from svfield.gpr import _prior_diag

        kern = ChmatKernelParams(log_alpha=math.log(2.0), log_ell=0.0, log_ell_d=0.0, log_noise=-3.0)
        diag = _prior_diag(random_points(rng, 7), kern)
        np.testing.assert_allclose(diag, 2.0, rtol=1e-12)

    def test_beats_nn_on_smooth_scene(self):
        wins = 0
        for seed in range(3):
            scene, train = _smooth_scene(seed=seed)
            cfg = FitConfig(iterations=60, batch_size=512, pretrain_iterations=0, eval_every=20, seed=seed)
            gp = fit_gp_chmat(train, cfg)
            nn = fit_nn(train, seed=seed)
            gp_med = float(np.median(nmse_per_freq(scene.values, predict_grid(gp, scene))))
            nn_med = float(np.median(nmse_per_freq(scene.values, predict_grid(nn, scene))))
            wins += gp_med <= nn_med
        assert wins >= 2


class TestShRidgeBaseline:
    def test_order_rule_default(self):
        scene = gen_sh_scene(SceneConfig(n_freqs=4, n_mics=1, n_dirs=16, f_min_hz=500, f_max_hz=2000, order=1, seed=0))
        model = fit_sh_ridge(scene)
        assert model.order == 3  # floor(sqrt(16) - 1)

    def test_recovers_bandlimited_field(self):
        scene = gen_sh_scene(SceneConfig(n_freqs=4, n_mics=2, n_dirs=36, f_min_hz=500, f_max_hz=2000, order=1, seed=1))
        # (5+1)^2 = 36 = J: at vanishing ridge the fit interpolates exactly
        model = fit_sh_ridge(scene, order=5, lam=1e-10)
        pred = predict_grid(model, scene)
        rel = np.linalg.norm(pred - scene.values) / np.linalg.norm(scene.values)
        assert rel < 1e-6


class TestNfBaselines:
    def _const_dataset(self, const=0.31 - 0.17j):
        freqs = np.linspace(500, 2000, 16)
        mics = default_mic_positions(2)
        dirs = fibonacci_sphere(12)
        values = np.full((16, 2, 12), const, dtype=complex)
        return FieldDataset(freqs, mics, dirs, 1.5, values)

    def _convergence_cfg(self, seed=0, iterations=2000, lr=3e-2):
        return FitConfig.nf_baseline_defaults(
            iterations=iterations,
            batch_size=4096,
            encoding_dim=8,
            hidden_widths=(16,),
            gains=(1.0,) * 7,
            lr_start=1e-3,
            lr_base=lr,
            lr_floor=1e-4,
            warmup_steps=200,
            eval_every=1,
            seed=seed,
        )

    def test_constant_target_convergence(self):
        from svfield.geom import validation_split

        ds = self._const_dataset()
        model = nf_direct_fit(ds, self._convergence_cfg())
        err = np.abs(predict_grid(model, ds) - ds.values)
        f, i, j = ds.shape
        tr, _ = validation_split(np.arange(f * i * j), (f, i, j), 0.1, 0)
        assert err.reshape(-1)[tr].max() < 1e-3  # converged at the points it saw
        assert math.sqrt(float((err**2).mean())) < 1e-3  # near-constant everywhere

    def test_zero_iterations_zero_predictor(self):
        ds = self._const_dataset()
        model = nf_direct_fit(ds, self._convergence_cfg(iterations=0))
        np.testing.assert_array_equal(predict_grid(model, ds), np.zeros(ds.shape, dtype=complex))

    def test_training_loss_nonincreasing_in_medians(self):
        ds = self._const_dataset()
        model = nf_direct_fit(ds, self._convergence_cfg(lr=3e-3))
        losses = np.array([h["train_loss"] for h in model.history if not math.isnan(h["train_loss"])])
        medians = [float(np.median(chunk)) for chunk in np.array_split(losses, len(losses) // 100)]
        drops = sum(b <= a * (1 + 1e-9) for a, b in zip(medians, medians[1:]))
        assert drops == len(medians) - 1

    def test_gw_predictor_factorizes(self, rng):
        ds = self._const_dataset()
        model = nf_gw_fit(ds, self._convergence_cfg(iterations=30))
        ps = ds.point_set()
        warp = geometric_warp_batch(ps.omega, ps.mic, ps.src, model.reference, ds.medium)
        net = nf_forward(model.nf, ps.as_matrix(), model.bounds)[:, 0]
        np.testing.assert_allclose(model.predict_points(ps), warp * net, rtol=1e-12)

    def test_gw_equals_net_at_reference_mic(self, rng):
        ds = self._const_dataset()
        model = nf_gw_fit(ds, self._convergence_cfg(iterations=30))
        n = 6
        u = rng.normal(size=(n, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        ps = PointSet(
            rng.uniform(2 * math.pi * 500, 2 * math.pi * 2000, n),
            np.tile(model.reference, (n, 1)),
            1.5 * u,
        )
        net = nf_forward(model.nf, ps.as_matrix(), model.bounds)[:, 0]
        np.testing.assert_allclose(model.predict_points(ps), net, rtol=1e-12)

    def test_gw_learns_direction_independent_gain_on_warp_target(self):
        # target equal to the warp field itself: the residual net should
        # approach a direction-independent gain
        freqs = np.linspace(500, 2000, 16)
        mics = default_mic_positions(2)
        dirs = fibonacci_sphere(24)
        ds0 = FieldDataset(freqs, mics, dirs, 1.5, np.ones((16, 2, 24), dtype=complex))
        ps = ds0.point_set()
        warp = geometric_warp_batch(ps.omega, ps.mic, ps.src, ds0.q0)
        ds = FieldDataset(freqs, mics, dirs, 1.5, warp.reshape(ds0.shape))
        model = nf_gw_fit(ds, self._convergence_cfg(iterations=1500))
        probe_dirs = fibonacci_sphere(64)
        n = len(probe_dirs)
        probe = PointSet(
            np.full(n, 2 * math.pi * 1000.0),
            np.tile(mics[0], (n, 1)),
            1.5 * np.array([d.unit_vector() for d in probe_dirs]),
        )
        net = nf_forward(model.nf, probe.as_matrix(), model.bounds)[:, 0]
        assert np.std(np.abs(net)) / np.mean(np.abs(net)) < 0.1

    def test_pcnn_zero_head_zero_predictor(self):
        ds = self._const_dataset()
        model = pcnn_fit(ds, self._convergence_cfg(iterations=0))
        np.testing.assert_array_equal(predict_grid(model, ds), np.zeros(ds.shape, dtype=complex))

    def test_pcnn_model_matched_convergence(self):
        scene = gen_sh_scene(
            SceneConfig(n_freqs=8, n_mics=2, n_dirs=32, f_min_hz=500, f_max_hz=2000, order=1,
                        smoothness=1.0, seed=2)
        )
        cfg = self._convergence_cfg(iterations=3000, seed=2)
        model = pcnn_fit(scene, cfg, order=1)
        pred = predict_grid(model, scene)
        nmse = nmse_per_freq(scene.values, pred)
        assert float(np.median(nmse)) <= -20.0

    def test_pcnn_spectrum_concentrated(self):
        scene = gen_sh_scene(
            SceneConfig(n_freqs=8, n_mics=2, n_dirs=32, f_min_hz=500, f_max_hz=2000, order=1,
                        smoothness=1.0, seed=2)
        )
        cfg = self._convergence_cfg(iterations=3000, seed=2)
        model = pcnn_fit(scene, cfg, order=3)
        # demodulated predictor is a degree-3 expansion by construction;
        # after fitting a degree-1 scene its energy concentrates below l=2
        dense = fibonacci_sphere(100)
        from svfield.sphharm import sh_ridge_fit

        pred = np.asarray(
            [
                model.predict_points(
                    PointSet(
                        np.full(100, 2 * math.pi * float(f)),
                        np.tile(scene.mic_positions[0], (100, 1)),
                        1.5 * np.array([d.unit_vector() for d in dense]),
                    )
                )
                for f in scene.frequencies
            ]
        )
        hd = free_field_batch(
            2 * math.pi * scene.frequencies[:, None],
            scene.mic_positions[0][None, None, :],
            1.5 * np.array([d.unit_vector() for d in dense])[None, :, :],
        )
        energies = []
        for f in range(scene.frequencies.shape[0]):
            coeffs = sh_ridge_fit(dense, pred[f] / hd[f], 3, 1e-9)
            spec = sh_spectrum(coeffs)
            weights = np.array([2 * l + 1 for l in range(4)])
            tot = float(np.sum(weights * spec**2))
            low = float(np.sum(weights[:2] * spec[:2] ** 2))
            energies.append(low / max(tot, 1e-300))
        assert float(np.median(energies)) >= 0.9
