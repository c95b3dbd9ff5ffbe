"""Self-test of the benchmark's checks: each passes a correct output and
rejects a perturbed one (values or predictions scaled by 1 + 1e-3, a
negative variance, a shifted likelihood, a model that loses to nearest
neighbour). The correct outputs come from svfield on small inputs; the
posterior check must also pass an exact re-derivation of the same
posterior in the low-rank weight-space form. Nothing is stored: every
reference is computed when the test runs.

    python3 svbench/selftest.py      # prints one line per case, exit 0 if all hold
"""

import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from svfield import beamform, datagen, gpr, metrics  # noqa: E402
from svfield.datagen import SceneConfig  # noqa: E402

SCALE = 1.0 + 1e-3


def weight_space_posterior(alpha, ell, noise_var, omega, v, y, omega_q, v_q):
    """The same posterior through the rank-F form f = z w, w ~ CN(0, I).

    With one column per distinct frequency, Z = Phi U sqrt(Lambda) where
    Phi holds v on its frequency's column and K_f = U Lambda U^T, so Z Z^H
    is the dense Gram; the posterior of w needs only an F x F solve.
    """
    knots = np.unique(np.concatenate([omega, omega_q]))
    kf = alpha / (ell ** 2 + (knots[:, None] - knots[None, :]) ** 2)
    lam, u = np.linalg.eigh(kf)
    root = u * np.sqrt(np.maximum(lam, 0.0))

    def features(om, vv):
        return vv[:, None] * root[np.searchsorted(knots, om)]

    z, zq = features(omega, v), features(omega_q, v_q)
    a = np.eye(len(knots)) + z.conj().T @ z / noise_var
    mean = zq @ np.linalg.solve(a, z.conj().T @ y) / noise_var
    var = np.real(np.sum(zq * np.linalg.solve(a, zq.conj().T).T, axis=1))
    return mean, var


def main() -> int:
    work = os.path.join(ROOT, ".svbench_work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    cases = []

    def case(name, fails, expect_pass):
        ok = (not fails) == expect_pass
        cases.append(ok)
        print(f"{'ok ' if ok else 'BAD'} {name}: {'passes' if not fails else fails[0]}")

    try:
        # rigid-sphere scene entries
        path = os.path.join(work, "sphere.json.gz")
        datagen.write_dataset(datagen.gen_sphere_scene(SceneConfig(
            kind="sphere-scene", n_freqs=6, n_mics=2, n_dirs=12, f_min_hz=125.0, f_max_hz=8000.0)), path)
        ds = ref.read_dataset_file(path)
        entries = [(f, i, j) for f in range(6) for i in range(2) for j in (0, 5, 11)]
        case("sphere scene", ref.check_sphere_scene(ds, entries), True)
        case("sphere scene scaled", ref.check_sphere_scene(dict(ds, values=ds["values"] * SCALE), entries), False)

        # reported nMSE / CSIM against the benchmark's own formulas
        rng = np.random.default_rng(0)
        target = ds["values"]
        est = target * (1.0 + 0.05 * (rng.standard_normal(target.shape) + 1j * rng.standard_normal(target.shape)))
        rep_nmse, rep_csim = metrics.nmse_per_freq(target, est), metrics.csim_per_dir(target, est)
        case("nmse table", ref.check_close("nmse", rep_nmse, ref.nmse_per_freq(target, est), 1e-9), True)
        case("csim table", ref.check_close("csim", rep_csim, ref.csim_per_dir(target, est), 1e-12), True)
        case("nmse table, scaled prediction",
             ref.check_close("nmse", rep_nmse, ref.nmse_per_freq(target, est * SCALE), 1e-9), False)
        case("model beats nearest neighbour", ref.check_beats(-15.0, 0.96, -2.4, 0.27), True)
        case("model loses to nearest neighbour", ref.check_beats(-2.0, 0.96, -2.4, 0.27), False)

        # MVDR weights
        sv = rng.standard_normal((30, 4)) + 1j * rng.standard_normal((30, 4))
        r = beamform.iso_scm(sv, np.linspace(0.1, 3.0, 30), 6, 6)
        d = sv[3]
        w = beamform.mvdr_weights(d, r)
        case("distortionless", ref.check_distortionless([w], [d]), True)
        case("distortionless, scaled weights", ref.check_distortionless([w * SCALE], [d]), False)

        # posterior and likelihood of a small SH scene at planted parameters
        path = os.path.join(work, "sh.json.gz")
        scene = datagen.gen_sh_scene(SceneConfig(n_freqs=6, n_mics=2, n_dirs=40, f_min_hz=250.0,
                                                 f_max_hz=8000.0, order=2, seed=3))
        datagen.write_dataset(scene, path)
        ds = ref.read_dataset_file(path)
        noisy = datagen.add_noise(scene, 1e-4, seed=4)
        train, _ = datagen.split_observed(noisy, 10, seed=5)
        planted = gpr.oracle_params_from_scene(scene, noise_var=1e-4)
        model = gpr.build_model("gp-steerer", planted, train.point_set(), train.values.reshape(-1))
        f_i, i_i, j_i = np.unravel_index(np.arange(train.values.size), train.values.shape)
        j_grid = np.array(train.provenance["direction_subset"])[j_i]
        omega, v = ref.sh_scene_features(ds, 2, f_i, i_i, j_grid)
        y = train.values.reshape(-1)
        dense = ref.DensePosterior(planted.alpha, planted.ell, 1e-4, omega, v, y)
        held = np.setdiff1d(np.arange(40), train.provenance["direction_subset"])[:3]
        qf, qi, qj = (a.reshape(-1) for a in np.meshgrid(np.arange(6), np.arange(2), held, indexing="ij"))
        omega_q, v_q = ref.sh_scene_features(ds, 2, qf, qi, qj)
        grid = scene.point_set()
        mean, var = gpr.predict(model, grid.take((qf * 2 + qi) * 40 + qj), want_var=True)
        ref_mean, ref_var = dense.predict(omega_q, v_q)
        prior = dense.prior_var(v_q)
        scale = float(np.sqrt(np.mean(np.abs(ds["values"]) ** 2)))
        case("posterior", ref.check_posterior(mean, var, ref_mean, ref_var, prior, scale), True)
        ws_mean, ws_var = weight_space_posterior(planted.alpha, planted.ell, 1e-4, omega, v, y, omega_q, v_q)
        case("posterior, weight-space re-derivation",
             ref.check_posterior(ws_mean, ws_var, ref_mean, ref_var, prior, scale), True)
        case("posterior, scaled mean",
             ref.check_posterior(mean * SCALE, var, ref_mean, ref_var, prior, scale), False)
        bad_var = var.copy()
        bad_var[0] = -abs(var[0]) - 1e-12
        case("posterior, negative variance",
             ref.check_posterior(mean, bad_var, ref_mean, ref_var, prior, scale), False)
        case("variance range", ref.check_variance_range(var, prior), True)
        case("variance range, negative variance", ref.check_variance_range(bad_var, prior), False)
        nll = gpr.nll(y, train.point_set(), planted)
        case("nll", ref.check_nll(nll, dense.nll()), True)
        case("nll, shifted", ref.check_nll(nll + 1e-4 * abs(nll), dense.nll()), False)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{sum(cases)}/{len(cases)} cases hold")
    return 0 if all(cases) else 1


if __name__ == "__main__":
    sys.exit(main())
