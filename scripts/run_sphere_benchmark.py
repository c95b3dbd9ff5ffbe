#!/usr/bin/env python3
"""Scaled interpolation benchmark on rigid-sphere scenes.

For each (n_obs, seed) cell: observe a clustered subset of directions with
measurement noise, fit the compared interpolators, and score median nMSE,
median CSIM, and CSIM restricted to test directions more than 20 degrees
from the nearest observation. Every method is fitted as ``svfield fit``
fits it with the README's fit config and ``--iterations`` steps. Emits a
long-format CSV ready for plotting.
"""

import argparse
import math
import os
import time

import numpy as np

from svfield.datagen import SceneConfig, add_noise, gen_sphere_scene, split_observed
from svfield.geom import angular_distance
from svfield.metrics import csim_per_dir, nmse_per_freq
from svfield.modelio import METHODS, predict_grid

# the README's fit.json, less its step count, observation count and noise
README_FIT = dict(pretrain_iterations=40, batch_size=384, eval_every=50, warmup_steps=100)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/sphere_benchmark")
    parser.add_argument("--methods", nargs="+", default=["gp-steerer", "nn", "sh"],
                        choices=tuple(METHODS))
    parser.add_argument("--n-obs", type=int, nargs="+", default=[8, 16, 32])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("--noise-var", type=float, default=1e-4)
    parser.add_argument("--iterations", type=int, default=300)
    args = parser.parse_args()

    os.makedirs(args.out, exist_ok=True)
    rows = []
    for seed in args.seeds:
        scene = gen_sphere_scene(
            SceneConfig(kind="sphere-scene", n_freqs=64, n_mics=4, n_dirs=240,
                        f_min_hz=125.0, f_max_hz=8000.0, sphere_radius=0.09,
                        source_radius=2.0, seed=seed)
        )
        for n_obs in args.n_obs:
            train, _ = split_observed(scene, n_obs, seed=seed)
            train = add_noise(train, args.noise_var, seed=seed + 1000)
            dist = np.array(
                [
                    min(angular_distance(d, t) for t in train.source_directions)
                    for d in scene.source_directions
                ]
            )
            far = dist > math.radians(20.0)
            for method in args.methods:
                t0 = time.time()
                doc = dict(README_FIT, iterations=args.iterations, seed=seed)
                spec = METHODS[method]
                model = spec.fit(train, spec.config(doc), doc)
                estimate = predict_grid(model, scene)
                csim = csim_per_dir(scene.values, estimate)
                rows.append(
                    {
                        "method": method,
                        "n_obs": n_obs,
                        "seed": seed,
                        "median_nmse_db": float(np.median(nmse_per_freq(scene.values, estimate))),
                        "median_csim": float(np.median(csim)),
                        "median_csim_beyond_20deg": float(np.median(csim[far])) if far.any() else math.nan,
                        "seconds": time.time() - t0,
                    }
                )
                print(
                    f"seed {seed} n_obs {n_obs:3d} {method:10s} "
                    f"nMSE {rows[-1]['median_nmse_db']:7.2f} dB  "
                    f"CSIM {rows[-1]['median_csim']:.3f}  ({rows[-1]['seconds']:.0f} s)"
                )
    header = list(rows[0].keys())
    with open(os.path.join(args.out, "benchmark.csv"), "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(repr(r[k]) if isinstance(r[k], float) else str(r[k]) for k in header) + "\n")


if __name__ == "__main__":
    main()
