"""End-to-end driver: simulate -> fit -> evaluate -> beampattern.

Every command is a pure function of its input files, flags and seed, and
writes byte-identical outputs on reruns. Exit codes: 0 success, 2 usage,
3 schema/validation, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import baselines, beamform, datagen, metrics, modelio
from .errors import NumericError, SchemaError
from .geom import Direction, angular_distance


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "rb") as fh:
            doc = json.loads(fh.read().decode())
    except OSError as exc:
        raise SchemaError(f"{what} {path!r}: cannot read ({exc})") from exc
    except ValueError as exc:
        raise SchemaError(f"{what} {path!r}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} {path!r}: expected a JSON object")
    return doc


def _write_bytes(path: str, payload: bytes) -> str:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(payload)
    return hashlib.sha256(payload).hexdigest()


def _write_json(path: str, doc) -> str:
    return _write_bytes(path, json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n")


def _write_csv(path: str, header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    return _write_bytes(path, ("\n".join(lines) + "\n").encode())


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def cmd_simulate(args) -> int:
    doc = _load_json(args.config, "scene config")
    try:
        cfg = datagen.SceneConfig(**doc)
    except TypeError as exc:
        raise SchemaError(f"scene config: {exc}") from exc
    except ValueError as exc:
        raise SchemaError(f"scene config: {exc}") from exc
    if cfg.kind == "sh-scene":
        ds = datagen.gen_sh_scene(cfg)
    else:
        ds = datagen.gen_sphere_scene(cfg)
    datagen.write_dataset(ds, args.out)
    with open(args.out, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    f, i, j = ds.shape
    print(f"wrote {args.out}: F={f} I={i} J={j} ({f * i * j} values), sha256 {digest[:16]}")
    return 0


def cmd_fit(args) -> int:
    doc = _load_json(args.config, "fit config") if args.config else {}
    method = args.method
    seed = args.seed if args.seed is not None else int(doc.get("seed", 0))
    doc["seed"] = seed
    n_obs = args.n_obs if args.n_obs is not None else doc.get("n_obs")
    noise_var = float(doc.get("noise_var", 0.0))
    spec = modelio.METHODS[method]
    try:
        cfg = spec.config(doc)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"fit config: {exc}") from exc

    ds = datagen.read_dataset(args.dataset)
    if args.freq_subsample is not None and args.freq_subsample > 1:
        ds = ds.subsample_freq(args.freq_subsample)
    if n_obs is not None:
        train, _ = datagen.split_observed(ds, int(n_obs), seed=seed)
    else:
        train = ds
    if noise_var > 0:
        train = datagen.add_noise(train, noise_var, seed=seed)

    model = spec.fit(train, cfg, doc)

    digest = modelio.save_model(model, args.out)
    history = getattr(model, "history", [])
    loss_rows = [
        (rec.get("channel", 0), rec["step"], float(rec["train_loss"]), float(rec["valid_nll"]))
        for rec in history
    ]
    _write_csv(args.out + ".losses.csv", ("channel", "step", "train_loss", "valid_nll"), loss_rows)
    print(f"wrote {args.out}: method={method} n_obs={len(modelio.train_directions(model))} "
          f"seed={seed} sha256 {digest[:16]}")
    return 0


def _distance_to_train(test_dirs, train_dirs) -> np.ndarray:
    return np.array(
        [min(angular_distance(d, t) for t in train_dirs) for d in test_dirs]
    )


def csim_distance_table(csim: np.ndarray, dist_rad: np.ndarray, bin_deg: float = 10.0) -> list:
    """Median CSIM per angular-distance bin to the nearest observation."""
    dist_deg = np.degrees(dist_rad)
    edges = np.arange(0.0, 180.0 + bin_deg, bin_deg)
    table = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (dist_deg >= lo) & (dist_deg < hi)
        if not np.any(mask):
            continue
        table.append(
            {
                "bin_low_deg": float(lo),
                "bin_high_deg": float(hi),
                "count": int(mask.sum()),
                "median_csim": float(np.median(csim[mask])),
            }
        )
    return table


def cmd_evaluate(args) -> int:
    ds = datagen.read_dataset(args.dataset)
    model = modelio.load_model(args.model)
    try:
        estimate = modelio.predict_grid(model, ds)
    except ValueError as exc:
        raise SchemaError(f"model and dataset are incompatible: {exc}") from exc
    nmse = metrics.nmse_per_freq(ds.values, estimate)
    csim = metrics.csim_per_dir(ds.values, estimate)
    train_dirs = modelio.train_directions(model)
    dist = _distance_to_train(ds.source_directions, train_dirs)

    method = model.kind
    n_obs = len(train_dirs)
    seed = int(getattr(model, "seed", 0))
    os.makedirs(args.out, exist_ok=True)
    _write_csv(
        os.path.join(args.out, "nmse.csv"),
        ("method", "n_obs", "seed", "freq_hz", "value"),
        [(method, n_obs, seed, float(f), float(v)) for f, v in zip(ds.frequencies, nmse)],
    )
    _write_csv(
        os.path.join(args.out, "csim.csv"),
        ("method", "n_obs", "seed", "direction_id", "value"),
        [(method, n_obs, seed, j, float(v)) for j, v in enumerate(csim)],
    )
    summary = {
        "method": method,
        "n_obs": n_obs,
        "seed": seed,
        "median_nmse_db": float(np.median(nmse)),
        "median_csim": float(np.median(csim)),
        "csim_vs_angular_distance": csim_distance_table(csim, dist),
    }
    _write_json(os.path.join(args.out, "summary.json"), summary)
    print(
        f"evaluated {method}: median nMSE {summary['median_nmse_db']:.2f} dB, "
        f"median CSIM {summary['median_csim']:.4f}"
    )
    return 0


def _parse_look(doc) -> list:
    looks = doc.get("look_directions", [{"azimuth_deg": 0.0, "colatitude_deg": 90.0}])
    out = []
    for k, entry in enumerate(looks):
        try:
            out.append(
                Direction(
                    math.radians(float(entry["azimuth_deg"])),
                    math.radians(float(entry["colatitude_deg"])),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"beampattern config: look_directions[{k}]: {exc}") from exc
    return out


BEAMPATTERN_KEYS = ("look_directions", "freqs_hz", "n_phi", "n_theta", "scan_azimuths", "loading")


def cmd_beampattern(args) -> int:
    doc = _load_json(args.config, "beampattern config") if args.config else {}
    unknown = sorted(set(doc) - set(BEAMPATTERN_KEYS))
    if unknown:
        raise SchemaError(f"beampattern config: unknown key(s) {', '.join(map(repr, unknown))}")
    ds = datagen.read_dataset(args.dataset)
    model = modelio.load_model(args.model)
    looks = _parse_look(doc)
    freqs_hz = [float(f) for f in doc.get("freqs_hz", [2000.0])]
    n_phi = int(doc.get("n_phi", 36))
    n_theta = int(doc.get("n_theta", 18))
    n_scan = int(doc.get("scan_azimuths", 360))
    loading = float(doc.get("loading", 1e-6))

    freq_idx = np.array(
        sorted({int(np.argmin(np.abs(ds.frequencies - f))) for f in freqs_hz}), dtype=int
    )
    grid = beamform.equiangular_grid(n_phi, n_theta)
    grid_cols = np.array([d.colatitude for d in grid])

    oracle = baselines.fit_nn(ds)  # nearest-neighbor lookup over the full set
    sources = {"model": model, "oracle": oracle}
    svecs = {
        name: modelio.predict_directions(m, ds, grid, freq_idx) for name, m in sources.items()
    }

    os.makedirs(args.out, exist_ok=True)
    checks = []
    for name in ("model", "oracle"):
        for k, look in enumerate(looks):
            rows = []
            scan_az = np.arange(n_scan) * (2.0 * math.pi / n_scan)
            scan_dirs = [Direction(a, look.colatitude) for a in scan_az]
            scan = modelio.predict_directions(sources[name], ds, scan_dirs, freq_idx)
            look_sv = modelio.predict_directions(sources[name], ds, [look], freq_idx)
            for fi, f_index in enumerate(freq_idx):
                r = beamform.iso_scm(svecs[name][fi].T, grid_cols, n_phi, n_theta, loading)
                d = look_sv[fi, :, 0]
                w = beamform.mvdr_weights(d, r)
                checks.append(
                    {
                        "source": name,
                        "look_index": k,
                        "freq_hz": float(ds.frequencies[f_index]),
                        "distortionless_error": float(abs(np.vdot(w, d) - 1.0)),
                        "white_noise_gain_db": beamform.white_noise_gain(w, d),
                        "weights": [[float(v.real), float(v.imag)] for v in w],
                    }
                )
                gains = beamform.beampattern(w, scan[fi].T, d)
                rows.extend(
                    (float(ds.frequencies[f_index]), float(math.degrees(a)), float(g))
                    for a, g in zip(scan_az, gains)
                )
            _write_csv(
                os.path.join(args.out, f"pattern_{name}_look{k}.csv"),
                ("freq_hz", "azimuth_deg", "gain_db"),
                rows,
            )
    _write_json(os.path.join(args.out, "beampattern_checks.json"), checks)
    worst = max(c["distortionless_error"] for c in checks)
    print(f"wrote beampatterns for {len(looks)} look direction(s); "
          f"max |w^H d - 1| = {worst:.3e}")
    if worst > 1e-10:
        raise NumericError(f"distortionless constraint violated: |w^H d - 1| = {worst:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svfield",
        description="Steering-vector field reconstruction and evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit an interpolator to observed directions")
    p_fit.add_argument("--dataset", required=True)
    p_fit.add_argument("--method", required=True, choices=tuple(modelio.METHODS))
    p_fit.add_argument("--config")
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--n-obs", type=int, default=None)
    p_fit.add_argument("--seed", type=int, default=None)
    p_fit.add_argument("--freq-subsample", type=int, default=None)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("evaluate", help="predict on all directions and score")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_bp = sub.add_parser("beampattern", help="MVDR beampatterns from model steering vectors")
    p_bp.add_argument("--model", required=True)
    p_bp.add_argument("--dataset", required=True)
    p_bp.add_argument("--config")
    p_bp.add_argument("--out", required=True)
    p_bp.set_defaults(func=cmd_beampattern)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
