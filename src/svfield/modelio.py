"""The method registry and the model file format.

``METHODS`` holds one ``Method`` per model kind: how it is fitted from a
config document, how its payload is written and read inside the JSON
envelope (whose ``kind`` names the entry), how it predicts at directions
on a dataset's frequencies, and which datasets it can serve. The CLI and
the scripts read the registry, so a method is added by one entry here.
Entries reach the fit and predict functions through their modules at call
time, so a wrapper installed on e.g. ``baselines.fit_krr`` or
``gpr.predict`` sees every call.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import baselines, gpr
from .baselines import ChmatEnsemble, KrrChannel, KrrModel, NfFieldModel, NnModel, ShRidgeModel, _channel_indices
from .errors import SchemaError
from .geom import Direction, PointSet, cart_to_sph, sph_to_cart
from .gpr import NF_BASELINE_DEFAULTS, SCALAR_KEYS, FitConfig, build_model, predict
from .kernels import ChmatKernelParams, CoeffTable, CompositeKernelParams
from .nfield import NfParams
from .physics import MediumParams
from .sphharm import sh_basis_matrix

MODEL_SCHEMA_VERSION = 1

FIT_KEYS = frozenset(f.name for f in fields(FitConfig))
# a fit config document holds FitConfig fields and these, read by cli.cmd_fit and the registry
CONFIG_KEYS = FIT_KEYS | {"n_obs", "noise_var", "seed", "krr_lambda", "sh_lambda"}
STEERER_SCALARS = ("log_alpha", "log_ell", "log_noise")


@dataclass(frozen=True)
class Method:
    """One model kind: fit, payload, prediction and compatibility rule."""

    name: str
    fit: Callable  # (train dataset, FitConfig, config document) -> model
    write: Callable  # model -> payload dict
    read: Callable  # (payload, envelope fields) -> model
    predict: Callable  # (model, dataset, directions, frequency indices) -> (Fq, I, Jd)
    defaults: dict = field(default_factory=dict)  # FitConfig values a config may override
    mic_order: bool = False  # channel-indexed: the same mic rows in the same order
    freq_grid: bool = False  # grid-bound: also the same frequency grid
    train_dirs: Callable = lambda model: list(model.train_dirs)
    mic_positions: Callable = lambda model: np.asarray(model.mic_positions)

    def config(self, doc: dict) -> FitConfig:
        """The FitConfig a config document asks for, over this method's defaults."""
        unknown = sorted(set(doc) - CONFIG_KEYS)
        if unknown:
            raise SchemaError(f"unknown key(s) {', '.join(map(repr, unknown))}")
        opts = {k: v for k, v in doc.items() if k in FIT_KEYS}
        for key in ("hidden_widths", "gains"):
            if key in opts:
                opts[key] = tuple(opts[key])
        return FitConfig(**{**self.defaults, **opts})


def _real(arr) -> dict:
    arr = np.asarray(arr, dtype=float)
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.reshape(-1)]}


def _load_real(doc) -> np.ndarray:
    return np.array(doc["data"], dtype=float).reshape(doc["shape"])


def _cplx(arr) -> dict:
    arr = np.asarray(arr, dtype=complex)
    flat = arr.reshape(-1)
    return {
        "shape": list(arr.shape),
        "re": [float(v) for v in flat.real],
        "im": [float(v) for v in flat.imag],
    }


def _load_cplx(doc) -> np.ndarray:
    return (np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)).reshape(
        doc["shape"]
    )


def _dirs_out(dirs) -> list:
    return [{"azimuth": float(d.azimuth), "colatitude": float(d.colatitude)} for d in dirs]


def _dirs_in(doc) -> list:
    return [Direction(float(d["azimuth"]), float(d["colatitude"])) for d in doc]


def _nf_out(nf: NfParams) -> dict:
    return {
        "enc_w": _real(nf.enc_w),
        "enc_b": _real(nf.enc_b),
        "hidden": [[_real(w), _real(b)] for w, b in nf.hidden],
        "head_w": _real(nf.head_w),
        "gains": _real(nf.gains),
    }


def _nf_in(doc) -> NfParams:
    return NfParams(
        enc_w=_load_real(doc["enc_w"]),
        enc_b=_load_real(doc["enc_b"]),
        hidden=[(_load_real(w), _load_real(b)) for w, b in doc["hidden"]],
        head_w=_load_real(doc["head_w"]),
        gains=_load_real(doc["gains"]),
    )


def _points_out(ps: PointSet) -> dict:
    return {"omega": _real(ps.omega), "mic": _real(ps.mic), "src": _real(ps.src)}


def _points_in(doc) -> PointSet:
    return PointSet(_load_real(doc["omega"]), _load_real(doc["mic"]), _load_real(doc["src"]))


def _bounds_out(bounds) -> dict:
    return {"lo": _real(bounds[0]), "hi": _real(bounds[1])}


def _bounds_in(doc) -> tuple:
    return (_load_real(doc["lo"]), _load_real(doc["hi"]))


def _table_out(table: CoeffTable | None):
    if table is None:
        return None
    return {
        "omegas": _real(table.omegas),
        "mic_positions": _real(table.mic_positions),
        "degree": int(table.degree),
        "coeffs": _cplx(table.coeffs),
    }


def _table_in(doc) -> CoeffTable | None:
    if doc is None:
        return None
    return CoeffTable(
        omegas=_load_real(doc["omegas"]),
        mic_positions=_load_real(doc["mic_positions"]),
        degree=int(doc["degree"]),
        coeffs=_load_cplx(doc["coeffs"]),
    )


def _scalars_in(doc, keys) -> dict:
    return {k: float(doc["scalars"][k]) for k in keys}


def _chmat_kernel_out(k: ChmatKernelParams) -> dict:
    return {
        "scalars": {key: float(getattr(k, key)) for key in SCALAR_KEYS},
        "q0": _real(k.q0),
        "speed_of_sound": float(k.medium.speed_of_sound),
    }


def _chmat_kernel_in(doc) -> ChmatKernelParams:
    return ChmatKernelParams(
        **_scalars_in(doc, SCALAR_KEYS),
        q0=_load_real(doc["q0"]),
        medium=MediumParams(float(doc["speed_of_sound"])),
    )


def _gp_data_out(model) -> dict:
    """A GP's conditioning set; loading refactors it with ``build_model``."""
    return {
        "train": _points_out(model.train),
        "train_values": _cplx(model.y),
        "jitter": model.jitter,
        "predict_cap": int(model.predict_cap),
    }


def _gp_in(kind: str, kernel, doc, **extra):
    return build_model(
        kind,
        kernel,
        _points_in(doc["train"]),
        _load_cplx(doc["train_values"]),
        jitter=doc["jitter"],
        predict_cap=int(doc["predict_cap"]),
        **extra,
    )


def _layout_out(model) -> dict:
    return {"frequencies": _real(model.frequencies), "mic_positions": _real(model.mic_positions)}


def _layout_in(doc) -> dict:
    return {
        "frequencies": _load_real(doc["frequencies"]),
        "mic_positions": _load_real(doc["mic_positions"]),
    }


# ------------------------------------------------------------------ payloads
# Readers take the payload and the envelope fields ``train_dirs``, ``seed``
# and ``config_digest``.


def _gp_steerer_out(model) -> dict:
    k: CompositeKernelParams = model.kernel
    return {
        "scalars": {key: float(getattr(k, key)) for key in STEERER_SCALARS},
        "sh_order": int(k.sh_order),
        "q0": _real(k.q0),
        "bounds": _bounds_out(k.bounds),
        "table": _table_out(k.table),
        "nf": _nf_out(k.nf),
        "speed_of_sound": float(k.medium.speed_of_sound),
        **_gp_data_out(model),
        "history": model.history,
    }


def _gp_steerer_in(doc, env):
    kernel = CompositeKernelParams(
        **_scalars_in(doc, STEERER_SCALARS),
        sh_order=int(doc["sh_order"]),
        nf=_nf_in(doc["nf"]),
        q0=_load_real(doc["q0"]),
        bounds=_bounds_in(doc["bounds"]),
        table=_table_in(doc["table"]),
        medium=MediumParams(float(doc["speed_of_sound"])),
    )
    return _gp_in("gp-steerer", kernel, doc, seed=env["seed"], config_digest=env["config_digest"],
                  history=doc.get("history", []))


def _chmat_out(model: ChmatEnsemble) -> dict:
    return {
        **_layout_out(model),
        "channels": [{**_chmat_kernel_out(ch.kernel), **_gp_data_out(ch)} for ch in model.channels],
        "history": model.history,
    }


def _chmat_in(doc, env) -> ChmatEnsemble:
    channels = [_gp_in("gp-chmat-channel", _chmat_kernel_in(ch), ch, seed=env["seed"])
                for ch in doc["channels"]]
    return ChmatEnsemble(**_layout_in(doc), **env, channels=channels, history=doc.get("history", []))


def _krr_out(model: KrrModel) -> dict:
    return {
        **_layout_out(model),
        "lam": float(model.lam),
        "channels": [
            {**_chmat_kernel_out(ch.kernel), "train": _points_out(ch.train), "alphas": _cplx(ch.alpha_vec)}
            for ch in model.channels
        ],
    }


def _krr_in(doc, env) -> KrrModel:
    channels = [KrrChannel(_chmat_kernel_in(ch), _points_in(ch["train"]), _load_cplx(ch["alphas"]))
                for ch in doc["channels"]]
    return KrrModel(**_layout_in(doc), **env, channels=channels, lam=float(doc["lam"]))


def _sh_out(model: ShRidgeModel) -> dict:
    return {**_layout_out(model), "order": int(model.order), "lam": float(model.lam),
            "coeffs": _cplx(model.coeffs)}


def _sh_in(doc, env) -> ShRidgeModel:
    return ShRidgeModel(**_layout_in(doc), **env, order=int(doc["order"]), lam=float(doc["lam"]),
                        coeffs=_load_cplx(doc["coeffs"]))


def _nn_out(model: NnModel) -> dict:
    return {**_layout_out(model), "values": _cplx(model.values)}


def _nn_in(doc, env) -> NnModel:
    return NnModel(**_layout_in(doc), **env, values=_load_cplx(doc["values"]))


def _nf_model_out(model: NfFieldModel) -> dict:
    return {
        **_layout_out(model),
        "nf": _nf_out(model.nf),
        "bounds": _bounds_out(model.bounds),
        "q0": _real(model.q0),
        "reference": _real(model.reference),
        "order": None if model.order is None else int(model.order),
        "speed_of_sound": float(model.medium.speed_of_sound),
        "history": model.history,
    }


def _nf_model_in(kind: str, doc, env) -> NfFieldModel:
    return NfFieldModel(
        kind=kind,
        **_layout_in(doc),
        **env,
        nf=_nf_in(doc["nf"]),
        bounds=_bounds_in(doc["bounds"]),
        q0=_load_real(doc["q0"]),
        reference=_load_real(doc["reference"]),
        order=None if doc["order"] is None else int(doc["order"]),
        medium=MediumParams(float(doc["speed_of_sound"])),
        history=doc.get("history", []),
    )


# ------------------------------------------------------------------ prediction


def _query_points(dataset, dirs, freq_indices) -> PointSet:
    """Points in (frequency, mic, direction) order at the dataset's mics and radius."""
    i_n, j_d = dataset.mic_positions.shape[0], len(dirs)
    src = np.array([dataset.q0 + sph_to_cart(d, dataset.source_radius) for d in dirs])
    omegas = 2.0 * math.pi * dataset.frequencies[freq_indices]
    return PointSet(
        np.repeat(omegas, i_n * j_d),
        np.tile(np.repeat(dataset.mic_positions, j_d, axis=0), (len(freq_indices), 1)),
        np.tile(src, (len(freq_indices) * i_n, 1)),
    )


def _pointwise(values):
    """Predictor of a model queried at points: ``values(model, points)``."""

    def at(model, dataset, dirs, freq_indices):
        shape = (len(freq_indices), dataset.mic_positions.shape[0], len(dirs))
        return values(model, _query_points(dataset, dirs, freq_indices)).reshape(shape)

    return at


def _per_channel(model, dataset, dirs, freq_indices):
    """Channel i's chordal-Matern model serves mic i's points (gp-chmat, krr)."""
    f_q, i_n, j_d = len(freq_indices), len(model.channels), len(dirs)
    ps = _query_points(dataset, dirs, freq_indices)
    out = np.empty((f_q, i_n, j_d), dtype=complex)
    for i, channel in enumerate(model.channels):
        mean, _ = predict(channel, ps.take(_channel_indices(f_q, i_n, j_d, i)), want_var=False)
        out[:, i, :] = mean.reshape(f_q, j_d)
    return out


def _nn_at(model: NnModel, dataset, dirs, freq_indices):
    units = np.array([d.unit_vector() for d in model.train_dirs])
    q_units = np.array([d.unit_vector() for d in dirs])
    return model.values[freq_indices][:, :, np.argmax(q_units @ units.T, axis=1)]


def _sh_at(model: ShRidgeModel, dataset, dirs, freq_indices):
    return np.einsum("fid,jd->fij", model.coeffs[freq_indices], sh_basis_matrix(model.order, dirs))


def _gp_train_dirs(model) -> list:
    uniq = np.unique(np.round(model.train.src, 12), axis=0)
    return [cart_to_sph(row - model.kernel.q0)[0] for row in uniq]


def _gp_mic_positions(model) -> np.ndarray:
    if model.kernel.table is not None:
        return model.kernel.table.mic_positions
    return np.unique(np.round(model.train.mic, 12), axis=0)


def _neural_field(name: str, fit) -> Method:
    return Method(
        name,
        fit=fit,
        write=_nf_model_out,
        read=lambda doc, env: _nf_model_in(name, doc, env),
        predict=_pointwise(lambda model, ps: model.predict_points(ps)),
        defaults=NF_BASELINE_DEFAULTS,
    )


METHODS = {
    m.name: m
    for m in (
        Method("gp-steerer", fit=lambda train, cfg, doc: gpr.fit(train, cfg),
               write=_gp_steerer_out, read=_gp_steerer_in,
               predict=_pointwise(lambda model, ps: predict(model, ps, want_var=False)[0]),
               train_dirs=_gp_train_dirs, mic_positions=_gp_mic_positions),
        Method("gp-chmat", fit=lambda train, cfg, doc: baselines.fit_gp_chmat(train, cfg),
               write=_chmat_out, read=_chmat_in, predict=_per_channel,
               defaults={"iterations": 150, "pretrain_iterations": 0}, mic_order=True),
        Method("krr", fit=lambda train, cfg, doc: baselines.fit_krr(
                   train, lam_rel=float(doc.get("krr_lambda", 1e-3)), seed=cfg.seed),
               write=_krr_out, read=_krr_in, predict=_per_channel, mic_order=True),
        Method("sh", fit=lambda train, cfg, doc: baselines.fit_sh_ridge(
                   train, order=cfg.sh_order, lam=float(doc.get("sh_lambda", 1e-5)), seed=cfg.seed),
               write=_sh_out, read=_sh_in, predict=_sh_at, mic_order=True, freq_grid=True),
        Method("nn", fit=lambda train, cfg, doc: baselines.fit_nn(train, seed=cfg.seed),
               write=_nn_out, read=_nn_in, predict=_nn_at, mic_order=True, freq_grid=True),
        _neural_field("nf", lambda train, cfg, doc: baselines.nf_direct_fit(train, cfg)),
        _neural_field("nf-gw", lambda train, cfg, doc: baselines.nf_gw_fit(train, cfg)),
        _neural_field("pcnn", lambda train, cfg, doc: baselines.pcnn_fit(train, cfg)),
    )
}


def method_of(model) -> Method:
    try:
        return METHODS[model.kind]
    except KeyError:
        raise ValueError(f"no method is registered for model kind {model.kind!r}") from None


def train_directions(model) -> list:
    """Observed source directions retained by any fitted model."""
    return method_of(model).train_dirs(model)


def _same_rows_any_order(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether the rows of ``b`` are the rows of ``a`` in some order."""
    close = np.all(np.isclose(a[:, None, :], b[None, :, :], atol=1e-9), axis=2)
    free = np.ones(b.shape[0], dtype=bool)
    for row in close:
        hits = np.flatnonzero(row & free)
        if hits.size == 0:
            return False
        free[hits[0]] = False
    return True


def check_compatible(model, dataset) -> None:
    """Raise ValueError unless the model can serve the dataset: the same mic
    rows (in the same order for channel-indexed kinds) and, for grid-bound
    kinds, the same frequency grid."""
    method = method_of(model)
    mics, ds_mics = method.mic_positions(model), dataset.mic_positions
    if method.mic_order:
        same = mics.shape == ds_mics.shape and np.allclose(mics, ds_mics, atol=1e-9)
    else:
        same = mics.shape == ds_mics.shape and _same_rows_any_order(mics, ds_mics)
    if not same:
        order = " or in another order" if method.mic_order else ""
        raise ValueError(
            f"model was fitted on {mics.shape[0]} microphone(s) at different positions{order} "
            f"than the dataset's {ds_mics.shape[0]}"
        )
    if method.freq_grid and (
        dataset.frequencies.shape != model.frequencies.shape
        or not np.allclose(dataset.frequencies, model.frequencies, rtol=0, atol=1e-9)
    ):
        raise ValueError("dataset frequency grid differs from the fitted model")


def save_model(model, path: str) -> str:
    """Write the JSON envelope; returns the content digest."""
    method = method_of(model)
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "seed": int(model.seed),
        "config_digest": model.config_digest,
        "train_directions": _dirs_out(method.train_dirs(model)),
        "payload": method.write(model),
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    if str(path).endswith(".gz"):
        with gzip.GzipFile(filename="", mode="wb", fileobj=open(path, "wb"), mtime=0) as fh:
            fh.write(payload)
    else:
        with open(path, "wb") as fh:
            fh.write(payload)
    return hashlib.sha256(payload).hexdigest()


def load_model(path: str):
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        try:
            doc = json.loads(fh.read().decode())
        except (ValueError, OSError) as exc:
            raise SchemaError(f"/: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError("/: expected a JSON object")
    if doc.get("schema_version") != MODEL_SCHEMA_VERSION:
        raise SchemaError(
            f"/schema_version: unsupported version {doc.get('schema_version')!r}"
        )
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in METHODS:
        raise SchemaError(f"/kind: unknown model kind {kind!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("/payload: missing model payload")
    try:
        env = {
            "train_dirs": _dirs_in(doc.get("train_directions", [])),
            "seed": int(doc.get("seed", 0)),
            "config_digest": doc.get("config_digest", ""),
        }
        return METHODS[kind].read(payload, env)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"/payload: malformed {kind} model ({exc})") from exc


def predict_directions(model, dataset, dirs, freq_indices) -> np.ndarray:
    """(Fq, I, Jd) predictions at arbitrary directions on dataset frequencies.

    Grid-bound interpolators (nearest-neighbor, SH ridge) evaluate at the
    indexed dataset frequencies; continuous models evaluate the same values.
    """
    check_compatible(model, dataset)
    freq_indices = np.asarray(freq_indices, dtype=int).reshape(-1)
    return method_of(model).predict(model, dataset, list(dirs), freq_indices)


def predict_grid(model, dataset) -> np.ndarray:
    """(F, I, J) predictions on the dataset's full grid, any model kind."""
    return predict_directions(
        model, dataset, dataset.source_directions, np.arange(dataset.frequencies.shape[0])
    )
