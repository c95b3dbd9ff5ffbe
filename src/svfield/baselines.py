"""Non-GP interpolators: nearest neighbor, SH ridge, kernel ridge, the
chordal-Matern GP wiring, and the direct neural-field family (plain,
geometry-warped, physics-constrained). The fitted models are plain data;
``modelio``'s method registry predicts with every kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericError
from .geom import Direction, PointSet
from .gpr import (
    FitConfig,
    _gp_losses,
    _run_steps,
    _stratified_cap,
    _train_valid_split,
    build_model,
    tree_digest,
)
from .kernels import ChmatKernelParams, chmat_gram, source_angles
from .nfield import (
    AdamState,
    NfParams,
    compute_bounds,
    init_nf_params,
    nf_backward,
    nf_forward,
    nf_forward_cached,
)
from .physics import MediumParams, free_field_batch, geometric_warp_batch
from .sphharm import sh_basis_angles, sh_ridge_fit


def _unit_rows(dirs) -> np.ndarray:
    return np.array([d.unit_vector() for d in dirs])


def nn_interp(train_dirs, train_values: np.ndarray, query_dir: Direction):
    """Value of the angularly nearest training direction (lowest index wins ties).

    ``train_values`` may have any leading shape with the direction axis last.
    """
    units = _unit_rows(train_dirs)
    cos = units @ query_dir.unit_vector()
    return np.asarray(train_values)[..., int(np.argmax(cos))]


@dataclass
class NnModel:
    frequencies: np.ndarray
    mic_positions: np.ndarray
    train_dirs: list
    values: np.ndarray  # (F, I, Jt)
    seed: int = 0
    config_digest: str = ""

    kind = "nn"


def fit_nn(dataset, seed: int = 0) -> NnModel:
    return NnModel(
        frequencies=dataset.frequencies.copy(),
        mic_positions=dataset.mic_positions.copy(),
        train_dirs=list(dataset.source_directions),
        values=dataset.values.copy(),
        seed=seed,
    )


@dataclass
class ShRidgeModel:
    frequencies: np.ndarray
    mic_positions: np.ndarray
    train_dirs: list
    order: int
    lam: float
    coeffs: np.ndarray  # (F, I, (order+1)^2)
    seed: int = 0
    config_digest: str = ""

    kind = "sh"


def fit_sh_ridge(dataset, order: int | None = None, lam: float = 1e-5, seed: int = 0) -> ShRidgeModel:
    """Per (frequency, mic) ridge regression of the raw field on SH bases."""
    j_n = len(dataset.source_directions)
    if order is None:
        order = max(0, int(math.floor(math.sqrt(j_n) - 1)))
    f_n, i_n = dataset.frequencies.shape[0], dataset.mic_positions.shape[0]
    coeffs = np.empty((f_n, i_n, (order + 1) ** 2), dtype=complex)
    for f in range(f_n):
        for i in range(i_n):
            coeffs[f, i] = sh_ridge_fit(dataset.source_directions, dataset.values[f, i], order, lam).values
    return ShRidgeModel(
        frequencies=dataset.frequencies.copy(),
        mic_positions=dataset.mic_positions.copy(),
        train_dirs=list(dataset.source_directions),
        order=order,
        lam=lam,
        coeffs=coeffs,
        seed=seed,
    )


def krr_fit(points: PointSet, y, gram_fn, lam: float) -> np.ndarray:
    """Representer coefficients (K + lam I)^{-1} y; K carries no jitter."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    k = gram_fn(points) + lam * np.eye(len(points))
    try:
        lo = np.linalg.cholesky(k)
    except np.linalg.LinAlgError as exc:
        raise NumericError("kernel ridge system is singular; increase lambda") from exc
    return np.linalg.solve(lo.conj().T, np.linalg.solve(lo, y))


def krr_predict(alphas: np.ndarray, train: PointSet, cross_fn, query: PointSet) -> np.ndarray:
    """Interpolant value k(z)^T alpha at the query points."""
    return cross_fn(query, train) @ alphas


@dataclass
class KrrChannel:
    """One channel's representer solution; ``gpr.predict`` serves its mean
    (``alpha_vec`` plays the GP's (K + sigma^2 I)^{-1} y)."""

    kernel: ChmatKernelParams
    train: PointSet
    alpha_vec: np.ndarray


@dataclass
class KrrModel:
    """Per-channel kernel ridge regression with the chordal-Matern kernel."""

    frequencies: np.ndarray
    mic_positions: np.ndarray
    train_dirs: list
    channels: list  # KrrChannel per channel
    lam: float
    seed: int = 0
    config_digest: str = ""

    kind = "krr"


def _channel_indices(f_n: int, i_n: int, j_n: int, i: int) -> np.ndarray:
    f_grid, j_grid = np.meshgrid(np.arange(f_n), np.arange(j_n), indexing="ij")
    return ((f_grid * i_n + i) * j_n + j_grid).reshape(-1)


def _chmat_default_params(dataset, values_i: np.ndarray) -> ChmatKernelParams:
    omegas = 2.0 * math.pi * dataset.frequencies
    span = float(omegas.max() - omegas.min()) if omegas.shape[0] > 1 else 1.0
    ell0 = max(span / 8.0, 1.0)
    alpha0 = ell0 * ell0 * max(float(np.mean(np.abs(values_i) ** 2)), 1e-12)
    noise0 = dataset.noise_var if dataset.noise_var > 0 else 1e-3 * max(float(np.mean(np.abs(values_i) ** 2)), 1e-12)
    return ChmatKernelParams(
        log_alpha=math.log(alpha0),
        log_ell=math.log(ell0),
        log_ell_d=math.log(0.5),
        log_noise=math.log(noise0),
        q0=dataset.q0,
        medium=dataset.medium,
    )


def fit_krr(dataset, lam_rel: float = 1e-3, seed: int = 0) -> KrrModel:
    """Fixed-hyperparameter KRR per channel; lambda is relative to the
    kernel's unit prior diagonal."""
    f_n, i_n, j_n = dataset.shape
    ps = dataset.point_set()
    channels = []
    for i in range(i_n):
        kern = _chmat_default_params(dataset, dataset.values[:, i, :])
        # unit prior diagonal so the relative lambda is absolute
        kern = replace(kern, log_alpha=2.0 * kern.log_ell)
        train = ps.take(_channel_indices(f_n, i_n, j_n, i))
        y = dataset.values[:, i, :].reshape(-1)
        alpha = krr_fit(train, y, lambda p: chmat_gram(p, kern, jitter=0.0), lam_rel)
        channels.append(KrrChannel(kern, train, alpha))
    return KrrModel(
        frequencies=dataset.frequencies.copy(),
        mic_positions=dataset.mic_positions.copy(),
        train_dirs=list(dataset.source_directions),
        channels=channels,
        lam=lam_rel,
        seed=seed,
    )


@dataclass
class ChmatEnsemble:
    """One chordal-Matern GP per microphone channel."""

    frequencies: np.ndarray
    mic_positions: np.ndarray
    train_dirs: list
    channels: list  # GprModel per channel
    seed: int = 0
    config_digest: str = ""
    history: list = field(default_factory=list)

    kind = "gp-chmat"


def fit_gp_chmat(dataset, cfg: FitConfig) -> ChmatEnsemble:
    """Train (alpha, ell, ell_d, noise) per channel by marginal likelihood."""
    f_n, i_n, j_n = dataset.shape
    ps_all = dataset.point_set()
    y_all = dataset.values.reshape(-1)
    channels = []
    history: list = []
    chan_cfg = replace(cfg, lr_start=0.05, lr_base=0.05, warmup_steps=0, scalar_lr_scale=1.0,
                       lambda_l1=0.0, lambda_exp=0.0)
    for i in range(i_n):
        idx = _channel_indices(f_n, i_n, j_n, i)
        tr_rel, va_rel = _train_valid_split((f_n, 1, j_n), cfg.valid_fraction, cfg.seed + i)
        tr_idx, va_idx = idx[tr_rel], idx[va_rel]
        kern = _chmat_default_params(dataset, dataset.values[:, i, :])
        rng = np.random.default_rng(cfg.seed + i)
        tree = kern.to_tree()
        keep = _stratified_cap(tr_idx, (f_n, i_n, j_n), min(cfg.batch_size, cfg.predict_cap), cfg.seed + i)
        loss_and_grad, valid_loss = _gp_losses(kern, chan_cfg, ps_all.take(keep), y_all[keep],
                                               ps_all.take(va_idx), y_all[va_idx])
        chan_hist: list = []
        tree, _, _ = _run_steps(tree, AdamState.for_params(tree), chan_cfg, rng, cfg.iterations,
                                loss_and_grad, keep.size, valid_loss, chan_hist)
        kern = kern.with_tree(tree)
        cap_keep = _stratified_cap(tr_idx, (f_n, i_n, j_n), cfg.predict_cap, cfg.seed + i)
        channels.append(
            build_model(
                "gp-chmat-channel",
                kern,
                ps_all.take(cap_keep),
                y_all[cap_keep],
                jitter=cfg.jitter,
                predict_cap=cfg.predict_cap,
                seed=cfg.seed,
            )
        )
        history.extend({"channel": i, **rec} for rec in chan_hist)
    return ChmatEnsemble(
        frequencies=dataset.frequencies.copy(),
        mic_positions=dataset.mic_positions.copy(),
        train_dirs=list(dataset.source_directions),
        channels=channels,
        seed=cfg.seed,
        history=history,
    )


@dataclass
class NfFieldModel:
    """Direct neural-field predictor, optionally geometry-warped or
    decoded through a free-field times SH-expansion structure."""

    kind: str  # "nf" | "nf-gw" | "pcnn"
    nf: NfParams
    bounds: tuple
    q0: np.ndarray
    reference: np.ndarray
    order: int | None
    medium: MediumParams
    frequencies: np.ndarray
    mic_positions: np.ndarray
    train_dirs: list
    seed: int = 0
    config_digest: str = ""
    history: list = field(default_factory=list)

    def predict_points(self, ps: PointSet) -> np.ndarray:
        prepare, value, _ = _nf_decoder(self.kind, self.q0, self.reference, self.order, self.medium)
        return value(ps, nf_forward(self.nf, ps.as_matrix(), self.bounds), prepare(ps))


def _nf_decoder(kind: str, q0, reference, order, medium):
    """Forward value and loss cotangent for each NF variant."""

    if kind == "nf":

        def value(ps, out, aux):
            return out[:, 0]

        def upstream(ps, resid, aux, n):
            up = np.zeros((resid.shape[0], 1), dtype=complex)
            up[:, 0] = 2.0 * resid / n
            return up

        def prepare(ps):
            return None

    elif kind == "nf-gw":

        def prepare(ps):
            return geometric_warp_batch(ps.omega, ps.mic, ps.src, reference, medium)

        def value(ps, out, aux):
            return aux * out[:, 0]

        def upstream(ps, resid, aux, n):
            up = np.zeros((resid.shape[0], 1), dtype=complex)
            up[:, 0] = 2.0 * np.conj(aux) * resid / n
            return up

    elif kind == "pcnn":

        def prepare(ps):
            hd = free_field_batch(ps.omega, ps.mic, ps.src, medium)
            az, col = source_angles(ps, q0)
            return hd, sh_basis_angles(order, az, col)

        def value(ps, out, aux):
            hd, basis = aux
            return hd * np.sum(out * basis, axis=1)

        def upstream(ps, resid, aux, n):
            hd, basis = aux
            return (2.0 / n) * (resid * np.conj(hd))[:, None] * np.conj(basis)

    else:
        raise ValueError(f"unknown neural-field variant {kind!r}")

    return prepare, value, upstream


def _fit_pointwise(dataset, cfg: FitConfig, kind: str, reference=None, order=None) -> NfFieldModel:
    """Pointwise re/im mean-squared-error fit of a neural-field variant."""
    f_n, i_n, j_n = dataset.shape
    ps_all = dataset.point_set()
    y_all = dataset.values.reshape(-1)
    tr_idx, va_idx = _train_valid_split(dataset.shape, cfg.valid_fraction, cfg.seed)
    bounds = compute_bounds(ps_all.as_matrix())
    q0 = dataset.q0
    reference = q0 if reference is None else np.asarray(reference, dtype=float)
    if kind == "pcnn" and order is None:
        order = max(0, int(math.floor(math.sqrt(j_n) - 1)))
    n_out = (order + 1) ** 2 if kind == "pcnn" else 1
    rng = np.random.default_rng(cfg.seed)
    nf = init_nf_params(rng, cfg.encoding_dim, cfg.hidden_widths, n_out, cfg.gains)
    prepare, value, upstream = _nf_decoder(kind, q0, reference, order, dataset.medium)

    def loss_and_grad(tree, idx):
        batch = tr_idx[idx]
        params = NfParams.from_tree(tree)
        sub = ps_all.take(batch)
        out, cache = nf_forward_cached(params, sub.as_matrix(), bounds)
        aux = prepare(sub)
        resid = value(sub, out, aux) - y_all[batch]
        grads = nf_backward(params, cache, upstream(sub, resid, aux, batch.size))
        return float(np.mean(np.abs(resid) ** 2)), grads

    def valid_loss(tree):
        sub = ps_all.take(va_idx)
        pred = value(sub, nf_forward(NfParams.from_tree(tree), sub.as_matrix(), bounds), prepare(sub))
        return float(np.mean(np.abs(pred - y_all[va_idx]) ** 2))

    tree = nf.to_tree()
    digest = tree_digest(tree)
    history: list = []
    track = va_idx.size > 0
    tree, _, improved = _run_steps(tree, AdamState.for_params(tree), cfg, rng, cfg.iterations, loss_and_grad,
                                   tr_idx.size, valid_loss if track else None, history)
    if track and cfg.iterations > 0 and not improved:
        # the step-0 checkpoint is the zero-head network, which predicts zero
        raise NumericError(
            f"{kind}: no evaluation in {cfg.iterations} steps improved on the untrained "
            f"network's validation loss {history[0]['valid_nll']:.6g}; train longer or raise the learning rate"
        )

    return NfFieldModel(
        kind=kind,
        nf=NfParams.from_tree(tree),
        bounds=bounds,
        q0=q0,
        reference=reference,
        order=order,
        medium=dataset.medium,
        frequencies=dataset.frequencies.copy(),
        mic_positions=dataset.mic_positions.copy(),
        train_dirs=list(dataset.source_directions),
        seed=cfg.seed,
        config_digest=digest,
        history=history,
    )


def nf_direct_fit(dataset, cfg: FitConfig) -> NfFieldModel:
    """Plain coordinate-network regression of the complex field."""
    return _fit_pointwise(dataset, cfg, "nf")


def nf_gw_fit(dataset, cfg: FitConfig, reference=None) -> NfFieldModel:
    """Network output multiplied by the geometric warp before the loss."""
    return _fit_pointwise(dataset, cfg, "nf-gw", reference=reference)


def pcnn_fit(dataset, cfg: FitConfig, order: int | None = None) -> NfFieldModel:
    """Free field times a network-coefficient SH expansion, trained pointwise."""
    return _fit_pointwise(dataset, cfg, "pcnn", order=order)
