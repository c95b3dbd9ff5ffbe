"""Complex Gaussian-process regression with a deep composite kernel.

Training minimizes the circularly-symmetric complex Gaussian negative log
likelihood over minibatches (each batch treated as an independent GP block)
plus a sparsity/decay penalty on the per-point SH spectra. Gradients are
analytic: the per-point scattering values enter the Gram through a rank-1
structure, so their cotangent is closed-form and chains into the network's
hand-written backward pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityError, NumericError
from .geom import PointSet, fibonacci_sphere, sph_to_cart, validation_split
from .kernels import (
    ChmatKernelParams,
    CoeffTable,
    CompositeKernelParams,
    chmat_cross,
    chmat_gram,
    composite_cross,
    composite_gram,
    composite_gram_factors,
    default_jitter,
    hybrid_coeffs_batch,
    spectral_gram,
)
from .nfield import (
    AdamState,
    LrSchedule,
    adam_step,
    clip_gradients,
    compute_bounds,
    init_nf_params,
    lr_schedule,
    nf_backward,
)
from .physics import free_field_batch
from .sphharm import ShCoefficients, sh_basis_matrix, sh_ridge_fit


@dataclass
class FitConfig:
    """Knobs for the minibatch marginal-likelihood training loop."""

    iterations: int = 1000
    batch_size: int = 1024
    lr_start: float = 1e-4
    lr_base: float = 1e-3
    lr_floor: float = 1e-5
    warmup_steps: int = 1000
    decay_rate: float = 0.9
    decay_every: int = 1000
    lambda_l1: float = 1e-3
    lambda_exp: float = 1e-2
    pretrain_iterations: int = 100
    pretrain_factor: int = 4
    predict_cap: int = 4096
    valid_fraction: float = 0.1
    eval_every: int = 100
    seed: int = 0
    sh_order: int | None = None
    encoding_dim: int = 128
    hidden_widths: tuple = (128, 128)
    gains: tuple = (1.0, 1.0, 1.0, 1.0, 100.0, 100.0, 100.0)
    scalar_lr_scale: float = 10.0
    sh_ridge_lambda: float = 1e-5
    jitter: float | None = None
    grad_clip: float = 1.0

    def __post_init__(self):
        if self.iterations < 0 or self.batch_size < 1 or self.pretrain_iterations < 0:
            raise ValueError("counts must be non-negative (batch size positive)")
        if self.lambda_l1 < 0 or self.lambda_exp < 0:
            raise ValueError("regularizer weights must be non-negative")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be at least 1, got {self.eval_every!r}")
        if self.grad_clip <= 0:
            raise ValueError(f"grad_clip must be positive, got {self.grad_clip!r}")

    @staticmethod
    def nf_baseline_defaults(**overrides) -> "FitConfig":
        """Architecture and schedule used by the direct neural-field baselines."""
        return FitConfig(**{**NF_BASELINE_DEFAULTS, **overrides})

    def lr_config(self) -> LrSchedule:
        return LrSchedule(
            lr_start=self.lr_start,
            lr_base=self.lr_base,
            lr_floor=self.lr_floor,
            warmup_steps=self.warmup_steps,
            decay_rate=self.decay_rate,
            decay_every=self.decay_every,
        )


NF_BASELINE_DEFAULTS = dict(
    hidden_widths=(128, 128, 128),
    gains=(10.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    lr_start=1e-4,
    lr_base=1e-5,
    warmup_steps=1000,
)

SCALAR_KEYS = ("log_alpha", "log_ell", "log_ell_d", "log_noise")
# validation points scored per evaluation, drawn across every retained frequency
VALID_CAP = 2048


def tree_digest(tree) -> str:
    h = hashlib.sha256()
    for key in sorted(tree):
        h.update(key.encode())
        h.update(np.ascontiguousarray(tree[key], dtype=float).tobytes())
    return h.hexdigest()[:16]


def _chol_with_escalation(ky: np.ndarray):
    try:
        return np.linalg.cholesky(ky)
    except np.linalg.LinAlgError:
        esc = 1e-8 * max(float(np.real(np.trace(ky))) / ky.shape[0], 1e-30)
        try:
            return np.linalg.cholesky(ky + esc * np.eye(ky.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericError(
                "covariance not positive definite after one jitter escalation"
            ) from exc


def _cho_solve(lo: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.linalg.solve(lo.conj().T, np.linalg.solve(lo, b))


def _gram(ps: PointSet, params, jitter):
    if isinstance(params, CompositeKernelParams):
        return composite_gram(ps, params, jitter)
    return chmat_gram(ps, params, jitter)


def _cross(ps_q: PointSet, ps_t: PointSet, params):
    if isinstance(params, CompositeKernelParams):
        return composite_cross(ps_q, ps_t, params)
    return chmat_cross(ps_q, ps_t, params)


def _prior_diag(ps: PointSet, params) -> np.ndarray:
    if isinstance(params, CompositeKernelParams):
        hd, psi, _, _, _ = composite_gram_factors(ps, params)
        return (params.alpha / params.ell**2) * np.abs(hd * psi) ** 2
    return np.full(len(ps), params.alpha / params.ell**2)


def nll(y, ps: PointSet, params, jitter: float | None = None) -> float:
    """N ln pi + ln det(K + sigma^2 I) + y^H (K + sigma^2 I)^{-1} y."""
    y = np.asarray(y, dtype=complex).reshape(-1)
    if len(ps) != y.shape[0] or y.shape[0] < 1:
        raise ValueError("y and points must be non-empty and matched")
    ky = _gram(ps, params, jitter) + params.noise_var * np.eye(len(ps))
    lo = _chol_with_escalation(ky)
    a = _cho_solve(lo, y)
    n = y.shape[0]
    return float(
        n * math.log(math.pi)
        + 2.0 * float(np.sum(np.log(np.real(np.diag(lo)))))
        + float(np.real(np.vdot(y, a)))
    )


def reg_loss(coeffs: np.ndarray, lambda_l1: float, lambda_exp: float) -> float:
    """Sparsity plus spectral-decay penalty on per-point SH spectra."""
    spec = _spectra(np.atleast_2d(coeffs))
    rising = np.maximum(0.0, spec[:, 1:] - spec[:, :-1]) if spec.shape[1] > 1 else 0.0
    return float(lambda_l1 * np.sum(spec) + lambda_exp * np.sum(rising))


def _spectra(coeffs: np.ndarray) -> np.ndarray:
    """(N, L+1) per-degree root mean energies from (N, (L+1)^2) coefficients."""
    n, d = coeffs.shape
    order = int(round(math.sqrt(d))) - 1
    out = np.empty((n, order + 1))
    for l in range(order + 1):
        block = coeffs[:, l * l : (l + 1) * (l + 1)]
        out[:, l] = np.sqrt(np.sum(np.abs(block) ** 2, axis=1) / (2 * l + 1))
    return out


def _reg_cotangent(coeffs: np.ndarray, lambda_l1: float, lambda_exp: float) -> np.ndarray:
    """Complex cotangent of reg_loss with respect to the coefficients."""
    n, d = coeffs.shape
    order = int(round(math.sqrt(d))) - 1
    spec = _spectra(coeffs)
    w = np.full((n, order + 1), lambda_l1)
    if order >= 1:
        rising = spec[:, 1:] > spec[:, :-1]
        w[:, 1:] += lambda_exp * rising
        w[:, :-1] -= lambda_exp * rising
    out = np.zeros_like(coeffs)
    for l in range(order + 1):
        sl = spec[:, l]
        safe = np.where(sl > 1e-300, sl, 1.0)
        scale = np.where(sl > 1e-300, w[:, l] / ((2 * l + 1) * safe), 0.0)
        out[:, l * l : (l + 1) * (l + 1)] = scale[:, None] * coeffs[:, l * l : (l + 1) * (l + 1)]
    return out


def hybrid_coeffs(point, params: CompositeKernelParams) -> ShCoefficients:
    """Network coefficients plus the frequency-interpolated low-order table."""
    ps = PointSet.single(point) if not isinstance(point, PointSet) else point
    coeffs, _ = hybrid_coeffs_batch(ps, params)
    return ShCoefficients(params.sh_order, coeffs[0])


def nll_grad(
    y,
    ps: PointSet,
    params,
    lambda_l1: float = 0.0,
    lambda_exp: float = 0.0,
    jitter: float | None = None,
):
    """Loss value and analytic gradients for every trainable group.

    Returns (loss, tree). For the composite kernel the tree holds the two
    spectral scalars, the noise scalar and all network arrays; for the
    chordal-Matern kernel the four scalars.
    """
    y = np.asarray(y, dtype=complex).reshape(-1)
    n = y.shape[0]
    if len(ps) != n or n < 1:
        raise ValueError("y and points must be non-empty and matched")

    if isinstance(params, CompositeKernelParams):
        hd, psi, coeffs, basis, cache = composite_gram_factors(ps, params)
        v = hd * psi
        kw = spectral_gram(ps.omega, ps.omega, params.alpha, params.ell)
        k = kw * np.outer(v, v.conj())
        k = 0.5 * (k + k.conj().T)
    else:
        k = chmat_gram(ps, params, jitter=0.0)

    jit = default_jitter(k) if jitter is None else float(jitter)
    ky = k + (jit + params.noise_var) * np.eye(n)
    lo = _chol_with_escalation(ky)
    a_vec = _cho_solve(lo, y)
    a_inv = _cho_solve(lo, np.eye(n, dtype=complex))
    m = a_inv - np.outer(a_vec, a_vec.conj())

    loss = float(
        n * math.log(math.pi)
        + 2.0 * float(np.sum(np.log(np.real(np.diag(lo)))))
        + float(np.real(np.vdot(y, a_vec)))
    )

    delta = ps.omega[:, None] - ps.omega[None, :]
    ell = params.ell
    dlog_ell_factor = -2.0 * ell * ell / (ell * ell + delta * delta)

    tree = {
        "log_alpha": np.asarray(np.real(np.sum(m * np.conj(k))), dtype=float),
        "log_ell": np.asarray(np.real(np.sum(m * np.conj(k) * dlog_ell_factor)), dtype=float),
        "log_noise": np.asarray(
            params.noise_var * (np.real(np.trace(a_inv)) - float(np.sum(np.abs(a_vec) ** 2))),
            dtype=float,
        ),
    }

    if isinstance(params, ChmatKernelParams):
        kw = spectral_gram(ps.omega, ps.omega, params.alpha, params.ell)
        matern = k / np.where(kw == 0.0, 1.0, kw)
        # recover u from matern via the chordal geometry directly
        from .kernels import _chmat_direction_matrix

        u_dir = _chmat_direction_matrix(ps, params.q0)
        cosm = np.clip(u_dir @ u_dir.T, -1.0, 1.0)
        chord = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * cosm))
        u = math.sqrt(3.0) * chord / params.ell_d
        dk_dlog_ell_d = kw * (u * u * np.exp(-u))
        tree["log_ell_d"] = np.asarray(np.real(np.sum(m * np.conj(dk_dlog_ell_d))), dtype=float)
        return loss, tree

    g = kw * np.outer(hd, hd.conj())
    v_cot = (m * np.conj(g)) @ psi
    upstream = 2.0 * np.conj(basis) * v_cot[:, None]
    if lambda_l1 > 0.0 or lambda_exp > 0.0:
        loss += reg_loss(coeffs, lambda_l1, lambda_exp)
        upstream = upstream + _reg_cotangent(coeffs, lambda_l1, lambda_exp)
    tree.update(nf_backward(params.nf, cache, upstream))
    return loss, tree


@dataclass
class GprModel:
    """A fitted (or explicitly constructed) GP with its cached factorization."""

    kind: str
    kernel: object
    train: PointSet
    y: np.ndarray
    chol: np.ndarray
    alpha_vec: np.ndarray
    jitter: float | None
    seed: int = 0
    config_digest: str = ""
    history: list = field(default_factory=list)
    predict_cap: int = 4096
    _a_inv: np.ndarray | None = None

    def with_kernel(self, kernel) -> "GprModel":
        return build_model(
            self.kind,
            kernel,
            self.train,
            self.y,
            jitter=self.jitter,
            predict_cap=self.predict_cap,
            seed=self.seed,
            config_digest=self.config_digest,
            history=self.history,
        )


def build_model(
    kind: str,
    kernel,
    train: PointSet,
    y,
    jitter: float | None = None,
    predict_cap: int = 4096,
    seed: int = 0,
    config_digest: str = "",
    history=None,
) -> GprModel:
    y = np.asarray(y, dtype=complex).reshape(-1)
    if len(train) != y.shape[0] or y.shape[0] < 1:
        raise ValueError("training set must be non-empty and matched")
    if len(train) > predict_cap:
        raise CapacityError(
            f"training set of {len(train)} exceeds the prediction cap {predict_cap}; "
            "select a subset (e.g. frequency-stratified) before building the model"
        )
    ky = _gram(train, kernel, jitter) + kernel.noise_var * np.eye(len(train))
    lo = _chol_with_escalation(ky)
    return GprModel(
        kind=kind,
        kernel=kernel,
        train=train,
        y=y,
        chol=lo,
        alpha_vec=_cho_solve(lo, y),
        jitter=jitter,
        seed=seed,
        config_digest=config_digest,
        history=list(history) if history else [],
        predict_cap=predict_cap,
    )


def predict(model: GprModel, ps: PointSet, want_var: bool = True, chunk: int = 2048):
    """Posterior mean and clamped variance at the query points."""
    n_q = len(ps)
    mean = np.empty(n_q, dtype=complex)
    var = np.zeros(n_q) if want_var else None
    if want_var and model._a_inv is None:
        model._a_inv = _cho_solve(model.chol, np.eye(len(model.train), dtype=complex))
    for start in range(0, n_q, chunk):
        sub = ps.take(np.arange(start, min(start + chunk, n_q)))
        cross = _cross(sub, model.train, model.kernel)
        mean[start : start + len(sub)] = cross @ model.alpha_vec
        if want_var:
            quad = np.real(np.einsum("qn,nm,qm->q", cross, model._a_inv, cross.conj()))
            prior = _prior_diag(sub, model.kernel)
            var[start : start + len(sub)] = np.maximum(0.0, prior - quad)
    return mean, var


def predict_full_cov(model: GprModel, ps: PointSet):
    """Posterior mean and full covariance (small query sets only)."""
    cross = _cross(ps, model.train, model.kernel)
    mean = cross @ model.alpha_vec
    if model._a_inv is None:
        model._a_inv = _cho_solve(model.chol, np.eye(len(model.train), dtype=complex))
    prior = _gram(ps, model.kernel, jitter=0.0)
    cov = prior - cross @ model._a_inv @ cross.conj().T
    return mean, 0.5 * (cov + cov.conj().T)


def fit_scatter_table(dataset, degree: int, lam: float) -> CoeffTable:
    """Per (frequency, mic) ridge fits of the demodulated field.

    The raw observed values are divided by the free-field gain so the
    coefficients expand the scattering factor, matching the kernel's
    product structure.
    """
    omegas = 2.0 * math.pi * dataset.frequencies
    dirs = dataset.source_directions
    src = dataset.source_positions()
    f_n, i_n = omegas.shape[0], dataset.mic_positions.shape[0]
    az, col = np.array([d.azimuth for d in dirs]), np.array([d.colatitude for d in dirs])
    coeffs = np.empty((f_n, i_n, (degree + 1) ** 2), dtype=complex)
    for i in range(i_n):
        hd = free_field_batch(
            omegas[:, None],
            dataset.mic_positions[i][None, None, :],
            src[None, :, :],
            dataset.medium,
        )
        for f in range(f_n):
            psi_obs = dataset.values[f, i, :] / hd[f]
            coeffs[f, i, :] = sh_ridge_fit(dirs, psi_obs, degree, lam).values
    return CoeffTable(omegas, dataset.mic_positions, degree, coeffs)


def synthesize_augmented(dataset, factor: int, lam: float):
    """SH-baseline values on a dense Fibonacci grid for pretraining.

    Fits the raw observed field per (frequency, mic) and evaluates the fit
    on ``factor * J`` fresh directions at the dataset's source radius.
    Returns (directions, values (F, I, J_aug)).
    """
    j_obs = len(dataset.source_directions)
    degree = max(0, int(math.floor(math.sqrt(j_obs) - 1)))
    aug_dirs = fibonacci_sphere(factor * j_obs)
    omegas = dataset.frequencies
    f_n, i_n = omegas.shape[0], dataset.mic_positions.shape[0]
    values = np.empty((f_n, i_n, len(aug_dirs)), dtype=complex)
    basis = sh_basis_matrix(degree, aug_dirs)
    for f in range(f_n):
        for i in range(i_n):
            c = sh_ridge_fit(dataset.source_directions, dataset.values[f, i, :], degree, lam)
            values[f, i, :] = basis @ c.values
    return aug_dirs, values


def _scalar_init(dataset, params_proto, ps: PointSet, y: np.ndarray):
    """Moment-matched starting values for (alpha, ell, noise)."""
    from .kernels import scattering_factors

    omegas = 2.0 * math.pi * dataset.frequencies
    span = float(omegas.max() - omegas.min())
    ell0 = max(span / 8.0, 1.0)
    hd = free_field_batch(ps.omega, ps.mic, ps.src, params_proto.medium)
    psi, _, _, _ = scattering_factors(ps, params_proto)
    denom = np.abs(hd * psi)
    ok = denom > 1e-12
    if np.any(ok):
        resid = np.abs(y[ok] / (hd[ok] * psi[ok])) ** 2
        alpha0 = float(ell0 * ell0 * max(np.mean(resid), 1e-12))
    else:
        alpha0 = ell0 * ell0
    # measurement noise is treated as unknown and trained jointly
    noise0 = max(1e-3 * float(np.mean(np.abs(y) ** 2)), 1e-12)
    return math.log(alpha0), math.log(ell0), math.log(noise0)


def fit(dataset, cfg: FitConfig) -> GprModel:
    """Full training pipeline for the composite-kernel GP.

    Precomputes the low-order tables, optionally pretrains on an
    SH-augmented point pool, then runs the minibatch loop with gradient
    clipping, Adam and the warmup/decay schedule, checkpointing on held-out
    validation NLL. Deterministic given cfg.seed.
    """
    j_n = len(dataset.source_directions)
    ps_all = dataset.point_set()
    y_all = dataset.values.reshape(-1)
    tr_idx, va_idx = _train_valid_split(dataset.shape, cfg.valid_fraction, cfg.seed)

    bounds = compute_bounds(ps_all.as_matrix())
    order = cfg.sh_order if cfg.sh_order is not None else max(0, int(math.floor(math.sqrt(j_n) - 1)))
    table_degree = min(order, max(0, int(math.floor(math.sqrt(j_n) - 1))))
    table = fit_scatter_table(dataset, table_degree, cfg.sh_ridge_lambda)

    rng = np.random.default_rng(cfg.seed)
    nf = init_nf_params(rng, cfg.encoding_dim, cfg.hidden_widths, (order + 1) ** 2, cfg.gains)
    proto = CompositeKernelParams(
        log_alpha=0.0,
        log_ell=0.0,
        log_noise=0.0,
        sh_order=order,
        nf=nf,
        q0=dataset.q0,
        bounds=bounds,
        table=table,
        medium=dataset.medium,
    )
    ps_tr = ps_all.take(tr_idx)
    y_tr = y_all[tr_idx]
    log_alpha, log_ell, log_noise = _scalar_init(dataset, proto, ps_tr, y_tr)
    params = replace(proto, log_alpha=log_alpha, log_ell=log_ell, log_noise=log_noise)

    tree = params.to_tree()
    opt = AdamState.for_params(tree)
    digest = tree_digest(tree)
    history: list = []

    # pretraining pool: observed training points plus SH-synthesized points
    if cfg.pretrain_iterations > 0:
        aug_dirs, aug_values = synthesize_augmented(dataset, cfg.pretrain_factor, cfg.sh_ridge_lambda)
        aug_ps, aug_y = _augmented_points(dataset, aug_dirs, aug_values)
        pool_ps = PointSet(
            np.concatenate([ps_tr.omega, aug_ps.omega]),
            np.concatenate([ps_tr.mic, aug_ps.mic]),
            np.concatenate([ps_tr.src, aug_ps.src]),
        )
        loss_and_grad, _ = _gp_losses(params, cfg, pool_ps, np.concatenate([y_tr, aug_y]))
        tree, opt, _ = _run_steps(tree, opt, cfg, rng, cfg.pretrain_iterations, loss_and_grad, len(pool_ps))

    # step 0 is the SH-table start, a real model, so it stays a valid checkpoint
    loss_and_grad, valid_loss = _gp_losses(params, cfg, ps_tr, y_tr, ps_all.take(va_idx), y_all[va_idx])
    tree, _, _ = _run_steps(
        tree, opt, cfg, rng, cfg.iterations, loss_and_grad, len(ps_tr), valid_loss, history,
        step_offset=cfg.pretrain_iterations,
    )

    params = params.with_tree(tree)
    keep = _stratified_cap(tr_idx, dataset.shape, cfg.predict_cap, cfg.seed)
    model = build_model(
        "gp-steerer",
        params,
        ps_all.take(keep),
        y_all[keep],
        jitter=cfg.jitter,
        predict_cap=cfg.predict_cap,
        seed=cfg.seed,
        config_digest=digest,
        history=history,
    )
    return model


def _augmented_points(dataset, aug_dirs, aug_values):
    """Even-frequency collocation points for the synthesized directions."""
    omegas = 2.0 * math.pi * dataset.frequencies
    mics = dataset.mic_positions
    radius = dataset.source_radius
    src = np.array([dataset.q0 + sph_to_cart(d, radius) for d in aug_dirs])
    f_keep = np.arange(0, omegas.shape[0], 2)
    om_list, mic_list, src_list, y_list = [], [], [], []
    for f in f_keep:
        for i in range(mics.shape[0]):
            om_list.append(np.full(len(aug_dirs), omegas[f]))
            mic_list.append(np.tile(mics[i], (len(aug_dirs), 1)))
            src_list.append(src)
            y_list.append(aug_values[f, i, :])
    return (
        PointSet(np.concatenate(om_list), np.concatenate(mic_list), np.concatenate(src_list)),
        np.concatenate(y_list),
    )


def _train_valid_split(shape, fraction: float, seed: int):
    """Training and validation indices of an F x I x J grid.

    The split is ``geom.validation_split``'s; below two frequencies every
    point trains and there is no validation set. The validation set is cut
    to ``VALID_CAP`` points stratified by frequency.
    """
    n_all = shape[0] * shape[1] * shape[2]
    if shape[0] >= 2:
        tr_idx, va_idx = validation_split(np.arange(n_all), shape, fraction, seed)
    else:
        tr_idx, va_idx = np.arange(n_all), np.array([], dtype=int)
    if tr_idx.size == 0:
        raise ValueError("validation split left no training points")
    return tr_idx, _stratified_cap(va_idx, shape, VALID_CAP, seed)


def _gp_losses(params_proto, cfg: FitConfig, pool_ps: PointSet, pool_y, va_ps=None, va_y=None):
    """``_run_steps`` losses of a GP: the penalized NLL of a pool minibatch
    with its gradients, and the NLL of the validation set (None when there
    is no validation point)."""

    def loss_and_grad(tree, idx):
        params = params_proto.with_tree(tree)
        return nll_grad(pool_y[idx], pool_ps.take(idx), params, cfg.lambda_l1, cfg.lambda_exp, jitter=cfg.jitter)

    def valid_loss(tree):
        return nll(va_y, va_ps, params_proto.with_tree(tree), jitter=cfg.jitter)

    return loss_and_grad, (valid_loss if va_y is not None and len(va_y) else None)


def _run_steps(tree, opt, cfg: FitConfig, rng, n_steps, loss_and_grad, n_pool, valid_loss=None, history=None,
               step_offset=0):
    """The minibatch training loop of every trained method.

    Each step draws ``min(cfg.batch_size, n_pool)`` distinct pool indices,
    takes ``(loss, grads) = loss_and_grad(tree, indices)``, clips the
    gradients to ``cfg.grad_clip`` and steps Adam at the scheduled rate
    (``cfg.scalar_lr_scale`` times it for ``SCALAR_KEYS``). Every
    ``cfg.eval_every`` steps and at the last one, the step's loss and
    ``valid_loss(tree)`` (NaN without one) are appended to ``history``.
    With ``valid_loss`` the tree is also scored at step 0, and the
    best-scoring tree is returned; without, the last tree. Returns
    (tree, opt, improved), where ``improved`` says whether an evaluation
    scored below step 0.
    """
    best_tree, best_val, improved = tree, math.inf, False
    if valid_loss is not None:
        best_val = valid_loss(tree)
        if history is not None:
            history.append({"step": step_offset, "train_loss": math.nan, "valid_nll": best_val})
    for it in range(n_steps):
        step = step_offset + it
        idx = rng.choice(n_pool, size=min(cfg.batch_size, n_pool), replace=False)
        try:
            loss, grads = loss_and_grad(tree, idx)
        except NumericError as exc:
            raise NumericError(
                f"training step {step} failed: {exc}; parameter digest {tree_digest(tree)}"
            ) from exc
        # rebinding frees the unclipped gradients, allocated among the loss's large
        # temporaries; alive through the next step they keep the heap from being trimmed
        grads = clip_gradients(grads, cfg.grad_clip)
        lr = lr_schedule(step, cfg.lr_config())
        rates = {"default": lr, **{k: lr * cfg.scalar_lr_scale for k in SCALAR_KEYS if k in tree}}
        tree, opt = adam_step(opt, tree, grads, rates)
        if (it + 1) % cfg.eval_every == 0 or it + 1 == n_steps:
            val = math.nan if valid_loss is None else valid_loss(tree)
            if history is not None:
                history.append({"step": step + 1, "train_loss": loss, "valid_nll": val})
            if val < best_val:
                best_tree, best_val, improved = tree, val, True
    return (tree if valid_loss is None else best_tree), opt, improved


def _stratified_cap(indices, shape, cap: int, seed: int) -> np.ndarray:
    """At most ``cap`` of the indices, drawn evenly across their frequencies;
    the indices unchanged at or below the cap."""
    indices = np.asarray(indices, dtype=int)
    if indices.size <= cap:
        return indices
    f_idx, i_n, j_n = indices // (shape[1] * shape[2]), shape[1], shape[2]
    rng = np.random.default_rng(seed)
    groups = []
    for f in np.unique(f_idx):
        members = indices[f_idx == f]
        groups.append(members[rng.permutation(members.size)])
    out = []
    depth = 0
    while len(out) < cap:
        advanced = False
        for g in groups:
            if len(out) >= cap:
                break
            if depth < g.size:
                out.append(g[depth])
                advanced = True
        if not advanced:
            break
        depth += 1
    return np.sort(np.array(out, dtype=int))


def oracle_params_from_scene(dataset, noise_var: float | None = None) -> CompositeKernelParams:
    """Composite parameters planted by the SH-scene generator.

    Uses the stored ground-truth coefficient table and the generator's
    spectral scalars; the network keeps its zero head so the scattering
    field equals the truth exactly.
    """
    from .datagen import truth_coefficients

    coeffs = truth_coefficients(dataset)
    order = int(round(math.sqrt(coeffs.shape[2]))) - 1
    table = CoeffTable(
        2.0 * math.pi * dataset.frequencies, dataset.mic_positions, order, coeffs
    )
    rng = np.random.default_rng(0)
    nf = init_nf_params(rng, 8, (8,), (order + 1) ** 2, np.ones(7))
    ps_all = dataset.point_set()
    sigma2 = noise_var if noise_var is not None else max(dataset.noise_var, 1e-12)
    return CompositeKernelParams(
        log_alpha=float(dataset.provenance["oracle_log_alpha"]),
        log_ell=float(dataset.provenance["oracle_log_ell"]),
        log_noise=math.log(sigma2),
        sh_order=order,
        nf=nf,
        q0=dataset.q0,
        bounds=compute_bounds(ps_all.as_matrix()),
        table=table,
        medium=dataset.medium,
    )
