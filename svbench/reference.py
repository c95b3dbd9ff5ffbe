"""Reference computations made apart from svfield, and the checks that use them.

Everything here is NumPy/SciPy written from the definitions (rigid-sphere
series, free field, complex spherical harmonics, the dense complex GP
posterior and likelihood, nMSE and time-domain CSIM); no svfield code runs.
Each ``check_*`` returns a list of failure messages, empty when the output
passes. ``selftest.py`` shows that every check rejects a perturbed output.
"""

from __future__ import annotations

import gzip
import json
import math

import numpy as np
import scipy.linalg
import scipy.special

NMSE_FLOOR_DB = -300.0  # the documented value of an exactly reproduced entry


def read_dataset_file(path: str) -> dict:
    """Arrays of a dataset file, parsed from its JSON schema."""
    with gzip.open(path, "rb") if path.endswith(".gz") else open(path, "rb") as fh:
        doc = json.loads(fh.read().decode())
    freqs = np.array(doc["frequencies_hz"], dtype=float)
    mics = np.array(doc["mic_positions"], dtype=float)
    az = np.array([d["azimuth"] for d in doc["source_directions"]], dtype=float)
    col = np.array([d["colatitude"] for d in doc["source_directions"]], dtype=float)
    vals = np.array(doc["values"], dtype=float)
    values = (vals[:, 0] + 1j * vals[:, 1]).reshape(len(freqs), len(mics), len(az))
    return {
        "freqs": freqs, "mics": mics, "az": az, "col": col, "values": values,
        "radius": float(doc["source_directions"][0]["radius"]),
        "c": float(doc["speed_of_sound"]), "q0": np.array(doc["head_center"], dtype=float),
        "provenance": doc["provenance"],
    }


def unit_vectors(az, col) -> np.ndarray:
    az, col = np.asarray(az, float), np.asarray(col, float)
    return np.stack([np.sin(col) * np.cos(az), np.sin(col) * np.sin(az), np.cos(col)], axis=-1)


# ---------------------------------------------------------------- physics

def rigid_sphere(omega: float, a: float, r: float, cos_inc: float, c: float) -> complex:
    """Plane wave exp(j k r cos) plus its scattering by a rigid sphere."""
    k = omega / c
    lmax = int(max(k * a, k * r) + 40)
    ls = np.arange(lmax + 1)
    jr = scipy.special.spherical_jn(ls, k * r)
    hr = jr - 1j * scipy.special.spherical_yn(ls, k * r)
    dja = scipy.special.spherical_jn(ls, k * a, derivative=True)
    dha = dja - 1j * scipy.special.spherical_yn(ls, k * a, derivative=True)
    terms = (1j ** ls) * (2 * ls + 1) * (jr - dja / dha * hr) * scipy.special.eval_legendre(ls, cos_inc)
    return complex(np.sum(terms))


def free_field(omega, mic, src, c) -> np.ndarray:
    r = np.linalg.norm(np.asarray(mic, float) - np.asarray(src, float), axis=-1)
    return np.exp(-1j * np.asarray(omega) * r / c) / (math.sqrt(4.0 * math.pi) * r)


def sh_basis(order: int, az, col) -> np.ndarray:
    """Orthonormal complex Y_l^m (Condon-Shortley phase), l-major columns."""
    cols = [scipy.special.sph_harm_y(l, m, np.asarray(col), np.asarray(az))
            for l in range(order + 1) for m in range(-l, l + 1)]
    return np.stack(cols, axis=-1)


def check_sphere_scene(ds: dict, idx) -> list:
    """Sampled (f, i, j) entries against the series evaluated with scipy."""
    a = float(ds["provenance"]["sphere_radius"])
    units = unit_vectors(ds["az"], ds["col"])
    fails = []
    for f, i, j in idx:
        mic = ds["mics"][i]
        r = float(np.linalg.norm(mic))
        ref = rigid_sphere(2.0 * math.pi * ds["freqs"][f], a, r, float(mic @ units[j]) / r, ds["c"])
        got = ds["values"][f, i, j]
        if not abs(got - ref) <= 1e-9 * max(abs(ref), 1.0):
            fails.append(f"scene entry ({f},{i},{j}) = {got!r}, series gives {ref!r}")
    return fails


# ---------------------------------------------------------------- metrics

def nmse_per_freq(target, estimate) -> np.ndarray:
    err = np.abs(target - estimate) ** 2
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(err / np.abs(target) ** 2)
    return np.maximum(db, NMSE_FLOOR_DB).mean(axis=(1, 2))


def csim_per_dir(target, estimate) -> np.ndarray:
    """Mic-averaged cosine similarity of the real impulse responses."""
    n = 2 * (target.shape[0] - 1)
    h = np.fft.irfft(target, n=n, axis=0)
    g = np.fft.irfft(estimate, n=n, axis=0)
    cos = np.sum(h * g, axis=0) / (np.linalg.norm(h, axis=0) * np.linalg.norm(g, axis=0))
    return cos.mean(axis=0)


def nn_interp(obs_units, obs_values, query_units) -> np.ndarray:
    """(F, I, Jq) values of the angularly nearest observed direction."""
    return obs_values[:, :, np.argmax(query_units @ obs_units.T, axis=1)]


def check_close(name, reported, recomputed, tol) -> list:
    reported, recomputed = np.asarray(reported, float), np.asarray(recomputed, float)
    if reported.shape != recomputed.shape:
        return [f"{name}: shape {reported.shape} != {recomputed.shape}"]
    bad = np.abs(reported - recomputed) > tol
    if np.any(bad):
        k = int(np.argmax(bad))
        return [f"{name}: reported {reported.flat[k]!r}, recomputed {recomputed.flat[k]!r}"]
    return []


def check_beats(nmse_db, csim, nn_nmse_db, nn_csim) -> list:
    """The model must beat the nearest-neighbour interpolant on both scores."""
    if nmse_db < nn_nmse_db and csim > nn_csim:
        return []
    return [f"model (nMSE {nmse_db:.2f} dB, CSIM {csim:.4f}) does not beat nearest neighbour "
            f"({nn_nmse_db:.2f} dB, {nn_csim:.4f})"]


def check_distortionless(weights, looks, tol=1e-10) -> list:
    """|w^H d - 1| from the written weights and independently formed d."""
    fails = []
    for w, d, label in zip(weights, looks, range(len(looks))):
        err = abs(np.vdot(w, d) - 1.0)
        if not err <= tol:
            fails.append(f"beamformer {label}: |w^H d - 1| = {err:.3e}")
    return fails


# ---------------------------------------------------------------- dense GP

class DensePosterior:
    """Complex GP with k(z, z') = alpha/(ell^2 + (w-w')^2) v(z) conj(v(z'))."""

    def __init__(self, alpha, ell, noise_var, omega, v, y):
        self.alpha, self.ell, self.omega, self.v = alpha, ell, np.asarray(omega), np.asarray(v)
        ky = self.cross(self.omega, self.v) + noise_var * np.eye(len(v))
        self.factor = scipy.linalg.cho_factor(ky, lower=True)
        self.y = np.asarray(y)
        self.weights = scipy.linalg.cho_solve(self.factor, self.y)

    def cross(self, omega_q, v_q):
        spec = self.alpha / (self.ell ** 2 + (np.asarray(omega_q)[:, None] - self.omega[None, :]) ** 2)
        return spec * np.outer(v_q, self.v.conj())

    def nll(self) -> float:
        logdet = 2.0 * np.sum(np.log(np.real(np.diag(self.factor[0]))))
        return float(len(self.y) * math.log(math.pi) + logdet + np.real(np.vdot(self.y, self.weights)))

    def prior_var(self, v_q) -> np.ndarray:
        return self.alpha / self.ell ** 2 * np.abs(v_q) ** 2

    def predict(self, omega_q, v_q):
        kq = self.cross(omega_q, v_q)
        mean = kq @ self.weights
        sol = scipy.linalg.cho_solve(self.factor, kq.conj().T)
        var = self.prior_var(v_q) - np.real(np.sum(kq * sol.T, axis=1))
        return mean, var


def sh_scene_features(ds: dict, order: int, f_idx, i_idx, j_idx):
    """(omega, v) of grid points of an SH scene from its stored truth."""
    coeffs = np.array(ds["provenance"]["truth_coeffs"], dtype=float)
    coeffs = (coeffs[:, 0] + 1j * coeffs[:, 1]).reshape(len(ds["freqs"]), len(ds["mics"]), -1)
    basis = sh_basis(order, ds["az"], ds["col"])
    src = ds["q0"] + ds["radius"] * unit_vectors(ds["az"], ds["col"])
    omega = 2.0 * math.pi * ds["freqs"][f_idx]
    psi = np.sum(coeffs[f_idx, i_idx] * basis[j_idx], axis=-1)
    return omega, free_field(omega, ds["mics"][i_idx], src[j_idx], ds["c"]) * psi


def check_posterior(mean, var, ref_mean, ref_var, prior, scale) -> list:
    """Served mean and variance against the dense posterior.

    ``scale`` is the RMS of the field; the tolerances (1e-6 of it for the
    mean, 1e-6 of the prior for the variance) also admit any exact
    re-derivation of the same posterior, such as a Woodbury form.
    """
    fails = []
    dm = np.abs(np.asarray(mean) - ref_mean)
    if np.any(dm > 1e-6 * scale):
        fails.append(f"posterior mean off by {dm.max():.3e} (scale {scale:.3e})")
    dv = np.abs(np.asarray(var) - np.maximum(ref_var, 0.0))
    if np.any(dv > 1e-6 * prior):
        fails.append(f"posterior variance off by {dv.max():.3e}")
    return fails + check_variance_range(var, prior)


def check_variance_range(var, prior) -> list:
    var = np.asarray(var)
    if np.any(~np.isfinite(var)) or np.any(var < 0.0):
        return [f"negative or non-finite variance {var.min()!r}"]
    if np.any(var > prior * (1.0 + 1e-9)):
        return ["variance above the prior"]
    return []


def check_nll(value, ref) -> list:
    if not abs(value - ref) <= 1e-6 * max(abs(ref), 1.0):
        return [f"nll {value!r} but the dense computation gives {ref!r}"]
    return []
