"""In-memory span tracing of svfield's layers, installed from outside.

A ``Tracer`` wraps public functions of the program in every module
namespace where callers look them up (``composite_gram_factors`` is
patched in both ``svfield.gpr`` and ``svfield.kernels``), records one span
per call with name, start, end and parent, and restores the originals on
``uninstall``. ``numpy.linalg.cholesky`` and ``numpy.linalg.solve`` are
recorded only while a ``gpr.*`` span is open. Spans stay in memory until
``dump``; ``layer_metrics`` derives the per-layer figures from them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time

BASELINE_FITS = {
    "gp-chmat": "fit_gp_chmat",
    "krr": "fit_krr",
    "sh": "fit_sh_ridge",
    "nn": "fit_nn",
    "nf": "nf_direct_fit",
    "nf-gw": "nf_gw_fit",
    "pcnn": "pcnn_fit",
}

GRAM_LAYERS = ("kernels.composite_gram", "kernels.composite_cross", "kernels.chmat_gram",
               "kernels.chmat_cross", "kernels.spectral_gram")


def _path_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# span name -> (function attribute, namespaces that look it up, size of a call)
SITES = [
    ("gpr.fit", "fit", ["svfield.gpr"], None),
    ("gpr.run_steps", "_run_steps", ["svfield.gpr", "svfield.baselines"], None),
    ("gpr.nll_grad", "nll_grad", ["svfield.gpr"], None),
    ("gpr.nll", "nll", ["svfield.gpr"], None),
    ("gpr.build_model", "build_model", ["svfield.gpr", "svfield.modelio", "svfield.baselines"], None),
    ("gpr.predict", "predict", ["svfield.gpr", "svfield.modelio", "svfield.baselines"],
     lambda a, k: (len(a[1]), bool(a[2] if len(a) > 2 else k.get("want_var", True)))),
    ("kernels.factors", "composite_gram_factors", ["svfield.kernels", "svfield.gpr"], lambda a, k: len(a[0])),
    ("kernels.composite_gram", "composite_gram", ["svfield.kernels", "svfield.gpr"], None),
    ("kernels.composite_cross", "composite_cross", ["svfield.kernels", "svfield.gpr"], None),
    ("kernels.chmat_gram", "chmat_gram", ["svfield.kernels", "svfield.gpr", "svfield.baselines"], None),
    ("kernels.chmat_cross", "chmat_cross",
     ["svfield.kernels", "svfield.gpr", "svfield.modelio", "svfield.baselines"], None),
    ("kernels.spectral_gram", "spectral_gram", ["svfield.kernels", "svfield.gpr"], None),
    ("nfield.forward", "nf_forward_cached", ["svfield.nfield", "svfield.kernels", "svfield.baselines"],
     lambda a, k: len(a[1])),
    ("nfield.forward", "nf_forward", ["svfield.nfield", "svfield.baselines"], lambda a, k: len(a[1])),
    ("nfield.backward", "nf_backward", ["svfield.nfield", "svfield.gpr", "svfield.baselines"],
     lambda a, k: len(a[2])),
    ("nfield.adam", "adam_step", ["svfield.nfield", "svfield.gpr", "svfield.baselines"], None),
    ("sphharm.basis", "sh_basis_angles", ["svfield.sphharm", "svfield.kernels", "svfield.baselines"],
     lambda a, k: len(a[1])),
    ("sphharm.ridge", "sh_ridge_fit", ["svfield.sphharm", "svfield.gpr", "svfield.baselines"], None),
    ("physics.sphere_series", "rigid_sphere_field_batch", ["svfield.physics", "svfield.datagen"], None),
    ("datagen.read", "read_dataset", ["svfield.datagen"], lambda a, k: _path_bytes(a[0])),
    ("datagen.write", "write_dataset", ["svfield.datagen"], None),
    ("modelio.save", "save_model", ["svfield.modelio"], None),
    ("modelio.load", "load_model", ["svfield.modelio"], lambda a, k: _path_bytes(a[0])),
    ("metrics.score", "nmse_per_freq", ["svfield.metrics"], None),
    ("metrics.score", "csim_per_dir", ["svfield.metrics"], None),
    ("beamform.mvdr", "iso_scm", ["svfield.beamform"], None),
    ("beamform.mvdr", "mvdr_weights", ["svfield.beamform"], None),
    ("beamform.mvdr", "beampattern", ["svfield.beamform"], None),
    ("beamform.mvdr", "white_noise_gain", ["svfield.beamform"], None),
] + [
    (f"baselines.fit.{method}", attr, ["svfield.baselines"], None)
    for method, attr in BASELINE_FITS.items()
]

# written files are sized after the call returns: (span name, argument index of the path)
SIZED_AFTER = {"datagen.write": 1, "modelio.save": 1}


class Tracer:
    """Records spans ``[name, start, end, parent, size]`` for one process."""

    def __init__(self):
        self.spans: list = []
        self.counts = {"kernels.table_interp_calls": 0}
        self._stack: list = []
        self._depth: dict = {}
        self._gpr_open = 0
        self._patches: list = []

    def _wrap(self, name, fn, size_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._depth.get(name, 0):
                return fn(*args, **kwargs)
            size = size_of(args, kwargs) if size_of else None
            rec = [name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1, size]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._depth[name] = 1
            is_gpr = name.startswith("gpr.")
            tracer._gpr_open += is_gpr
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._gpr_open -= is_gpr
                tracer._depth[name] = 0
                tracer._stack.pop()
                if name in SIZED_AFTER:
                    rec[4] = _path_bytes(args[SIZED_AFTER[name]])

        return wrapper

    def _wrap_linalg(self, name, fn):
        tracer = self
        inner = self._wrap(name, fn, lambda a, k: 1 if a[1].ndim == 1 else int(a[1].shape[1])) \
            if name == "linalg.solve" else self._wrap(name, fn, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._gpr_open:
                return inner(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Patch every site; call ``uninstall`` to restore the originals."""
        import numpy as np

        wrappers: dict = {}
        for name, attr, modules, size_of in SITES:
            for mod_name in modules:
                mod = importlib.import_module(mod_name)
                original = getattr(mod, attr, None)
                if original is None:
                    continue
                key = id(original)
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, original, size_of)
                self._patch(mod, attr, wrappers[key])

        kernels = importlib.import_module("svfield.kernels")
        self._patch(kernels.CoeffTable, "lookup",
                    self._wrap("kernels.table_lookup", kernels.CoeffTable.lookup,
                               lambda a, k: len(a[1])))
        interp = kernels.sh_coeff_freq_interp
        counts = self.counts

        @functools.wraps(interp)
        def counted_interp(*args, **kwargs):
            counts["kernels.table_interp_calls"] += 1
            return interp(*args, **kwargs)

        self._patch(kernels, "sh_coeff_freq_interp", counted_interp)
        self._patch(np.linalg, "cholesky", self._wrap_linalg("linalg.cholesky", np.linalg.cholesky))
        self._patch(np.linalg, "solve", self._wrap_linalg("linalg.solve", np.linalg.solve))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def record(self, **extra) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), **extra}


def dump(path: str, processes: list) -> None:
    with open(path, "w") as fh:
        json.dump({"processes": processes}, fh)


def _self_times(spans) -> list:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def _under(spans, idx, prefix) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0].startswith(prefix):
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(processes: list) -> dict:
    """Per-layer figures of one traced pass (one set-up plus one round).

    Times are milliseconds: per training step, per evaluation, per call,
    per 1k points or per pass, as the metric name and README say. A layer
    the pass never entered reads 0.
    """
    acc = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for proc in processes:
        spans = proc["spans"]
        selft = _self_times(spans)
        for key, value in proc.get("counts", {}).items():
            add(key, value)
        if "startup_s" in proc:
            add("cli.n", 1)
            add("cli.startup", proc["startup_s"])
        for idx, (name, start, end, parent, size) in enumerate(spans):
            dur = end - start
            add(f"{name}.n", 1)
            add(f"{name}.dur", dur)
            add(f"{name}.self", selft[idx])
            if name == "gpr.predict":
                kind = "var" if size[1] else "mean"
                add(f"predict.{kind}.dur", dur)
                add(f"predict.{kind}.pts", size[0])
            elif isinstance(size, (int, float)):
                add(f"{name}.size", size)
            if name.startswith("linalg.") and _under(spans, idx, "gpr.nll_grad"):
                add(f"{name}.step.dur", dur)
                add(f"{name}.step.size", size or 0)
            if name == "gpr.nll" and _under(spans, idx, "gpr.run_steps"):
                add("validate.n", 1)
                add("validate.dur", dur)

    def get(key):
        return acc.get(key, 0.0)

    def ratio(num, den, scale=1.0):
        d = get(den)
        return scale * get(num) / d if d else 0.0

    ms = 1e3
    out = {
        "gpr.nll_grad_ms": ratio("gpr.nll_grad.dur", "gpr.nll_grad.n", ms),
        "gpr.cholesky_ms": ratio("linalg.cholesky.step.dur", "gpr.nll_grad.n", ms),
        "gpr.solve_ms": ratio("linalg.solve.step.dur", "gpr.nll_grad.n", ms),
        "gpr.solve_rhs": ratio("linalg.solve.step.size", "gpr.nll_grad.n"),
        "gpr.validate_ms": ratio("validate.dur", "validate.n", ms),
        "gpr.build_ms": ms * get("gpr.build_model.dur"),
        "gpr.predict_mean_ms_per_1k": ratio("predict.mean.dur", "predict.mean.pts", ms * 1e3),
        "gpr.predict_var_ms_per_1k": ratio("predict.var.dur", "predict.var.pts", ms * 1e3),
        "kernels.factors_ms_per_1k": ratio("kernels.factors.dur", "kernels.factors.size", ms * 1e3),
        "kernels.factors_points": get("kernels.factors.size"),
        "kernels.table_lookup_ms_per_1k": ratio("kernels.table_lookup.dur", "kernels.table_lookup.size",
                                                ms * 1e3),
        "kernels.table_interp_calls": get("kernels.table_interp_calls"),
        "kernels.gram_ms": ms * sum(get(f"{n}.self") for n in GRAM_LAYERS),
        "nfield.forward_ms_per_1k": ratio("nfield.forward.dur", "nfield.forward.size", ms * 1e3),
        "nfield.backward_ms_per_1k": ratio("nfield.backward.dur", "nfield.backward.size", ms * 1e3),
        "nfield.adam_ms": ratio("nfield.adam.dur", "nfield.adam.n", ms),
        "sphharm.basis_ms_per_1k": ratio("sphharm.basis.dur", "sphharm.basis.size", ms * 1e3),
        "sphharm.ridge_ms": ms * get("sphharm.ridge.dur"),
        "physics.sphere_series_ms": ms * get("physics.sphere_series.dur"),
        "datagen.read_ms": ratio("datagen.read.self", "datagen.read.n", ms),
        "datagen.write_ms": ratio("datagen.write.self", "datagen.write.n", ms),
        "datagen.dataset_bytes": (get("datagen.read.size") + get("datagen.write.size"))
        / max(get("datagen.read.n") + get("datagen.write.n"), 1.0),
        "modelio.save_ms": ratio("modelio.save.self", "modelio.save.n", ms),
        "modelio.load_ms": ratio("modelio.load.self", "modelio.load.n", ms),
        "modelio.model_bytes": (get("modelio.save.size") + get("modelio.load.size"))
        / max(get("modelio.save.n") + get("modelio.load.n"), 1.0),
        "metrics.score_ms": ms * get("metrics.score.dur"),
        "beamform.mvdr_ms": ms * get("beamform.mvdr.self"),
        "cli.startup_ms": ratio("cli.startup", "cli.n", ms),
    }
    for method in BASELINE_FITS:
        out[f"baselines.fit_ms.{method}"] = ratio(f"baselines.fit.{method}.dur",
                                                  f"baselines.fit.{method}.n", ms)
    return out

