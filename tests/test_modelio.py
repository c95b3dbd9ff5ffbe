from dataclasses import replace

import numpy as np
import pytest

from svfield.baselines import (
    fit_gp_chmat,
    fit_krr,
    fit_nn,
    fit_sh_ridge,
    nf_direct_fit,
    nf_gw_fit,
    pcnn_fit,
)
from svfield.datagen import SceneConfig, add_noise, gen_sh_scene, split_observed
from svfield.errors import SchemaError
from svfield.geom import angular_distance
from svfield.gpr import FitConfig, fit
from svfield.modelio import (
    check_compatible,
    load_model,
    predict_directions,
    predict_grid,
    save_model,
    train_directions,
)


@pytest.fixture(scope="module")
def setup():
    scene = gen_sh_scene(
        SceneConfig(n_freqs=6, n_mics=2, n_dirs=24, f_min_hz=500, f_max_hz=2000, order=1, seed=0)
    )
    noisy = add_noise(scene, 1e-4, seed=1)
    train, _ = split_observed(noisy, 9, seed=0)
    return scene, train


def _fit(kind, train):
    cfg = FitConfig(
        iterations=4, pretrain_iterations=2, batch_size=64, eval_every=2,
        encoding_dim=8, hidden_widths=(8,), seed=0,
    )
    nf_cfg = FitConfig.nf_baseline_defaults(
        iterations=4, batch_size=64, eval_every=2, encoding_dim=8, hidden_widths=(8,), seed=0
    )
    return {
        "gp-steerer": lambda: fit(train, cfg),
        "gp-chmat": lambda: fit_gp_chmat(train, cfg),
        "krr": lambda: fit_krr(train),
        "sh": lambda: fit_sh_ridge(train),
        "nn": lambda: fit_nn(train),
        "nf": lambda: nf_direct_fit(train, nf_cfg),
        "nf-gw": lambda: nf_gw_fit(train, nf_cfg),
        "pcnn": lambda: pcnn_fit(train, nf_cfg),
    }[kind]()


ALL_KINDS = ["gp-steerer", "gp-chmat", "krr", "sh", "nn", "nf", "nf-gw", "pcnn"]
CHANNEL_INDEXED = {"gp-chmat", "krr", "sh", "nn"}
GRID_BOUND = {"sh", "nn"}


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_save_load_preserves_predictions(self, kind, setup, tmp_path):
        scene, train = setup
        model = _fit(kind, train)
        before = predict_grid(model, scene)
        path = str(tmp_path / f"{kind}.json")
        save_model(model, path)
        back = load_model(path)
        after = predict_grid(back, scene)
        np.testing.assert_array_equal(before, after)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_save_is_deterministic(self, kind, setup, tmp_path):
        scene, train = setup
        model = _fit(kind, train)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        d1 = save_model(model, p1)
        d2 = save_model(model, p2)
        assert d1 == d2
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_save_load_save_byte_identical(self, kind, setup, tmp_path):
        scene, train = setup
        p1, p2 = str(tmp_path / "first.json"), str(tmp_path / "second.json")
        d1 = save_model(_fit(kind, train), p1)
        d2 = save_model(load_model(p1), p2)
        assert d1 == d2
        with open(p1, "rb") as f1, open(p2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_train_directions_recovered(self, setup, tmp_path):
        scene, train = setup
        model = _fit("gp-steerer", train)
        dirs = train_directions(model)
        assert len(dirs) == len(train.source_directions)
        for d in dirs:
            assert min(angular_distance(d, t) for t in train.source_directions) < 1e-9

    def test_gzip_envelope(self, setup, tmp_path):
        scene, train = setup
        model = _fit("nn", train)
        path = str(tmp_path / "model.json.gz")
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(predict_grid(back, scene), predict_grid(model, scene))


class TestSchemaRejection:
    def test_not_json(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            fh.write("not json at all {")
        with pytest.raises(SchemaError):
            load_model(path)

    def test_unknown_kind(self, setup, tmp_path):
        import json

        scene, train = setup
        path = str(tmp_path / "model.json")
        save_model(_fit("nn", train), path)
        doc = json.load(open(path))
        doc["kind"] = "mystery"
        json.dump(doc, open(path, "w"))
        with pytest.raises(SchemaError, match="kind"):
            load_model(path)

    def test_bad_version(self, setup, tmp_path):
        import json

        scene, train = setup
        path = str(tmp_path / "model.json")
        save_model(_fit("nn", train), path)
        doc = json.load(open(path))
        doc["schema_version"] = 42
        json.dump(doc, open(path, "w"))
        with pytest.raises(SchemaError, match="version"):
            load_model(path)

    def test_truncated_payload(self, setup, tmp_path):
        import json

        scene, train = setup
        path = str(tmp_path / "model.json")
        save_model(_fit("sh", train), path)
        doc = json.load(open(path))
        del doc["payload"]["coeffs"]
        json.dump(doc, open(path, "w"))
        with pytest.raises(SchemaError, match="payload"):
            load_model(path)


class TestPredictDirections:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_consistent_with_grid_prediction(self, kind, setup):
        scene, train = setup
        model = _fit(kind, train)
        grid = predict_grid(model, scene)
        sub = predict_directions(model, scene, scene.source_directions[:5], [0, 3])
        np.testing.assert_allclose(sub, grid[[0, 3]][:, :, :5], rtol=1e-9, atol=1e-12)


class TestCompatibility:
    @pytest.mark.parametrize("kind", ["nn", "nf"])
    def test_other_mic_rows_rejected(self, kind, setup):
        # each column holds the same values, so sorting columns one at a time cannot tell them apart
        scene, train = setup
        model = replace(_fit(kind, train), mic_positions=np.array([[0.0, 0, 0], [1, 1, 0]]))
        ds = replace(scene, mic_positions=np.array([[0.0, 1, 0], [1, 0, 0]]))
        with pytest.raises(ValueError, match="microphone"):
            check_compatible(model, ds)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mic_order(self, kind, setup):
        scene, train = setup
        model = _fit(kind, train)
        swapped = replace(scene, mic_positions=scene.mic_positions[::-1].copy())
        if kind in CHANNEL_INDEXED:
            with pytest.raises(ValueError, match="order"):
                check_compatible(model, swapped)
        else:
            check_compatible(model, swapped)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_frequency_grid(self, kind, setup):
        scene, train = setup
        model = _fit(kind, train)
        shifted = replace(scene, frequencies=scene.frequencies * 1.01)
        if kind in GRID_BOUND:
            with pytest.raises(ValueError, match="frequency grid"):
                check_compatible(model, shifted)
        else:
            check_compatible(model, shifted)
