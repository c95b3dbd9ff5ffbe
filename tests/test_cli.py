import json
import math
import os

import numpy as np
import pytest

from svfield import cli
from svfield.datagen import read_dataset
from svfield.errors import NumericError


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene_cfg = _write(
        root / "scene.json",
        {
            "kind": "sh-scene", "n_freqs": 8, "n_mics": 2, "n_dirs": 24,
            "f_min_hz": 500.0, "f_max_hz": 2000.0, "order": 1, "seed": 0,
        },
    )
    fit_cfg = _write(
        root / "fit.json",
        {
            "n_obs": 8, "seed": 0, "noise_var": 1e-4, "iterations": 8,
            "batch_size": 64, "pretrain_iterations": 4, "eval_every": 4,
            "encoding_dim": 8, "hidden_widths": [8],
        },
    )
    ds_path = str(root / "ds.json")
    assert cli.main(["simulate", "--config", scene_cfg, "--out", ds_path]) == 0
    return {"root": root, "scene_cfg": scene_cfg, "fit_cfg": fit_cfg, "dataset": ds_path}


class TestSimulate:
    def test_rerun_byte_identical(self, workspace):
        other = str(workspace["root"] / "ds_again.json")
        assert cli.main(["simulate", "--config", workspace["scene_cfg"], "--out", other]) == 0
        with open(workspace["dataset"], "rb") as f1, open(other, "rb") as f2:
            assert f1.read() == f2.read()

    def test_counts_match_file(self, workspace, capsys):
        out = str(workspace["root"] / "ds_count.json")
        cli.main(["simulate", "--config", workspace["scene_cfg"], "--out", out])
        stdout = capsys.readouterr().out
        assert "F=8 I=2 J=24 (384 values)" in stdout
        ds = read_dataset(out)
        assert ds.values.size == 384

    def test_sphere_mic_inside_rejected(self, workspace, capsys):
        bad = _write(
            workspace["root"] / "bad_scene.json",
            {"kind": "sphere-scene", "n_freqs": 2, "n_mics": 2, "n_dirs": 8,
             "f_min_hz": 500.0, "f_max_hz": 1000.0, "sphere_radius": 0.5, "seed": 0},
        )
        rc = cli.main(["simulate", "--config", bad, "--out", str(workspace["root"] / "never.json")])
        assert rc == 3
        assert "inside the sphere" in capsys.readouterr().err

    def test_malformed_config_exits_3(self, workspace, capsys):
        bad = _write(workspace["root"] / "weird.json", {"kind": "sh-scene", "n_freqs": -1})
        assert cli.main(["simulate", "--config", bad, "--out", str(workspace["root"] / "x.json")]) == 3


class TestFit:
    def test_gp_steerer_deterministic(self, workspace):
        a = str(workspace["root"] / "m_a.json")
        b = str(workspace["root"] / "m_b.json")
        args = ["fit", "--dataset", workspace["dataset"], "--method", "gp-steerer",
                "--config", workspace["fit_cfg"]]
        assert cli.main(args + ["--out", a]) == 0
        assert cli.main(args + ["--out", b]) == 0
        with open(a, "rb") as f1, open(b, "rb") as f2:
            assert f1.read() == f2.read()
        assert os.path.exists(a + ".losses.csv")

    def test_nn_instant_and_usable(self, workspace):
        out = str(workspace["root"] / "m_nn.json")
        assert cli.main(["fit", "--dataset", workspace["dataset"], "--method", "nn",
                         "--config", workspace["fit_cfg"], "--out", out]) == 0
        report = str(workspace["root"] / "rep_nn")
        assert cli.main(["evaluate", "--model", out, "--dataset", workspace["dataset"],
                         "--out", report]) == 0

    def test_zero_iteration_gp_predicts(self, workspace):
        cfg = _write(
            workspace["root"] / "fit0.json",
            {"n_obs": 8, "seed": 0, "iterations": 0, "pretrain_iterations": 0,
             "batch_size": 64, "encoding_dim": 8, "hidden_widths": [8]},
        )
        out = str(workspace["root"] / "m_gp0.json")
        assert cli.main(["fit", "--dataset", workspace["dataset"], "--method", "gp-steerer",
                         "--config", cfg, "--out", out]) == 0
        rep = str(workspace["root"] / "rep_gp0")
        assert cli.main(["evaluate", "--model", out, "--dataset", workspace["dataset"],
                         "--out", rep]) == 0

    def test_unknown_method_usage_error(self, workspace):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--dataset", workspace["dataset"], "--method", "magic",
                      "--out", str(workspace["root"] / "x.json")])
        assert exc.value.code == 2

    def test_seed_flag_overrides_config(self, workspace):
        a = str(workspace["root"] / "m_s1.json")
        b = str(workspace["root"] / "m_s2.json")
        args = ["fit", "--dataset", workspace["dataset"], "--method", "nn",
                "--config", workspace["fit_cfg"]]
        cli.main(args + ["--seed", "1", "--out", a])
        cli.main(args + ["--seed", "2", "--out", b])
        da = json.load(open(a))
        db = json.load(open(b))
        assert da["seed"] == 1 and db["seed"] == 2
        assert da["train_directions"] != db["train_directions"]


@pytest.fixture(scope="module")
def fitted(workspace):
    out = str(workspace["root"] / "m_eval.json")
    cli.main(["fit", "--dataset", workspace["dataset"], "--method", "gp-steerer",
              "--config", workspace["fit_cfg"], "--out", out])
    return out


class TestEvaluate:

    def test_report_deterministic(self, workspace, fitted):
        rep1 = str(workspace["root"] / "rep1")
        rep2 = str(workspace["root"] / "rep2")
        cli.main(["evaluate", "--model", fitted, "--dataset", workspace["dataset"], "--out", rep1])
        cli.main(["evaluate", "--model", fitted, "--dataset", workspace["dataset"], "--out", rep2])
        for name in ("nmse.csv", "csim.csv", "summary.json"):
            with open(os.path.join(rep1, name), "rb") as f1, open(os.path.join(rep2, name), "rb") as f2:
                assert f1.read() == f2.read()

    def test_summary_matches_csv_medians(self, workspace, fitted):
        rep = str(workspace["root"] / "rep_medians")
        cli.main(["evaluate", "--model", fitted, "--dataset", workspace["dataset"], "--out", rep])
        summary = json.load(open(os.path.join(rep, "summary.json")))
        nmse_rows = open(os.path.join(rep, "nmse.csv")).read().strip().splitlines()[1:]
        csim_rows = open(os.path.join(rep, "csim.csv")).read().strip().splitlines()[1:]
        nmse_vals = [float(r.split(",")[-1]) for r in nmse_rows]
        csim_vals = [float(r.split(",")[-1]) for r in csim_rows]
        assert summary["median_nmse_db"] == pytest.approx(float(np.median(nmse_vals)), abs=1e-12)
        assert summary["median_csim"] == pytest.approx(float(np.median(csim_vals)), abs=1e-12)
        assert summary["n_obs"] == 8
        assert len(summary["csim_vs_angular_distance"]) >= 1

    def test_oracle_passthrough_floor(self, workspace):
        # nearest-neighbor fitted on the full clean set reproduces it exactly
        out = str(workspace["root"] / "m_oracle.json")
        cfg = _write(workspace["root"] / "fit_full.json", {"seed": 0})
        cli.main(["fit", "--dataset", workspace["dataset"], "--method", "nn",
                  "--config", cfg, "--out", out])
        rep = str(workspace["root"] / "rep_oracle")
        cli.main(["evaluate", "--model", out, "--dataset", workspace["dataset"], "--out", rep])
        summary = json.load(open(os.path.join(rep, "summary.json")))
        assert summary["median_nmse_db"] == -300.0
        assert summary["median_csim"] == pytest.approx(1.0, abs=1e-12)

    def test_incompatible_dataset_exits_3(self, workspace, fitted, capsys):
        other_cfg = _write(
            workspace["root"] / "scene_other.json",
            {"kind": "sh-scene", "n_freqs": 8, "n_mics": 3, "n_dirs": 24,
             "f_min_hz": 500.0, "f_max_hz": 2000.0, "order": 1, "seed": 0},
        )
        other_ds = str(workspace["root"] / "ds_other.json")
        cli.main(["simulate", "--config", other_cfg, "--out", other_ds])
        rc = cli.main(["evaluate", "--model", fitted, "--dataset", other_ds,
                       "--out", str(workspace["root"] / "rep_bad")])
        assert rc == 3


class TestBeampattern:
    def test_outputs_and_distortionless(self, workspace):
        model = str(workspace["root"] / "m_bp.json")
        cli.main(["fit", "--dataset", workspace["dataset"], "--method", "nn",
                  "--config", workspace["fit_cfg"], "--out", model])
        bp_cfg = _write(
            workspace["root"] / "bp.json",
            {"look_directions": [{"azimuth_deg": 0.0, "colatitude_deg": 90.0}],
             "freqs_hz": [1000.0], "scan_azimuths": 72},
        )
        out = str(workspace["root"] / "bp_out")
        assert cli.main(["beampattern", "--model", model, "--dataset", workspace["dataset"],
                         "--config", bp_cfg, "--out", out]) == 0
        checks = json.load(open(os.path.join(out, "beampattern_checks.json")))
        assert all(c["distortionless_error"] <= 1e-10 for c in checks)
        for name in ("pattern_model_look0.csv", "pattern_oracle_look0.csv"):
            rows = open(os.path.join(out, name)).read().strip().splitlines()
            assert rows[0] == "freq_hz,azimuth_deg,gain_db"
            assert len(rows) == 1 + 72
        # 0 dB at the look azimuth
        model_rows = open(os.path.join(out, "pattern_model_look0.csv")).read().strip().splitlines()[1:]
        az0 = [r for r in model_rows if float(r.split(",")[1]) == 0.0]
        assert abs(float(az0[0].split(",")[2])) < 1e-9

    def test_rerun_byte_identical(self, workspace):
        model = str(workspace["root"] / "m_bp2.json")
        cli.main(["fit", "--dataset", workspace["dataset"], "--method", "sh",
                  "--config", workspace["fit_cfg"], "--out", model])
        out1 = str(workspace["root"] / "bp1")
        out2 = str(workspace["root"] / "bp2")
        for out in (out1, out2):
            cli.main(["beampattern", "--model", model, "--dataset", workspace["dataset"], "--out", out])
        for name in ("pattern_model_look0.csv", "pattern_oracle_look0.csv", "beampattern_checks.json"):
            with open(os.path.join(out1, name), "rb") as f1, open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()


class TestExitCodes:
    def test_numeric_failure_exits_4(self, monkeypatch, capsys):
        import argparse

        def build():
            parser = argparse.ArgumentParser(prog="svfield")
            sub = parser.add_subparsers(dest="command", required=True)
            boom = sub.add_parser("boom")

            def run(args):
                raise NumericError("synthetic blow-up")

            boom.set_defaults(func=run)
            return parser

        monkeypatch.setattr(cli, "build_parser", build)
        assert cli.main(["boom"]) == 4
        assert "synthetic blow-up" in capsys.readouterr().err

    def test_untrained_neural_field_not_saved(self, tmp_path, capsys):
        # README scene and fit config at 60 steps: pcnn's validation loss never
        # drops below its zero-head start, which would predict zero everywhere
        scene = _write(
            tmp_path / "scene.json",
            {"kind": "sphere-scene", "n_freqs": 64, "n_mics": 4, "n_dirs": 240,
             "f_min_hz": 125.0, "f_max_hz": 8000.0, "sphere_radius": 0.09,
             "source_radius": 2.0, "seed": 0},
        )
        fit_cfg = _write(
            tmp_path / "fit.json",
            {"n_obs": 16, "seed": 0, "noise_var": 1e-4, "iterations": 60,
             "pretrain_iterations": 40, "batch_size": 384, "eval_every": 30, "warmup_steps": 100},
        )
        ds, out = str(tmp_path / "scene.json.gz"), str(tmp_path / "model.json")
        assert cli.main(["simulate", "--config", scene, "--out", ds]) == 0
        rc = cli.main(["fit", "--dataset", ds, "--method", "pcnn", "--config", fit_cfg, "--out", out])
        assert rc == 4
        assert "no evaluation in 60 steps improved" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_unknown_fit_config_key_exits_3(self, workspace, capsys):
        # a misspelt key was dropped before, so the fit silently used the default
        cfg = _write(workspace["root"] / "fit_typo.json", {"n_obs": 8, "iteration": 2})
        out = str(workspace["root"] / "m_typo.json")
        rc = cli.main(["fit", "--dataset", workspace["dataset"], "--method", "nn",
                       "--config", cfg, "--out", out])
        assert rc == 3
        assert "'iteration'" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_unknown_beampattern_config_key_exits_3(self, workspace, capsys):
        model = str(workspace["root"] / "m_bp_typo.json")
        assert cli.main(["fit", "--dataset", workspace["dataset"], "--method", "nn",
                         "--config", workspace["fit_cfg"], "--out", model]) == 0
        cfg = _write(workspace["root"] / "bp_typo.json", {"freq_hz": [1000.0]})
        out = workspace["root"] / "bp_typo"
        rc = cli.main(["beampattern", "--model", model, "--dataset", workspace["dataset"],
                       "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "'freq_hz'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("eval_every", 0), ("grad_clip", 0.0)])
    def test_invalid_loop_setting_exits_3(self, workspace, key, value):
        cfg = _write(workspace["root"] / f"fit_{key}.json", {"n_obs": 8, "iterations": 4, key: value})
        out = str(workspace["root"] / f"m_{key}.json")
        rc = cli.main(["fit", "--dataset", workspace["dataset"], "--method", "pcnn",
                       "--config", cfg, "--out", out])
        assert rc == 3
        assert not os.path.exists(out)

    def test_missing_dataset_exits_3(self, workspace):
        rc = cli.main(["evaluate", "--model", "nope.json", "--dataset", "missing.json",
                       "--out", str(workspace["root"] / "r")])
        assert rc == 3

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2


class TestFreqSubsample:
    def test_flag_coarsens_training_grid(self, workspace):
        out = str(workspace["root"] / "m_sub.json")
        assert cli.main(["fit", "--dataset", workspace["dataset"], "--method", "nn",
                         "--config", workspace["fit_cfg"], "--out", out,
                         "--freq-subsample", "2"]) == 0
        model = json.load(open(out))
        n_freqs = model["payload"]["frequencies"]["shape"][0]
        assert n_freqs == 5  # 8 frequencies, stride 2 plus the retained band edge

    def test_subsampled_gp_still_evaluates_full_grid(self, workspace):
        out = str(workspace["root"] / "m_sub_gp.json")
        assert cli.main(["fit", "--dataset", workspace["dataset"], "--method", "gp-steerer",
                         "--config", workspace["fit_cfg"], "--out", out,
                         "--freq-subsample", "2"]) == 0
        rep = str(workspace["root"] / "rep_sub_gp")
        assert cli.main(["evaluate", "--model", out, "--dataset", workspace["dataset"],
                         "--out", rep]) == 0

    def test_n_obs_flag_overrides_config(self, workspace):
        out = str(workspace["root"] / "m_nobs.json")
        assert cli.main(["fit", "--dataset", workspace["dataset"], "--method", "nn",
                         "--config", workspace["fit_cfg"], "--out", out,
                         "--n-obs", "12"]) == 0
        model = json.load(open(out))
        assert len(model["train_directions"]) == 12
