import os
import re

import numpy as np
import pytest

from stableflow import cli, experiments, inverse, linalg
from stableflow.blocks import (LinearLayer, Network, NonExpansiveBlock,
                               ResidualBlock, save_network)
from stableflow.errors import StableflowError
from stableflow.linalg import format_entry


def read(path):
    with open(path) as fh:
        return fh.read()


class TestKvConfig:
    def test_parses_flat_pairs(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\nh=0.5\n\nsteps = 10\n")
        assert cli.read_kv_config(path) == {"h": "0.5", "steps": "10"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("just-a-token\n")
        with pytest.raises(StableflowError):
            cli.read_kv_config(path)


class TestOscillator:
    def test_energy_column_follows_growth_law(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["oscillator", "--out-dir", str(out),
                         "--h", "0.5", "--steps", "100"]) == 0
        lines = read(out / "oscillator_energy.csv").splitlines()[1:]
        for n, line in enumerate(lines):
            energy = float(line.split(",")[2])
            assert abs(energy / (0.5 * 1.25 ** n) - 1.0) <= 1e-12

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            cli.main(["oscillator", "--out-dir", str(out), "--seed", "3"])
        for name in ("oscillator_euler.csv", "oscillator_symplectic.csv",
                     "oscillator_energy.csv"):
            assert read(a / name) == read(b / name)

    def test_manifest_lists_outputs(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["oscillator", "--out-dir", str(out)])
        manifest = read(out / "manifest.txt")
        assert "status ok" in manifest
        assert "output oscillator_energy.csv" in manifest
        assert "config.h 0.1" in manifest

    def test_config_file_overrides_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("h=0.25\nsteps=4\n")
        out = tmp_path / "run"
        cli.main(["oscillator", "--out-dir", str(out), "--config", str(cfg)])
        assert "config.h 0.25" in read(out / "manifest.txt")
        assert len(read(out / "oscillator_energy.csv").splitlines()) == 6

    def test_unknown_config_key_fails(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("bogus=1\n")
        out = tmp_path / "run"
        with pytest.raises(SystemExit):
            cli.main(["oscillator", "--out-dir", str(out), "--config", str(cfg)])
        assert "status failed" in read(out / "manifest.txt")


class TestFailurePaths:
    def test_missing_idx_files_fail_cleanly(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(SystemExit):
            cli.main(["robust", "--out-dir", str(out),
                      "--train-images", "/nonexistent/a.idx",
                      "--train-labels", "/nonexistent/b.idx",
                      "--test-images", "/nonexistent/c.idx",
                      "--test-labels", "/nonexistent/d.idx"])
        manifest = read(out / "manifest.txt")
        assert "status failed" in manifest
        assert "error" in manifest
        assert not [p for p in os.listdir(out) if p.endswith(".csv")]


class TestVerify:
    def test_invnet_checkpoint_verifies_within_budget(self, tmp_path):
        net = inverse.build_invnet(2.0, seed=0)
        ckpt = tmp_path / "ckpt"
        save_network(net, ckpt)
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n-pairs=2000\ncertificates=10\n")
        assert cli.main(["verify", "--checkpoint", str(ckpt),
                         "--out-dir", str(out), "--config", str(cfg)]) == 0
        lips = read(out / "verify_lipschitz.csv").splitlines()
        assert lips[0] == "n_pairs,max_ratio,composed_bound,budget,within_budget"
        row = lips[1].split(",")
        assert float(row[1]) <= float(row[3]) + 1e-6
        assert row[4] == "1"
        spectral = read(out / "verify_spectral.csv").splitlines()[1:]
        assert all(line.split(",")[-1] == "1" for line in spectral)
        assert (out / "verify_certificates.csv").exists()

    def test_norms_are_lapack_sigma_max(self, tmp_path, rng):
        # a zero weight is a valid non-expansive block: sigma_max = 0 meets
        # any step constraint
        net = Network([NonExpansiveBlock(np.zeros((5, 4)), np.zeros(5)),
                       NonExpansiveBlock.random(4, 5, rng),
                       LinearLayer.random(4, 3, rng)])
        ckpt = tmp_path / "ckpt"
        save_network(net, ckpt)
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n-pairs=200\ncertificates=0\n")
        assert cli.main(["verify", "--checkpoint", str(ckpt),
                         "--out-dir", str(out), "--config", str(cfg)]) == 0
        rows = [line.split(",") for line in
                read(out / "verify_spectral.csv").splitlines()[1:]]
        weights = [(i, name, arr) for i, name, arr in net.parameters() if arr.ndim == 2]
        expected = [(str(i), name, format_entry(linalg.spectral_norm(arr)))
                    for i, name, arr in weights]
        assert [tuple(row[:3]) for row in rows] == expected
        for (_, _, arr), row in zip(weights, rows):
            assert abs(float(row[2]) - np.linalg.norm(arr, 2)) <= 1e-12
        assert all(row[-1] == "1" for row in rows)

    def test_tampered_checkpoint_fails(self, tmp_path):
        net = inverse.build_invnet(2.0, seed=0)
        for block in net.nonexpansive_blocks():
            block.weight *= 3.0
        ckpt = tmp_path / "ckpt"
        save_network(net, ckpt)
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n-pairs=2000\ncertificates=10\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--checkpoint", str(ckpt),
                      "--out-dir", str(out), "--config", str(cfg)])
        assert exc.value.code not in (0, None)
        manifest = read(out / "manifest.txt")
        assert "status failed" in manifest
        assert "block 1 weight" in manifest
        assert "exceeds the budget" in manifest
        assert not (out / "verify_lipschitz.csv").exists()

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace(" h=0.5", ""),
        lambda text: "",
        lambda text: re.sub("2 linear.*", "2", text),
        lambda text: text.replace("residual", "convolution"),
        lambda text: text.replace("stableflow-network 3", "stableflow-network 4"),
        lambda text: re.sub("n_steps=[0-9]+", "n_steps=0", text),
    ], ids=["missing-attr", "empty", "no-kind", "unknown-kind", "block-count",
            "zero-steps"])
    def test_malformed_checkpoint_fails(self, tmp_path, rng, edit):
        net = Network([NonExpansiveBlock.random(4, 5, rng),
                       ResidualBlock.random(4, 5, rng, h=0.5),
                       LinearLayer.random(4, 3, rng)])
        ckpt = tmp_path / "ckpt"
        save_network(net, ckpt)
        manifest = ckpt / "manifest.txt"
        manifest.write_text(edit(manifest.read_text()))
        out = tmp_path / "run"
        with pytest.raises(SystemExit):
            cli.main(["verify", "--checkpoint", str(ckpt), "--out-dir", str(out)])
        record = read(out / "manifest.txt")
        assert "status failed" in record
        assert f"error {manifest}: " in record


class TestOutputCheck:
    def test_header_words_are_not_non_finite_values(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("step,info,nanoseconds\n0,1.5,2\n")
        assert cli._output_ok(str(path))
        path.write_text("step,info,nanoseconds\n0,inf,2\n")
        assert not cli._output_ok(str(path))


class TestExperimentSmokes:
    def test_inverse_smoke(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n-train=60\nn-test=40\niterations=150\n")
        assert cli.main(["inverse", "--out-dir", str(out),
                        "--config", str(cfg)]) == 0
        summary = read(out / "inverse_summary_seed0.csv").splitlines()
        assert summary[0].startswith("tau_star,l_star")
        assert (out / "tikhonov_tuning_seed0.csv").exists()
        assert (out / "invnet_recon_optimal_seed0.csv").exists()
        assert (out / "invnet_optimal_seed0" / "manifest.txt").exists()

    def test_swissroll_smoke(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("samples=120\nprobe-every=0\n")
        assert cli.main(["swissroll", "--arch", "mlp", "--layers", "2",
                         "--out-dir", str(out), "--config", str(cfg)]) == 0
        assert (out / "swissroll_boundary_mlp2_seed0.csv").exists()
        acc = read(out / "swissroll_testacc_mlp2_seed0.csv").splitlines()[1]
        assert 0.0 <= float(acc) <= 1.0

    def test_robust_smoke_and_determinism(self, tmp_path):
        corpus = experiments.make_synthetic_idx_corpus(tmp_path / "data",
                                                       n_train=300, n_test=60,
                                                       seed=0)
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n-train=250\nn-test=40\nepochs=2\nn-iter=3\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.main(["robust", "--out-dir", str(out),
                             "--train-images", corpus["train_images"],
                             "--train-labels", corpus["train_labels"],
                             "--test-images", corpus["test_images"],
                             "--test-labels", corpus["test_labels"],
                             "--config", str(cfg)]) == 0
            outs.append(out)
        for name in ("robust_accuracy_nonexpansive_seed0.csv",
                     "robust_accuracy_resnet_seed0.csv"):
            assert read(outs[0] / name) == read(outs[1] / name)
        table = read(outs[0] / "robust_accuracy_nonexpansive_seed0.csv")
        assert table.splitlines()[1].startswith("0.0,")
        assert (outs[0] / "nonexpansive_seed0" / "manifest.txt").exists()

    def test_lyapunov_smoke(self, tmp_path):
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("samples=40\niterations=25\ntrajectories=3\ntraj-steps=50\n")
        assert cli.main(["lyapunov", "--out-dir", str(out),
                         "--config", str(cfg)]) == 0
        series = read(out / "lyapunov_v_series_seed0.csv").splitlines()
        assert series[0] == "trajectory,step,v"
        values = np.array([[float(v) for v in line.split(",")]
                           for line in series[1:]])
        for k in range(3):
            v = values[values[:, 0] == k][:, 2]
            assert np.all(np.diff(v) <= 1e-7)
