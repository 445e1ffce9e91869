"""Each of the benchmark's output checks passes on genuine outputs and fails
on outputs edited to break what it checks.

    python3 -m pytest bench -q
"""

import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from stableflow import blocks, cli, datasets, inverse  # noqa: E402

BUDGETS = (("third", 1.0 / 3.0), ("optimal", 1.0), ("triple", 3.0))


def edit_csv(path, row, col, value):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def scale_weights(directory, factor=3.0):
    net = blocks.load_network(directory)
    for block in net.nonexpansive_blocks():
        block.weight *= factor
    blocks.save_network(net, directory)


@pytest.fixture(scope="module")
def robust_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("robust")
    for split, n, seed in (("train", 400, 0), ("test", 30, 1)):
        images, labels = datasets.synthetic_image_corpus(n, seed=seed)
        datasets.save_idx(str(root / f"{split}-images.idx"), images)
        datasets.save_idx(str(root / f"{split}-labels.idx"), labels)
    (root / "cfg").write_text("n-train=400\nn-test=30\nepochs=4\nn-iter=4\n")
    argv = ["robust", "--seed", "0", "--config", str(root / "cfg"),
            "--out-dir", str(root / "out")]
    for split in ("train", "test"):
        for kind in ("images", "labels"):
            argv += [f"--{split}-{kind}", str(root / f"{split}-{kind}.idx")]
    assert cli.main(argv) == 0
    return root


def robust_copy(robust_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(robust_run / "out", out)
    return out, str(robust_run / "test-images.idx"), str(robust_run / "test-labels.idx")


def test_robust_passes_on_genuine_outputs(robust_run, tmp_path):
    out, images, labels = robust_copy(robust_run, tmp_path)
    assert checks.check_robust(str(out), 0, images, labels) == []


def test_robust_clean_row_must_match_recomputed_accuracy(robust_run, tmp_path):
    out, images, labels = robust_copy(robust_run, tmp_path)
    edit_csv(out / "robust_accuracy_resnet_seed0.csv", 0, 1, "0.5")
    assert any("epsilon=0 row" in p for p in checks.check_robust(str(out), 0, images, labels))


def test_robust_row_below_certified_floor_fails(robust_run, tmp_path):
    out, images, labels = robust_copy(robust_run, tmp_path)
    ckpt = checks.Checkpoint(str(out / "nonexpansive_seed0"))
    logits = ckpt.forward(checks.pool_rows(checks.read_idx(images)))
    top2 = np.sort(logits, axis=1)[:, -2:]
    radius = (top2[:, 1] - top2[:, 0]) / (2.0 * checks.norm2(ckpt.blocks[-1][2]["weight"]))
    assert np.mean(radius > 0.1) > 0.0  # the floor at epsilon 0.1 is not vacuous
    edit_csv(out / "robust_accuracy_nonexpansive_seed0.csv", 1, 1, "0.0")
    assert any("certified share" in p for p in checks.check_robust(str(out), 0, images, labels))


def test_robust_weights_times_three_fail_the_recomputed_accuracy(robust_run, tmp_path):
    out, images, labels = robust_copy(robust_run, tmp_path)
    scale_weights(str(out / "nonexpansive_seed0"))
    assert any("epsilon=0 row" in p for p in checks.check_robust(str(out), 0, images, labels))


@pytest.fixture(scope="module")
def inverse_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("inverse")
    (root / "cfg").write_text("iterations=60\n")
    assert cli.main(["inverse", "--seed", "0", "--config", str(root / "cfg"),
                     "--out-dir", str(root / "out")]) == 0
    return root / "out"


@pytest.fixture
def inverse_out(inverse_run, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(inverse_run, out)
    return out


def test_inverse_passes_on_genuine_outputs(inverse_out):
    assert checks.check_inverse(str(inverse_out), 0, BUDGETS) == []


def test_inverse_tikhonov_curve_must_match_closed_form(inverse_out):
    edit_csv(inverse_out / "tikhonov_lipschitz_seed0.csv", 7, 1, "0.5")
    assert any("closed form" in p for p in checks.check_inverse(str(inverse_out), 0, BUDGETS))


def test_inverse_tau_star_must_be_largest_minimiser(inverse_out):
    edit_csv(inverse_out / "inverse_summary_seed0.csv", 0, 0, "100.0")
    assert any("largest minimiser" in p
               for p in checks.check_inverse(str(inverse_out), 0, BUDGETS))


def test_inverse_weights_times_three_fail_step_and_pair_checks(inverse_out):
    scale_weights(str(inverse_out / "invnet_optimal_seed0"))
    problems = checks.check_inverse(str(inverse_out), 0, BUDGETS)
    assert any("invnet optimal" in p and "h*sigma^2" in p for p in problems)
    assert any("invnet optimal" in p and "pair ratio" in p for p in problems)


def run_verify(checkpoint, out):
    cli.main(["verify", "--seed", "0", "--checkpoint", str(checkpoint), "--out-dir", str(out)])
    return checks.check_verify(str(out), checks.Checkpoint(str(checkpoint)), "verify")


def test_verify_checks_pass_on_genuine_and_fail_on_tampered(inverse_out, tmp_path):
    ckpt = inverse_out / "invnet_optimal_seed0"
    assert run_verify(ckpt, tmp_path / "genuine") == []
    scale_weights(str(ckpt))
    problems = run_verify(ckpt, tmp_path / "tampered")
    assert any("> composed_bound" in p for p in problems)
    assert any("LAPACK-composed bound" in p for p in problems)


def test_verify_norm_must_match_lapack(inverse_out, tmp_path):
    ckpt = inverse_out / "invnet_optimal_seed0"
    assert run_verify(ckpt, tmp_path / "v") == []
    edit_csv(tmp_path / "v" / "verify_spectral.csv", 2, 2, "1.5")
    problems = checks.check_verify(str(tmp_path / "v"), checks.Checkpoint(str(ckpt)), "v")
    assert any("LAPACK" in p for p in problems)


def write_v_series(path, v):
    with open(path, "w") as fh:
        fh.write("trajectory,step,v\n")
        for k, row in enumerate(v):
            for i, value in enumerate(row):
                fh.write(f"{k},{i},{float(value)!r}\n")


@pytest.mark.parametrize("edit, message", [(None, None),
                                           ((1, 5, 2.0), "decays V by only"),
                                           ((0, 4, -1e-3), "< 0")])
def test_lyapunov_potential_must_decay_and_stay_nonnegative(tmp_path, edit, message):
    v = np.exp(-2.0 * np.linspace(0.0, 1.0, 6))[None, :] * np.array([[1.0], [2.0]])
    if edit:
        k, i, value = edit
        v[k, i] = value
    write_v_series(tmp_path / "lyapunov_v_series_seed0.csv", v)
    problems = checks.check_lyapunov(str(tmp_path), 0, 2, 5, np.exp(-2.0))
    assert problems == [] if message is None else any(message in p for p in problems)


def test_tracer_counts_pgd_rows_and_restores_the_library():
    from stableflow import attacks, experiments

    original, loss = attacks.pgd_l2_batch, attacks.batch_margin_cross_entropy
    rng = np.random.default_rng(0)
    net = experiments.build_image_classifier("nonexpansive", 6, 3, 0, width=6)
    xs, labels = rng.standard_normal((5, 6)), rng.integers(0, 3, 5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        attacks.pgd_l2_batch(net, xs, labels, attacks.AttackConfig(epsilon=0.5, n_iter=7))
    finally:
        tracer.uninstall()
    assert attacks.pgd_l2_batch is original
    assert attacks.batch_margin_cross_entropy is loss
    summary = tracer.summary()
    assert summary["attacks.gradient_rows"][0] == 5 * 7
    assert summary["attacks.param_grads_discarded"][0] == 7
    assert summary["training.loss.calls"][0] == 7
    assert summary["blocks.nonexpansive.substep_rows"][0] == 7 * 5 * sum(
        b.n_steps for b in net.nonexpansive_blocks())
    assert summary["attacks.pgd_l2_batch.calls"][0] == 1
    total = sum(v for k, (v, _) in summary.items() if k.endswith(".self_s"))
    root_span = np.array(tracer.end)[0] - np.array(tracer.start)[0]
    assert total == pytest.approx(root_span)


def test_checkpoint_reader_matches_the_program(tmp_path):
    net = inverse.build_invnet(2.0, seed=3)
    blocks.save_network(net, str(tmp_path / "ckpt"))
    x = np.random.default_rng(1).standard_normal((4, 2))
    ours = checks.Checkpoint(str(tmp_path / "ckpt")).forward(x)
    assert np.allclose(ours, net.forward(x), rtol=1e-12, atol=1e-12)
