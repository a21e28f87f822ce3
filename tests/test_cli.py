import json
import os
import subprocess
import sys

import numpy as np
import pytest

from hesskit import autodiff as ad
from hesskit import cli
from hesskit.cli import main
from hesskit.files import overwrite
from hesskit.nets import Generator, load_checkpoint, save_checkpoint

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_estimate_builtin_writes_report(tmp_path, capsys):
    out = str(tmp_path / "est")
    assert main(["estimate", "--fn", "z1z2", "--seed", "7", "--k", "2", "--out", out]) == 0
    report = read_json(os.path.join(out, "reports", "estimate.json"))
    assert report["value"] >= 0.0
    assert report["offdiag_estimate"] == pytest.approx(report["value"] / 2.0)
    config = read_json(os.path.join(out, "config.json"))
    assert config["command"] == "estimate"
    assert config["config"]["seed"] == 7
    assert "version" in config
    assert "penalty estimate" in capsys.readouterr().out


def test_rerun_with_a_shorter_report_leaves_no_old_bytes(tmp_path):
    # reports are overwritten in place and then cut to length
    reused, fresh = str(tmp_path / "reused"), str(tmp_path / "fresh")
    args = ["estimate", "--fn", "z1z2", "--seed", "7"]
    assert main(args + ["--repeat", "5", "--out", reused]) == 0
    assert main(args + ["--out", reused]) == 0
    assert main(args + ["--out", fresh]) == 0
    for name in ("config.json", os.path.join("reports", "estimate.json")):
        with open(os.path.join(reused, name), "rb") as got, \
                open(os.path.join(fresh, name), "rb") as want:
            assert got.read() == want.read()


def test_overwrite_writes_text_or_bytes_over_the_same_file(tmp_path):
    path = str(tmp_path / "new" / "file")
    overwrite(path, "a longer first text, é")
    inode = os.stat(path).st_ino
    overwrite(path, b"P5\n\x00\xff")
    assert (tmp_path / "new" / "file").read_bytes() == b"P5\n\x00\xff"
    overwrite(path, "é")
    assert (tmp_path / "new" / "file").read_bytes() == "é".encode("utf-8")
    assert os.stat(path).st_ino == inode


def test_estimate_repeat_matches_enumerated_value(tmp_path):
    out = str(tmp_path / "est")
    assert main(["estimate", "--fn", "z1z2", "--seed", "7", "--k", "2",
                 "--repeat", "200000", "--out", out]) == 0
    repeat = read_json(os.path.join(out, "reports", "estimate.json"))["repeat"]
    assert abs(repeat["mean"] - 4.0) <= 3.0 * repeat["std_error"]


def test_verify_passes(tmp_path):
    out = str(tmp_path / "ver")
    code = main(["verify", "--dims", "2..8", "--trials", "16", "--mc-matrices", "2",
                 "--mc-trials", "40000", "--out", out])
    assert code == 0
    report = read_json(os.path.join(out, "reports", "verify.json"))
    assert report["passed"]
    assert report["identity"]["max_rel_error"] <= 1e-10


def test_verify_with_equal_trials_fails_without_a_traceback(tmp_path, capsys):
    # two trials in dimension 2 are often equal, leaving the 3-SE gate no spread to
    # score against: so few trials are a usage error, not a FAIL that is only noise
    out = str(tmp_path / "ver")
    code = main(["verify", "--dims", "2..3", "--trials", "2", "--mc-dim", "2",
                 "--mc-trials", "2", "--mc-matrices", "5", "--out", out])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --mc-trials must be >= 30") and "3-standard-error" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(out, "reports", "verify.json"))


def test_out_of_memory_exits_one_with_a_message(tmp_path, monkeypatch, capsys):
    def exhausted(cfg, out):
        raise MemoryError("Unable to allocate 11.9 GiB for an array")

    monkeypatch.setitem(cli._HANDLERS, "eval", exhausted)
    assert main(["eval", "--fn", "z1z2", "--out", str(tmp_path / "x")]) == 1
    assert "error: out of memory (Unable to allocate 11.9 GiB" in capsys.readouterr().err


def test_train_zero_steps_keeps_init(tmp_path):
    out = str(tmp_path / "tr")
    assert main(["train", "--mode", "baseline", "--steps", "0", "--dataset", "1fov",
                 "--latent-dim", "2", "--dataset-size", "32", "--out", out]) == 0
    loaded = load_checkpoint(os.path.join(out, "checkpoints", "generator.npz"))
    from hesskit.nets import Generator

    seeds = np.random.SeedSequence(0).generate_state(5)
    init = Generator(2, 768, 64, 3, seed=int(seeds[1]))
    for a, b in zip(init.parameters(), loaded.parameters()):
        assert np.array_equal(a.values, b.values)
    assert os.path.exists(os.path.join(out, "log.jsonl"))
    assert read_json(os.path.join(out, "reports", "summary.json"))["steps"] == 0


def test_train_then_eval_and_directions(tmp_path):
    train_out = str(tmp_path / "tr")
    assert main(["train", "--mode", "reconstruction", "--dataset", "2factor",
                 "--latent-dim", "3", "--steps", "20", "--batch-size", "8",
                 "--dataset-size", "64", "--out", train_out]) == 0
    ckpt = os.path.join(train_out, "checkpoints", "generator.npz")

    eval_out = str(tmp_path / "ev")
    assert main(["eval", "--checkpoint", ckpt, "--ppl-samples", "500", "--act-base", "8",
                 "--act-sweep", "4", "--hess-samples", "2", "--out", eval_out]) == 0
    metrics = read_json(os.path.join(eval_out, "reports", "metrics.json"))
    assert len(metrics["activeness"]) == 3
    assert metrics["ppl"]["value"] > 0.0
    assert 0.0 <= metrics["diagonality"]["d_percent"] <= 1.0

    dir_out = str(tmp_path / "dir")
    assert main(["directions", "--checkpoint", ckpt, "--steps", "10", "--out", dir_out]) == 0
    report = read_json(os.path.join(dir_out, "reports", "directions.json"))
    assert np.array(report["directions"]).shape == (3, 3)
    assert report["ortho_residual"] <= 1e-6


def test_estimate_on_checkpoint_with_auto_taps(tmp_path):
    train_out = str(tmp_path / "tr")
    assert main(["train", "--mode", "reconstruction", "--dataset", "1fov",
                 "--latent-dim", "2", "--steps", "5", "--batch-size", "4",
                 "--dataset-size", "32", "--out", train_out]) == 0
    ckpt = os.path.join(train_out, "checkpoints", "generator.npz")
    out = str(tmp_path / "est")
    assert main(["estimate", "--checkpoint", ckpt, "--taps", "auto", "--z", "0.1,-0.3",
                 "--out", out]) == 0
    report = read_json(os.path.join(out, "reports", "estimate.json"))
    assert report["taps"] == ["norm1", "norm2"]
    assert report["value"] >= 0.0


def test_train_from_exported_dataset_manifest(tmp_path):
    data_out = str(tmp_path / "ds")
    assert main(["data", "--spec", "2factor", "--n", "48", "--seed", "3",
                 "--out", data_out]) == 0
    train_out = str(tmp_path / "tr")
    assert main(["train", "--mode", "reconstruction", "--dataset", data_out,
                 "--latent-dim", "2", "--steps", "4", "--batch-size", "8",
                 "--dataset-size", "48", "--out", train_out]) == 0
    summary = read_json(os.path.join(train_out, "reports", "summary.json"))
    assert summary["steps"] == 4
    assert main(["train", "--dataset", "nonexistent-spec",
                 "--out", str(tmp_path / "bad")]) == 1


def test_hessdump_exports_heatmaps(tmp_path):
    out = str(tmp_path / "hd")
    assert main(["hessdump", "--fn", "rotated-separable", "--samples", "2", "--top", "3",
                 "--out", out]) == 0
    report = read_json(os.path.join(out, "reports", "hessians.json"))
    assert report["matrices"] == 8  # 2 points x 4 output components
    assert report["exported"] == 3
    files = os.listdir(os.path.join(out, "heatmaps"))
    assert len([f for f in files if f.endswith(".csv")]) == 3
    assert len([f for f in files if f.endswith(".pgm")]) == 3


def test_data_export(tmp_path):
    out = str(tmp_path / "ds")
    assert main(["data", "--spec", "1fov", "--n", "5", "--seed", "3", "--out", out]) == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["count"] == 5
    assert len(os.listdir(os.path.join(out, "samples"))) == 5


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("k = 4\nseed = 5  # comment\neps = 0.2\n")
    out = str(tmp_path / "est")
    assert main(["estimate", "--fn", "z1z2", "--config", str(cfg_file), "--k", "6",
                 "--out", out]) == 0
    config = read_json(os.path.join(out, "config.json"))["config"]
    assert config["k"] == 6  # flag wins
    assert config["seed"] == 5  # file wins over default
    assert config["eps"] == 0.2
    report = read_json(os.path.join(out, "reports", "estimate.json"))
    assert report["k"] == 6


def test_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("bogus = 1\n")
    assert main(["estimate", "--fn", "z1z2", "--config", str(cfg_file),
                 "--out", str(tmp_path / "x")]) == 1


def test_usage_errors_exit_one(capsys):
    assert main(["nosuchcommand"]) == 1
    assert main([]) == 1
    assert main(["estimate", "--badflag", "1"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_contract_violation_exits_one(tmp_path):
    assert main(["estimate", "--fn", "nope", "--out", str(tmp_path / "x")]) == 1
    assert main(["estimate", "--out", str(tmp_path / "y")]) == 1  # neither fn nor checkpoint


def test_estimate_epsilon_bounds(tmp_path, capsys):
    # 1/eps^2 of 1e-300 overflows: a typed error, not a traceback
    assert main(["estimate", "--fn", "z1z2", "--eps", "1e-300",
                 "--out", str(tmp_path / "x")]) == 1
    assert "epsilon" in capsys.readouterr().err
    # 1/eps^4 of 1e-80 would overflow too, but the estimator never forms it
    out = str(tmp_path / "y")
    assert main(["estimate", "--fn", "z1z2", "--eps", "1e-80", "--out", out]) == 0
    assert read_json(os.path.join(out, "reports", "estimate.json"))["value"] == 8.0


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_numeric_error_exits_two(tmp_path):
    # beta large enough to overflow the cubic at the default probe scale
    code = main(["estimate", "--fn", "beta-cubic", "--beta", "1e308",
                 "--z", "1e150,1e150", "--out", str(tmp_path / "x")])
    assert code == 2


def scaled_checkpoint(tmp_path, name, factor):
    g = Generator(latent_dim=3, output_dim=8, hidden_width=6, hidden_layers=2, seed=0)
    param = {p.name: p for p in g.parameters()}[name]
    param.assign(param.values * factor)
    path = str(tmp_path / "scaled.npz")
    save_checkpoint(g, path)
    return path


def reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


SMALL_EVAL = ["--ppl-samples", "50", "--act-base", "4", "--act-sweep", "2", "--hess-samples", "2"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_eval_refuses_a_block_whose_mean_square_overflows(tmp_path, capsys):
    ckpt = scaled_checkpoint(tmp_path, "hidden.1.weight", 1e306)
    assert main(["eval", "--checkpoint", ckpt, *SMALL_EVAL, "--out", str(tmp_path / "ev")]) == 2
    assert "feature_normalize" in capsys.readouterr().err


def test_overflow_prints_only_the_typed_error(tmp_path):
    ckpt = scaled_checkpoint(tmp_path, "hidden.1.weight", 1e306)
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "hesskit", "eval", "--checkpoint", ckpt, *SMALL_EVAL,
         "--out", str(tmp_path / "ev")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr == ("numeric error: non-finite result in op 'feature_normalize'\n")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value")
@pytest.mark.parametrize("argv", [["eval", *SMALL_EVAL], ["hessdump", "--samples", "2", "--top", "4"]])
def test_overflowing_reports_exit_two_and_write_only_strict_json(tmp_path, argv):
    ckpt = scaled_checkpoint(tmp_path, "head.weight", 1e306)
    out = tmp_path / "out"
    assert main([argv[0], "--checkpoint", ckpt, *argv[1:], "--out", str(out)]) == 2
    written = list(out.rglob("*.json"))
    assert written  # config.json at least
    for path in written:
        json.loads(path.read_text(encoding="utf-8"), parse_constant=reject_constant)
    assert not (out / "heatmaps").exists()


def test_output_root_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HESSKIT_OUTPUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert main(["estimate", "--fn", "z1z2"]) == 0
    assert (tmp_path / "root" / "estimate" / "config.json").exists()


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "hesskit", "estimate", "--fn", "z1z2",
         "--out", str(tmp_path / "m")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "penalty estimate" in proc.stdout


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_shared_parser_is_unchanged_by_errors_and_version(tmp_path, capsys):
    argv = ["estimate", "--fn", "rotated-separable", "--fn-seed", "3", "--z=0.5,-1,2",
            "--dim", "3", "--seed", "4"]
    assert main(["estimate", "--k"]) == 1  # usage error: --k needs a value
    assert main(["estimate", "--no-such-flag", "1"]) == 1
    assert main(["--version"]) == 0
    assert main(argv + ["--out", str(tmp_path / "in")]) == 0
    capsys.readouterr()
    fresh = subprocess.run([sys.executable, "-m", "hesskit", *argv, "--out", str(tmp_path / "new")],
                           capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert fresh.returncode == 0
    report = os.path.join("reports", "estimate.json")
    with open(tmp_path / "in" / report, "rb") as a, open(tmp_path / "new" / report, "rb") as b:
        assert a.read() == b.read()


def test_estimate_rejects_negative_repeat(tmp_path, capsys):
    assert main(["estimate", "--fn", "z1z2", "--repeat", "-5",
                 "--out", str(tmp_path / "x")]) == 1
    assert "--repeat" in capsys.readouterr().err


def test_estimate_leaves_no_record(tmp_path, monkeypatch):
    ckpt = str(tmp_path / "g.npz")
    save_checkpoint(Generator(latent_dim=2, output_dim=4, hidden_width=3, seed=1), ckpt)
    values = []
    original = cli.hessian_penalty_estimate

    def kept(*args, **kwargs):
        values.append(original(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(cli, "hessian_penalty_estimate", kept)
    assert main(["estimate", "--checkpoint", ckpt, "--taps", "auto", "--repeat", "3",
                 "--out", str(tmp_path / "est")]) == 0
    assert len(values) == 2
    for value in values:
        assert not value.scalar.requires_grad
        assert ad.record(value.scalar) == [value.scalar]


def test_verify_leaves_no_record(tmp_path, monkeypatch):
    recording, values = [], []
    original = cli.hessian_penalty_estimate

    def kept(*args, **kwargs):
        recording.append(ad.grad_enabled())
        values.append(original(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(cli, "hessian_penalty_estimate", kept)
    assert main(["verify", "--dims", "2..3", "--trials", "2", "--mc-matrices", "2",
                 "--mc-dim", "3", "--mc-trials", "2000", "--out", str(tmp_path / "v")]) == 0
    assert recording == [False, False]
    for value in values:
        assert ad.record(value.scalar) == [value.scalar]


def write_metadata_only(path, meta):
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))


@pytest.mark.parametrize("case", ["not-npz", "unknown-arch-key", "no-kind", "no-arch",
                                  "text-parameter", "wrong-shape", "missing-parameter",
                                  "non-finite"])
def test_bad_checkpoint_is_a_contract_violation(tmp_path, capsys, case):
    ckpt = str(tmp_path / "bad.npz")
    arch = {"latent_dim": 2, "output_dim": 4, "hidden_width": 3, "hidden_layers": 1, "seed": 0}
    if case == "not-npz":
        with open(ckpt, "w", encoding="utf-8") as fh:
            fh.write("not a checkpoint\n")
    elif case == "unknown-arch-key":
        write_metadata_only(ckpt, {"version": 1, "kind": "generator",
                                   "arch": {**arch, "depth": 9}})
    elif case == "no-kind":
        write_metadata_only(ckpt, {"version": 1, "arch": arch})
    elif case == "no-arch":
        write_metadata_only(ckpt, {"version": 1, "kind": "generator"})
    else:
        save_checkpoint(Generator(**arch), ckpt)
        arrays = dict(np.load(ckpt))
        del arrays["head.bias"]
        if case != "missing-parameter":
            arrays["head.bias"] = {"text-parameter": np.array(["a", "b", "c", "d"]),
                                   "wrong-shape": np.zeros(5),
                                   "non-finite": np.array([0.0, np.nan, 0.0, 0.0])}[case]
        np.savez(ckpt, **arrays)
    for command in ("eval", "estimate"):
        assert main([command, "--checkpoint", ckpt, "--out", str(tmp_path / command)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        if case.endswith(("-parameter", "-shape", "-finite")):  # a stored-array fault
            assert ckpt in err and "'head.bias'" in err


@pytest.mark.parametrize("case", ["no-spec", "not-json", "spec-without-factors"])
def test_malformed_dataset_manifest_is_a_contract_violation(tmp_path, capsys, case):
    data_out = str(tmp_path / "ds")
    assert main(["data", "--spec", "2factor", "--n", "4", "--out", data_out]) == 0
    path = os.path.join(data_out, "manifest.json")
    manifest = read_json(path)
    if case == "no-spec":
        del manifest["spec"]
    elif case == "spec-without-factors":
        del manifest["spec"]["factors"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{not json" if case == "not-json" else json.dumps(manifest))
    capsys.readouterr()
    assert main(["train", "--mode", "reconstruction", "--dataset", data_out,
                 "--latent-dim", "2", "--steps", "1", "--out", str(tmp_path / "tr")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--mc-trials", "0"],
    ["verify", "--mc-trials", "1"],
    ["verify", "--mc-trials", "29"],
    ["verify", "--mc-dim", "0"],
    ["verify", "--trials", "0"],
    ["verify", "--mc-matrices", "-1"],
    ["eval", "--fn", "z1z2", "--hess-samples", "-1"],
    ["eval", "--fn", "z1z2", "--hess-samples", "0"],
    ["hessdump", "--fn", "z1z2", "--samples", "-2"],
    ["hessdump", "--fn", "z1z2", "--samples", "0"],
    ["directions", "--fn", "z1z2", "--directions", "0", "--steps", "1"],
    # 1/eps^2 of 1e-300 overflows, and a shift range must be a finite width
    ["eval", "--fn", "z1z2", "--ppl-samples", "16", "--hess-eps", "1e-300"],
    ["eval", "--fn", "z1z2", "--ppl-samples", "16", "--hess-eps", "inf"],
    ["hessdump", "--fn", "z1z2", "--eps", "1e-300"],
    ["hessdump", "--fn", "z1z2", "--eps", "inf"],
    ["directions", "--fn", "z1z2", "--steps", "1", "--eta-range", "-1"],
    ["directions", "--fn", "z1z2", "--steps", "1", "--eta-range", "inf"],
    ["directions", "--fn", "z1z2", "--steps", "1", "--eta-range", "nan"],
], ids=lambda argv: " ".join(argv))
def test_empty_or_negative_counts_exit_one(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # a bad value fails before any numpy warning
@pytest.mark.parametrize("argv", [
    ["verify", "--dims", "x"],
    ["verify", "--dims", "2,,3"],
    ["estimate", "--fn", "separable-cubic", "--dim", "-1"],
    ["eval", "--fn", "z1z2", "--ppl-samples", "16", "--alpha", "inf"],
    ["directions", "--fn", "z1z2", "--steps", "1", "--lr", "nan"],
    ["hessdump", "--fn", "z1z2", "--z", "nan,1"],
    # numpy's generators take no negative seed
    ["estimate", "--fn", "z1z2", "--seed", "-1"],
    ["eval", "--fn", "rotated-separable", "--fn-seed", "-1"],
    ["data", "--seed", "-1"],
    # a non-finite loss weight or function scale
    ["train", "--steps", "1", "--penalty-weight", "nan"],
    ["train", "--steps", "1", "--penalty-weight", "inf"],
    ["estimate", "--fn", "beta-cubic", "--beta", "nan"],
    ["hessdump", "--fn", "beta-cubic", "--beta", "inf"],
], ids=lambda argv: " ".join(argv))
def test_bad_values_are_typed_errors(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_negative_seed_in_config_file_exits_one(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = -1\n")
    assert main(["train", "--steps", "1", "--config", str(cfg_file),
                 "--out", str(tmp_path / "x")]) == 1
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_config_file_that_is_not_utf8_exits_one(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
    assert main(["estimate", "--fn", "z1z2", "--config", str(cfg_file),
                 "--out", str(tmp_path / "x")]) == 1
    assert "not UTF-8" in capsys.readouterr().err


def test_threads_is_not_an_option(tmp_path, capsys):
    assert main(["eval", "--fn", "z1z2", "--threads", "2", "--out", str(tmp_path / "x")]) == 1
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("threads = 2\n")
    assert main(["hessdump", "--fn", "z1z2", "--config", str(cfg_file),
                 "--out", str(tmp_path / "y")]) == 1
    assert "unknown config key 'threads'" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("train", "beta1"), ("train", "beta2"),
                                          ("verify", "rel-tol")])
def test_removed_knobs_are_not_options(tmp_path, capsys, command, key):
    assert main([command, f"--{key}", "0.5", "--out", str(tmp_path / "x")]) == 1
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{key} = 0.5\n")
    assert main([command, "--config", str(cfg_file), "--out", str(tmp_path / "y")]) == 1
    assert f"unknown config key {key!r}" in capsys.readouterr().err

