"""Command-line entry point.

Subcommands: ``estimate`` (penalty of a built-in function or checkpoint),
``verify`` (enumeration identity plus unbiasedness Monte-Carlo),
``train`` (gan | reconstruction | baseline), ``directions`` (discovery on
a frozen generator), ``eval`` (activeness + path length + diagonality),
``hessdump`` (exact Hessians with heatmap export) and ``data`` (dataset
export).

Options may come from a flat ``key=value`` config file; explicit flags
override it, and every run writes the effective configuration, the seed
and the toolkit version to ``config.json`` in its output directory.
Reruns with identical inputs produce byte-identical reports; per-step
logs carry a ``wall_clock`` field, which is the only nondeterministic
output. Exit codes: 0 on success, 1 on contract violations or usage
errors, 2 on numeric errors. A process builds the argument parser once,
on its first ``main`` call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .autodiff import no_grad
from .data import SPEC_NAMES, dataset_from_manifest, dataset_spec, export_dataset, \
    sample_dataset
from .errors import ContractViolation, NumericError
from .files import overwrite
from .functions import FUNCTION_NAMES, QuadraticForm, get_function
from .metrics import PPLConfig, _mean_se, activeness_profile, ppl
from .nets import Generator, default_taps, load_checkpoint, save_checkpoint
from .oracle import diagonality_metrics, enumerate_variance, export_hessian_heatmaps, \
    hessian_sets_for
from .penalty import PenaltyConfig, exact_offdiag_penalty, hessian_penalty_estimate
from .training import TrainConfig, discover_directions, train

OUTPUT_ROOT_ENV = "HESSKIT_OUTPUT_ROOT"
_REL_TOL = 1e-10  # verify's gate: the enumeration identity holds to this relative error


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{message}\n{self.format_usage()}")


# option tables: name -> (type, default, help); None defaults are resolved later
_COMMON = {
    "out": (str, None, "output directory (default: $HESSKIT_OUTPUT_ROOT/<command> or runs/<command>)"),
    "config": (str, None, "flat key=value config file; flags override it"),
    "seed": (int, 0, "random seed"),
}

# the function that estimate, directions, eval and hessdump read (see _load_function)
_FUNCTION = {
    "checkpoint": (str, None, "generator checkpoint (.npz) instead of --fn"),
    "fn": (str, None, f"built-in function: {', '.join(FUNCTION_NAMES)}"),
    "dim": (int, None, "dimension override for built-ins that allow it"),
    "fn-seed": (int, 0, "seed for seeded built-ins (rotated-separable)"),
}
_BETA = (float, 1.0, "scale for beta-cubic")

_OPTIONS = {
    "estimate": {
        **_FUNCTION,
        "beta": _BETA,
        "z": (str, None, "comma-separated evaluation point (default: zeros)"),
        "eps": (float, 0.1, "finite-difference step"),
        "k": (int, 2, "probe count"),
        "reduction": (str, "max", "max | mean over output components"),
        "taps": (str, "output", "output | auto | comma-separated tap names"),
        "repeat": (int, 0, "extra independent trials for a mean/SE report"),
    },
    "verify": {
        "dims": (str, "2..12", "dimension range for the enumeration identity"),
        "trials": (int, 50, "random matrices for the enumeration identity"),
        "mc-matrices": (int, 5, "matrices for the unbiasedness Monte-Carlo"),
        "mc-dim": (int, 8, "dimension for the unbiasedness Monte-Carlo"),
        "mc-trials": (int, 200000, "trials per matrix (at least 30)"),
        "eps": (float, 0.1, "finite-difference step"),
    },
    "train": {
        "mode": (str, "gan", "gan | reconstruction | baseline"),
        "dataset": (str, "simple-4factor",
                    f"dataset spec ({', '.join(SPEC_NAMES)}) or path to an exported manifest"),
        "latent-dim": (int, 6, "latent dimension"),
        "hidden-width": (int, 64, "generator hidden width"),
        "hidden-layers": (int, 3, "generator hidden layers"),
        "disc-width": (int, 64, "discriminator hidden width"),
        "disc-layers": (int, 2, "discriminator hidden layers"),
        "steps": (int, 1000, "training steps"),
        "batch-size": (int, 16, "batch size"),
        "dataset-size": (int, 2048, "samples drawn for the run"),
        "penalty-weight": (float, 0.1, "penalty loss weight (lambda)"),
        "warmup": (int, 500, "linear warm-up horizon in steps"),
        "lr-g": (float, 1e-3, "generator learning rate"),
        "lr-d": (float, 1e-3, "discriminator learning rate"),
        "eps": (float, 0.1, "penalty finite-difference step"),
        "k": (int, 2, "penalty probe count"),
        "reduction": (str, "max", "penalty reduction"),
        "taps": (str, "auto", "output | auto | comma-separated tap names"),
        "resume": (str, None, "generator checkpoint to fine-tune from"),
        "resume-disc": (str, None, "discriminator checkpoint to fine-tune from"),
    },
    "directions": {
        **_FUNCTION,
        "directions": (int, None, "number of directions (default: latent dim)"),
        "steps": (int, 2000, "optimization steps"),
        "lr": (float, 0.01, "learning rate"),
        "eta-range": (float, 5.0, "shift scale is uniform on [-eta-range, eta-range]"),
        "eps": (float, 0.1, "penalty finite-difference step"),
        "k": (int, 2, "penalty probe count"),
    },
    "eval": {
        **_FUNCTION,
        "beta": _BETA,
        "ppl-samples": (int, 10000, "path-length sample pairs"),
        "alpha": (float, 1e-4, "path-length interpolation step"),
        "act-base": (int, 64, "activeness base latents"),
        "act-sweep": (int, 16, "activeness sweep samples per base"),
        "hess-samples": (int, 8, "points for exact-Hessian diagonality"),
        "hess-eps": (float, 1e-3, "exact-Hessian finite-difference step"),
    },
    "hessdump": {
        **_FUNCTION,
        "beta": _BETA,
        "z": (str, None, "comma-separated point; omit to sample from the prior"),
        "samples": (int, 1, "points sampled from the prior when --z is omitted"),
        "eps": (float, 1e-3, "finite-difference step"),
        "top": (int, None, "export only the top-k components by off-diagonal penalty"),
    },
    "data": {
        "spec": (str, "simple-4factor", f"dataset spec: {', '.join(SPEC_NAMES)}"),
        "n": (int, 256, "sample count"),
    },
}


@functools.cache  # parsing never changes the parser, so every main call shares one
def _build_parser() -> _Parser:
    parser = _Parser(prog="hesskit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hesskit {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for command, options in _OPTIONS.items():
        p = sub.add_parser(command, prog=f"hesskit {command}")
        for name, (typ, _default, help_) in {**_COMMON, **options}.items():
            p.add_argument(f"--{name}", type=typ, default=None, help=help_)
    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path}: config file is not UTF-8 text") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractViolation(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _effective_config(command: str, args: argparse.Namespace) -> dict:
    options = {**_COMMON, **_OPTIONS[command]}
    merged = {name: default for name, (_t, default, _h) in options.items()}
    config_path = getattr(args, "config")
    if config_path:
        for key, raw in _read_config_file(config_path).items():
            if key not in options:
                raise ContractViolation(f"unknown config key {key!r} for command {command!r}")
            typ = options[key][0]
            try:
                merged[key] = typ(raw)
            except ValueError as exc:
                raise ContractViolation(f"config key {key!r}: cannot parse {raw!r}") from exc
    for name in options:
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            merged[name] = value
    for name in ("seed", "fn-seed"):  # numpy's generators take no negative seed
        if merged.get(name, 0) < 0:
            raise ContractViolation(f"--{name} must be >= 0, got {merged[name]}")
    return merged


def _out_dir(cfg: dict, command: str) -> str:
    out = cfg.get("out")
    if not out:
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        out = os.path.join(root, command)
    os.makedirs(out, exist_ok=True)
    return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_json(path: str, payload) -> None:
    overwrite(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _write_jsonl(path: str, records) -> None:
    overwrite(path, "".join(json.dumps(_jsonable(r), sort_keys=True) + "\n" for r in records))


def _write_config(out: str, command: str, cfg: dict) -> None:
    effective = {k: v for k, v in cfg.items() if k != "out"}
    _write_json(os.path.join(out, "config.json"), {
        "command": command,
        "version": __version__,
        "config": effective,
        "seed": cfg.get("seed", 0),
    })


def _parse_point(text: str | None, dim: int) -> np.ndarray:
    if text is None:
        return np.zeros(dim)
    try:
        z = np.array([float(part) for part in text.split(",")], dtype=np.float64)
    except ValueError as exc:
        raise ContractViolation(f"cannot parse point {text!r}") from exc
    if z.size != dim:
        raise ContractViolation(f"point has dimension {z.size}, function expects {dim}")
    return z


def _load_function(cfg: dict):
    """Resolve --fn / --checkpoint into a generator or a built-in function."""
    if cfg.get("checkpoint") and cfg.get("fn"):
        raise ContractViolation("--fn and --checkpoint are mutually exclusive")
    if cfg.get("checkpoint"):
        net = load_checkpoint(cfg["checkpoint"])
        if not isinstance(net, Generator):
            raise ContractViolation("checkpoint does not contain a generator")
        return net
    if cfg.get("fn"):
        return get_function(cfg["fn"], dim=cfg.get("dim"), beta=cfg.get("beta", 1.0),
                            seed=cfg.get("fn-seed", 0))
    raise ContractViolation("one of --fn or --checkpoint is required")


def _at_least(cfg: dict, name: str, minimum: int, why: str = "") -> int:
    """The count option ``name``, rejected below ``minimum`` (``why`` says what needs it)."""
    if cfg[name] < minimum:
        raise ContractViolation(f"--{name} must be >= {minimum}{why}, got {cfg[name]}")
    return cfg[name]


def _resolve_taps(spec: str, auto: tuple[str, ...]) -> tuple[str, ...]:
    """Parse ``--taps``; ``auto`` is what "auto" stands for."""
    if spec == "auto":
        return auto
    taps = tuple(part.strip() for part in spec.split(",") if part.strip())
    if not taps:
        raise ContractViolation(f"cannot parse taps {spec!r}")
    return taps


# ---------------------------------------------------------------------------
# subcommands


def _cmd_estimate(cfg: dict, out: str) -> int:
    repeat = _at_least(cfg, "repeat", 0)
    fn = _load_function(cfg)
    z = _parse_point(cfg.get("z"), fn.input_dim)
    pconf = PenaltyConfig(epsilon=cfg["eps"], k=cfg["k"], reduction=cfg["reduction"],
                          taps=_resolve_taps(cfg["taps"], getattr(fn, "default_taps", ())),
                          seed=cfg["seed"])
    # values only: a record of the forwards would keep every block's activations alive
    with no_grad():
        report = _estimate_report(fn, z, pconf, repeat, cfg["seed"])
    _write_json(os.path.join(out, "reports", "estimate.json"), report)
    print(f"penalty estimate: {report['value']:.6g}")
    return 0


def _estimate_report(fn, z: np.ndarray, pconf: PenaltyConfig, repeat: int, seed: int) -> dict:
    value = hessian_penalty_estimate(fn, z, pconf)
    report = {
        "value": value.value,
        "offdiag_estimate": value.offdiag_estimate,
        "k": value.config.k,
        "epsilon": value.config.epsilon,
        "reduction": value.config.reduction,
        "taps": list(value.config.taps),
        "per_tap_mean": {name: float(np.mean(arr)) for name, arr in value.per_component.items()},
        "z": z,
    }
    if repeat > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        trials = []
        # probes are drawn per chunk of trials: the report depends on this order
        chunk = 4096
        for start in range(0, repeat, chunk):
            rows = min(chunk, repeat - start)
            batch = np.broadcast_to(z, (rows, z.size))  # stride 0: one point, no copy
            trials.append(hessian_penalty_estimate(fn, batch, pconf, rng=rng,
                                                  components=False).per_sample)
        trials = np.concatenate(trials)
        mean, se = _mean_se(trials)
        report["repeat"] = {"trials": int(trials.size), "mean": mean, "std_error": se}
    return report


def _parse_dims(text: str) -> list[int]:
    lo, dotted, hi = text.partition("..")
    try:
        dims = list(range(int(lo), int(hi) + 1)) if dotted else [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise ContractViolation(f"cannot parse dimension range {text!r}") from exc
    if not dims or min(dims) < 2:
        raise ContractViolation(f"dimension range {text!r} must start at 2")
    return dims


def _random_symmetric(rng, n: int) -> np.ndarray:
    raw = rng.normal(size=(n, n))
    return (raw + raw.T) / 2.0


def _cmd_verify(cfg: dict, out: str) -> int:
    rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
    dims = _parse_dims(cfg["dims"])
    for name, minimum in (("trials", 1), ("mc-matrices", 1), ("mc-dim", 2)):
        _at_least(cfg, name, minimum)
    # a few trials in a small dimension are often all equal: no spread for the 3-SE gate
    _at_least(cfg, "mc-trials", 30, " for the 3-standard-error unbiasedness gate")

    worst_rel = 0.0
    identity_trials = []
    for t in range(cfg["trials"]):
        n = dims[t % len(dims)]
        h = _random_symmetric(rng, n)
        enumerated = enumerate_variance(h)
        target = 2.0 * exact_offdiag_penalty(h)
        rel = abs(enumerated - target) / abs(target)
        worst_rel = max(worst_rel, rel)
        identity_trials.append({"n": n, "enumerated": enumerated, "target": target,
                                "rel_error": rel})
    identity_ok = worst_rel <= _REL_TOL

    mc = []
    mc_ok = True
    pconf = PenaltyConfig(epsilon=cfg["eps"], k=2, reduction="max")
    for _ in range(cfg["mc-matrices"]):
        h = _random_symmetric(rng, cfg["mc-dim"])
        target = enumerate_variance(h)
        fn = QuadraticForm(h)
        zeros = np.broadcast_to(np.zeros(cfg["mc-dim"]), (cfg["mc-trials"], cfg["mc-dim"]))
        with no_grad():  # values only, as in estimate
            trials = hessian_penalty_estimate(fn, zeros, pconf, rng=rng,
                                              components=False).per_sample
        mean, se = _mean_se(trials)
        # equal trials have no spread to score against: only an exact match passes
        zscore = abs(mean - target) / se if se else None
        ok = zscore <= 3.0 if se else mean == target
        mc_ok = mc_ok and ok
        mc.append({"enumerated": target, "mean": mean, "std_error": se,
                   "z_score": zscore, "within_3_se": ok})

    passed = identity_ok and mc_ok
    _write_json(os.path.join(out, "reports", "verify.json"), {
        "identity": {"max_rel_error": worst_rel, "rel_tol": _REL_TOL,
                     "trials": identity_trials, "passed": identity_ok},
        "unbiasedness": {"matrices": mc, "passed": mc_ok},
        "passed": passed,
    })
    print(f"enumeration identity: max rel error {worst_rel:.3e} "
          f"({'pass' if identity_ok else 'FAIL'})")
    print(f"unbiasedness: {'pass' if mc_ok else 'FAIL'}")
    return 0 if passed else 1


def _cmd_train(cfg: dict, out: str) -> int:
    penalty = PenaltyConfig(epsilon=cfg["eps"], k=cfg["k"], reduction=cfg["reduction"],
                            taps=_resolve_taps(cfg["taps"], default_taps(cfg["hidden-layers"])))
    tconf = TrainConfig(
        mode=cfg["mode"], dataset=cfg["dataset"], latent_dim=cfg["latent-dim"],
        hidden_width=cfg["hidden-width"], hidden_layers=cfg["hidden-layers"],
        disc_width=cfg["disc-width"], disc_layers=cfg["disc-layers"],
        steps=cfg["steps"], batch_size=cfg["batch-size"], dataset_size=cfg["dataset-size"],
        penalty_weight=cfg["penalty-weight"], warmup_steps=cfg["warmup"],
        lr_g=cfg["lr-g"], lr_d=cfg["lr-d"], penalty=penalty, seed=cfg["seed"],
    )
    dataset = None
    if cfg["dataset"] not in SPEC_NAMES:
        if not os.path.exists(cfg["dataset"]) and not os.path.exists(
                os.path.join(cfg["dataset"], "manifest.json")):
            raise ContractViolation(
                f"--dataset {cfg['dataset']!r} is neither a built-in spec nor a manifest path"
            )
        dataset = dataset_from_manifest(cfg["dataset"])
    generator = discriminator = None
    if cfg.get("resume"):
        generator = load_checkpoint(cfg["resume"])
        if not isinstance(generator, Generator):
            raise ContractViolation(f"{cfg['resume']} is not a generator checkpoint")
    if cfg.get("resume-disc"):
        discriminator = load_checkpoint(cfg["resume-disc"])
        if isinstance(discriminator, Generator):
            raise ContractViolation(f"{cfg['resume-disc']} is not a discriminator checkpoint")
    result = train(tconf, dataset=dataset, generator=generator, discriminator=discriminator)
    _write_jsonl(os.path.join(out, "log.jsonl"), result.log.records)
    save_checkpoint(result.generator, os.path.join(out, "checkpoints", "generator.npz"))
    if result.discriminator is not None:
        save_checkpoint(result.discriminator, os.path.join(out, "checkpoints", "discriminator.npz"))
    summary = {
        "mode": tconf.mode,
        "steps": tconf.steps,
        "penalty_weight": tconf.penalty_weight,
        "warmup_steps": tconf.warmup_steps,
        "taps": list(penalty.taps),
    }
    if result.log.records:
        summary["final"] = {k: v for k, v in result.log.records[-1].items() if k != "wall_clock"}
    _write_json(os.path.join(out, "reports", "summary.json"), summary)
    print(f"trained {tconf.steps} steps ({tconf.mode}); artifacts in {out}")
    return 0


def _cmd_directions(cfg: dict, out: str) -> int:
    fn = _load_function(cfg)
    n_directions = fn.input_dim if cfg["directions"] is None else cfg["directions"]
    pconf = PenaltyConfig(epsilon=cfg["eps"], k=cfg["k"], reduction="mean")
    matrix, log = discover_directions(
        fn, n_directions, cfg["steps"], seed=cfg["seed"], learning_rate=cfg["lr"],
        eta_range=cfg["eta-range"], config=pconf,
    )
    _write_jsonl(os.path.join(out, "log.jsonl"), log.records)
    penalties = log.values("penalty")
    _write_json(os.path.join(out, "reports", "directions.json"), {
        "directions": matrix.matrix,
        "n_directions": matrix.n_directions,
        "ortho_residual": matrix.ortho_residual(),
        "steps": cfg["steps"],
        "penalty_first_100_mean": float(penalties[:100].mean()) if penalties.size else None,
        "penalty_last_100_mean": float(penalties[-100:].mean()) if penalties.size else None,
    })
    print(f"learned {matrix.n_directions} directions; ortho residual "
          f"{matrix.ortho_residual():.2e}")
    return 0


def _cmd_eval(cfg: dict, out: str) -> int:
    n_points = _at_least(cfg, "hess-samples", 1)
    pconf = PPLConfig(alpha=cfg["alpha"], samples=cfg["ppl-samples"])
    fn = _load_function(cfg)
    dim, seed = fn.input_dim, cfg["seed"]
    # the Hessians go first, so an unusable --hess-eps fails before the sweeps run
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    zs = rng.normal(size=(n_points, dim))
    sets = hessian_sets_for(fn, zs, cfg["hess-eps"])
    diag = diagonality_metrics(sets)
    act = activeness_profile(fn, dim, n_base=cfg["act-base"], n_sweep=cfg["act-sweep"],
                             seed=seed)
    ppl_result = ppl(fn, dim, pconf, seed=seed)
    _write_json(os.path.join(out, "reports", "metrics.json"), {
        "seed": seed,
        "config": {k: v for k, v in cfg.items() if k != "out"},
        "activeness": act,
        "ppl": ppl_result.to_dict(),
        "diagonality": diag.to_dict(),
        "hessian_points": cfg["hess-samples"],
        "prior": "gaussian",
    })
    print(f"activeness: {np.array2string(act, precision=4)}")
    print(f"ppl: {ppl_result.value:.6g} (se {ppl_result.std_error:.2g})")
    print(f"diagonality: d_percent={diag.d_percent:.3f} d_ratio="
          f"{'inf' if diag.offdiag_all_zero else f'{diag.d_ratio:.3f}'}")
    return 0


def _cmd_hessdump(cfg: dict, out: str) -> int:
    fn = _load_function(cfg)
    if cfg.get("z") is not None:
        zs = _parse_point(cfg["z"], fn.input_dim)[None, :]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(cfg["seed"]))
        zs = rng.normal(size=(_at_least(cfg, "samples", 1), fn.input_dim))
    sets = hessian_sets_for(fn, zs, cfg["eps"])
    diag = diagonality_metrics(sets)
    index = export_hessian_heatmaps(sets, os.path.join(out, "heatmaps"), top=cfg.get("top"))
    _write_json(os.path.join(out, "reports", "hessians.json"), {
        "points": zs,
        "epsilon": cfg["eps"],
        "matrices": diag.count,
        "exported": len(index),
        "diagonality": diag.to_dict(),
        "index": index,
    })
    print(f"exported {len(index)} heatmaps to {os.path.join(out, 'heatmaps')}")
    return 0


def _cmd_data(cfg: dict, out: str) -> int:
    spec = dataset_spec(cfg["spec"])
    dataset = sample_dataset(spec, cfg["n"], seed=cfg["seed"])
    export_dataset(dataset, out)
    print(f"exported {dataset.count} samples of {spec.name!r} to {out}")
    return 0


_HANDLERS = {
    "estimate": _cmd_estimate,
    "verify": _cmd_verify,
    "train": _cmd_train,
    "directions": _cmd_directions,
    "eval": _cmd_eval,
    "hessdump": _cmd_hessdump,
    "data": _cmd_data,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError(parser.format_usage())
        cfg = _effective_config(args.command, args)
        out = _out_dir(cfg, args.command)
        _write_config(out, args.command, cfg)
        # every non-finite result is checked and typed: numpy's warnings would only
        # print ahead of the one error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _HANDLERS[args.command](cfg, out)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory ({exc})", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --version/--help
        return int(exc.code or 0)


if __name__ == "__main__":
    raise SystemExit(main())
