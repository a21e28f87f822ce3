"""Trainers that apply the off-diagonal penalty, plus direction discovery.

Three training modes share one loop:

* ``gan``: non-saturating logistic adversarial training; the
  discriminator objective is untouched and the generator loss adds
  ``lambda_t * penalty`` with a linear warm-up ``lambda_t =
  lambda * min(1, t / T)``;
* ``reconstruction``: a deterministic surrogate that regresses rendered
  observations from their (normalized, zero-padded) factor vectors with
  mean squared error plus the same penalty term; useful whenever
  adversarial noise would drown a measurement;
* ``baseline``: the adversarial objective with the penalty weight forced
  to zero.

Penalty probes draw from a stream independent of data/latent sampling,
so a run with ``lambda = 0`` follows exactly the baseline trajectory. A
step with ``lambda_t = 0`` (each step of such a run, step 0 of a warm-up)
still draws and logs the penalty, but off the record and out of the loss.

Direction discovery freezes a trained (or analytic) generator and
optimizes an orthonormal matrix A whose columns are latent directions:
each step samples a latent z, a column index i and a shift scale eta,
and minimizes the penalty of w -> G(z + eta * A w) at the one-hot w_i,
with probes living in the w coordinate space. A is re-orthonormalized
(``functions.gram_schmidt``, a sign-fixed QR) at the start of every
forward pass, gradients flow only into A, and the reduction defaults to a
mean over output components in output space.

Loops are sequential and deterministic per seed.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .data import Dataset, dataset_spec, sample_dataset
from .errors import ContractViolation, NumericError
from .functions import gram_schmidt, random_orthogonal
from .nets import Discriminator, Generator, frozen
from .penalty import PenaltyConfig, hessian_penalty_estimate

MODES = ("gan", "reconstruction", "baseline")


def warmup_weight(t: int, warmup_steps: int, weight: float) -> float:
    """Linear ramp to the full penalty weight: weight * min(1, t / T)."""
    if t < 0:
        raise ContractViolation(f"step must be >= 0, got {t}")
    if warmup_steps < 1:
        raise ContractViolation(f"warm-up horizon must be >= 1, got {warmup_steps}")
    return weight * min(1.0, t / warmup_steps)


class Adam:
    """Adaptive first-order optimizer with bias-corrected moments.

    The optimizer copies its parameters' values and gradients into two flat
    buffers and makes each ``Parameter.values`` and ``.grad`` a reshaped
    view of its slice, so a step is a dozen whole-buffer ufunc calls with
    one finite check. One optimizer owns a parameter: a later ``Adam`` over
    the same parameters copies their current values and takes them over,
    and the earlier one no longer updates them.
    """

    def __init__(self, parameters, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if not 0.0 < lr < np.inf:
            raise ContractViolation(f"learning rate must be positive and finite, got {lr}")
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self._offsets = np.cumsum([0] + [p.size for p in self.parameters])
        self._values, self._grads = np.empty(self._offsets[-1]), np.empty(self._offsets[-1])
        for p, lo, hi in zip(self.parameters, self._offsets, self._offsets[1:]):
            self._values[lo:hi], self._grads[lo:hi] = p.values.ravel(), p.grad.ravel()
            p.values = self._values[lo:hi].reshape(p.shape)
            p.grad = self._grads[lo:hi].reshape(p.shape)
        self._m, self._v = np.zeros_like(self._values), np.zeros_like(self._values)
        self._s, self._u = np.empty_like(self._values), np.empty_like(self._values)  # scratch
        self._t = 0

    def zero_grad(self) -> None:
        self._grads.fill(0.0)

    def step(self) -> None:
        self._t += 1
        b1c = 1.0 - self.beta1**self._t
        b2c = 1.0 - self.beta2**self._t
        m, v, g, s, u = self._m, self._v, self._grads, self._s, self._u
        # values - lr * (m / b1c) / (sqrt(v / b2c) + eps) one ufunc at a time, in
        # the per-parameter formula's order (bit-identical), through two kept scratch buffers
        np.multiply(m, self.beta1, out=m)
        np.add(m, np.multiply(g, 1.0 - self.beta1, out=s), out=m)
        np.multiply(v, self.beta2, out=v)
        np.multiply(np.multiply(g, 1.0 - self.beta2, out=s), g, out=s)
        np.add(v, s, out=v)
        np.multiply(np.divide(m, b1c, out=s), self.lr, out=s)
        np.add(np.sqrt(np.divide(v, b2c, out=u), out=u), self.eps, out=u)
        np.subtract(self._values, np.divide(s, u, out=s), out=s)
        if not np.isfinite(s).all():
            first = int(np.argmin(np.isfinite(s)))
            p = self.parameters[np.searchsorted(self._offsets, first, side="right") - 1]
            raise NumericError(f"non-finite update for parameter {p.name!r}")
        self._values[...] = s


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs; ``baseline`` mode forces the weight to zero."""

    mode: str = "gan"
    dataset: str = "simple-4factor"
    latent_dim: int = 6
    hidden_width: int = 64
    hidden_layers: int = 3
    disc_width: int = 64
    disc_layers: int = 2
    steps: int = 1000
    batch_size: int = 16
    dataset_size: int = 2048
    penalty_weight: float = 0.1
    warmup_steps: int = 500
    lr_g: float = 1e-3
    lr_d: float = 1e-3
    penalty: PenaltyConfig | None = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractViolation(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.penalty_weight < np.inf:
            raise ContractViolation(
                f"penalty weight must be non-negative and finite, got {self.penalty_weight}")
        if self.warmup_steps < 1:
            raise ContractViolation(f"warm-up horizon must be >= 1, got {self.warmup_steps}")
        if self.steps < 0 or self.batch_size < 1 or self.dataset_size < 1:
            raise ContractViolation("steps must be >= 0; batch and dataset sizes >= 1")
        if self.mode == "baseline":
            object.__setattr__(self, "penalty_weight", 0.0)

    @property
    def momentum(self) -> tuple[float, float]:
        """Adam's (beta1, beta2): no first moment for the adversarial modes."""
        return (0.9, 0.999) if self.mode == "reconstruction" else (0.0, 0.99)


class TrainLog(list):
    """Per-step records; ``wall_clock`` is the only nondeterministic field."""

    def values(self, key: str) -> np.ndarray:
        return np.array([r[key] for r in self if key in r])


class Trainer:
    """One training run; step dispatch depends on the configured mode.

    Passing a pre-trained ``generator`` (and ``discriminator``) switches the
    run to fine-tuning; combined with the warm-up this adapts an existing
    checkpoint instead of training from scratch.
    """

    def __init__(self, config: TrainConfig, dataset: Dataset | None = None,
                 generator: Generator | None = None,
                 discriminator: Discriminator | None = None):
        self.config = config
        seeds = np.random.SeedSequence(config.seed).generate_state(5)
        if dataset is None:
            dataset = sample_dataset(dataset_spec(config.dataset), config.dataset_size,
                                     seed=int(seeds[0]))
        self.dataset = dataset
        obs_dim = dataset.observations.shape[1]
        if generator is not None:
            if generator.latent_dim != config.latent_dim or generator.output_dim != obs_dim:
                raise ContractViolation(
                    f"generator shape ({generator.latent_dim} -> {generator.output_dim}) does "
                    f"not fit the run ({config.latent_dim} -> {obs_dim})"
                )
            self.generator = generator
        else:
            self.generator = Generator(config.latent_dim, obs_dim, config.hidden_width,
                                       config.hidden_layers, seed=int(seeds[1]))
        self.adversarial = config.mode != "reconstruction"
        if not self.adversarial:
            if discriminator is not None:
                raise ContractViolation(f"{config.mode} mode trains no discriminator to fine-tune")
            self.discriminator = None
        elif discriminator is not None:
            if discriminator.input_dim != obs_dim:
                raise ContractViolation(
                    f"discriminator input {discriminator.input_dim} != observations {obs_dim}"
                )
            self.discriminator = discriminator
        else:
            self.discriminator = Discriminator(obs_dim, config.disc_width, config.disc_layers,
                                               seed=int(seeds[2]))
        self._batch_rng = np.random.default_rng(int(seeds[3]))
        self._probe_rng = np.random.default_rng(int(seeds[4]))

        b1, b2 = config.momentum
        self.opt_g = Adam(self.generator.parameters(), config.lr_g, b1, b2)
        self.opt_d = (
            Adam(self.discriminator.parameters(), config.lr_d, b1, b2)
            if self.adversarial else None
        )
        self.penalty_config = config.penalty or PenaltyConfig(
            epsilon=0.1, k=2, reduction="max", taps=self.generator.default_taps)
        if not self.adversarial:
            self._latents = dataset.latents(config.latent_dim)
        self.log = TrainLog()

    def _update_generator(self, loss: ad.Tensor, z: np.ndarray, lam_t: float) -> dict:
        """One generator step on ``loss + lam_t * penalty`` at ``z``; returns the step
        record's penalty fields. At ``lam_t = 0`` the penalty is drawn off the record
        and left out of the loss."""
        with contextlib.nullcontext() if lam_t else ad.no_grad():
            penalty = hessian_penalty_estimate(self.generator, z, self.penalty_config,
                                               rng=self._probe_rng)
        self.opt_g.zero_grad()
        ad.backward(loss + penalty.scalar * lam_t if lam_t else loss)
        self.opt_g.step()
        return {"penalty": penalty.value, "lambda_t": lam_t, "wall_clock": time.time()}

    def gan_step(self, real_batch: np.ndarray, t: int) -> dict:
        """Discriminator update on the unchanged adversarial objective, then
        one generator update on adversarial loss + lambda_t * penalty."""
        cfg = self.config
        lam_t = warmup_weight(t, cfg.warmup_steps, cfg.penalty_weight)
        g, d = self.generator, self.discriminator

        z_d = self._batch_rng.normal(size=(real_batch.shape[0], cfg.latent_dim))
        with ad.no_grad():
            fake = g(z_d)[0].values
        d_loss = ad.softplus(-d(real_batch)).mean() + ad.softplus(d(fake)).mean()
        self.opt_d.zero_grad()
        ad.backward(d_loss)
        self.opt_d.step()

        z_g = self._batch_rng.normal(size=(real_batch.shape[0], cfg.latent_dim))
        with frozen(d):  # gradients flow through D into G, not into D
            out, _ = g(z_g)
            adv = ad.softplus(-d(out)).mean()
            update = self._update_generator(adv, z_g, lam_t)
        return {"step": t, "d_loss": d_loss.item(), "g_adv": adv.item(), **update}

    def reconstruction_step(self, batch_idx: np.ndarray, t: int) -> dict:
        """Generator update on mean squared reconstruction error + lambda_t * penalty."""
        cfg = self.config
        lam_t = warmup_weight(t, cfg.warmup_steps, cfg.penalty_weight)
        z = self._latents[batch_idx]
        target = self.dataset.observations[batch_idx]
        out, _ = self.generator(z)
        recon = ad.square(out - target).mean()
        update = self._update_generator(recon, z, lam_t)
        return {"step": t, "recon_loss": recon.item(), **update}

    def run(self) -> Trainer:
        """Run every configured step; the trainer itself is the result."""
        cfg = self.config
        for t in range(cfg.steps):
            idx = self._batch_rng.integers(0, self.dataset.count, size=cfg.batch_size)
            try:
                if self.adversarial:
                    record = self.gan_step(self.dataset.observations[idx], t)
                else:
                    record = self.reconstruction_step(idx, t)
            except NumericError as exc:
                self.log.append({"step": t, "error": str(exc), "wall_clock": time.time()})
                raise
            self.log.append(record)
        return self


def train(config: TrainConfig, dataset: Dataset | None = None,
          generator: Generator | None = None,
          discriminator: Discriminator | None = None) -> Trainer:
    """Run a full training loop and return its ``Trainer``, whose ``config``,
    ``generator``, ``discriminator``, ``dataset`` and ``log`` are the result.

    ``dataset`` overrides the configured spec; ``generator`` and
    ``discriminator`` turn the run into fine-tuning of existing networks.
    """
    return Trainer(config, dataset=dataset, generator=generator,
                   discriminator=discriminator).run()


# ---------------------------------------------------------------------------
# direction discovery


@dataclass
class DirectionMatrix:
    """Orthonormal columns are learned latent directions."""

    matrix: np.ndarray  # (|z|, N)

    @property
    def n_directions(self) -> int:
        return self.matrix.shape[1]

    def ortho_residual(self) -> float:
        n = self.matrix.shape[1]
        return float(np.max(np.abs(self.matrix.T @ self.matrix - np.eye(n))))


def discover_directions(
    fn,
    n_directions: int,
    steps: int,
    seed: int = 0,
    learning_rate: float = 0.01,
    eta_range: float = 5.0,
    config: PenaltyConfig | None = None,
    init: np.ndarray | None = None,
) -> tuple[DirectionMatrix, TrainLog]:
    """Learn latent directions by minimizing the penalty through a frozen generator.

    Per step: draw z from the prior, a column index uniformly and a shift
    scale eta ~ Uniform[-eta_range, eta_range]; estimate the penalty of
    ``w -> fn(z + eta * A w)`` at the one-hot w for that column, with
    probes perturbing the w coordinates; update A with Adam. ``fn``'s own
    parameters (if any) are frozen for the duration and their gradient
    accumulators stay untouched.
    """
    dim = getattr(fn, "input_dim", None)
    if dim is None:
        raise ContractViolation("function must expose input_dim for direction discovery")
    if not 1 <= n_directions <= dim:
        raise ContractViolation(f"n_directions must be in [1, {dim}], got {n_directions}")
    if steps < 0:
        raise ContractViolation(f"steps must be >= 0, got {steps}")
    if not 0.0 <= eta_range < np.inf:
        raise ContractViolation(f"eta_range must be non-negative and finite, got {eta_range}")
    pcfg = config or PenaltyConfig(epsilon=0.1, k=2, reduction="mean")

    seeds = np.random.SeedSequence(seed).generate_state(3)
    rng_init = np.random.default_rng(int(seeds[0]))
    rng_train = np.random.default_rng(int(seeds[1]))
    rng_probe = np.random.default_rng(int(seeds[2]))

    a0 = gram_schmidt(init) if init is not None else random_orthogonal(dim, n_directions, rng_init)
    directions = ad.Parameter("directions", a0)
    # eps above the float64 noise floor of the finite differences, so an
    # already-disentangled function does not random-walk A at lr scale
    opt = Adam([directions], learning_rate, 0.9, 0.999, eps=1e-6)
    log = TrainLog()

    with frozen(fn):
        for t in range(steps):
            directions.assign(gram_schmidt(directions.values))
            residual = DirectionMatrix(directions.values).ortho_residual()
            z = rng_train.normal(size=dim)
            column = int(rng_train.integers(n_directions))
            eta = float(rng_train.uniform(-eta_range, eta_range))
            w = np.zeros(n_directions)
            w[column] = 1.0

            def shifted(wb):
                offset = ad.matmul(wb, ad.transpose(directions))
                return fn(ad.scale(offset, eta) + z)

            value = hessian_penalty_estimate(shifted, w, pcfg, rng=rng_probe)
            opt.zero_grad()
            ad.backward(value.scalar)
            opt.step()
            log.append({
                "step": t,
                "penalty": value.value,
                "column": column,
                "eta": eta,
                "ortho_residual": residual,
                "wall_clock": time.time(),
            })
    return DirectionMatrix(gram_schmidt(directions.values)), log


def signed_permutation_score(matrix: np.ndarray) -> tuple[float, list[int]]:
    """Best min-per-column |entry| over signed permutations (brute force).

    Used to check that a recovered direction matrix matches a known basis
    up to column order and sign.
    """
    from itertools import permutations

    m = np.abs(np.asarray(matrix, dtype=np.float64))
    n = m.shape[0]
    if m.shape != (n, n) or n > 8:
        raise ContractViolation("signed permutation matching supports square matrices, n <= 8")
    best, best_perm = -np.inf, list(range(n))
    for perm in permutations(range(n)):
        score = min(m[perm[j], j] for j in range(n))
        if score > best:
            best, best_perm = score, list(perm)
    return float(best), best_perm
