"""Tiny generator and discriminator networks with named activation taps.

The generator stacks affine -> feature-normalize -> tanh blocks and ends
with a linear head; every normalization output is exposed as a tap named
``norm1 .. normL`` so penalties can attach to intermediate activations.
Placing taps right after normalization avoids the degenerate solution
where an affine layer shrinks its weights to cheat the penalty. The
default tap selection leaves the last hidden layer out. A caller that
reads only some taps names them, and the forward pass stops after the
deepest one: the penalty on ``norm1,norm2`` never runs the head.

Off the record (under ``no_grad``) the generator runs the same blocks as
plain numpy, in place on each block's own product, and returns the same
values bit for bit as unrecorded tensors named like the recorded ops
(``feature_normalize`` for a tap, ``add`` for the output). Each hidden
block is checked once, by the finiteness of its mean square, and the head
by one scan of its output, instead of one scan per primitive.

``Generator.head_gram`` is the one place that knows the head is affine in
``tanh`` of the last tap. It returns that tap's name and ``W Wᵀ`` when
every output is provably finite, so a metric that only subtracts or
centres outputs can read the hidden-width features and reduce through
the Gram matrix instead of forming the (by default 12× wider) outputs.

The discriminator stacks affine -> leaky-rectifier blocks and ends in a
single linear logit. Both nets are read-shared during evaluation;
parameter updates need exclusive access.

Checkpoints are versioned ``.npz`` containers of named parameter arrays
plus architecture metadata, with a human-readable JSON manifest
(name, shape, sha256) written next to them. Loading builds each parameter
from its stored array: it draws no weights only to overwrite them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zipfile

import numpy as np

from . import autodiff as ad
from .errors import ContractViolation
from .files import write_json
from .functions import as_batch

CHECKPOINT_VERSION = 1


def _affine_layers(n_in: int, width: int, depth: int, n_out: int, seed: int, stored=None):
    """(weight, bias) of ``depth`` layers ``hidden.i``, then of the ``head``: weights drawn
    from ``seed`` and zero biases, or, for a checkpoint, ``stored = (path, arrays)``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed)) if stored is None else None
    layers = []
    for i in range(depth + 1):
        fan_in = n_in if i == 0 else width
        fan_out, prefix = (n_out, "head") if i == depth else (width, f"hidden.{i}")
        if stored is None:
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_in, fan_out))
            b = np.zeros(fan_out)
        else:
            w = _stored_array(*stored, f"{prefix}.weight", (fan_in, fan_out))
            b = _stored_array(*stored, f"{prefix}.bias", (fan_out,))
        layers.append((ad.Parameter(f"{prefix}.weight", w), ad.Parameter(f"{prefix}.bias", b)))
    return layers[:-1], layers[-1]


def _stored_array(path: str, arrays, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The checkpoint array ``name``, checked for presence, readability, shape and finiteness."""
    if name not in arrays:
        raise ContractViolation(f"{path}: missing parameter {name!r}")
    try:
        arr = np.asarray(arrays[name], dtype=np.float64)
    except (TypeError, ValueError) as exc:  # object, text or record arrays
        raise ContractViolation(f"{path}: unreadable parameter {name!r} ({exc})") from exc
    if arr.shape != shape:
        raise ContractViolation(f"{path}: parameter {name!r} has shape {arr.shape}, not {shape}")
    if not np.isfinite(arr).all():
        raise ContractViolation(f"{path}: parameter {name!r} has non-finite values")
    return arr


def tap_names(hidden_layers: int) -> tuple[str, ...]:
    """Names of the normalization taps of a generator with ``hidden_layers`` blocks."""
    return tuple(f"norm{i + 1}" for i in range(hidden_layers))


def default_taps(hidden_layers: int) -> tuple[str, ...]:
    """All normalization taps except the final hidden layer's."""
    names = tap_names(hidden_layers)
    return names[:-1] if hidden_layers > 1 else names


class _Net:
    """What both nets share: widths, seed, the affine layers, their parameters and ``arch()``."""

    kind: str
    _ARCH: tuple[str, ...]  # the constructor arguments a checkpoint records

    def __init__(self, n_in, n_out, hidden_width, hidden_layers, seed, stored):
        if n_in < 1 or n_out < 1 or hidden_width < 1 or hidden_layers < 0:
            raise ContractViolation(f"{self.kind} dimensions must be positive")
        self.hidden_width = int(hidden_width)
        self.hidden_layers = int(hidden_layers)
        self.seed = int(seed)
        self._hidden, self._head = _affine_layers(
            int(n_in), self.hidden_width, self.hidden_layers, int(n_out), seed, stored)

    def parameters(self) -> list[ad.Parameter]:
        return [p for layer in (*self._hidden, self._head) for p in layer]

    def arch(self) -> dict:
        return {name: getattr(self, name) for name in self._ARCH}


class Generator(_Net):
    """Latent-to-observation MLP: (affine, feature-normalize, tanh) x L, affine head."""

    kind = "generator"
    _ARCH = ("latent_dim", "output_dim", "hidden_width", "hidden_layers", "seed")

    def __init__(
        self,
        latent_dim: int = 6,
        output_dim: int = 768,
        hidden_width: int = 64,
        hidden_layers: int = 3,
        seed: int = 0,
        *, _stored=None,
    ):
        super().__init__(latent_dim, output_dim, hidden_width, hidden_layers, seed, _stored)
        self.latent_dim = int(latent_dim)
        self.output_dim = int(output_dim)

    @property
    def input_dim(self) -> int:
        return self.latent_dim

    @property
    def tap_names(self) -> tuple[str, ...]:
        return tap_names(self.hidden_layers)

    @property
    def default_taps(self) -> tuple[str, ...]:
        """All normalization taps except the final hidden layer's."""
        return default_taps(self.hidden_layers)

    def head_gram(self) -> tuple[str, np.ndarray] | None:
        """``(last tap t, W Wᵀ)`` when every output is ``tanh(t) @ W + b`` and bounded.

        None without a hidden layer, or when a column bound ``Σᵢ|W_ij| + |b_j|`` or
        ``W Wᵀ`` is not finite: an output could then overflow, which only the full
        forward, scanning every output, can report.
        """
        if not self.hidden_layers:
            return None
        w, b = (p.values for p in self._head)
        with np.errstate(over="ignore", invalid="ignore"):  # both are checked below
            bound = np.abs(w).sum(axis=0) + np.abs(b)
            gram = w @ w.T
        if not (np.isfinite(bound).all() and np.isfinite(gram).all()):
            return None
        return self.tap_names[-1], gram

    def _depth(self, taps) -> int:
        """Blocks a call must run to produce ``taps``; ``hidden_layers + 1`` includes the head."""
        full = self.hidden_layers + 1
        if taps is None:
            return full
        depths = {name: i + 1 for i, name in enumerate(self.tap_names)}
        depths["output"] = full
        for name in taps:
            if name not in depths:
                raise ContractViolation(f"generator exposes no tap named {name!r}")
        return max((depths[name] for name in taps), default=0)

    def __call__(self, z, taps=None) -> tuple[ad.Tensor | None, dict[str, ad.Tensor]]:
        """Forward pass returning (output, {tap name: activation}).

        ``taps`` names what the caller reads ("output" for the head); the
        pass then stops after the deepest of them, so the output is None
        unless requested and deeper taps are absent. None runs everything.
        """
        depth = self._depth(taps)
        h = as_batch(z, self.latent_dim)
        if not ad.grad_enabled():
            return self._forward_values(h.values, depth)
        found: dict[str, ad.Tensor] = {}
        for i, (w, b) in enumerate(self._hidden[:depth]):
            if i:
                h = ad.tanh(h)
            h = ad.feature_normalize(ad.matmul(h, w) + b)
            found[f"norm{i + 1}"] = h
        if depth <= self.hidden_layers:
            return None, found
        if self.hidden_layers:
            h = ad.tanh(h)
        return ad.matmul(h, self._head[0]) + self._head[1], found

    def _forward_values(self, h: np.ndarray, depth: int):
        """The recorded forward's values, bit for bit, with nothing recorded: each block
        runs in place on its own product and is checked once, by its mean square."""
        found: dict[str, ad.Tensor] = {}
        for i, (w, b) in enumerate(self._hidden[:depth]):
            if i:
                h = np.tanh(h)  # fresh: the caller may read the tap it came from
            y = np.matmul(h, w.values)
            y += b.values
            y /= ad._rms(y)
            found[f"norm{i + 1}"] = ad._result("feature_normalize", y)
            h = y
        if depth <= self.hidden_layers:
            return None, found
        if self.hidden_layers:
            h = np.tanh(h)
        y = np.matmul(h, self._head[0].values)
        y += self._head[1].values
        return ad._make("add", y, (), None), found


class Discriminator(_Net):
    """Observation-to-logit MLP: (affine, leaky-rectifier) x L, affine head."""

    kind = "discriminator"
    _ARCH = ("input_dim", "hidden_width", "hidden_layers", "seed")

    def __init__(
        self,
        input_dim: int = 768,
        hidden_width: int = 64,
        hidden_layers: int = 2,
        seed: int = 0,
        *, _stored=None,
    ):
        super().__init__(input_dim, 1, hidden_width, hidden_layers, seed, _stored)
        self.input_dim = int(input_dim)

    def __call__(self, x) -> ad.Tensor:
        h = as_batch(x, self.input_dim)
        for w, b in self._hidden:
            h = ad.leaky_relu(ad.matmul(h, w) + b)
        return ad.matmul(h, self._head[0]) + self._head[1]


@contextlib.contextmanager
def frozen(fn):
    """Freeze the parameters of ``fn``, if it has any; restore each one's flag on exit."""
    params = fn.parameters() if hasattr(fn, "parameters") else []
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = False
    try:
        yield
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(net, path: str) -> str:
    """Write a versioned parameter container plus a JSON manifest.

    The manifest path is the checkpoint path with ``.manifest.json``
    appended to the stem.
    """
    meta = {"format": "checkpoint", "version": CHECKPOINT_VERSION, "kind": net.kind,
            "arch": net.arch()}
    arrays = {p.name: p.values for p in net.parameters()}
    os.makedirs(os.path.dirname(os.path.abspath(path)) or ".", exist_ok=True)
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8),
             **arrays)
    manifest_path = _manifest_path(path)
    write_json(manifest_path, {**meta, "format": "checkpoint-manifest", "parameters": [
        {"name": name, "shape": list(arr.shape),
         "sha256": hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()}
        for name, arr in sorted(arrays.items())
    ]})
    return manifest_path


def _manifest_path(path: str) -> str:
    stem = path[:-4] if path.endswith(".npz") else path
    return stem + ".manifest.json"


def load_checkpoint(path: str):
    """Rebuild a network from a checkpoint; parameter values load bit-exact.

    Anything that is not a checkpoint this version wrote, from a foreign
    file to metadata without ``kind``, unknown ``arch`` keys or a missing,
    unreadable, misshaped or non-finite array, is a ``ContractViolation``.
    """
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ContractViolation(f"{path}: not a checkpoint container ({exc})") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise ContractViolation(f"{path}: not a checkpoint container (a bare array)")
    with data:
        if "__meta__" not in data:
            raise ContractViolation(f"{path}: not a checkpoint container (missing metadata)")
        try:
            meta = json.loads(bytes(data["__meta__"]).decode())
        except ValueError as exc:
            raise ContractViolation(f"{path}: unreadable checkpoint metadata ({exc})") from exc
        if not isinstance(meta, dict):
            raise ContractViolation(f"{path}: checkpoint metadata is not a mapping")
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ContractViolation(
                f"{path}: unsupported checkpoint version {meta.get('version')!r}"
            )
        kinds = {"generator": Generator, "discriminator": Discriminator}
        if meta.get("kind") not in kinds:
            raise ContractViolation(f"{path}: unknown checkpoint kind {meta.get('kind')!r}")
        arch = meta.get("arch")
        if not isinstance(arch, dict):
            raise ContractViolation(f"{path}: checkpoint metadata has no architecture")
        try:
            return kinds[meta["kind"]](**arch, _stored=(path, data))
        except TypeError as exc:
            raise ContractViolation(f"{path}: invalid architecture {arch!r} ({exc})") from exc
