"""Procedural synthetic image datasets with known independent factors.

Scenes are one or two anti-aliased colored squares on a fixed gray
background, rendered at 16x16x3 by default so full Hessian oracles over
all output pixels stay affordable. Hue lives on a continuous cosine
color wheel (restricted to less than a full revolution so it stays
linearly decodable), and positions/sizes are fractions of the image side.
Factors are sampled i.i.d. uniform over their ranges; rendering is a
pure function of the factor vector.

Export writes a manifest (spec + seed + count), a full-precision factor
CSV and one binary pixmap per sample; the manifest alone is enough to
regenerate the dataset bit-identically.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ContractViolation
from .files import overwrite

SEMANTICS = ("x-position", "y-position", "hue", "size")
_ATTRS = ("x", "y", "hue", "size")
BACKGROUND = -0.25
DATASET_VERSION = 1


@dataclass(frozen=True)
class Factor:
    name: str
    low: float
    high: float
    semantic: str

    def __post_init__(self):
        if self.semantic not in SEMANTICS:
            raise ContractViolation(f"unknown factor semantic {self.semantic!r}")
        if not self.low < self.high:
            raise ContractViolation(f"factor {self.name!r}: empty range [{self.low}, {self.high}]")


@dataclass(frozen=True)
class FactorSpec:
    """Scene description: varying factors, fixed attributes, geometry."""

    name: str
    factors: tuple[Factor, ...]
    fixed: tuple[tuple[str, float], ...] = ()
    objects: int = 1
    side: int = 16
    channels: int = 3

    def __post_init__(self):
        if self.channels != 3:
            raise ContractViolation("only 3-channel rendering is supported")
        if self.objects < 1:
            raise ContractViolation("at least one object is required")
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "fixed", tuple(self.fixed))
        names = [f.name for f in self.factors] + [n for n, _ in self.fixed]
        if len(set(names)) != len(names):
            raise ContractViolation("factor names must be unique")
        for obj in range(self.objects):
            for attr in _ATTRS:
                if self._attr_name(obj, attr) not in names:
                    raise ContractViolation(
                        f"object {obj} is missing attribute {attr!r} (varying or fixed)"
                    )

    def _attr_name(self, obj: int, attr: str) -> str:
        return attr if self.objects == 1 else f"{attr}{obj}"

    @property
    def factor_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.factors)

    @property
    def factor_count(self) -> int:
        return len(self.factors)

    def resolve(self, factors) -> list[dict[str, float]]:
        """Split a factor vector into per-object attribute dicts, checking ranges."""
        factors = np.asarray(factors, dtype=np.float64).reshape(-1)
        if factors.shape != (self.factor_count,):
            raise ContractViolation(
                f"expected {self.factor_count} factors for spec {self.name!r}, got {factors.shape}"
            )
        values = dict(self.fixed)
        for f, v in zip(self.factors, factors):
            if not (f.low <= v <= f.high):
                raise ContractViolation(
                    f"factor {f.name!r}={v} outside range [{f.low}, {f.high}]"
                )
            values[f.name] = float(v)
        return [
            {attr: values[self._attr_name(obj, attr)] for attr in _ATTRS}
            for obj in range(self.objects)
        ]

    def normalize(self, factors: np.ndarray) -> np.ndarray:
        """Map factor rows affinely onto [-1, 1] per declared range."""
        factors = np.atleast_2d(np.asarray(factors, dtype=np.float64))
        lo = np.array([f.low for f in self.factors])
        hi = np.array([f.high for f in self.factors])
        return (factors - lo) / (hi - lo) * 2.0 - 1.0

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "FactorSpec":
        return FactorSpec(
            name=d["name"],
            factors=tuple(Factor(**f) for f in d["factors"]),
            fixed=tuple((n, float(v)) for n, v in d["fixed"]),
            objects=int(d["objects"]),
            side=int(d["side"]),
            channels=int(d["channels"]),
        )


def _hue_rgb(hue: float) -> np.ndarray:
    return np.cos(2.0 * np.pi * (hue - np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])))


def render(spec: FactorSpec, factors) -> np.ndarray:
    """Render one factor vector to a flattened image in [-1, 1].

    Squares get one pixel of linear edge anti-aliasing and are composited
    in object order over the fixed background.
    """
    objects = spec.resolve(factors)
    centers = (np.arange(spec.side) + 0.5) / spec.side
    img = np.full((spec.side, spec.side, 3), BACKGROUND)
    aa = 1.0 / spec.side
    for obj in objects:
        cov_x = np.clip((obj["size"] - np.abs(centers - obj["x"])) / aa + 0.5, 0.0, 1.0)
        cov_y = np.clip((obj["size"] - np.abs(centers - obj["y"])) / aa + 0.5, 0.0, 1.0)
        cov = cov_y[:, None] * cov_x[None, :]  # rows are y, columns are x
        color = _hue_rgb(obj["hue"])
        img = img * (1.0 - cov[:, :, None]) + color[None, None, :] * cov[:, :, None]
    return img.reshape(-1)


@dataclass
class Dataset:
    """Sampled factors with their rendered observations."""

    spec: FactorSpec
    seed: int
    factors: np.ndarray  # (n, F)
    observations: np.ndarray  # (n, side*side*3)

    @property
    def count(self) -> int:
        return self.factors.shape[0]

    def latents(self, latent_dim: int) -> np.ndarray:
        """Normalized factors zero-padded to the requested latent width."""
        if latent_dim < self.spec.factor_count:
            raise ContractViolation(
                f"latent_dim {latent_dim} < factor count {self.spec.factor_count}; "
                "conditioning cannot drop factors"
            )
        z = np.zeros((self.count, latent_dim))
        z[:, : self.spec.factor_count] = self.spec.normalize(self.factors)
        return z


def sample_dataset(spec: FactorSpec, n: int, seed: int = 0) -> Dataset:
    """Draw n i.i.d. factor vectors (uniform per range) and render them."""
    if n < 1:
        raise ContractViolation(f"dataset size must be >= 1, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lo = np.array([f.low for f in spec.factors])
    hi = np.array([f.high for f in spec.factors])
    factors = rng.uniform(lo, hi, size=(n, spec.factor_count))
    observations = np.stack([render(spec, row) for row in factors])
    return Dataset(spec=spec, seed=seed, factors=factors, observations=observations)


# ---------------------------------------------------------------------------
# built-in specs


def _square(x=None, y=None, hue=None, size=None, suffix=""):
    factors, fixed = [], []
    ranges = {"x": x, "y": y, "hue": hue, "size": size}
    semantics = dict(zip(_ATTRS, SEMANTICS))
    for attr in _ATTRS:
        spec = ranges[attr]
        key = attr + suffix
        if isinstance(spec, tuple):
            factors.append(Factor(key, spec[0], spec[1], semantics[attr]))
        else:
            fixed.append((key, float(spec)))
    return factors, fixed


def dataset_spec(name: str) -> FactorSpec:
    """Look up a built-in scene spec by name."""
    if name == "simple-4factor":
        factors, fixed = _square(x=(0.25, 0.75), y=(0.25, 0.75), hue=(0.0, 0.5), size=(0.14, 0.2))
        return FactorSpec(name=name, factors=tuple(factors), fixed=tuple(fixed))
    if name == "complex-2object":
        f0, x0 = _square(x=(0.15, 0.45), y=(0.2, 0.8), hue=(0.0, 0.7), size=(0.08, 0.14), suffix="0")
        f1, x1 = _square(x=(0.55, 0.85), y=(0.2, 0.8), hue=(0.0, 0.7), size=(0.08, 0.14), suffix="1")
        return FactorSpec(name=name, factors=tuple(f0 + f1), fixed=tuple(x0 + x1), objects=2)
    if name == "1fov":
        factors, fixed = _square(x=(0.2, 0.8), y=0.5, hue=0.0, size=0.18)
        return FactorSpec(name=name, factors=tuple(factors), fixed=tuple(fixed))
    if name == "2factor":
        factors, fixed = _square(x=(0.2, 0.8), y=(0.2, 0.8), hue=0.12, size=0.18)
        return FactorSpec(name=name, factors=tuple(factors), fixed=tuple(fixed))
    raise ContractViolation(f"unknown dataset spec {name!r}; choose from {', '.join(SPEC_NAMES)}")


SPEC_NAMES = ("simple-4factor", "complex-2object", "1fov", "2factor")


# ---------------------------------------------------------------------------
# export / regeneration


def export_dataset(dataset: Dataset, path: str) -> None:
    """Write manifest + factor CSV + one binary pixmap per sample."""
    os.makedirs(os.path.join(path, "samples"), exist_ok=True)
    manifest = {
        "format": "dataset",
        "version": DATASET_VERSION,
        "spec": dataset.spec.to_dict(),
        "seed": dataset.seed,
        "count": dataset.count,
    }
    overwrite(os.path.join(path, "manifest.json"),
              json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    overwrite(os.path.join(path, "factors.csv"), ",".join(dataset.spec.factor_names) + "\n"
              + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in dataset.factors))
    side = dataset.spec.side
    for i, obs in enumerate(dataset.observations):
        _write_ppm(os.path.join(path, "samples", f"sample_{i:06d}.ppm"),
                   obs.reshape(side, side, 3))


def _write_ppm(path: str, img: np.ndarray) -> None:
    pixels = np.clip(np.rint((img + 1.0) * 127.5), 0, 255).astype(np.uint8)
    header = f"P6\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    overwrite(path, header + pixels.tobytes())


def dataset_from_manifest(path: str) -> Dataset:
    """Regenerate a dataset from its manifest alone."""
    manifest_file = path if path.endswith(".json") else os.path.join(path, "manifest.json")
    with open(manifest_file, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ContractViolation(f"{manifest_file}: not a JSON manifest ({exc})") from exc
    if not (isinstance(manifest, dict) and manifest.get("format") == "dataset"
            and manifest.get("version") == DATASET_VERSION):
        raise ContractViolation(f"{manifest_file}: not a supported dataset manifest")
    try:
        spec = FactorSpec.from_dict(manifest["spec"])
        count, seed = int(manifest["count"]), int(manifest["seed"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractViolation(f"{manifest_file}: malformed manifest: {exc!r}") from exc
    return sample_dataset(spec, count, seed)
