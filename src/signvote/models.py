"""Differentiable objectives with analytic gradients, synthetic data, and an IDX reader.

Three model families share one calling convention so the optimizers never
need to know the architecture: parameters live in a single flat float64
vector laid out layer by layer, each layer's weight matrix in row-major
order followed by its bias vector.

* ``linear-regression``: params ``[w (input_dim), b]``, mean squared error.
* ``logistic-regression``: binary (``num_classes == 2``) uses a single logit
  ``x.w + b`` with sigmoid cross-entropy; more classes use a softmax over
  ``num_classes`` logits.
* ``mlp``: one tanh hidden layer feeding a softmax output,
  params ``[W1 (hidden x input), b1, W2 (classes x hidden), b2]``.

All losses are means over the batch and non-negative, so zero is always a
valid lower bound on the objective.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import RngStream, as_vector

__all__ = [
    "BadMagicError",
    "Batch",
    "CountMismatchError",
    "Dataset",
    "IdxFormatError",
    "MODEL_KINDS",
    "ModelSpec",
    "SYNTHETIC_KINDS",
    "TruncatedIdxError",
    "accuracy",
    "finite_difference_grad",
    "full_batch",
    "generate_synthetic",
    "grad",
    "initial_params",
    "load_idx",
    "loss",
    "max_relative_grad_error",
    "sample_batch",
]

MODEL_KINDS = ("linear-regression", "logistic-regression", "mlp")
SYNTHETIC_KINDS = ("linear-regression", "logistic-regression")

DEFAULT_HIDDEN_DIM = 32


@dataclass(frozen=True)
class ModelSpec:
    """Architecture description; ``param_dim`` gives the flat parameter length."""

    kind: str
    input_dim: int
    hidden_dim: int | None = None
    num_classes: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind == "linear-regression":
            if self.num_classes is not None:
                raise ValueError("linear-regression takes no num_classes")
        else:
            if self.num_classes is None or self.num_classes < 2:
                raise ValueError(f"{self.kind} needs num_classes >= 2")
        if self.kind == "mlp":
            if self.hidden_dim is None:
                object.__setattr__(self, "hidden_dim", DEFAULT_HIDDEN_DIM)
            if self.hidden_dim < 1:
                raise ValueError("hidden_dim must be >= 1")
        elif self.hidden_dim is not None:
            raise ValueError(f"{self.kind} takes no hidden_dim")

    @property
    def is_classification(self) -> bool:
        return self.kind != "linear-regression"

    @property
    def param_dim(self) -> int:
        if self.kind == "linear-regression":
            return self.input_dim + 1
        if self.kind == "logistic-regression":
            if self.num_classes == 2:
                return self.input_dim + 1
            return self.num_classes * (self.input_dim + 1)
        h, c = self.hidden_dim, self.num_classes
        return h * (self.input_dim + 1) + c * (h + 1)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (n_samples x input_dim) plus one label per row.

    Regression labels are float64; classification labels are non-negative
    integer class indices.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        labels = np.asarray(self.labels)
        if labels.dtype.kind in "iub":
            labels = labels.astype(np.int64)
            if labels.size and labels.min() < 0:
                raise ValueError("class labels must be non-negative")
        else:
            labels = labels.astype(np.float64)
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"label count {labels.shape} does not match {features.shape[0]} feature rows"
            )
        if features.shape[0] < 1:
            raise ValueError("dataset needs at least one sample")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Batch:
    """Sample indices into a dataset, drawn with replacement."""

    indices: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        if indices.ndim != 1 or indices.size < 1:
            raise ValueError("batch needs at least one index")
        if np.minimum.reduce(indices) < 0:
            raise ValueError("batch indices must be non-negative")
        object.__setattr__(self, "indices", indices)

    @property
    def n(self) -> int:
        return self.indices.size


def full_batch(data: Dataset) -> Batch:
    """The whole dataset as one batch."""
    return Batch(np.arange(data.n_samples, dtype=np.int64))


def sample_batch(rng: RngStream, n_data: int, n: int) -> Batch:
    """Draw n indices uniformly with replacement from [0, n_data)."""
    if n < 1:
        raise ValueError("batch size must be >= 1")
    if n_data < 1:
        raise ValueError("n_data must be >= 1")
    return Batch(rng.generator.integers(0, n_data, size=n, dtype=np.int64))


# -- parameter packing --------------------------------------------------------


def _check_params(spec: ModelSpec, params) -> np.ndarray:
    arr = as_vector(params, "params")
    if arr.size != spec.param_dim:
        raise ValueError(f"params length {arr.size} != {spec.param_dim} for {spec.kind}")
    return arr


def _unpack_affine(spec: ModelSpec, params: np.ndarray):
    """Weight vector/matrix and bias for the single-layer models."""
    d = spec.input_dim
    if spec.kind == "logistic-regression" and spec.num_classes > 2:
        c = spec.num_classes
        return params[: c * d].reshape(c, d), params[c * d :]
    return params[:d], params[d]


def _unpack_mlp(spec: ModelSpec, params: np.ndarray):
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    o = 0
    w1 = params[o : o + h * d].reshape(h, d)
    o += h * d
    b1 = params[o : o + h]
    o += h
    w2 = params[o : o + c * h].reshape(c, h)
    o += c * h
    b2 = params[o : o + c]
    return w1, b1, w2, b2


def _batch_rows(spec: ModelSpec, data: Dataset, batch: Batch):
    if data.input_dim != spec.input_dim:
        raise ValueError(f"dataset input_dim {data.input_dim} != spec input_dim {spec.input_dim}")
    idx = batch.indices
    try:
        # take gathers rows faster than fancy indexing and bounds-checks the same way
        return data.features.take(idx, axis=0), data.labels[idx]
    except IndexError:
        raise ValueError(
            f"batch index {int(idx.max())} out of range for {data.n_samples} samples"
        ) from None


def _class_labels(spec: ModelSpec, labels: np.ndarray) -> np.ndarray:
    if labels.dtype.kind != "i":
        raise ValueError(f"{spec.kind} needs integer class labels")
    if np.maximum.reduce(labels) >= spec.num_classes:
        raise ValueError(f"label {int(labels.max())} out of range for {spec.num_classes} classes")
    return labels


def _softmax_logits(spec: ModelSpec, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    if spec.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(spec, params)
        hidden = np.tanh(x @ w1.T + b1)
        return hidden @ w2.T + b2
    w, b = _unpack_affine(spec, params)
    return x @ w.T + b


def _libm_exp(value: float) -> float:
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-z))`` with the C library's ``exp``.

    numpy's float64 ``exp`` is its own vectorised code and can differ from the
    C library in the last bit.  Its complex128 ``exp`` calls the C library's
    ``cexp``, whose real part at a zero imaginary part is ``exp`` itself up to
    an argument of 709; above that, glibc's ``cexp`` rescales in two roundings.
    So arrays with some ``-z > 709`` (or a NaN) take ``math.exp`` per entry.
    Either way the result matches ``scipy.special.expit`` bit for bit, which
    keeps every recorded ``metrics.csv`` hash, and no warning is raised.
    """
    neg = np.negative(z)
    if neg.size and np.maximum.reduce(neg, axis=None) <= 709.0:
        return 1.0 / (1.0 + np.exp(neg.astype(np.complex128)).real)
    e = np.array([_libm_exp(v) for v in neg.ravel()], dtype=np.float64)
    return 1.0 / (1.0 + e.reshape(np.shape(neg)))


# -- loss / gradient / accuracy -----------------------------------------------


def initial_params(spec: ModelSpec, rng: RngStream | None = None) -> np.ndarray:
    """Starting parameter vector for training.

    Linear and logistic models start at zero (a saddle-free point with a
    clean reference loss).  The hidden-layer network cannot: at exactly zero
    every weight gradient vanishes identically and only the output bias
    would ever move, so its weights draw from N(0, 1/fan_in) (biases zero),
    which needs an ``rng``.
    """
    if spec.kind != "mlp":
        return np.zeros(spec.param_dim, dtype=np.float64)
    if rng is None:
        raise ValueError("mlp initialization needs an RngStream to break symmetry")
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    gen = rng.generator
    w1 = gen.standard_normal((h, d)) / np.sqrt(d)
    w2 = gen.standard_normal((c, h)) / np.sqrt(h)
    return np.concatenate([w1.ravel(), np.zeros(h), w2.ravel(), np.zeros(c)])


def loss(spec: ModelSpec, params, data: Dataset, batch: Batch) -> float:
    """Mean per-sample loss over the batch (squared error or cross-entropy)."""
    params = _check_params(spec, params)
    x, y = _batch_rows(spec, data, batch)
    if spec.kind == "linear-regression":
        w, b = _unpack_affine(spec, params)
        r = x @ w + b - y
        return float(np.mean(r * r))
    y = _class_labels(spec, y)
    if spec.kind == "logistic-regression" and spec.num_classes == 2:
        w, b = _unpack_affine(spec, params)
        z = x @ w + b
        # stable sigmoid cross-entropy on logits
        per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        return float(np.mean(per))
    logits = _softmax_logits(spec, params, x)
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return float(np.mean(lse - logits[np.arange(y.size), y]))


def grad(spec: ModelSpec, params, data: Dataset, batch: Batch) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to the flat params."""
    params = _check_params(spec, params)
    x, y = _batch_rows(spec, data, batch)
    n = batch.n
    if spec.kind == "linear-regression":
        w, b = _unpack_affine(spec, params)
        r = x @ w + b - y
        return np.concatenate([(2.0 / n) * (x.T @ r), [2.0 * np.mean(r)]])
    y = _class_labels(spec, y)
    if spec.kind == "logistic-regression" and spec.num_classes == 2:
        w, b = _unpack_affine(spec, params)
        dz = (_sigmoid(x @ w + b) - y) / n
        out = np.empty(params.size)
        np.matmul(x.T, dz, out=out[:-1])
        out[-1] = np.add.reduce(dz)
        return out
    logits = _softmax_logits(spec, params, x)
    zmax = logits.max(axis=1, keepdims=True)
    ez = np.exp(logits - zmax)
    probs = ez / ez.sum(axis=1, keepdims=True)
    dz = probs
    dz[np.arange(y.size), y] -= 1.0
    dz /= n
    if spec.kind == "logistic-regression":
        return np.concatenate([(dz.T @ x).ravel(), dz.sum(axis=0)])
    w1, b1, w2, b2 = _unpack_mlp(spec, params)
    hidden = np.tanh(x @ w1.T + b1)
    dw2 = dz.T @ hidden
    db2 = dz.sum(axis=0)
    da = (dz @ w2) * (1.0 - hidden * hidden)
    dw1 = da.T @ x
    db1 = da.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def accuracy(spec: ModelSpec, params, data: Dataset) -> float:
    """Fraction of samples assigned their true class over the whole dataset.

    Binary logistic predictions threshold the sigmoid at 0.5 with ties going
    to class 1 (logit >= 0); softmax predictions take the argmax, earlier
    class winning exact ties.
    """
    if not spec.is_classification:
        raise ValueError("accuracy requires a classification model")
    params = _check_params(spec, params)
    y = _class_labels(spec, data.labels)
    if spec.kind == "logistic-regression" and spec.num_classes == 2:
        w, b = _unpack_affine(spec, params)
        pred = (data.features @ w + b >= 0.0).astype(np.int64)
    else:
        pred = np.argmax(_softmax_logits(spec, params, data.features), axis=1)
    return float(np.mean(pred == y))


# -- oracles -------------------------------------------------------------------


def finite_difference_grad(spec: ModelSpec, params, data: Dataset, batch: Batch,
                           step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient; the independent yardstick for :func:`grad`."""
    base = _check_params(spec, params).copy()
    out = np.empty_like(base)
    for i in range(base.size):
        orig = base[i]
        base[i] = orig + step
        hi = loss(spec, base, data, batch)
        base[i] = orig - step
        lo = loss(spec, base, data, batch)
        base[i] = orig
        out[i] = (hi - lo) / (2.0 * step)
    return out


def max_relative_grad_error(spec: ModelSpec, params, data: Dataset, batch: Batch,
                            step: float = 1e-6) -> float:
    """Max-norm gap between analytic and central-difference gradients,
    relative to the gradient's own scale (floored at 1e-8)."""
    analytic = grad(spec, params, data, batch)
    numeric = finite_difference_grad(spec, params, data, batch, step=step)
    scale = max(float(np.abs(analytic).max()), 1e-8)
    return float(np.abs(analytic - numeric).max()) / scale


# -- data sources --------------------------------------------------------------


def generate_synthetic(rng: RngStream, kind: str, input_dim: int, n_samples: int,
                       noise_level: float = 0.0):
    """Gaussian-feature synthetic data with known generating weights.

    Features are i.i.d. standard normal.  Linear targets are ``X w`` plus
    ``noise_level`` times standard normal noise; logistic labels are Bernoulli
    draws with success probability ``sigmoid(X w)`` (noise_level is unused).
    Returns the dataset and the generating parameters padded to the model
    layout (bias 0), so a noiseless linear fit at those params is exactly 0.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"synthetic data supports linear/logistic regression, not {kind!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if noise_level < 0:
        raise ValueError("noise_level must be >= 0")
    gen = rng.generator
    x = gen.standard_normal((n_samples, input_dim))
    w = gen.standard_normal(input_dim)
    if kind == "linear-regression":
        labels = x @ w
        if noise_level > 0:
            labels = labels + noise_level * gen.standard_normal(n_samples)
    else:
        labels = (gen.random(n_samples) < _sigmoid(x @ w)).astype(np.int64)
    return Dataset(x, labels), np.concatenate([w, [0.0]])


IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX container."""


class BadMagicError(IdxFormatError):
    """Magic number does not identify an IDX image/label file."""


class TruncatedIdxError(IdxFormatError):
    """File ended before the declared payload."""


class CountMismatchError(IdxFormatError):
    """Image and label files declare different sample counts."""


def _read_exact(handle, nbytes: int, path, what: str) -> bytes:
    data = handle.read(nbytes)
    if len(data) != nbytes:
        raise TruncatedIdxError(
            f"{path}: truncated while reading {what} (wanted {nbytes} bytes, got {len(data)})"
        )
    return data


def load_idx(images_path, labels_path) -> Dataset:
    """Read big-endian IDX image/label files into a flat float64 dataset.

    Image header: magic 0x00000803, then count, rows, cols as unsigned 32-bit
    big-endian; label header: magic 0x00000801, then count.  Pixel bytes are
    scaled from [0, 255] to [0.0, 1.0] and flattened row-major, one feature
    row per image.
    """
    with open(images_path, "rb") as handle:
        magic, count, rows, cols = struct.unpack(
            ">IIII", _read_exact(handle, 16, images_path, "image header")
        )
        if magic != IMAGE_MAGIC:
            raise BadMagicError(
                f"{images_path}: magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}"
            )
        if count == 0:
            raise IdxFormatError(f"{images_path}: header declares 0 images")
        raw = _read_exact(handle, count * rows * cols, images_path, "pixel data")
    features = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    features = features.reshape(count, rows * cols) / 255.0
    with open(labels_path, "rb") as handle:
        magic, label_count = struct.unpack(
            ">II", _read_exact(handle, 8, labels_path, "label header")
        )
        if magic != LABEL_MAGIC:
            raise BadMagicError(
                f"{labels_path}: magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}"
            )
        labels = np.frombuffer(_read_exact(handle, label_count, labels_path, "label data"),
                               dtype=np.uint8).astype(np.int64)
    if count != label_count:
        raise CountMismatchError(f"image count {count} != label count {label_count}")
    return Dataset(features, labels)
