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

Only ``ModelSpec.param_dim`` and the ``_unpack_*`` helpers know this layout.
One forward pass gives every family's logits (one per row for the linear and
binary models, one per class otherwise) and the MLP's hidden layer; :func:`loss`,
:func:`grad`, :func:`accuracy` and :func:`evaluate` (loss and accuracy at once)
then differ only in the loss family (squared error, sigmoid cross-entropy or
softmax), and the MLP gradient reuses that layer.  The gradient works in the
forward pass's own buffers and writes each block of its output once, through
the ``_unpack_*`` views of one new vector, so an MLP gradient holds one
n x hidden array: the hidden layer, which becomes the hidden-layer gradient
block by block of rows.

A batch is a 1-D int64 array of sample indices (:func:`sample_batch`,
:func:`full_batch`); the whole dataset in order is read in place, not copied.
All losses are means over the batch and non-negative, so zero is always a
valid lower bound on the objective.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .core import RngStream, as_int, as_vector

__all__ = [
    "Dataset",
    "IdxFormatError",
    "MODEL_KINDS",
    "ModelSpec",
    "SYNTHETIC_KINDS",
    "accuracy",
    "evaluate",
    "finite_difference_grad",
    "full_batch",
    "generate_synthetic",
    "grad",
    "initial_params",
    "load_idx",
    "loss",
    "max_relative_grad_error",
    "sample_batch",
    "sample_batches",
]

MODEL_KINDS = ("linear-regression", "logistic-regression", "mlp")
SYNTHETIC_KINDS = ("linear-regression", "logistic-regression")

DEFAULT_HIDDEN_DIM = 32

# rows per product in the MLP backward pass; a one-row tail joins the block before
# it, since numpy forms a one-row product with gemv, whose bits differ from gemm's
BACKWARD_BLOCK_ROWS = 512


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
        if as_int(self.input_dim) < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind == "linear-regression":
            if self.num_classes is not None:
                raise ValueError("linear-regression takes no num_classes")
        else:
            if self.num_classes is None or as_int(self.num_classes) < 2:
                raise ValueError(f"{self.kind} needs num_classes >= 2")
        if self.kind == "mlp":
            if self.hidden_dim is None:
                object.__setattr__(self, "hidden_dim", DEFAULT_HIDDEN_DIM)
            if as_int(self.hidden_dim) < 1:
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
    integer class indices, whose largest is kept as ``max_label`` (None for
    float labels), so a model checks the labels once for the whole dataset.
    """

    features: np.ndarray
    labels: np.ndarray
    max_label: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # C order, so that a full batch read in place has a gathered copy's layout
        features = np.ascontiguousarray(self.features, dtype=np.float64)
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
        max_label = int(labels.max()) if labels.dtype.kind == "i" else None
        object.__setattr__(self, "max_label", max_label)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]


def full_batch(data: Dataset) -> np.ndarray:
    """The whole dataset as one batch: the int64 indices 0 .. n_samples - 1."""
    return np.arange(data.n_samples, dtype=np.int64)


def sample_batch(rng: RngStream, n_data: int, n: int) -> np.ndarray:
    """Draw n int64 indices uniformly with replacement from [0, n_data)."""
    if n < 1:
        raise ValueError("batch size must be >= 1")
    if n_data < 1:
        raise ValueError("n_data must be >= 1")
    return rng.generator.integers(0, n_data, size=n, dtype=np.int64)


def sample_batches(rng: RngStream, n_data: int, n: int, count: int) -> np.ndarray:
    """``count`` batches in one draw, as the rows of a (count, n) int64 array.

    Row i equals the i-th of ``count`` successive ``sample_batch(rng, n_data, n)``
    calls, and the stream ends in the same state: Philox keeps its spare 32-bit half.
    """
    for name, value in (("batch size", n), ("n_data", n_data), ("count", count)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1")
    return rng.generator.integers(0, n_data, size=(count, n), dtype=np.int64)


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
    return params[:d], params[d:]


def _unpack_mlp(spec: ModelSpec, params: np.ndarray):
    """Views of W1, b1, W2 and b2 in the flat parameter vector."""
    d, h, c = spec.input_dim, spec.hidden_dim, spec.num_classes
    o1, o2 = h * d, h * d + h
    o3 = o2 + c * h
    return params[:o1].reshape(h, d), params[o1:o2], params[o2:o3].reshape(c, h), params[o3:]


def _features(spec: ModelSpec, data: Dataset) -> np.ndarray:
    """The dataset's feature matrix, once its width is checked against the model."""
    if data.input_dim != spec.input_dim:
        raise ValueError(f"dataset input_dim {data.input_dim} != spec input_dim {spec.input_dim}")
    return data.features


def _batch_rows(spec: ModelSpec, data: Dataset, batch):
    """Feature rows and labels of a batch; indices and class labels are checked."""
    idx = np.asarray(batch)
    if idx.ndim != 1 or idx.size < 1 or idx.dtype.kind not in "iu":
        raise ValueError(f"batch must be non-empty 1-D int indices, got {idx.dtype} {idx.shape}")
    if np.minimum.reduce(idx) < 0:
        raise ValueError("batch indices must be non-negative")
    if idx.size == data.n_samples and np.array_equal(idx, np.arange(idx.size)):
        x, y = _features(spec, data), data.labels  # the whole dataset in order: no copy
    else:
        try:
            # take gathers rows faster than fancy indexing and bounds-checks the same way
            x, y = _features(spec, data).take(idx, axis=0), data.labels.take(idx)
        except IndexError:
            raise ValueError(
                f"batch index {int(idx.max())} out of range for {data.n_samples} samples"
            ) from None
    if spec.is_classification:
        # the dataset's largest label, so a batch fails or passes whichever rows it drew
        if data.max_label is None:
            raise ValueError(f"{spec.kind} needs integer class labels")
        if data.max_label >= spec.num_classes:
            raise ValueError(f"label {data.max_label} out of range for {spec.num_classes} classes")
    return x, y


def _forward(spec: ModelSpec, params: np.ndarray, x: np.ndarray):
    """Logits of the rows of x, and the tanh hidden layer (None without one).

    Linear and binary logistic models give one logit per row, shape (n,);
    the softmax models one per class, shape (n, classes).  Each layer is built
    in one new buffer, so the caller owns both arrays and may overwrite them.
    """
    if spec.kind == "mlp":
        w1, b1, w2, b2 = _unpack_mlp(spec, params)
        hidden = x @ w1.T
        hidden += b1
        np.tanh(hidden, out=hidden)
        z = hidden @ w2.T
        z += b2
        return z, hidden
    w, b = _unpack_affine(spec, params)
    z = x @ w.T
    z += b
    return z, None


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
    params = np.zeros(spec.param_dim, dtype=np.float64)
    if spec.kind != "mlp":
        return params
    if rng is None:
        raise ValueError("mlp initialization needs an RngStream to break symmetry")
    w1, _, w2, _ = _unpack_mlp(spec, params)
    w1[...] = rng.generator.standard_normal(w1.shape) / np.sqrt(spec.input_dim)
    w2[...] = rng.generator.standard_normal(w2.shape) / np.sqrt(spec.hidden_dim)
    return params


def _mean_loss(spec: ModelSpec, z: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error or cross-entropy of the logits z against the labels y."""
    if not spec.is_classification:
        r = z - y
        return float(np.mean(r * r))
    if z.ndim == 1:
        # stable sigmoid cross-entropy on logits
        per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
        return float(np.mean(per))
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    return float(np.mean(lse - z[np.arange(y.size), y]))


def _hit_rate(z: np.ndarray, y: np.ndarray) -> float:
    """Fraction of rows whose logits predict their class (see :func:`accuracy`)."""
    pred = (z >= 0.0).astype(np.int64) if z.ndim == 1 else np.argmax(z, axis=1)
    return float(np.mean(pred == y))


def loss(spec: ModelSpec, params, data: Dataset, batch: np.ndarray) -> float:
    """Mean per-sample loss over the batch (squared error or cross-entropy)."""
    params = _check_params(spec, params)
    x, y = _batch_rows(spec, data, batch)
    return _mean_loss(spec, _forward(spec, params, x)[0], y)


def grad(spec: ModelSpec, params, data: Dataset, batch: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`loss` with respect to the flat params."""
    params = _check_params(spec, params)
    x, y = _batch_rows(spec, data, batch)
    n = y.size
    z, hidden = _forward(spec, params, x)
    out = np.empty(params.size)  # each block written once, through the _unpack_* views
    if not spec.is_classification:
        w, b = _unpack_affine(spec, out)
        r = z - y
        np.matmul(x.T, r, out=w)
        w *= 2.0 / n
        b[0] = 2.0 * np.mean(r)
        return out
    if z.ndim == 1:
        dz = (_sigmoid(z) - y) / n
    else:
        # softmax minus the one-hot labels, over the n x classes logits this call owns
        dz = z
        dz -= dz.max(axis=1, keepdims=True)
        np.exp(dz, out=dz)
        dz /= dz.sum(axis=1, keepdims=True)
        dz[np.arange(y.size), y] -= 1.0
        dz /= n
    if hidden is None:
        w, b = _unpack_affine(spec, out)
        np.matmul(dz.T, x, out=w)
        np.add.reduce(dz, axis=0, keepdims=dz.ndim == 1, out=b)  # b is (1,) for one logit
        return out
    # backward through the output layer, then the tanh layer _forward kept: dw2
    # reads the hidden layer before its buffer becomes tanh' = 1 - hidden^2 and then
    # da = (dz @ w2) * tanh', a block of rows at a time
    dw1, db1, dw2, db2 = _unpack_mlp(spec, out)
    np.matmul(dz.T, hidden, out=dw2)
    np.add.reduce(dz, axis=0, out=db2)
    np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    w2 = _unpack_mlp(spec, params)[2]
    starts = range(0, max(n - 1, 1), BACKWARD_BLOCK_ROWS)  # no block starts at row n - 1
    for lo, hi in zip(starts, [*starts[1:], n]):
        hidden[lo:hi] *= dz[lo:hi] @ w2
    np.matmul(hidden.T, x, out=dw1)
    np.add.reduce(hidden, axis=0, out=db1)
    return out


def accuracy(spec: ModelSpec, params, data: Dataset) -> float:
    """Fraction of samples assigned their true class over the whole dataset.

    Binary logistic predictions threshold the sigmoid at 0.5 with ties going
    to class 1 (logit >= 0); softmax predictions take the argmax, earlier
    class winning exact ties.
    """
    if not spec.is_classification:
        raise ValueError("accuracy requires a classification model")
    return evaluate(spec, params, data)[1]


def evaluate(spec: ModelSpec, params, data: Dataset) -> tuple[float, float]:
    """Full-dataset :func:`loss` and :func:`accuracy` (NaN for regression) from
    one forward pass, with the bits of the two separate calls."""
    params = _check_params(spec, params)
    x, y = _batch_rows(spec, data, np.arange(data.n_samples))
    z = _forward(spec, params, x)[0]
    return _mean_loss(spec, z, y), _hit_rate(z, y) if spec.is_classification else math.nan


# -- oracles -------------------------------------------------------------------


def finite_difference_grad(spec: ModelSpec, params, data: Dataset, batch: np.ndarray) -> np.ndarray:
    """Central-difference gradient with step 1e-6; the independent yardstick for :func:`grad`."""
    step = 1e-6
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


def max_relative_grad_error(spec: ModelSpec, params, data: Dataset, batch: np.ndarray) -> float:
    """Max-norm gap between analytic and central-difference gradients,
    relative to the gradient's own scale (floored at 1e-8)."""
    analytic = grad(spec, params, data, batch)
    numeric = finite_difference_grad(spec, params, data, batch)
    scale = max(float(np.abs(analytic).max()), 1e-8)
    return float(np.abs(analytic - numeric).max()) / scale


# -- data sources --------------------------------------------------------------


def generate_synthetic(rng: RngStream, kind: str, input_dim: int, n_samples: int):
    """Gaussian-feature synthetic data with known generating weights.

    Features are i.i.d. standard normal.  Linear targets are ``X w`` exactly;
    logistic labels are Bernoulli draws with success probability
    ``sigmoid(X w)``.  Returns the dataset and the generating parameters padded
    to the model layout (bias 0), so a linear fit at those params is exactly 0.
    """
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"synthetic data supports linear/logistic regression, not {kind!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    gen = rng.generator
    x = gen.standard_normal((n_samples, input_dim))
    w = gen.standard_normal(input_dim)
    if kind == "linear-regression":
        labels = x @ w
    else:
        labels = (gen.random(n_samples) < _sigmoid(x @ w)).astype(np.int64)
    return Dataset(x, labels), np.concatenate([w, [0.0]])


IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxFormatError(ValueError):
    """Malformed IDX container: a wrong magic number, a file that ends before
    its declared payload, no images, or image and label counts that differ."""


def _read_exact(handle, nbytes: int, path, what: str) -> bytes:
    # never ask for more than the file still holds: a header may declare terabytes
    data = handle.read(min(nbytes, os.fstat(handle.fileno()).st_size - handle.tell()))
    if len(data) != nbytes:
        raise IdxFormatError(
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
        header = _read_exact(handle, 16, images_path, "image header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IMAGE_MAGIC:
            raise IdxFormatError(
                f"{images_path}: magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}"
            )
        if count == 0:
            raise IdxFormatError(f"{images_path}: header declares 0 images")
        raw = _read_exact(handle, count * rows * cols, images_path, "pixel data")
    features = np.frombuffer(raw, dtype=np.uint8).astype(np.float64).reshape(count, rows * cols)
    features /= 255.0
    with open(labels_path, "rb") as handle:
        header = _read_exact(handle, 8, labels_path, "label header")
        magic, label_count = struct.unpack(">II", header)
        if magic != LABEL_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}"
            )
        labels = np.frombuffer(_read_exact(handle, label_count, labels_path, "label data"),
                               dtype=np.uint8).astype(np.int64)
    if count != label_count:
        raise IdxFormatError(f"image count {count} != label count {label_count}")
    return Dataset(features, labels)
