import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from signvote.core import RngStream
from signvote.models import (
    BadMagicError,
    Batch,
    CountMismatchError,
    IdxFormatError,
    Dataset,
    ModelSpec,
    TruncatedIdxError,
    accuracy,
    finite_difference_grad,
    full_batch,
    generate_synthetic,
    grad,
    load_idx,
    loss,
    _sigmoid,
    max_relative_grad_error,
    sample_batch,
)

LINEAR = ModelSpec("linear-regression", 4)
LOGISTIC = ModelSpec("logistic-regression", 4, num_classes=2)
SOFTMAX = ModelSpec("logistic-regression", 4, num_classes=3)
MLP = ModelSpec("mlp", 4, hidden_dim=5, num_classes=3)


def small_dataset(spec: ModelSpec, n=12, seed=0) -> Dataset:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.input_dim))
    if spec.kind == "linear-regression":
        labels = rng.standard_normal(n)
    else:
        labels = rng.integers(0, spec.num_classes, size=n)
    return Dataset(x, labels)


# -- independent per-sample oracles (plain python loops) ------------------------


def naive_loss(spec: ModelSpec, params, data, batch):
    """Per-sample reimplementation with scalar loops, no shared code paths."""
    params = np.asarray(params, dtype=float)
    total = 0.0
    for idx in batch.indices:
        x = data.features[idx]
        y = data.labels[idx]
        if spec.kind == "linear-regression":
            pred = sum(float(params[j]) * float(x[j]) for j in range(spec.input_dim))
            pred += float(params[spec.input_dim])
            total += (pred - float(y)) ** 2
        elif spec.kind == "logistic-regression" and spec.num_classes == 2:
            z = sum(float(params[j]) * float(x[j]) for j in range(spec.input_dim))
            z += float(params[spec.input_dim])
            p = 1.0 / (1.0 + math.exp(-z))
            total += -(float(y) * math.log(p) + (1.0 - float(y)) * math.log(1.0 - p))
        else:
            logits = _naive_logits(spec, params, x)
            exps = [math.exp(z) for z in logits]
            total += -math.log(exps[int(y)] / sum(exps))
    return total / batch.n


def _naive_logits(spec, params, x):
    d = spec.input_dim
    if spec.kind == "logistic-regression":
        c = spec.num_classes
        logits = []
        for k in range(c):
            z = sum(float(params[k * d + j]) * float(x[j]) for j in range(d))
            logits.append(z + float(params[c * d + k]))
        return logits
    h, c = spec.hidden_dim, spec.num_classes
    hidden = []
    for i in range(h):
        z = sum(float(params[i * d + j]) * float(x[j]) for j in range(d))
        hidden.append(math.tanh(z + float(params[h * d + i])))
    off = h * d + h
    logits = []
    for k in range(c):
        z = sum(float(params[off + k * h + i]) * hidden[i] for i in range(h))
        logits.append(z + float(params[off + c * h + k]))
    return logits


# -- loss ------------------------------------------------------------------------


class TestLoss:
    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, SOFTMAX, MLP], ids=str)
    def test_matches_naive_per_sample_oracle(self, spec):
        data = small_dataset(spec)
        rng = np.random.default_rng(7)
        params = 0.5 * rng.standard_normal(spec.param_dim)
        batch = Batch(np.array([0, 3, 7]))
        assert loss(spec, params, data, batch) == pytest.approx(
            naive_loss(spec, params, data, batch), rel=1e-10
        )

    def test_linear_perfect_fit_is_zero(self):
        stream = RngStream(11)
        data, true_params = generate_synthetic(stream, "linear-regression", 6, 40, 0.0)
        spec = ModelSpec("linear-regression", 6)
        assert loss(spec, true_params, data, full_batch(data)) == 0.0

    def test_logistic_zero_params_balanced_is_log2(self):
        x = np.random.default_rng(5).standard_normal((10, 4))
        data = Dataset(x, np.array([0, 1] * 5))
        value = loss(LOGISTIC, np.zeros(LOGISTIC.param_dim), data, full_batch(data))
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, SOFTMAX, MLP], ids=str)
    def test_non_negative(self, spec):
        data = small_dataset(spec)
        rng = np.random.default_rng(8)
        for _ in range(10):
            params = 3.0 * rng.standard_normal(spec.param_dim)
            assert loss(spec, params, data, full_batch(data)) >= 0.0

    def test_dimension_mismatch_rejected(self):
        data = small_dataset(LINEAR)
        with pytest.raises(ValueError, match="params length"):
            loss(LINEAR, np.zeros(3), data, full_batch(data))

    def test_out_of_range_label_rejected(self):
        data = Dataset(np.zeros((2, 4)), np.array([0, 5]))
        with pytest.raises(ValueError, match="out of range"):
            loss(LOGISTIC, np.zeros(LOGISTIC.param_dim), data, full_batch(data))

    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, MLP], ids=str)
    def test_out_of_range_batch_index_rejected(self, spec):
        data = small_dataset(spec)
        batch = Batch(np.array([0, data.n_samples, 3]))
        for fn in (loss, grad):
            with pytest.raises(ValueError, match="batch index 12 out of range for 12 samples"):
                fn(spec, np.zeros(spec.param_dim), data, batch)


# -- sigmoid -----------------------------------------------------------------------

# both sides of exp's overflow (709.78) and underflow (745.13), and the
# arguments above 709 where glibc's complex exp rescales in two roundings
SIGMOID_EDGES = [0.0, -0.0, 1.0, -1.0, 36.7, -36.7, 709.0, -709.0, 709.09, -709.09, 709.1,
                 -709.1, 709.78, -709.78, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0,
                 1e308, -1e308, 5e-324, -5e-324, math.inf, -math.inf, math.nan]

SIGMOID_INPUTS = hnp.arrays(
    np.float64, st.integers(0, 40),
    elements=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SIGMOID_EDGES)
    | st.floats(-709.9, -708.9),
)


def assert_same_bits(actual, expected):
    """Equal bit patterns, except that any NaN matches any NaN."""
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.uint64), expected[~nan].view(np.uint64))


class TestSigmoid:
    """``_sigmoid`` is the scipy-free stand-in for ``scipy.special.expit``; the
    recorded metrics.csv hashes rest on the two agreeing to the last bit."""

    def test_matches_expit_on_edges(self):
        edges = np.array(SIGMOID_EDGES)
        band = -np.linspace(708.9, 709.9, 20001)
        for z in [edges, band, -band, *(edges[i:i + 1] for i in range(edges.size))]:
            assert_same_bits(_sigmoid(z), expit(z))

    def test_matches_expit_on_samples(self):
        rng = np.random.default_rng(3)
        for scale in (1.0, 10.0, 300.0):
            z = scale * rng.standard_normal(20_000)
            assert_same_bits(_sigmoid(z), expit(z))

    @settings(max_examples=300, deadline=None)
    @given(SIGMOID_INPUTS)
    def test_matches_expit_bit_for_bit(self, z):
        assert_same_bits(_sigmoid(z), expit(z))

    @settings(max_examples=300, deadline=None)
    @given(SIGMOID_INPUTS)
    def test_emits_no_warning(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _sigmoid(z)

    def test_keeps_shape(self):
        z = np.array([[0.0, 800.0], [-800.0, math.nan]])
        out = _sigmoid(z)
        assert out.shape == (2, 2)
        assert_same_bits(out, expit(z))
        assert _sigmoid(np.array([])).shape == (0,)


# -- gradients ---------------------------------------------------------------------


class TestGrad:
    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, SOFTMAX, MLP], ids=str)
    def test_matches_finite_differences(self, spec):
        data = small_dataset(spec)
        rng = np.random.default_rng(9)
        batch = Batch(rng.integers(0, data.n_samples, size=6))
        for _ in range(5):
            params = rng.standard_normal(spec.param_dim)
            assert max_relative_grad_error(spec, params, data, batch) < 1e-5

    def test_zero_at_perfect_fit(self):
        stream = RngStream(12)
        data, true_params = generate_synthetic(stream, "linear-regression", 5, 30, 0.0)
        spec = ModelSpec("linear-regression", 5)
        g = grad(spec, true_params, data, full_batch(data))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, MLP], ids=str)
    def test_full_gradient_is_mean_of_per_sample(self, spec):
        data = small_dataset(spec)
        params = 0.3 * np.random.default_rng(10).standard_normal(spec.param_dim)
        full = grad(spec, params, data, full_batch(data))
        per_sample = [
            grad(spec, params, data, Batch(np.array([i]))) for i in range(data.n_samples)
        ]
        mean = np.mean(per_sample, axis=0)
        scale = max(np.abs(full).max(), 1e-12)
        assert np.abs(full - mean).max() / scale < 1e-12

    def test_finite_difference_oracle_on_known_quadratic(self):
        # sanity-check the yardstick itself: linear model, 1 sample, known grad
        data = Dataset(np.array([[2.0]]), np.array([1.0]))
        spec = ModelSpec("linear-regression", 1)
        params = np.array([3.0, 0.5])  # residual = 2*3 + 0.5 - 1 = 5.5
        fd = finite_difference_grad(spec, params, data, full_batch(data))
        np.testing.assert_allclose(fd, [2 * 5.5 * 2.0, 2 * 5.5], rtol=1e-7)


# -- batches -------------------------------------------------------------------------


class TestSampleBatch:
    def test_single_sample_dataset(self):
        for _ in range(5):
            batch = sample_batch(RngStream(1, 2), 1, 1)
            assert batch.indices.tolist() == [0]

    def test_deterministic_sequence(self):
        a_stream, b_stream = RngStream(42, 7), RngStream(42, 7)
        a = [sample_batch(a_stream, 100, 8).indices for _ in range(10)]
        b = [sample_batch(b_stream, 100, 8).indices for _ in range(10)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        # consecutive draws from one stream differ
        assert not np.array_equal(a[0], a[1])

    def test_uniform_within_3_sigma(self):
        n_data, draws = 20, 100_000
        idx = sample_batch(RngStream(2024, 0), n_data, draws).indices
        counts = np.bincount(idx, minlength=n_data)
        expected = draws / n_data
        sigma = math.sqrt(draws * (1 / n_data) * (1 - 1 / n_data))
        assert np.abs(counts - expected).max() <= 3 * sigma

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            sample_batch(RngStream(0), 10, 0)


# -- accuracy -------------------------------------------------------------------------


class TestAccuracy:
    def test_perfect_predictor(self):
        x = np.array([[1.0, 0, 0, 0], [-1.0, 0, 0, 0]] * 3)
        data = Dataset(x, np.array([1, 0] * 3))
        params = np.zeros(LOGISTIC.param_dim)
        params[0] = 5.0
        assert accuracy(LOGISTIC, params, data) == 1.0

    def test_zero_params_tie_predicts_class_one(self):
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        data = Dataset(np.random.default_rng(3).standard_normal((10, 4)), labels)
        assert accuracy(LOGISTIC, np.zeros(LOGISTIC.param_dim), data) == 0.3

    def test_hand_count_five_samples(self):
        x = np.array([[1.0, 0, 0, 0],
                      [2.0, 0, 0, 0],
                      [-1.0, 0, 0, 0],
                      [-2.0, 0, 0, 0],
                      [3.0, 0, 0, 0]])
        data = Dataset(x, np.array([1, 0, 0, 1, 1]))
        params = np.zeros(LOGISTIC.param_dim)
        params[0] = 1.0  # predicts 1,1,0,0,1 -> correct on samples 0,2,4
        assert accuracy(LOGISTIC, params, data) == pytest.approx(3 / 5)

    def test_regression_rejected(self):
        data = small_dataset(LINEAR)
        with pytest.raises(ValueError, match="classification"):
            accuracy(LINEAR, np.zeros(LINEAR.param_dim), data)


# -- synthetic data --------------------------------------------------------------------


class TestGenerateSynthetic:
    def test_bit_identical_under_same_seed(self):
        a, wa = generate_synthetic(RngStream(99, 1), "logistic-regression", 5, 50)
        b, wb = generate_synthetic(RngStream(99, 1), "logistic-regression", 5, 50)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(wa, wb)

    def test_logistic_labels_track_sigmoid(self):
        data, params = generate_synthetic(RngStream(400, 2), "logistic-regression", 8, 100_000)
        margins = data.features @ params[:-1]
        probs = expit(margins)
        edges = np.quantile(probs, np.linspace(0, 1, 11))
        for lo, hi in zip(edges[:-1], edges[1:]):
            in_bin = (probs >= lo) & (probs < hi)
            n = int(in_bin.sum())
            if n < 100:
                continue
            observed = data.labels[in_bin].mean()
            expected = probs[in_bin].mean()
            se = math.sqrt(max(expected * (1 - expected), 1e-6) / n)
            assert abs(observed - expected) <= 4 * se

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="linear/logistic"):
            generate_synthetic(RngStream(0), "mlp", 4, 10)


# -- IDX reader --------------------------------------------------------------------------


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x00000803, label_magic=0x00000801,
                   truncate_images=0):
    pixels = np.asarray(pixels, dtype=np.uint8)
    count, rows, cols = pixels.shape
    images = struct.pack(">IIII", image_magic, count, rows, cols) + pixels.tobytes()
    if truncate_images:
        images = images[:-truncate_images]
    labels = np.asarray(labels, dtype=np.uint8)
    labels_blob = struct.pack(">II", label_magic, labels.size) + labels.tobytes()
    images_path = tmp_path / "images.idx"
    labels_path = tmp_path / "labels.idx"
    images_path.write_bytes(images)
    labels_path.write_bytes(labels_blob)
    return images_path, labels_path


class TestLoadIdx:
    def test_two_image_fixture_scaling(self, tmp_path):
        pixels = np.array([[[0, 255], [255, 0]], [[255, 255], [0, 0]]])
        images_path, labels_path = write_idx_pair(tmp_path, pixels, [3, 7])
        data = load_idx(images_path, labels_path)
        assert data.features.shape == (2, 4)
        np.testing.assert_array_equal(data.features, [[0.0, 1.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(data.labels, [3, 7])

    def test_wrong_image_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], image_magic=0x00000777)
        with pytest.raises(BadMagicError):
            load_idx(*paths)

    def test_wrong_label_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], label_magic=0x00000777)
        with pytest.raises(BadMagicError):
            load_idx(*paths)

    def test_truncated_pixels(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], truncate_images=3)
        with pytest.raises(TruncatedIdxError):
            load_idx(*paths)

    def test_count_mismatch(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1, 1])
        with pytest.raises(CountMismatchError):
            load_idx(*paths)

    def test_zero_images_rejected(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((0, 3, 3)), [])
        with pytest.raises(IdxFormatError, match="0 images"):
            load_idx(*paths)


# -- spec validation -----------------------------------------------------------------------


class TestModelSpec:
    def test_param_dims(self):
        assert LINEAR.param_dim == 5
        assert LOGISTIC.param_dim == 5
        assert SOFTMAX.param_dim == 15
        assert MLP.param_dim == 5 * 5 + 3 * 6

    def test_mlp_default_hidden(self):
        spec = ModelSpec("mlp", 10, num_classes=4)
        assert spec.hidden_dim == 32

    def test_invalid_combinations(self):
        with pytest.raises(ValueError):
            ModelSpec("linear-regression", 4, num_classes=2)
        with pytest.raises(ValueError):
            ModelSpec("logistic-regression", 4)
        with pytest.raises(ValueError):
            ModelSpec("logistic-regression", 4, num_classes=2, hidden_dim=8)


class TestInitialParams:
    def test_flat_models_start_at_zero(self):
        from signvote.models import initial_params

        np.testing.assert_array_equal(initial_params(LINEAR), np.zeros(LINEAR.param_dim))
        np.testing.assert_array_equal(initial_params(LOGISTIC), np.zeros(LOGISTIC.param_dim))

    def test_mlp_breaks_symmetry_and_is_seeded(self):
        from signvote.models import initial_params

        a = initial_params(MLP, RngStream(5, 1))
        b = initial_params(MLP, RngStream(5, 1))
        np.testing.assert_array_equal(a, b)
        assert np.abs(a).max() > 0.0
        # biases stay zero: positions [h*d : h*d+h] and the trailing c entries
        d, h, c = MLP.input_dim, MLP.hidden_dim, MLP.num_classes
        np.testing.assert_array_equal(a[h * d: h * d + h], np.zeros(h))
        np.testing.assert_array_equal(a[-c:], np.zeros(c))

    def test_mlp_requires_stream(self):
        from signvote.models import initial_params

        with pytest.raises(ValueError, match="RngStream"):
            initial_params(MLP)

    def test_zero_init_would_freeze_mlp_weights(self):
        # documents why the network cannot start at zero: every weight
        # gradient vanishes identically there (only output biases move)
        data = small_dataset(MLP)
        g = grad(MLP, np.zeros(MLP.param_dim), data, full_batch(data))
        d, h, c = MLP.input_dim, MLP.hidden_dim, MLP.num_classes
        np.testing.assert_array_equal(g[: h * d + h], 0.0)          # W1, b1
        np.testing.assert_array_equal(g[h * d + h: -c], 0.0)        # W2
        assert np.abs(g[-c:]).max() > 0.0                            # b2 only
