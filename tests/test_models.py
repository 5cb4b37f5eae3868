import hashlib
import io
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit

from signvote import models
from signvote.core import RngStream
from signvote.models import (
    IdxFormatError,
    Dataset,
    ModelSpec,
    _batch_rows,
    accuracy,
    evaluate,
    finite_difference_grad,
    full_batch,
    generate_synthetic,
    grad,
    initial_params,
    load_idx,
    loss,
    _sigmoid,
    max_relative_grad_error,
    sample_batch,
    sample_batches,
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
    for idx in batch:
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
    return total / len(batch)


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
        batch = np.array([0, 3, 7])
        assert loss(spec, params, data, batch) == pytest.approx(
            naive_loss(spec, params, data, batch), rel=1e-10
        )

    def test_linear_perfect_fit_is_zero(self):
        stream = RngStream(11)
        data, true_params = generate_synthetic(stream, "linear-regression", 6, 40)
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

    @pytest.mark.parametrize("batch", [[0, 1, 2], [3], [2, 2], [0, 1, 2, 3]])
    def test_bad_label_rejected_whichever_rows_a_batch_draws(self, batch):
        # the dataset's labels are checked, not the batch's: a batch that avoids
        # the bad row fails as one that holds it
        spec = ModelSpec("logistic-regression", 3, num_classes=2)
        data = Dataset(np.ones((4, 3)), np.array([0, 1, 1, 5]))
        for fn in (loss, grad):
            with pytest.raises(ValueError, match="label 5 out of range for 2 classes"):
                fn(spec, np.zeros(spec.param_dim), data, np.array(batch))

    def test_max_label_recorded_once(self):
        assert Dataset(np.ones((4, 3)), np.array([0, 1, 1, 5])).max_label == 5
        assert Dataset(np.ones((2, 3)), np.array([True, False])).max_label == 1
        assert Dataset(np.ones((2, 3)), np.array([0.5, 7.0])).max_label is None
        data = Dataset(np.ones((2, 4)), np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="needs integer class labels"):
            grad(LOGISTIC, np.zeros(LOGISTIC.param_dim), data, np.array([0]))

    @pytest.mark.parametrize("features, labels, message", [
        (np.ones(4), np.array([0]), r"features must be 2-D, got shape \(4,\)"),
        (np.ones((2, 3)), np.array([0, -1]), "class labels must be non-negative"),
        (np.ones((2, 3)), np.array([0, 1, 1]), r"label count \(3,\) does not match 2"),
        (np.ones((0, 3)), np.array([], dtype=int), "dataset needs at least one sample"),
    ])
    def test_malformed_dataset_rejected(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features, labels)

    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, MLP], ids=str)
    def test_out_of_range_batch_index_rejected(self, spec):
        data = small_dataset(spec)
        batch = np.array([0, data.n_samples, 3])
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
    actual, expected = np.atleast_1d(actual), np.atleast_1d(expected)
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
        batch = rng.integers(0, data.n_samples, size=6)
        for _ in range(5):
            params = rng.standard_normal(spec.param_dim)
            assert max_relative_grad_error(spec, params, data, batch) < 1e-5

    def test_zero_at_perfect_fit(self):
        stream = RngStream(12)
        data, true_params = generate_synthetic(stream, "linear-regression", 5, 30)
        spec = ModelSpec("linear-regression", 5)
        g = grad(spec, true_params, data, full_batch(data))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, MLP], ids=str)
    def test_full_gradient_is_mean_of_per_sample(self, spec):
        data = small_dataset(spec)
        params = 0.3 * np.random.default_rng(10).standard_normal(spec.param_dim)
        full = grad(spec, params, data, full_batch(data))
        per_sample = [
            grad(spec, params, data, np.array([i])) for i in range(data.n_samples)
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
            assert batch.tolist() == [0]

    def test_deterministic_sequence(self):
        a_stream, b_stream = RngStream(42, 7), RngStream(42, 7)
        a = [sample_batch(a_stream, 100, 8) for _ in range(10)]
        b = [sample_batch(b_stream, 100, 8) for _ in range(10)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        # consecutive draws from one stream differ
        assert not np.array_equal(a[0], a[1])

    def test_uniform_within_3_sigma(self):
        n_data, draws = 20, 100_000
        idx = sample_batch(RngStream(2024, 0), n_data, draws)
        counts = np.bincount(idx, minlength=n_data)
        expected = draws / n_data
        sigma = math.sqrt(draws * (1 / n_data) * (1 - 1 / n_data))
        assert np.abs(counts - expected).max() <= 3 * sigma

    @pytest.mark.parametrize("n_data, n, message", [(10, 0, "batch size must be >= 1"),
                                                    (0, 4, "n_data must be >= 1")])
    def test_zero_size_rejected(self, n_data, n, message):
        with pytest.raises(ValueError, match=message):
            sample_batch(RngStream(0), n_data, n)


class TestSampleBatches:
    """One (count, n) draw is ``count`` successive ``sample_batch`` draws."""

    @pytest.mark.parametrize("pre_advance", [0, 1, 3])
    @pytest.mark.parametrize("n_data", [1, 2, 3, 2000, 4000, 2**31 + 11, 2**40 + 3])
    def test_rows_equal_successive_draws(self, n_data, pre_advance):
        for stream_id, n in enumerate((1, 2, 3, 8, 15, 16, 32, 128, 512)):
            chunked, single = RngStream(11, stream_id), RngStream(11, stream_id)
            for stream in (chunked, single):
                # single 32-bit draws, so an odd pre-advance leaves Philox a spare half
                stream.generator.integers(0, 7, size=pre_advance)
            rows = sample_batches(chunked, n_data, n, 5)
            assert rows.shape == (5, n) and rows.dtype == np.int64
            for row in rows:
                np.testing.assert_array_equal(row, sample_batch(single, n_data, n))
            np.testing.assert_array_equal(sample_batch(chunked, n_data, n),
                                          sample_batch(single, n_data, n))
            assert chunked.generator.integers(0, 7) == single.generator.integers(0, 7)

    @pytest.mark.parametrize("args, message", [
        ((10, 0, 3), "batch size must be >= 1"),
        ((0, 4, 3), "n_data must be >= 1"),
        ((10, 4, 0), "count must be >= 1"),
        ((10, 4, -2), "count must be >= 1"),
    ])
    def test_sizes_below_one_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            sample_batches(RngStream(0), *args)


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

    @pytest.mark.parametrize("spec", [LOGISTIC, SOFTMAX, MLP], ids=str)
    def test_input_width_mismatch_rejected(self, spec):
        # 3 features against a 4-input model, as loss and grad already report it
        data = Dataset(np.zeros((5, 3)), np.array([0, 1, 0, 1, 1]))
        with pytest.raises(ValueError, match="dataset input_dim 3 != spec input_dim 4"):
            accuracy(spec, np.zeros(spec.param_dim), data)


# -- recorded bytes ---------------------------------------------------------------------

# sha256 of the float64 bytes of loss, grad and accuracy for each model family, at
# seeded params on a fixed batch with a repeated index; recorded before the three
# functions shared one forward pass, so any bit change on any family shows here
MODEL_BYTE_ANCHORS = {
    ("linear", "loss"):
        "05cb4ebd7ce3b656b41bd4bb5780f735d22e0e3bc633ff5c33747d87c5592af9",
    ("linear", "grad"):
        "5b09989833d4667abba6709b6a14325fe5852afd117aed05c7853b226f1acbba",
    ("logistic", "loss"):
        "6ac9c16469f6a2329cde2dcd3d4ab45498cb513be36822ce77870b660e512fc6",
    ("logistic", "grad"):
        "8ee76c4dbcce6b701acce8bbfdb22540d8fc4b58a9e98263a3acad2cb257b6b8",
    ("logistic", "accuracy"):
        "4cfa5b42ca669328764e67cd9a34bb8f90b16ed7ca8d85e8443783d7ccce15ed",
    ("softmax", "loss"):
        "768233797d7aed690b881e605c4fdd4d7c9863489cbf5327089a573402e250e2",
    ("softmax", "grad"):
        "4c02067e09e9da3ec83da356e8736cbb9417f0e90f75faf432d060dbe41c44d1",
    ("softmax", "accuracy"):
        "4cfa5b42ca669328764e67cd9a34bb8f90b16ed7ca8d85e8443783d7ccce15ed",
    ("mlp", "loss"):
        "e4c8e4e703742341b4ee6a91ca11304848923cb49f94c1274afab8614ca9b295",
    ("mlp", "grad"):
        "d24d4157ff1be5f64f81f23c71e29083e8cfd4cf49209599dcf862af4c410ca7",
    ("mlp", "accuracy"):
        "471d68e057e29dd01128278225e48c43c1099672cd5a7efe4a596b997c2c50e3",
}
BYTE_SPECS = {"linear": LINEAR, "logistic": LOGISTIC, "softmax": SOFTMAX, "mlp": MLP}


# the same for loss and grad on the whole dataset in order, recorded while a full
# batch was still gathered into a copy, so reading it in place keeps every bit
FULL_BATCH_BYTE_ANCHORS = {
    ("linear", "loss"):
        "ff59b88f6ab296ba16e339364faef1e3b2e9774d3543576eefd9f27bc15f18bf",
    ("linear", "grad"):
        "c9ce0a343c9c51114f993600d2123c2674e54050a47f9b2cee19a165e79b432a",
    ("logistic", "loss"):
        "3ab75d3a3edb13f5ad0f9f99f83ff7c86d0ace337c30564cf9863fe1516f64b3",
    ("logistic", "grad"):
        "344286e5805d669d6a5cf5848949eb8158076c21cfb6acc5191c8012ef6a08bd",
    ("softmax", "loss"):
        "1144f31f85e06b2a123fdbb43e70db7480f3c6496462d2ab5bc0127e473b1448",
    ("softmax", "grad"):
        "152925491f983c5be3485c2d1d488e442f9f56fcb7c9f9b704c6c16107d274a8",
    ("mlp", "loss"):
        "561f90ed42ff52aa187239be157e200e9255857aadac585fe7920e6fb06d390d",
    ("mlp", "grad"):
        "ed6c365d0845789ad44daabbffd934af882904898d1ad88b17e2126972b01855",
}


# full-batch MLP gradients at h = 32 whose backward pass takes several row blocks:
# n = 1,300 ends in a 276-row block, n = 1,025 in a one-row tail that must join the
# block before it; recorded while the backward product was still one matmul
ROW_BLOCK_BYTE_ANCHORS = {
    1300: "de3f1ee323abbb7a95a743c5d53b81991f79f6d40e560675718d66adb9a86c39",
    1025: "6097f905577a0ebb9c5657a5986116d35b2b4ecadebfe2481b91f72897aa84d3",
}


def byte_inputs(spec: ModelSpec):
    data = small_dataset(spec, n=40, seed=21)
    return spec, data, 1.5 * np.random.default_rng(22).standard_normal(spec.param_dim)


def model_outputs(spec: ModelSpec) -> dict:
    spec, data, params = byte_inputs(spec)
    batch = np.array([0, 5, 5, 17, 39, 2, 28])
    out = {"loss": loss(spec, params, data, batch), "grad": grad(spec, params, data, batch)}
    if spec.is_classification:
        out["accuracy"] = accuracy(spec, params, data)
    return out


class TestRecordedBytes:
    @pytest.mark.parametrize("name,fn", list(MODEL_BYTE_ANCHORS))
    def test_output_bytes(self, name, fn):
        value = np.asarray(model_outputs(BYTE_SPECS[name])[fn])
        assert value.dtype == np.float64
        assert hashlib.sha256(value.tobytes()).hexdigest() == MODEL_BYTE_ANCHORS[name, fn]

    @pytest.mark.parametrize("name,fn", list(FULL_BATCH_BYTE_ANCHORS))
    def test_full_batch_bytes(self, name, fn):
        spec, data, params = byte_inputs(BYTE_SPECS[name])
        value = np.asarray({"loss": loss, "grad": grad}[fn](spec, params, data, full_batch(data)))
        assert value.dtype == np.float64
        assert hashlib.sha256(value.tobytes()).hexdigest() == FULL_BATCH_BYTE_ANCHORS[name, fn]

    @pytest.mark.parametrize("n", list(ROW_BLOCK_BYTE_ANCHORS))
    def test_row_block_bytes(self, n):
        spec = ModelSpec("mlp", 4, hidden_dim=32, num_classes=3)
        rng = np.random.default_rng(23)
        x, labels = rng.standard_normal((n, 4)), rng.integers(0, 3, size=n)
        # the last row's features dominate dw1, so one changed bit in its backward
        # product shows in the hash instead of rounding away in the sum over rows
        x[:-1] *= 0.01
        data = Dataset(x, labels)
        params = 0.5 * np.random.default_rng(24).standard_normal(spec.param_dim)
        value = grad(spec, params, data, full_batch(data))
        assert hashlib.sha256(value.tobytes()).hexdigest() == ROW_BLOCK_BYTE_ANCHORS[n]


class TestEvaluate:
    @pytest.mark.parametrize("name", list(BYTE_SPECS))
    def test_same_bits_as_loss_and_accuracy(self, name):
        spec, data, params = byte_inputs(BYTE_SPECS[name])
        value, acc = evaluate(spec, params, data)
        assert_same_bits(value, loss(spec, params, data, full_batch(data)))
        if spec.is_classification:
            assert_same_bits(acc, accuracy(spec, params, data))
        else:
            assert math.isnan(acc)

    def test_returns_python_floats(self):
        spec, data, params = byte_inputs(MLP)
        assert all(type(v) is float for v in evaluate(spec, params, data))

    def test_checks_params_width_and_labels(self):
        data = small_dataset(LOGISTIC)
        with pytest.raises(ValueError, match="params length"):
            evaluate(LOGISTIC, np.zeros(3), data)
        with pytest.raises(ValueError, match="dataset input_dim 3 != spec input_dim 4"):
            evaluate(LOGISTIC, np.zeros(5), Dataset(np.zeros((5, 3)), np.zeros(5, dtype=int)))
        with pytest.raises(ValueError, match="out of range"):
            evaluate(LOGISTIC, np.zeros(5), Dataset(np.zeros((2, 4)), np.array([0, 5])))


# -- full batches are read in place ------------------------------------------------------


class TestFullBatchInPlace:
    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, MLP], ids=str)
    def test_identity_batch_reads_the_dataset_itself(self, spec):
        data = small_dataset(spec)
        x, y = _batch_rows(spec, data, full_batch(data))
        assert x is data.features and y is data.labels

    @pytest.mark.parametrize("spec", [LINEAR, SOFTMAX, MLP], ids=str)
    @pytest.mark.parametrize("order", ["permutation", "reversed", "repeated"])
    def test_other_size_n_batches_gather(self, spec, order):
        data = small_dataset(spec)
        n = data.n_samples
        idx = {"permutation": np.random.default_rng(4).permutation(n),
               "reversed": np.arange(n)[::-1],
               "repeated": np.r_[0, 0, np.arange(2, n)]}[order]
        x, y = _batch_rows(spec, data, idx)
        assert not np.shares_memory(x, data.features)
        np.testing.assert_array_equal(x, data.features.take(idx, axis=0))
        gathered = Dataset(data.features.take(idx, axis=0), data.labels.take(idx))
        params = 0.7 * np.random.default_rng(6).standard_normal(spec.param_dim)
        for fn in (loss, grad):
            assert_same_bits(fn(spec, params, data, idx),
                             fn(spec, params, gathered, full_batch(gathered)))

    @pytest.mark.parametrize("spec", [LINEAR, LOGISTIC, MLP], ids=str)
    def test_size_n_batch_checks_kept(self, spec):
        data = small_dataset(spec)
        n, params = data.n_samples, np.zeros(spec.param_dim)
        for fn in (loss, grad):
            with pytest.raises(ValueError, match="batch index 12 out of range for 12 samples"):
                fn(spec, params, data, np.r_[np.arange(n - 1), n])
            with pytest.raises(ValueError, match="non-negative"):
                fn(spec, params, data, np.arange(n) - 1)
            for bad in (np.arange(n, dtype=np.float64), np.arange(n).reshape(1, n)):
                with pytest.raises(ValueError, match="1-D int indices"):
                    fn(spec, params, data, bad)


def mnist_shaped(n=2000, seed=30):
    rng = np.random.default_rng(seed)
    pixels = rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8)
    return pixels, rng.integers(0, 10, size=n, dtype=np.uint8)


def traced_peak(fn) -> int:
    """Peak bytes numpy and Python allocate during one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestNoDatasetCopy:
    SPEC = ModelSpec("mlp", 784, hidden_dim=32, num_classes=10)

    def test_full_batch_grad_and_evaluate_copy_no_features(self):
        pixels, labels = mnist_shaped()
        data = Dataset(pixels.reshape(len(pixels), -1) / 255.0, labels)
        params = initial_params(self.SPEC, RngStream(31))
        whole = full_batch(data)
        for call in (lambda: grad(self.SPEC, params, data, whole),
                     lambda: evaluate(self.SPEC, params, data)):
            call()  # warm up any one-time allocation
            assert traced_peak(call) < data.features.nbytes / 2

    def test_load_idx_scales_in_place(self, tmp_path):
        pixels, labels = mnist_shaped()
        images_path, labels_path = write_idx_pair(tmp_path, pixels, labels)
        holder = []
        peak = traced_peak(lambda: holder.append(load_idx(images_path, labels_path)))
        assert peak < 2 * 8 * pixels.size
        np.testing.assert_array_equal(holder[0].features,
                                      pixels.reshape(len(pixels), -1).astype(np.float64) / 255.0)


class TestInPlacePasses:
    """A full-batch MLP pass keeps few n x hidden temporaries live at once.

    Building each layer in one buffer and overwriting it, with the backward
    product formed in row blocks inside the hidden layer's buffer, peaks at
    1.6 n h float64s in ``grad`` and 1.4 in ``evaluate`` at n = 4000, h = 32;
    a full-size backward product in its own array takes ``grad`` to 2.7, and
    the passes out of place take 4.9 and 2.1.
    """

    N, H = 4000, 32

    def test_full_batch_peaks(self):
        spec = ModelSpec("mlp", 784, hidden_dim=self.H, num_classes=10)
        pixels, labels = mnist_shaped(self.N, seed=32)
        data = Dataset(pixels.reshape(self.N, -1) / 255.0, labels)
        params = initial_params(spec, RngStream(33))
        whole = full_batch(data)
        layer = self.N * self.H * 8
        for call, bound in ((lambda: grad(spec, params, data, whole), 2.0),
                            (lambda: evaluate(spec, params, data), 1.75)):
            call()  # warm up any one-time allocation
            assert traced_peak(call) < bound * layer


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

    @pytest.mark.parametrize("kind, n_samples, message", [
        ("mlp", 10, "linear/logistic"),
        ("linear-regression", 0, "n_samples must be >= 1"),
    ])
    def test_unknown_kind_rejected(self, kind, n_samples, message):
        with pytest.raises(ValueError, match=message):
            generate_synthetic(RngStream(0), kind, 4, n_samples)


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
        with pytest.raises(IdxFormatError, match="magic 0x00000777, expected 0x00000803"):
            load_idx(*paths)

    def test_wrong_label_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], label_magic=0x00000777)
        with pytest.raises(IdxFormatError, match="magic 0x00000777, expected 0x00000801"):
            load_idx(*paths)

    def test_truncated_pixels(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1], truncate_images=3)
        with pytest.raises(IdxFormatError, match="truncated while reading pixel data"):
            load_idx(*paths)

    def test_header_declaring_more_than_the_file(self, tmp_path, monkeypatch):
        """A count of 2^32 - 1 images over a one-image file is a truncation, and
        the reader never asks for the declared 3.4 TB."""
        paths = write_idx_pair(tmp_path, np.zeros((1, 28, 28)), [0])
        blob = paths[0].read_bytes()
        paths[0].write_bytes(blob[:4] + struct.pack(">I", 0xFFFFFFFF) + blob[8:])
        requested = []

        class Recording(io.BufferedReader):
            def read(self, size=-1):
                requested.append(size)
                return super().read(size)

        monkeypatch.setattr(models, "open", lambda path, mode: Recording(io.FileIO(path)),
                            raising=False)
        declared = 0xFFFFFFFF * 28 * 28
        with pytest.raises(IdxFormatError) as exc:
            load_idx(*paths)
        assert str(exc.value) == (f"{paths[0]}: truncated while reading pixel data "
                                  f"(wanted {declared} bytes, got 784)")
        assert requested == [16, 784]

    def test_count_mismatch(self, tmp_path):
        paths = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1, 1])
        with pytest.raises(IdxFormatError, match="image count 2 != label count 3"):
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

    @pytest.mark.parametrize("args, kw, message", [
        (("linear-regression", 4), {"num_classes": 2}, "linear-regression takes no num_classes"),
        (("logistic-regression", 4), {}, "logistic-regression needs num_classes >= 2"),
        (("logistic-regression", 4), {"num_classes": 2, "hidden_dim": 8},
         "logistic-regression takes no hidden_dim"),
        (("cnn", 4), {"num_classes": 2}, "unknown model kind 'cnn'"),
        (("logistic-regression", 0), {"num_classes": 2}, "input_dim must be >= 1"),
        (("mlp", 4), {"num_classes": 3, "hidden_dim": 0}, "hidden_dim must be >= 1"),
    ])
    def test_invalid_combinations(self, args, kw, message):
        with pytest.raises(ValueError, match=message):
            ModelSpec(*args, **kw)

    @pytest.mark.parametrize("field", ["input_dim", "hidden_dim", "num_classes"])
    def test_integer_fields_reject_floats(self, field):
        kw = {"kind": "mlp", "input_dim": 4, "hidden_dim": 5, "num_classes": 3}
        assert ModelSpec(**{**kw, field: np.int64(kw[field])}) == ModelSpec(**kw)
        with pytest.raises(TypeError):
            ModelSpec(**{**kw, field: float(kw[field])})
        with pytest.raises(TypeError):
            ModelSpec(**{**kw, field: True})


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
