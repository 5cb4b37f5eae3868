import dataclasses
import json
import math

import numpy as np
import pytest

from signvote.core import NonFiniteError, RngStream
from signvote.models import ModelSpec
from signvote.optimizers import OptimizerConfig, Schedule
from signvote.simulation import (
    AdversaryConfig,
    DivergedError,
    ExperimentConfig,
    SyntheticData,
    byzantine_count,
    config_from_mapping,
    config_to_mapping,
    load_data,
    run_experiment,
    run_sweep,
    sweep_configs,
    write_json,
    write_metrics_csv,
    write_summary_json,
)


def make_config(rule="signsgd", eta=0.05, beta=0.0, strategy="none", alpha=0.0,
                workers=5, rounds=40, seed=123, kind="logistic-regression",
                input_dim=6, samples=200, batch_size=8, schedule=None, **kw):
    if kind == "logistic-regression":
        model = ModelSpec(kind, input_dim, num_classes=2)
    else:
        model = ModelSpec(kind, input_dim)
    opt_kw = {"schedule": schedule} if schedule is not None else {}
    return ExperimentConfig(
        model=model,
        data=SyntheticData(kind=kind, n_samples=samples),
        optimizer=OptimizerConfig(rule, eta, beta=beta, batch_size=batch_size, **opt_kw),
        n_workers=workers,
        adversary=AdversaryConfig(strategy, alpha),
        n_rounds=rounds,
        seed=seed,
        **kw,
    )


def same_metrics(a, b):
    """Field-by-field equality that treats NaN as equal to NaN."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        for fa, fb in zip(dataclasses.astuple(ra), dataclasses.astuple(rb)):
            if fa != fb and not (math.isnan(fa) and math.isnan(fb)):
                return False
    return True


class TestByzantineCount:
    @pytest.mark.parametrize(
        "alpha,workers,expected",
        [(0.0, 15, 0), (0.1, 15, 2), (0.2, 15, 3), (0.4, 15, 6), (7 / 15, 15, 7),
         (1 / 3, 3, 1), (0.5, 4, 2), (0.49, 100, 49)],
    )
    def test_round_half_away(self, alpha, workers, expected):
        assert byzantine_count(alpha, workers) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            byzantine_count(1.0, 10)


class TestDeterminism:
    def test_identical_configs_identical_records(self):
        a = run_experiment(make_config(strategy="blind-invert", alpha=0.4))
        b = run_experiment(make_config(strategy="blind-invert", alpha=0.4))
        assert same_metrics(a.metrics, b.metrics)
        np.testing.assert_array_equal(a.final_params, b.final_params)

    def test_none_strategy_ignores_alpha(self):
        # strategy 'none' means no adversaries, whatever fraction is configured
        clean = run_experiment(make_config(rule="signum", beta=0.9))
        dormant = run_experiment(make_config(rule="signum", beta=0.9, alpha=0.4))
        assert same_metrics(clean.metrics, dormant.metrics)
        np.testing.assert_array_equal(clean.final_params, dormant.final_params)

    def test_signsgd_equals_signum_with_zero_beta(self):
        a = run_experiment(make_config(rule="signsgd"))
        b = run_experiment(make_config(rule="signum", beta=0.0))
        np.testing.assert_array_equal(a.final_params, b.final_params)
        assert [m.train_loss for m in a.metrics] == [m.train_loss for m in b.metrics]


class TestAgainstNaiveReference:
    def test_clean_signsgd_matches_naive_loop(self):
        """Re-run the protocol with plain loops and no engine machinery."""
        cfg = make_config(rule="signsgd", eta=0.05, workers=3, rounds=25, seed=77)
        record = run_experiment(cfg)

        data = load_data(cfg)
        x = np.zeros(cfg.model.param_dim)
        streams = [RngStream(cfg.seed, m) for m in range(cfg.n_workers)]
        from signvote.models import Batch, grad

        for t in range(cfg.n_rounds):
            votes = np.zeros(x.size)
            for m in range(cfg.n_workers):
                idx = streams[m].generator.integers(
                    0, data.n_samples, size=cfg.optimizer.batch_size, dtype=np.int64
                )
                g = grad(cfg.model, x, data, Batch(idx))
                votes += np.sign(g)
            direction = np.sign(votes)
            eta_t = cfg.optimizer.eta / 10.0 ** (t // 30)
            x = x - eta_t * direction
        np.testing.assert_allclose(record.final_params, x, rtol=1e-12, atol=1e-15)

    def test_single_worker_sgd_converges_like_reference_gd(self):
        """Noiseless linear regression: loss collapses, as an independent
        plain-numpy gradient descent confirms."""
        cfg = make_config(
            rule="dist-sgd", eta=0.05, workers=1, rounds=500, seed=5,
            kind="linear-regression", input_dim=4, samples=50, batch_size=50,
            schedule=Schedule(1.0, 30),
        )
        record = run_experiment(cfg)
        assert record.metrics[-1].train_loss < 1e-3 * record.metrics[0].train_loss

        # independent reference: full-batch GD with inline analytic gradient
        data = load_data(cfg)
        x_mat, y = data.features, data.labels
        w = np.zeros(4)
        b = 0.0
        for t in range(500):
            r = x_mat @ w + b - y
            w = w - 0.05 * (2 / len(y)) * (x_mat.T @ r)
            b = b - 0.05 * 2 * r.mean()
        final_ref = float(np.mean((x_mat @ w + b - y) ** 2))
        initial = float(np.mean(y**2))
        assert final_ref < 1e-3 * initial


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
class TestDivergence:
    """Each way a run can leave the finite numbers ends in DivergedError(round)."""

    def test_worker_sign_of_nan(self):
        with pytest.raises(DivergedError) as caught:
            run_experiment(make_config(eta=1e308))
        assert caught.value.round == 2
        assert isinstance(caught.value.__cause__, NonFiniteError)

    def test_non_finite_parameters_after_update(self):
        # round 2 is not an evaluation round, so only the parameter check sees it
        with pytest.raises(DivergedError) as caught:
            run_experiment(make_config(rule="dist-sgd", eta=1e200, kind="linear-regression"))
        assert caught.value.round == 2
        assert caught.value.__cause__ is None

    def test_non_finite_loss_at_evaluation(self):
        # the parameters stay finite; their logits overflow in the round-10 loss
        with pytest.raises(DivergedError) as caught:
            run_experiment(make_config(rule="dist-sgd", eta=1e308))
        assert caught.value.round == 10

    def test_huge_finite_loss_is_not_divergence(self):
        record = run_experiment(make_config(eta=1e300, rounds=20))
        assert 1e299 < record.metrics[-1].train_loss < math.inf


class TestInverseSumAttack:
    def test_single_byzantine_freezes_sgd(self):
        cfg = make_config(
            rule="dist-sgd", eta=0.1, workers=3, strategy="byz-inverse-sum",
            alpha=1 / 3, rounds=50,
        )
        record = run_experiment(cfg)
        np.testing.assert_array_equal(record.final_params, np.zeros(cfg.model.param_dim))
        losses = [m.train_loss for m in record.metrics]
        assert len(set(losses)) == 1  # bitwise-identical loss at every eval
        assert all(m.zero_fraction == 1.0 for m in record.metrics[1:])

    def test_requires_dist_sgd(self):
        with pytest.raises(ValueError, match="dist-sgd"):
            make_config(rule="signsgd", strategy="byz-inverse-sum", alpha=0.4)


class TestOpposeTrueSign:
    def test_adversary_majority_drives_agreement_to_zero(self):
        cfg = make_config(
            rule="signsgd", eta=0.01, workers=5, strategy="byz-oppose-true-sign",
            alpha=0.6, rounds=10, samples=400, batch_size=400,
        )
        record = run_experiment(cfg)
        for row in record.metrics[1:]:
            assert row.sign_agreement <= 0.1

    def test_sign_strategy_requires_sign_rule(self):
        with pytest.raises(ValueError, match="sign rule"):
            make_config(rule="dist-sgd", strategy="byz-oppose-true-sign", alpha=0.4)

    def test_dormant_strategy_needs_no_rule_match(self):
        # alpha = 0 -> no adversaries -> any rule is fine
        cfg = make_config(rule="dist-sgd", strategy="byz-oppose-true-sign", alpha=0.0)
        assert byzantine_count(cfg.adversary.alpha, cfg.n_workers) == 0


class TestCollusionInEngine:
    def test_zeroing_collusion_still_learns(self):
        clean = run_experiment(make_config(rule="signum", beta=0.9, rounds=60, workers=15))
        attacked = run_experiment(
            make_config(rule="signum", beta=0.9, rounds=60, workers=15,
                        strategy="byz-collude-zeroing", alpha=0.4)
        )
        assert attacked.metrics[-1].train_loss < attacked.metrics[0].train_loss
        # the attack can slow learning but not reverse it outright
        assert attacked.metrics[-1].train_loss < 2.0 * clean.metrics[-1].train_loss


class TestMetricsShape:
    def test_rows_and_steps(self):
        record = run_experiment(make_config(rounds=25, eval_every=10))
        steps = [m.step for m in record.metrics]
        assert steps == [0, 10, 20, 25]
        assert all(b > a for a, b in zip(steps, steps[1:]))

    def test_baseline_row_has_nan_agreement(self):
        record = run_experiment(make_config(rounds=5, eval_every=5))
        assert math.isnan(record.metrics[0].sign_agreement)
        assert not math.isnan(record.metrics[1].sign_agreement)

    def test_regression_accuracy_is_nan(self):
        record = run_experiment(make_config(kind="linear-regression", rounds=5))
        assert math.isnan(record.metrics[0].eval_accuracy)

    def test_fractions_in_range(self):
        record = run_experiment(make_config(rounds=30, strategy="blind-invert", alpha=0.4))
        for row in record.metrics[1:]:
            assert 0.0 <= row.sign_agreement <= 1.0
            assert 0.0 <= row.zero_fraction <= 1.0


class TestSweep:
    def test_grid_order_and_size(self):
        base = make_config(strategy="blind-invert", rounds=5)
        pairs = sweep_configs(base, [0.0, 0.2, 0.4], ["signsgd", "signum"])
        assert len(pairs) == 6
        names = [name for name, _ in pairs]
        assert names == [
            "signsgd-alpha0", "signum-alpha0",
            "signsgd-alpha0.2", "signum-alpha0.2",
            "signsgd-alpha0.4", "signum-alpha0.4",
        ]

    def test_single_cell_equals_run_experiment(self):
        base = make_config(rule="signsgd", rounds=10)
        sweep = run_sweep(base, [0.0], ["signsgd"])
        solo = run_experiment(base)
        assert same_metrics(sweep[0].metrics, solo.metrics)

    def test_beta_forced_to_zero_for_non_signum(self):
        base = make_config(rule="signum", beta=0.9, rounds=5)
        pairs = dict(sweep_configs(base, [0.0], ["signsgd", "signum", "dist-sgd"]))
        assert pairs["signsgd-alpha0"].optimizer.beta == 0.0
        assert pairs["signum-alpha0"].optimizer.beta == 0.9
        assert pairs["dist-sgd-alpha0"].optimizer.beta == 0.0

    def test_same_alpha_reproducible_across_sweeps(self):
        base = make_config(strategy="blind-invert", rounds=10)
        a = run_sweep(base, [0.2], ["signsgd"])[0]
        b = run_sweep(base, [0.0, 0.2], ["signsgd"])[1]
        assert same_metrics(a.metrics, b.metrics)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sweep_configs(make_config(), [], ["signsgd"])


class TestReplicaConsistency:
    def test_explicit_replicas_never_diverge(self):
        """Maintain one parameter copy per worker, each applying the broadcast
        update; they stay bitwise equal to the canonical vector."""
        cfg = make_config(rule="signum", beta=0.9, workers=3, rounds=15, seed=9)
        record = run_experiment(cfg)

        from signvote.models import grad, sample_batch
        from signvote.optimizers import apply_update, server_aggregate_signs, worker_message

        data = load_data(cfg)
        replicas = [np.zeros(cfg.model.param_dim) for _ in range(cfg.n_workers)]
        streams = [RngStream(cfg.seed, m) for m in range(cfg.n_workers)]
        buffers = [np.zeros(cfg.model.param_dim) for _ in range(cfg.n_workers)]
        for t in range(cfg.n_rounds):
            msgs = []
            for m in range(cfg.n_workers):
                batch = sample_batch(streams[m], data.n_samples, cfg.optimizer.batch_size)
                g = grad(cfg.model, replicas[m], data, batch)
                msgs.append(worker_message(cfg.optimizer, buffers[m], g))
            direction = server_aggregate_signs(msgs)
            replicas = [apply_update(cfg.optimizer, r, direction, t) for r in replicas]
            assert all(np.array_equal(replicas[0], r) for r in replicas[1:])
        np.testing.assert_array_equal(record.final_params, replicas[0])


class TestConfigValidation:
    def test_admissibility_warning(self):
        with pytest.warns(UserWarning, match="admissible"):
            make_config(strategy="blind-invert", alpha=0.45, p_estimate=0.8)

    def test_no_warning_when_admissible(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_config(strategy="blind-invert", alpha=0.2, p_estimate=0.9)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_config(workers=0)
        with pytest.raises(ValueError):
            make_config(rounds=0)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            AdversaryConfig("sybil", 0.1)

    @pytest.mark.parametrize("kw,match", [
        ({"kind": "logistic-regression", "n_samples": 0}, "n_samples"),
        ({"kind": "linear-regression", "n_samples": 10, "noise_level": -0.1}, "noise_level"),
        ({"kind": "mlp", "n_samples": 10}, "synthetic data supports"),
    ])
    def test_synthetic_data_rejected_at_construction(self, kw, match):
        with pytest.raises(ValueError, match=match):
            SyntheticData(**kw)

    def test_synthetic_data_fields_are_keyword_only(self):
        # a (kind, input_dim, n_samples) call must fail, not take 20 as the sample count
        with pytest.raises(TypeError):
            SyntheticData("logistic-regression", 20, 2000)


class TestArtifacts:
    def test_metrics_csv_round_trips(self, tmp_path):
        record = run_experiment(make_config(rounds=10))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(record, path)
        text = path.read_text().splitlines()
        assert text[0] == "step,loss,accuracy,eta,sign_agreement,zero_fraction"
        cells = text[1].split(",")
        assert int(cells[0]) == 0
        assert float(cells[1]) == record.metrics[0].train_loss  # exact round-trip

    def test_write_json_nulls_non_finite_floats(self):
        import io

        handle = io.StringIO()
        write_json({"b": [1.5, math.nan, (math.inf, -math.inf)], "a": {"x": np.float64("nan")},
                    "c": 2}, handle)
        assert handle.getvalue() == '{"a": {"x": null}, "b": [1.5, null, [null, null]], "c": 2}\n'

    def test_summary_json_echoes_config(self, tmp_path):
        cfg = make_config(rounds=10)
        record = run_experiment(cfg)
        path = tmp_path / "summary.json"
        write_summary_json(record, path)
        payload = json.loads(path.read_text())
        rebuilt = config_from_mapping(payload["config"])
        assert rebuilt == cfg
        replay = run_experiment(rebuilt)
        assert same_metrics(replay.metrics, record.metrics)

    def test_mapping_round_trip(self):
        cfg = make_config(rule="signum", beta=0.9, strategy="blind-invert", alpha=0.2,
                          eval_every=5)
        assert config_from_mapping(config_to_mapping(cfg)) == cfg

    def test_mapping_accepts_strings(self):
        mapping = config_to_mapping(make_config())
        as_text = {
            section: {k: str(v) for k, v in body.items()} for section, body in mapping.items()
        }
        assert config_from_mapping(as_text) == make_config()

    def test_missing_section_rejected(self):
        mapping = config_to_mapping(make_config())
        del mapping["optimizer"]
        with pytest.raises(ValueError, match="optimizer"):
            config_from_mapping(mapping)


def write_idx_pair(tmp_path, pixels, labels):
    """Write (n, rows, cols) uint8 pixels and n uint8 labels as an IDX pair."""
    import struct

    from signvote.simulation import IdxData

    n, rows, cols = pixels.shape
    images_path = tmp_path / "img.idx"
    labels_path = tmp_path / "lab.idx"
    images_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + pixels.tobytes())
    labels_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return IdxData(str(images_path), str(labels_path))


def idx_config(data):
    return ExperimentConfig(
        model=ModelSpec("mlp", 9, hidden_dim=6, num_classes=3),
        data=data,
        optimizer=OptimizerConfig("signum", 0.05, beta=0.9, batch_size=5),
        n_workers=3,
        n_rounds=100,
        seed=11,
    )


class TestIdxBackedRun:
    def test_mlp_trains_on_idx_fixture(self, tmp_path):
        rng = np.random.default_rng(4)
        pixels = rng.integers(0, 256, size=(30, 3, 3), dtype=np.uint8)
        # learnable signal: class = tercile of mean pixel intensity
        brightness = pixels.reshape(30, -1).mean(axis=1)
        labels = (np.digitize(brightness, np.quantile(brightness, [1 / 3, 2 / 3]))
                  .astype(np.uint8))
        cfg = idx_config(write_idx_pair(tmp_path, pixels, labels))
        record = run_experiment(cfg)
        assert record.metrics[-1].train_loss < record.metrics[0].train_loss
        assert 0.0 <= record.metrics[-1].eval_accuracy <= 1.0

    def test_image_width_must_match_model(self, tmp_path):
        from signvote.models import IdxFormatError

        data = write_idx_pair(tmp_path, np.zeros((4, 2, 3), np.uint8), np.zeros(4, np.uint8))
        with pytest.raises(IdxFormatError, match="input_dim 9"):
            load_data(idx_config(data))

    def test_labels_must_fit_num_classes(self, tmp_path):
        from signvote.models import IdxFormatError

        data = write_idx_pair(tmp_path, np.zeros((4, 3, 3), np.uint8),
                              np.array([0, 1, 3, 2], np.uint8))
        with pytest.raises(IdxFormatError, match="label 3 out of range for 3 classes"):
            load_data(idx_config(data))


class TestCallStructure:
    """One check per sign message and one gradient per honest worker and round.

    The counts are the closed forms the benchmark's tracer also checks, so a
    change that drops per-message work fails here, not only under a trace.
    """

    def test_per_message_calls_on_byzantine_config(self, monkeypatch):
        import configparser
        from pathlib import Path

        import signvote.core
        import signvote.simulation

        parser = configparser.ConfigParser()
        parser.read(Path(__file__).resolve().parents[1] / "configs" / "logistic_byzantine.cfg")
        mapping = {s: dict(parser.items(s)) for s in parser.sections()}
        mapping["run"]["rounds"] = "10"
        cfg = config_from_mapping(mapping)
        counts = {"as_signs": 0, "grad": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        # both modules look these names up at call time
        monkeypatch.setattr(signvote.core, "as_signs", counting("as_signs", signvote.core.as_signs))
        monkeypatch.setattr(signvote.simulation, "grad", counting("grad", signvote.simulation.grad))
        run_experiment(cfg)

        rounds, workers = cfg.n_rounds, cfg.n_workers
        f = byzantine_count(cfg.adversary.alpha, workers)
        evals = math.ceil(rounds / cfg.eval_every)
        assert (rounds, workers, f, evals) == (10, 15, 6, 1)
        # colluders read the honest sum (M - f messages), the server all M
        assert counts["as_signs"] == rounds * (workers + (workers - f))
        assert counts["grad"] == rounds * (workers - f) + evals
