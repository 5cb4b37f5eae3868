import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from signvote.core import NonFiniteError, RngStream
from signvote.models import ModelSpec, generate_synthetic
from signvote.optimizers import OptimizerConfig
from signvote.simulation import (
    CONFIG_KEYS,
    DATA_STREAM_ID,
    AdversaryConfig,
    DivergedError,
    ExperimentConfig,
    IdxData,
    RunRecord,
    SyntheticData,
    byzantine_count,
    config_from_mapping,
    config_to_mapping,
    load_data,
    read_ini,
    run_experiment,
    sweep_configs,
    write_json,
    write_metrics_csv,
    write_summary_json,
)


def make_config(rule="signsgd", eta=0.05, beta=0.0, strategy="none", alpha=0.0,
                workers=5, rounds=40, seed=123, kind="logistic-regression",
                input_dim=6, samples=200, batch_size=8, decay_factor=10.0, **kw):
    if kind == "logistic-regression":
        model = ModelSpec(kind, input_dim, num_classes=2)
    else:
        model = ModelSpec(kind, input_dim)
    return ExperimentConfig(
        model=model,
        data=SyntheticData(n_samples=samples),
        optimizer=OptimizerConfig(rule, eta, beta=beta, batch_size=batch_size,
                                  decay_factor=decay_factor),
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


# metrics.csv sha256 of every strategy with each rule it allows, recorded before the
# engine kept its messages in one (workers, params) array; (7, 0.3) has f = 2
# adversaries, (1, 0.6) has one adversary and no honest worker
STRATEGY_RULE_ANCHORS = {
    (7, 0.3, "none", "dist-sgd"):
        "82df3cbbefb968d226c203cc69bf925ae3f2b329f5a33d3eed0052b8ed412d98",
    (7, 0.3, "none", "signsgd"):
        "90d50ba82ad14d2c00d7fe748e82524face9cf0f02fa63946f9d04a31816ce4b",
    (7, 0.3, "none", "signum"):
        "0f9d8d79d721ec9dad63077db09a1d8adc3fb76d12923d5386cc6a3a44c33c3e",
    (7, 0.3, "blind-invert", "dist-sgd"):
        "66d82385e1c8e4a3256add27aa2b190c802944674d576fac5e973fcd7ea7c928",
    (7, 0.3, "blind-invert", "signsgd"):
        "086694e1f7eb6aeda297eb652d77f4883824c9d58f7fd59b61c97799f961b471",
    (7, 0.3, "blind-invert", "signum"):
        "4c4587061e3b96a3963b245f920c28fba4ce761aa66348983e674bebdafeb90a",
    (7, 0.3, "byz-collude-zeroing", "signsgd"):
        "cdc1a46f3312a894f2ff9c21ea7983249fa460ffa453b4b34f619002fcf361b5",
    (7, 0.3, "byz-collude-zeroing", "signum"):
        "155d5bed0d2584491f8cbafc83e45a040ffd794e34edc618d44f81b49b3c661d",
    (7, 0.3, "byz-collude-alternating", "signsgd"):
        "cdc1a46f3312a894f2ff9c21ea7983249fa460ffa453b4b34f619002fcf361b5",
    (7, 0.3, "byz-collude-alternating", "signum"):
        "155d5bed0d2584491f8cbafc83e45a040ffd794e34edc618d44f81b49b3c661d",
    (7, 0.3, "byz-oppose-true-sign", "signsgd"):
        "072c9e474d68dc9d16b7c029c8ce901b6a71831905b120697ad72475dbea55cb",
    (7, 0.3, "byz-oppose-true-sign", "signum"):
        "3a4eb5e89b0fdda746c3be97b41603042dcd339bc16e384c7c4875757b306545",
    (7, 0.3, "byz-inverse-sum", "dist-sgd"):
        "338564c50423e41d94875469a11f6ecdc36de76889e6e9cdb35edffa4cb780e0",
    (1, 0.6, "none", "dist-sgd"):
        "3b7ae5a2530fde17b15345dbe6423601acd85161cc4221de0bbeca7c59ef580b",
    (1, 0.6, "none", "signsgd"):
        "74bea6c819fc88c5cfc603538dfe0a3cc5d22460901872ea9df15b43b779ba4c",
    (1, 0.6, "none", "signum"):
        "d66963c8a9c17c08de0f0b685d6a1230c4456ee80af1093a729bf1fd4a5db1d4",
    (1, 0.6, "blind-invert", "dist-sgd"):
        "cb738538d2606675370d25d5547f700049aa314da18d01a14f1ed545883082e7",
    (1, 0.6, "blind-invert", "signsgd"):
        "f0f36a946f100a2d60977fb2cbf18ae947026b688c719fbfda4aa0efec1e760f",
    (1, 0.6, "blind-invert", "signum"):
        "c5f912bc996893d04ef7edf75a0a50389afe4d63c67c9b8b59b1efa7e5816bcc",
    (1, 0.6, "byz-collude-zeroing", "signsgd"):
        "df3f998b9aef1f7c4f710be4e27cef4bf4438fd54945dfc892287983b7e6f068",
    (1, 0.6, "byz-collude-zeroing", "signum"):
        "df3f998b9aef1f7c4f710be4e27cef4bf4438fd54945dfc892287983b7e6f068",
    (1, 0.6, "byz-collude-alternating", "signsgd"):
        "df3f998b9aef1f7c4f710be4e27cef4bf4438fd54945dfc892287983b7e6f068",
    (1, 0.6, "byz-collude-alternating", "signum"):
        "df3f998b9aef1f7c4f710be4e27cef4bf4438fd54945dfc892287983b7e6f068",
    (1, 0.6, "byz-oppose-true-sign", "signsgd"):
        "e8b048b7d54c20cd1dc9b395682db7f54ff5db2e6700e1277c38f8d24007a008",
    (1, 0.6, "byz-oppose-true-sign", "signum"):
        "e8b048b7d54c20cd1dc9b395682db7f54ff5db2e6700e1277c38f8d24007a008",
    (1, 0.6, "byz-inverse-sum", "dist-sgd"):
        "338564c50423e41d94875469a11f6ecdc36de76889e6e9cdb35edffa4cb780e0",
}


class TestStrategyRuleMatrix:
    """Paths no bundled anchor reaches: every strategy and rule, with and without
    honest workers, keeps the recorded metrics.csv bytes."""

    @pytest.mark.parametrize("workers,alpha,strategy,rule", list(STRATEGY_RULE_ANCHORS))
    def test_metrics_csv_bytes(self, tmp_path, workers, alpha, strategy, rule):
        cfg = make_config(rule=rule, beta=0.9 if rule == "signum" else 0.0, strategy=strategy,
                          alpha=alpha, workers=workers, eval_every=5)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(run_experiment(cfg), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == STRATEGY_RULE_ANCHORS[workers, alpha, strategy, rule]


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
        from signvote.models import grad

        for t in range(cfg.n_rounds):
            votes = np.zeros(x.size)
            for m in range(cfg.n_workers):
                idx = streams[m].generator.integers(
                    0, data.n_samples, size=cfg.optimizer.batch_size, dtype=np.int64
                )
                g = grad(cfg.model, x, data, idx)
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
            decay_factor=1.0,
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


class TestDivergence:
    """Each way a run can leave the finite numbers ends in DivergedError(round)."""

    @pytest.mark.parametrize("kw", [
        {"eta": 1e308},
        {"rule": "dist-sgd", "eta": 1e200, "kind": "linear-regression"},
        {"rule": "dist-sgd", "eta": 1e308},
    ])
    def test_no_runtime_warning(self, kw):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DivergedError):
                run_experiment(make_config(**kw))
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

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
        [(_, cfg)] = sweep_configs(base, [0.0], ["signsgd"])
        assert same_metrics(run_experiment(cfg).metrics, run_experiment(base).metrics)

    def test_beta_forced_to_zero_for_non_signum(self):
        base = make_config(rule="signum", beta=0.9, rounds=5)
        pairs = dict(sweep_configs(base, [0.0], ["signsgd", "signum", "dist-sgd"]))
        assert pairs["signsgd-alpha0"].optimizer.beta == 0.0
        assert pairs["signum-alpha0"].optimizer.beta == 0.9
        assert pairs["dist-sgd-alpha0"].optimizer.beta == 0.0

    def test_same_alpha_reproducible_across_sweeps(self):
        base = make_config(strategy="blind-invert", rounds=10)
        a = run_experiment(sweep_configs(base, [0.2], ["signsgd"])[0][1])
        b = run_experiment(sweep_configs(base, [0.0, 0.2], ["signsgd"])[1][1])
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
    @pytest.mark.parametrize("kw, message", [({"workers": 0}, "n_workers must be >= 1"),
                                             ({"rounds": 0}, "n_rounds must be >= 1"),
                                             ({"eval_every": 0}, "eval_every must be >= 1")])
    def test_invalid_sizes(self, kw, message):
        with pytest.raises(ValueError, match=message):
            make_config(**kw)

    @pytest.mark.parametrize("strategy, alpha, message", [
        ("sybil", 0.1, "unknown strategy"),
        ("blind-invert", 1.0, r"alpha must lie in \[0, 1\)"),
        ("blind-invert", -0.1, r"alpha must lie in \[0, 1\)"),
    ])
    def test_unknown_strategy(self, strategy, alpha, message):
        with pytest.raises(ValueError, match=message):
            AdversaryConfig(strategy, alpha)

    def test_seed_is_an_unsigned_64_bit_integer(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
                make_config(seed=seed)
        assert make_config(seed=2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("kw,match", [
        ({"n_samples": 0}, "n_samples"),
    ])
    def test_synthetic_data_rejected_at_construction(self, kw, match):
        with pytest.raises(ValueError, match=match):
            SyntheticData(**kw)

    @pytest.mark.parametrize("field", ["n_workers", "n_rounds", "eval_every", "seed"])
    def test_integer_fields_reject_floats(self, field):
        # a float must fail here, not later in the round loop's range()
        base = make_config()
        dataclasses.replace(base, **{field: np.int64(getattr(base, field))})  # numpy ints pass
        with pytest.raises(TypeError):
            dataclasses.replace(base, **{field: float(getattr(base, field))})
        with pytest.raises(TypeError):
            dataclasses.replace(base, **{field: True})

    def test_synthetic_sample_count_rejects_floats(self):
        with pytest.raises(TypeError):
            SyntheticData(n_samples=200.0)
        with pytest.raises(TypeError):
            SyntheticData(n_samples=True)

    def test_synthetic_data_fields_are_keyword_only(self):
        # an old (kind, n_samples) call must fail, not build without its kind
        with pytest.raises(TypeError):
            SyntheticData("logistic-regression", 2000)


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
        assert set(payload) == {"config", "wall_time_s"}
        rebuilt = config_from_mapping(payload["config"])
        assert rebuilt == cfg
        replay = run_experiment(rebuilt)
        assert same_metrics(replay.metrics, record.metrics)

    def test_mapping_round_trip(self):
        cfg = make_config(rule="signum", beta=0.9, strategy="blind-invert", alpha=0.2,
                          eval_every=5)
        assert config_from_mapping(config_to_mapping(cfg)) == cfg

    @pytest.mark.parametrize("cfg", [
        make_config(workers=np.int64(5), rounds=np.int64(12), eval_every=np.int64(4),
                    seed=2**64 - 1, samples=np.int64(60), batch_size=np.int64(4)),
        make_config(strategy="blind-invert", alpha=1 / 3, workers=6, seed=2**64 - 1),
        make_config(alpha=-0.0, eta=0.1 + 0.2),
        dataclasses.replace(make_config(kind="linear-regression", strategy="blind-invert",
                                        alpha=1 / 3),
                            data=IdxData("img.idx", "lab.idx")),
    ], ids=["numpy-ints", "third", "negative-zero", "idx"])
    def test_text_echo_round_trips(self, tmp_path, cfg):
        """Through its JSON text echo, a config built directly comes back equal,
        numpy integers and floats without a short decimal included."""
        mapping = config_to_mapping(cfg)
        assert all(isinstance(value, str) for body in mapping.values() for value in body.values())
        rebuilt = config_from_mapping(json.loads(json.dumps(mapping)))
        assert rebuilt == cfg
        write_summary_json(RunRecord(cfg, [], np.zeros(1), 0.0), tmp_path / "summary.json")
        if isinstance(cfg.data, SyntheticData):
            paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
            for config, path in zip((cfg, rebuilt), paths):
                write_metrics_csv(run_experiment(config), path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_missing_section_rejected(self):
        mapping = config_to_mapping(make_config())
        del mapping["optimizer"]
        with pytest.raises(ValueError, match="optimizer"):
            config_from_mapping(mapping)


# config_to_mapping of the bundled configs, recorded while config_to_mapping and
# config_from_mapping still spelled out every key by hand, less the [data] source
# and kind keys since removed
BUNDLED_MAPPINGS = {
    "logistic_blind": '{"adversary": {"alpha": 0.2, "strategy": "blind-invert"}, "data": {"samples": 2000}, "model": {"input_dim": 20, "kind": "logistic-regression", "num_classes": 2}, "optimizer": {"batch_size": 16, "beta": 0.9, "decay_every": 30, "decay_factor": 10.0, "eta": 0.035, "rule": "signum"}, "run": {"eval_every": 10, "rounds": 300, "seed": 8005, "workers": 15}}',
    "logistic_byzantine": '{"adversary": {"alpha": 0.4, "strategy": "byz-collude-zeroing"}, "data": {"samples": 2000}, "model": {"input_dim": 20, "kind": "logistic-regression", "num_classes": 2}, "optimizer": {"batch_size": 16, "beta": 0.9, "decay_every": 30, "decay_factor": 10.0, "eta": 0.035, "rule": "signum"}, "run": {"eval_every": 10, "rounds": 300, "seed": 8005, "workers": 15}}',
    "sgd_inverse_sum": '{"adversary": {"alpha": 0.3333333333333333, "strategy": "byz-inverse-sum"}, "data": {"samples": 2000}, "model": {"input_dim": 20, "kind": "logistic-regression", "num_classes": 2}, "optimizer": {"batch_size": 16, "beta": 0.0, "decay_every": 30, "decay_factor": 10.0, "eta": 0.35, "rule": "dist-sgd"}, "run": {"eval_every": 10, "rounds": 300, "seed": 8005, "workers": 3}}',
    "mnist_mlp": '{"adversary": {"alpha": 0.2, "strategy": "blind-invert"}, "data": {"images": "data/train-images-idx3-ubyte", "labels": "data/train-labels-idx1-ubyte"}, "model": {"hidden_dim": 32, "input_dim": 784, "kind": "mlp", "num_classes": 10}, "optimizer": {"batch_size": 32, "beta": 0.9, "decay_every": 30, "decay_factor": 10.0, "eta": 1e-05, "rule": "signum"}, "run": {"eval_every": 10, "rounds": 300, "seed": 8005, "workers": 15}}',
}


def every_key_configs():
    """An IDX and a synthetic config that between them set every key of CONFIG_KEYS."""
    shared = dict(
        optimizer=OptimizerConfig("signum", 0.01, beta=0.5, batch_size=4,
                                  decay_factor=2.0, decay_every=7),
        n_workers=4,
        adversary=AdversaryConfig("blind-invert", 0.25),
        n_rounds=12,
        seed=3,
        eval_every=4,
    )
    return [
        ExperimentConfig(model=ModelSpec("mlp", 9, hidden_dim=6, num_classes=3),
                         data=IdxData("img.idx", "lab.idx"), **shared),
        ExperimentConfig(model=ModelSpec("linear-regression", 5),
                         data=SyntheticData(n_samples=50), **shared),
    ]


def bundled_mapping(name):
    return read_ini(Path(__file__).resolve().parents[1] / "configs" / f"{name}.cfg")


class TestConfigMapping:
    def test_every_key_config_round_trips(self):
        keys = set()
        for cfg in every_key_configs():
            mapping = config_to_mapping(cfg)
            keys |= {(section, key) for section, body in mapping.items() for key in body}
            assert config_from_mapping(mapping) == cfg
            assert config_from_mapping(json.loads(json.dumps(mapping))) == cfg
        assert keys == set(CONFIG_KEYS)

    def test_read_ini_missing_file_raises(self, tmp_path):
        """An INI path that does not exist is an error, never an empty mapping."""
        with pytest.raises(FileNotFoundError):
            read_ini(tmp_path / "missing.cfg")

    def test_one_dataclass_per_section(self):
        """Only [data] fills more than one class: one per data source."""
        owners = {}
        for (section, _), (cls, _, _) in CONFIG_KEYS.items():
            owners.setdefault(section, set()).add(cls)
        assert owners == {"model": {ModelSpec}, "data": {SyntheticData, IdxData},
                          "optimizer": {OptimizerConfig}, "adversary": {AdversaryConfig},
                          "run": {ExperimentConfig}}

    @pytest.mark.parametrize("name", sorted(BUNDLED_MAPPINGS))
    def test_bundled_config_mapping_as_recorded(self, name):
        """The recorded mapping held typed values; each is now its text."""
        mapping = config_to_mapping(config_from_mapping(bundled_mapping(name)))
        recorded = json.loads(BUNDLED_MAPPINGS[name])
        assert mapping == {section: {key: str(value) for key, value in body.items()}
                           for section, body in recorded.items()}

    def test_defaults_are_the_dataclasses(self):
        mapping = {"model": {"kind": "linear-regression", "input_dim": "3"},
                   "data": {"samples": "20"},
                   "optimizer": {"rule": "signsgd", "eta": "0.1"},
                   "run": {"workers": "2"}}
        assert config_from_mapping(mapping) == ExperimentConfig(
            model=ModelSpec("linear-regression", 3),
            data=SyntheticData(n_samples=20),
            optimizer=OptimizerConfig("signsgd", 0.1),
            n_workers=2,
        )

    @pytest.mark.parametrize("model, family", [
        (ModelSpec("linear-regression", 3), "linear-regression"),
        (ModelSpec("logistic-regression", 3, num_classes=4), "logistic-regression"),
        (ModelSpec("mlp", 3, hidden_dim=2, num_classes=3), "logistic-regression"),
    ])
    def test_synthetic_labels_follow_the_model(self, model, family):
        """Synthetic labels are the family the model fits: class labels for a
        classifier, real targets otherwise."""
        cfg = dataclasses.replace(make_config(samples=20), model=model)
        expected, _ = generate_synthetic(RngStream(cfg.seed, DATA_STREAM_ID), family, 3, 20)
        data = load_data(cfg)
        np.testing.assert_array_equal(data.features, expected.features)
        np.testing.assert_array_equal(data.labels, expected.labels)

    @pytest.mark.parametrize("extra", [{"images": "i.idx"}, {"labels": "l.idx"},
                                       {"images": "i.idx", "labels": "l.idx"}])
    def test_data_with_keys_of_both_sources_rejected(self, extra):
        mapping = bundled_mapping("logistic_blind")
        mapping["data"].update(extra)
        with pytest.raises(ValueError) as exc:
            config_from_mapping(mapping)
        assert str(exc.value) == ("[data] takes samples for synthetic data or images and "
                                  "labels for IDX files, not both")

    @pytest.mark.parametrize("section, key, value, message", [
        ("adversry", "alpha", "0.1", "unknown config section [adversry]"),
        ("optimizer", "bata", "0.5", "unknown config key 'bata' in section [optimizer]"),
        ("data", "samples", "many", "bad value for config key 'samples': 'many'"),
        ("data", "source", "csv", "unknown config key 'source' in section [data]"),
        # integer keys take no typed float or bool, as their strings are rejected too
        ("run", "workers", 5.7, "bad value for config key 'workers': 5.7"),
        ("run", "workers", 5.0, "bad value for config key 'workers': 5.0"),
        ("run", "rounds", True, "bad value for config key 'rounds': True"),
        ("optimizer", "batch_size", "16.0", "bad value for config key 'batch_size': '16.0'"),
        ("model", "input_dim", [20], "bad value for config key 'input_dim': [20]"),
        # nor do float keys take a typed bool, which a summary.json echo may hold
        ("optimizer", "eta", True, "bad value for config key 'eta': True"),
        ("optimizer", "beta", False, "bad value for config key 'beta': False"),
        ("optimizer", "decay_factor", True, "bad value for config key 'decay_factor': True"),
        ("adversary", "alpha", False, "bad value for config key 'alpha': False"),
    ])
    def test_bad_entry_rejected(self, section, key, value, message):
        mapping = bundled_mapping("logistic_blind")
        mapping.setdefault(section, {})[key] = value
        with pytest.raises(ValueError) as exc:
            config_from_mapping(mapping)
        assert str(exc.value) == message

    @pytest.mark.parametrize("value", [7, "7", " 7 ", np.int64(7)])
    def test_int_keys_take_integers(self, value):
        """An integer key takes the text of an integer, padded or not; a typed
        integer, Python or numpy, is no text and is rejected."""
        mapping = bundled_mapping("logistic_blind")
        mapping["run"]["workers"] = value
        if not isinstance(value, str):
            with pytest.raises(ValueError) as exc:
                config_from_mapping(mapping)
            assert str(exc.value) == f"bad value for config key 'workers': {value!r}"
            return
        cfg = config_from_mapping(mapping)
        assert cfg.n_workers == 7 and type(cfg.n_workers) is int

    @pytest.mark.parametrize("mapping, message", [
        (["x"], "config must map sections to keys, got list"),
        ({"run": ["x"]}, "config section [run] must map keys to values, got list"),
    ])
    def test_non_dict_mapping_rejected(self, mapping, message):
        with pytest.raises(ValueError) as exc:
            config_from_mapping(mapping)
        assert str(exc.value) == message

    @pytest.mark.parametrize("section, key, message", [
        ("run", "workers", "missing config key 'workers'"),
        ("data", None, "missing config section [data]"),
        ("data", "labels", "missing config key 'labels'"),
    ])
    def test_missing_entry_rejected(self, section, key, message):
        mapping = bundled_mapping("mnist_mlp" if key == "labels" else "logistic_blind")
        if key is None:
            del mapping[section]
        else:
            del mapping[section][key]
        with pytest.raises(ValueError) as exc:
            config_from_mapping(mapping)
        assert str(exc.value) == message


def write_idx_pair(tmp_path, pixels, labels):
    """Write (n, rows, cols) uint8 pixels and n uint8 labels as an IDX pair."""
    import struct

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


def learnable_idx_pair(tmp_path, n=30):
    """An IDX pair of n 3x3 images whose class is the tercile of mean pixel intensity."""
    rng = np.random.default_rng(4)
    pixels = rng.integers(0, 256, size=(n, 3, 3), dtype=np.uint8)
    brightness = pixels.reshape(n, -1).mean(axis=1)
    labels = (np.digitize(brightness, np.quantile(brightness, [1 / 3, 2 / 3]))
              .astype(np.uint8))
    return write_idx_pair(tmp_path, pixels, labels)


# metrics.csv sha256 of short runs of the two softmax families on the IDX fixture,
# recorded before loss, grad and accuracy shared one forward pass
IDX_RUN_ANCHORS = {
    "mlp": "a9996c7fe04c8e1b8e9ab9ce0b304c0309b7e6335e9a4030e6014b52f5616cd3",
    "logistic-regression": "4db17ea3862154a949a683c2f8482bc2ba31de6c153b63d6e1cef858beb1d553",
}


class TestIdxBackedRun:
    def test_mlp_trains_on_idx_fixture(self, tmp_path):
        cfg = idx_config(learnable_idx_pair(tmp_path))
        record = run_experiment(cfg)
        assert record.metrics[-1].train_loss < record.metrics[0].train_loss
        assert 0.0 <= record.metrics[-1].eval_accuracy <= 1.0

    @pytest.mark.parametrize("kind", list(IDX_RUN_ANCHORS))
    def test_metrics_csv_bytes(self, tmp_path, kind):
        hidden = 6 if kind == "mlp" else None
        # the MLP meets blind inverters; the softmax model the true-sign opposers,
        # which read the full-batch gradient every round
        strategy, rule, beta = (("blind-invert", "signum", 0.9) if kind == "mlp"
                                else ("byz-oppose-true-sign", "signsgd", 0.0))
        cfg = dataclasses.replace(
            idx_config(learnable_idx_pair(tmp_path, n=60)),
            model=ModelSpec(kind, 9, hidden_dim=hidden, num_classes=3),
            optimizer=OptimizerConfig(rule, 0.02, beta=beta, batch_size=5),
            n_workers=5,
            adversary=AdversaryConfig(strategy, 0.4),
            n_rounds=30,
            eval_every=4,
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv(run_experiment(cfg), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == IDX_RUN_ANCHORS[kind]

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
        import signvote.core
        import signvote.simulation

        mapping = bundled_mapping("logistic_byzantine")
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

    @pytest.mark.parametrize("name,strategy", [
        ("logistic_byzantine", "byz-collude-zeroing"),
        ("sgd_inverse_sum", "byz-inverse-sum"),
        ("logistic_byzantine", "byz-oppose-true-sign"),
    ])
    def test_every_traced_count_on_its_closed_form(self, monkeypatch, name, strategy):
        """Each per-round layer runs as often as the benchmark's closed forms say.

        A gradient counts as full when its batch is an object that
        ``full_batch`` returned, the way the tracer tells evaluation from
        worker work; every other gradient is a sampled one.
        """
        import signvote.core
        import signvote.simulation

        mapping = bundled_mapping(name)
        mapping["adversary"]["strategy"] = strategy
        mapping["run"].update(rounds="10", eval_every="4")
        cfg = config_from_mapping(mapping)
        counts = dict.fromkeys(("as_signs", "sample_batch", "worker_message", "server_aggregate",
                                "grad.worker", "grad.full"), 0)
        full_batches = []

        def counting(module, attr, key):
            fn = getattr(module, attr)

            def wrapper(*args, **kwargs):
                counts[key(*args, **kwargs) if callable(key) else key] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, attr, wrapper)

        def grad_kind(spec, params, data, batch):
            return "grad.full" if any(batch is b for b in full_batches) else "grad.worker"

        def recording_full_batch(data, _full_batch=signvote.simulation.full_batch):
            full_batches.append(_full_batch(data))
            return full_batches[-1]

        # the engine looks these names up at call time, sum_signs its as_signs
        counting(signvote.core, "as_signs", "as_signs")
        for attr, key in (("sample_batch", "sample_batch"), ("worker_message", "worker_message"),
                          ("server_aggregate_signs", "server_aggregate"),
                          ("server_aggregate_sgd", "server_aggregate"), ("grad", grad_kind)):
            counting(signvote.simulation, attr, key)
        monkeypatch.setattr(signvote.simulation, "full_batch", recording_full_batch)
        run_experiment(cfg)

        rounds, workers = cfg.n_rounds, cfg.n_workers
        f = byzantine_count(cfg.adversary.alpha, workers)
        honest = workers - f
        evals = 3  # rounds 4, 8 and the last
        sign_rule = cfg.optimizer.rule != "dist-sgd"
        colluders = strategy == "byz-collude-zeroing"
        assert len(full_batches) == 1
        assert counts == {
            "as_signs": rounds * (workers + (honest if colluders else 0)) if sign_rule else 0,
            "sample_batch": rounds * honest,
            "worker_message": rounds * honest,
            "server_aggregate": rounds,
            "grad.worker": rounds * honest,
            "grad.full": rounds if strategy == "byz-oppose-true-sign" else evals,
        }

    def test_traced_names_exist(self):
        """Every function the benchmark's tracer wraps is still there, and
        ``grad`` still names the argument it reads ``batch``."""
        import importlib
        import importlib.util
        import inspect
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("bench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        for owner, names in tracer.TRACED.items():
            module = importlib.import_module(f"signvote.{owner}")
            for name in names:
                assert callable(getattr(module, name, None)), f"signvote.{owner}.{name}"
        from signvote.models import grad
        assert list(inspect.signature(grad).parameters)[3] == "batch"
