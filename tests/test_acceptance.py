"""Acceptance suite: one test per acceptance criterion (two for criterion 10),
each printing a PASS line with its runtime once its assertions hold.

The experiment-level criteria (1, 5, 6, 10) run the bundled configs at seed
8005; criterion 10 also pins their ``metrics.csv`` to the sha256 anchors
recorded in ``bench/anchors.json``.  The bound criteria (2, 3, 4) run the
exact grids with frozen tolerances; the algebraic criteria (7, 8, 9, 11) are
exhaustive or closed-form checks.
"""

import hashlib
import itertools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from signvote.cli import main as cli_main
from signvote.core import RngStream
from signvote.models import (
    ModelSpec,
    generate_synthetic,
    max_relative_grad_error,
    sample_batch,
)
from signvote.optimizers import server_aggregate_signs
from signvote.adversaries import byz_collude_signs
from signvote.simulation import config_from_mapping, read_ini, run_experiment, write_metrics_csv
from signvote.theory import (
    NoiseModel,
    SYMMETRIC_BREAKPOINT,
    mc_sign_error,
    rate_bound_blind,
    rate_bound_byzantine,
    sign_error_bound_chebyshev,
    sign_error_bound_symmetric,
    vote_failure_cantelli,
    vote_failure_exact,
)

REPO = Path(__file__).resolve().parents[1]
SNR_GRID = (0.25, 0.5, 1.0, SYMMETRIC_BREAKPOINT, 2.0, 4.0)
MC_SAMPLES = 100_000


def load_bundled_config(name="logistic_blind.cfg"):
    return config_from_mapping(read_ini(REPO / "configs" / name))


BASE = load_bundled_config()  # signum, eta 0.035, beta 0.9, M=15, K=300, seed 8005


def variant(rule=None, alpha=None, strategy=None):
    cfg = BASE
    opt = cfg.optimizer
    if rule == "dist-sgd":
        opt = replace(opt, rule=rule, beta=0.0, eta=opt.eta * 10.0)
    elif rule == "signsgd":
        opt = replace(opt, rule=rule, beta=0.0)
    adv = cfg.adversary
    if strategy is not None:
        adv = replace(adv, strategy=strategy)
    if alpha is not None:
        adv = replace(adv, alpha=alpha)
    if adv.alpha == 0.0:
        adv = replace(adv, strategy="none", alpha=0.0)
    return replace(cfg, optimizer=opt, adversary=adv)


class Reporter:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} [{elapsed:6.2f}s] {status}: {self.title}")
        return False


def test_criterion_01_single_byzantine_freezes_sgd():
    with Reporter(1, "one gradient-cancelling worker stops dist-sgd bit-exactly"):
        cfg = load_bundled_config("sgd_inverse_sum.cfg")
        record = run_experiment(cfg)
        losses = [m.train_loss for m in record.metrics]
        assert losses[-1] == losses[0]  # to the last bit
        assert len(set(losses)) == 1
        np.testing.assert_array_equal(record.final_params, np.zeros(cfg.model.param_dim))


def test_criterion_02_chebyshev_sign_error_bound():
    with Reporter(2, "variance-only sign-error bound holds for all noise families"):
        stream_id = 0
        for family in ("gaussian", "laplace", "shifted-bernoulli"):
            for snr in SNR_GRID:
                stream_id += 1
                noise = NoiseModel(family, mean=snr, sigma=1.0)
                observed, se = mc_sign_error(noise, MC_SAMPLES, RngStream(8005, stream_id))
                bound = min(1.0, sign_error_bound_chebyshev(snr))
                assert observed <= bound + 3 * se, (family, snr, observed, bound)


def test_criterion_03_symmetric_sign_error_bound():
    with Reporter(3, "piecewise bound holds for unimodal symmetric noise"):
        quadratic = (2.0 / 9.0) / SYMMETRIC_BREAKPOINT**2
        linear = 0.5 - SYMMETRIC_BREAKPOINT / (2.0 * math.sqrt(3.0))
        assert abs(quadratic - 1.0 / 6.0) < 1e-12
        assert abs(linear - 1.0 / 6.0) < 1e-12
        stream_id = 100
        for family in ("gaussian", "laplace"):
            for snr in SNR_GRID:
                stream_id += 1
                noise = NoiseModel(family, mean=snr, sigma=1.0)
                observed, se = mc_sign_error(noise, MC_SAMPLES, RngStream(8005, stream_id))
                bound = sign_error_bound_symmetric(snr)
                assert observed <= bound + 3 * se, (family, snr, observed, bound)


def test_criterion_04_cantelli_chain():
    with Reporter(4, "exact binomial vote-failure tail never exceeds the Cantelli form"):
        workers_grid = (11, 51, 101, 501)
        for n_workers in workers_grid:
            for p in (0.6, 0.75, 0.9, 0.99):
                for alpha in (0.0, 0.1, 0.2, 0.3):
                    if p * (1.0 - alpha) <= 0.5:
                        continue
                    exact = vote_failure_exact(n_workers, alpha, p)
                    assert exact <= vote_failure_cantelli(n_workers, alpha, p), (n_workers, p, alpha)
        for alpha in (0.0, 0.1, 0.2, 0.3):
            assert vote_failure_exact(101, alpha, 1.0) == 0.0
        for p in (0.6, 0.75, 0.9, 0.99):
            for alpha in (0.0, 0.1, 0.2, 0.3):
                if p * (1.0 - alpha) <= 0.5:
                    continue
                tails = [vote_failure_exact(m, alpha, p) for m in workers_grid]
                assert all(a >= b for a, b in zip(tails, tails[1:])), (p, alpha)


def test_criterion_05_blind_adversary_phenomenology():
    with Reporter(5, "blind adversaries barely dent sign rules; dist-sgd suffers more"):
        final_acc = {}
        for rule in ("dist-sgd", "signsgd", "signum"):
            for alpha in (0.0, 0.2, 0.4):
                cfg = variant(rule=rule, alpha=alpha, strategy="blind-invert")
                final_acc[(rule, alpha)] = run_experiment(cfg).metrics[-1].eval_accuracy
        for rule in ("signsgd", "signum"):
            for alpha in (0.2, 0.4):
                delta = abs(final_acc[(rule, 0.0)] - final_acc[(rule, alpha)])
                assert delta <= 0.05, (rule, alpha, delta)
        sgd_degradation = final_acc[("dist-sgd", 0.0)] - final_acc[("dist-sgd", 0.4)]
        signum_degradation = final_acc[("signum", 0.0)] - final_acc[("signum", 0.4)]
        assert sgd_degradation > signum_degradation


def test_criterion_06_byzantine_collusion_phenomenology():
    with Reporter(6, "zeroing collusion does not stop the momentum sign rule"):
        for alpha in (0.2, 0.4):
            cfg = variant(rule="signum", alpha=alpha, strategy="byz-collude-zeroing")
            record = run_experiment(cfg)
            initial, final = record.metrics[0].train_loss, record.metrics[-1].train_loss
            assert final < 0.5 * initial, (alpha, initial, final)
        cfg = variant(rule="signum", alpha=7 / 15, strategy="byz-collude-zeroing")
        record = run_experiment(cfg)
        assert record.metrics[-1].train_loss < record.metrics[0].train_loss


def test_criterion_07_collusion_strategy_exactness():
    with Reporter(7, "collusion votes are exact: blocked, killed, or flipped as designed"):
        s_values = np.arange(-10, 11)
        for f in range(1, 7):
            for variant_name in ("zeroing", "alternating"):
                votes = byz_collude_signs(s_values, f, variant_name)
                assert votes.shape == (f, s_values.size) and votes.dtype == np.int8
                assert np.isin(votes, (-1, 0, 1)).all()
                totals = s_values + votes.sum(axis=0, dtype=np.int64)
                blocked = np.abs(s_values) > f
                np.testing.assert_array_equal(
                    np.sign(totals[blocked]), np.sign(s_values[blocked])
                )
                if variant_name == "zeroing":
                    reachable = (~blocked) & (s_values != 0)
                    for s, total in zip(s_values[reachable], totals[reachable]):
                        assert total == 0 or np.sign(total) == -np.sign(s), (f, s, total)


def test_criterion_08_majority_vote_brute_force():
    with Reporter(8, "majority vote equals exhaustive brute force for all small grids"):
        for n_workers in range(1, 5):
            for dim in (1, 2):
                for combo in itertools.product((-1, 0, 1), repeat=n_workers * dim):
                    messages = [
                        np.array(combo[m * dim:(m + 1) * dim], dtype=np.int8)
                        for m in range(n_workers)
                    ]
                    out = server_aggregate_signs(messages)
                    for i in range(dim):
                        votes = [int(msg[i]) for msg in messages]
                        pos, neg = votes.count(1), votes.count(-1)
                        expected = 1 if pos > neg else (-1 if neg > pos else 0)
                        assert out[i] == expected


def test_criterion_09_gradient_correctness():
    with Reporter(9, "analytic gradients match central finite differences"):
        specs = [
            ModelSpec("linear-regression", 49),
            ModelSpec("logistic-regression", 49, num_classes=2),
            ModelSpec("mlp", 4, hidden_dim=5, num_classes=3),
        ]
        for spec in specs:
            assert spec.param_dim <= 50
            stream = RngStream(8005, 900 + spec.param_dim)
            kind = "linear-regression" if spec.kind == "linear-regression" else "logistic-regression"
            data, _ = generate_synthetic(stream, kind, spec.input_dim, 60)
            for _ in range(20):
                params = stream.generator.standard_normal(spec.param_dim)
                batch = sample_batch(stream, data.n_samples, 6)
                error = max_relative_grad_error(spec, params, data, batch)
                assert error < 1e-5, (spec.kind, error)


def test_criterion_10_determinism_byte_identical(tmp_path):
    with Reporter(10, "bundled logistic run reproduces metrics.csv byte for byte"):
        config = str(REPO / "configs" / "logistic_blind.cfg")
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = cli_main(["run", "--config", config, "--out", str(out)])
            assert code == 0
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]


def test_criterion_10_bundled_configs_match_recorded_anchors(tmp_path):
    with Reporter(10, "bundled configs reproduce the recorded metrics.csv sha256"):
        anchors = json.loads((REPO / "bench" / "anchors.json").read_text())["bundled"]
        assert len(anchors) == 3
        for name, expected in anchors.items():
            path = tmp_path / f"{name}.csv"
            # the exact call the benchmark makes
            write_metrics_csv(run_experiment(load_bundled_config(f"{name}.cfg"), parallel=False),
                              path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == expected, name


def test_criterion_11_rate_formula_sanity():
    with Reporter(11, "rate formulas: admissibility, noise-free equality, 1/K scaling"):
        from signvote.theory import BoundInputs

        def make(sigma, alpha, rounds):
            return BoundInputs(
                sigma=np.full(4, sigma), smoothness=np.full(4, 0.5),
                f0=2.0, fstar=0.0, n_workers=15, alpha=alpha, n_rounds=rounds,
            )

        def byzantine(inputs):
            return rate_bound_byzantine(inputs, 0.8)

        with pytest.raises(ValueError, match=r"alpha < 1 - 1/\(2p\)"):
            byzantine(make(1.0, 0.4, 100))  # edge is 0.375
        noise_free = make(0.0, 0.2, 100)
        assert abs(byzantine(noise_free) - rate_bound_blind(noise_free)) < 1e-12
        for bound in (rate_bound_blind, byzantine):
            ratio = bound(make(1.0, 0.2, 100)) / bound(make(1.0, 0.2, 200))
            assert abs(ratio - 2.0) < 1e-12
