"""RBF network: activations, updates, training loop, persistence."""

from __future__ import annotations

import json
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skylink import (
    ConfigurationError,
    DomainError,
    NormStats,
    RbfConfig,
    RbfNetwork,
    SchemaError,
    SPAN_FLOOR,
    TrainingDivergedError,
    error_signal,
    features_targets,
    fit_digest,
    gen_distance_sweep,
    gradient_check,
    init_network,
    load_model,
    save_model,
    train,
    train_step,
)
from skylink.rbf_net import PREDICT_CHUNK, UPDATE_MODES, _activations


def identity_norm(input_dim, output_dim=1):
    """Stats that make normalized and raw coordinates coincide on [0, 1]."""
    return NormStats(
        np.zeros(input_dim), np.ones(input_dim),
        np.zeros(output_dim), np.ones(output_dim),
    )


def one_unit_net(weight=0.5, center=0.3, span=1.0):
    return RbfNetwork(
        centers=np.array([[center]]),
        spans=np.array([span]),
        weights=np.array([[weight]]),
        norm=identity_norm(1),
    )


def random_net(rng, m=4, input_dim=3, output_dim=2):
    centers = rng.uniform(0.0, 1.0, size=(m, input_dim))
    spans = rng.uniform(0.2, 1.5, size=m)
    weights = rng.uniform(-1.0, 1.0, size=(output_dim, m))
    return RbfNetwork(centers, spans, weights, identity_norm(input_dim, output_dim))


def reference_step(net, x, d, config):
    """One per-sample update written out term by term; returns the pre-step e.

    This is the reference for the training kernel: the kernel must perform
    these floating-point operations in this order, so that trained models
    stay byte-identical. The centers and spans move by one product f * rate
    * g, where f = z coef / delta and g is diff / delta (diff in
    paper_literal mode) for a center and -q for a span. Zero-rate classes
    are skipped, as 0 * inf is nan.
    """
    diff = x - net.centers
    spans = net.spans
    q = (diff * diff).sum(axis=1) / (2.0 * spans * spans)
    z = np.exp(-q)
    e = d - net.weights @ z
    coef = e @ net.weights
    if config.update_mode == "derived_gradient":
        w_sign, g = 1.0, diff / spans[:, None]
    else:
        w_sign, g = -1.0, diff
    f = z * coef / spans
    new_w, new_centers, new_spans = net.weights, net.centers, spans
    if config.tau_w != 0.0:
        new_w = net.weights + np.outer(e, z * (w_sign * config.tau_w))
    if config.tau_mu != 0.0:
        new_centers = net.centers + (f * config.tau_mu)[:, None] * g
    tau_d = config.effective_tau_delta
    if tau_d != 0.0:
        new_spans = np.maximum(spans + f * (-2.0 * tau_d) * -q, SPAN_FLOOR)
    for name, value in (
        ("weights", new_w), ("centers", new_centers), ("spans", new_spans)
    ):
        if not np.all(np.isfinite(value)):
            raise TrainingDivergedError(name)
    net.weights, net.centers, net.spans = new_w, new_centers, new_spans
    return e


def previous_reference_step(net, x, d, config):
    """reference_step in the earlier operation order, kept to bound the drift
    of the reordering: the centers move by tau_mu (z / delta^2) coef diff and
    the spans by 2 tau_delta (z / delta) (-q) coef, each as its own product."""
    diff = x - net.centers
    spans = net.spans
    q = (diff * diff).sum(axis=1) / (2.0 * spans * spans)
    z = np.exp(-q)
    e = d - net.weights @ z
    coef = e @ net.weights
    if config.update_mode == "derived_gradient":
        w_sign, center_rate = 1.0, z / (spans * spans)
    else:
        w_sign, center_rate = -1.0, z / spans
    new_w, new_centers, new_spans = net.weights, net.centers, spans
    if config.tau_w != 0.0:
        new_w = net.weights + w_sign * config.tau_w * np.outer(e, z)
    if config.tau_mu != 0.0:
        new_centers = (
            net.centers + config.tau_mu * (center_rate * coef)[:, None] * diff
        )
    tau_d = config.effective_tau_delta
    if tau_d != 0.0:
        new_spans = np.maximum(
            spans - 2.0 * tau_d * (z / spans) * (-q) * coef, SPAN_FLOOR
        )
    for name, value in (
        ("weights", new_w), ("centers", new_centers), ("spans", new_spans)
    ):
        if not np.all(np.isfinite(value)):
            raise TrainingDivergedError(name)
    net.weights, net.centers, net.spans = new_w, new_centers, new_spans
    return e


def reference_train(net, X, Y, config, step=reference_step):
    """Plain epoch loop of ``step``; returns the per-epoch MSE list."""
    y_min, y_max = Y.min(axis=0), Y.max(axis=0)
    flat = y_max - y_min <= 0.0
    y_min[flat] -= 0.5
    y_max[flat] += 0.5
    net.norm.y_min, net.norm.y_max = y_min, y_max
    Xn = net.norm.normalize_features(X)
    Yn = net.norm.normalize_targets(Y)
    rng = np.random.default_rng(config.seed)
    mse, sq = [], np.empty(len(X))
    for epoch in range(config.epochs):
        for i in rng.permutation(len(X)):
            try:
                e = step(net, Xn[i], Yn[i], config)
            except TrainingDivergedError as exc:
                raise TrainingDivergedError(exc.parameter_class, epoch) from None
            sq[i] = np.add.reduce(e * e)
        mse.append(float(np.mean(sq)))
    return mse


def assert_same_parameters(a, b):
    np.testing.assert_array_equal(a.weights, b.weights, strict=True)
    np.testing.assert_array_equal(a.centers, b.centers, strict=True)
    np.testing.assert_array_equal(a.spans, b.spans, strict=True)


def assert_zero_rates_frozen(net, initial, config):
    for rate, name in (
        (config.tau_w, "weights"), (config.tau_mu, "centers"),
        (config.effective_tau_delta, "spans"),
    ):
        if rate == 0.0:
            np.testing.assert_array_equal(getattr(net, name), getattr(initial, name))


@st.composite
def training_cases(draw):
    """A random network, raw data set and config, rates zero or positive."""
    m = draw(st.integers(1, 6))
    dim = draw(st.integers(1, 9))  # row sums of 8+ terms run pairwise
    k = draw(st.integers(1, 2))
    n = draw(st.integers(m, m + 8))
    rate = st.sampled_from([0.0, 1e-3, 0.05, 0.5])
    config = RbfConfig(
        m_hidden=m, input_dim=dim, output_dim=k,
        tau_w=draw(rate), tau_mu=draw(rate), tau_delta=draw(rate),
        epochs=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16)),
        update_mode=draw(st.sampled_from(["derived_gradient", "paper_literal"])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    X = rng.uniform(0.0, 100.0, size=(n, dim))
    Y = rng.uniform(-120.0, -40.0, size=(n, k))
    return init_network(config, X), X, Y, config


class TestActivations:
    def test_unity_at_center(self):
        net = one_unit_net(center=0.3)
        assert net.hidden_activations(np.array([0.3]))[0] == 1.0

    def test_half_log_drop_at_one_span(self):
        net = one_unit_net(center=0.0, span=1.0)
        z = net.hidden_activations(np.array([1.0]))[0]
        assert z == pytest.approx(math.exp(-0.5), abs=1e-15)

    def test_wide_span_flattens_response(self):
        net = one_unit_net(center=0.0, span=1e6)
        assert net.hidden_activations(np.array([1.0]))[0] == pytest.approx(
            1.0, abs=1e-9
        )

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(2)
        net = random_net(rng)
        for _ in range(100):
            z = net.hidden_activations(rng.uniform(-2.0, 3.0, size=3))
            assert np.all(z > 0.0) and np.all(z <= 1.0)

    def test_two_unit_hand_computation(self):
        net = RbfNetwork(
            centers=np.array([[0.0], [1.0]]),
            spans=np.array([1.0, 2.0]),
            weights=np.array([[2.0, -3.0]]),
            norm=identity_norm(1),
        )
        x = np.array([0.25])
        z1 = math.exp(-(0.25**2) / 2.0)
        z2 = math.exp(-(0.75**2) / 8.0)
        np.testing.assert_allclose(
            net.hidden_activations(x), [z1, z2], rtol=0, atol=1e-15
        )
        assert net.forward(x)[0] == pytest.approx(2.0 * z1 - 3.0 * z2, abs=1e-15)

    def test_forward_with_zero_weights(self):
        net = RbfNetwork(
            centers=np.array([[0.2, 0.8]]),
            spans=np.array([0.5]),
            weights=np.zeros((1, 1)),
            norm=identity_norm(2),
        )
        assert net.forward(np.array([0.5, 0.5]))[0] == 0.0

    @pytest.mark.parametrize("layout", ["C", "block view"])
    def test_equal_the_training_step_bit_for_bit(self, layout):
        # 9 coordinates: row sums of 8+ terms run pairwise, in another order
        # along d than along m; hidden_activations passes the F-ordered
        # centers.T, _sgd the C-ordered (d, m) rows of its block
        rng = np.random.default_rng(23)
        net = random_net(rng, m=20, input_dim=9, output_dim=2)
        x = rng.uniform(0.0, 1.0, size=9)
        centers = np.ascontiguousarray(net.centers.T)
        if layout == "block view":
            block = np.concatenate([net.weights, net.spans[None, :], net.centers.T])
            centers = block[3:12]
            assert centers.base is block and centers.flags.c_contiguous
        z = _activations(centers, net.spans, x[:, None])[2]
        assert [v.hex() for v in net.hidden_activations(x).tolist()] == [
            v.hex() for v in z.tolist()
        ]

    @pytest.mark.parametrize("dim", [4, 7, 8, 9])  # row sums of 8+ terms run pairwise
    @pytest.mark.parametrize("scale", [1.0, 1e-160])  # 1e-160: subnormal span squares
    def test_out_buffers_keep_every_bit(self, dim, scale):
        # the step's call: a pre-broadcast (d, m) row, a -2 row and buffers for
        # diff, -q, the squares, the denominator and z; for d >= 8 the sum runs
        # on a transposed copy, not on the squares buffer
        rng = np.random.default_rng(dim)
        m = 20
        centers = rng.uniform(0.0, scale, size=(dim, m))
        spans = rng.uniform(0.5 * scale, 2.0 * scale, size=m)
        x = rng.uniform(0.0, scale, size=(dim, 1))
        assert (np.min(spans * spans) < np.finfo(float).tiny) == (scale < 1.0)
        out = (np.empty((dim, m)), np.empty(m), np.empty((dim, m)), np.empty(m), np.empty(m))
        want = _activations(centers, spans, x)
        got = _activations(centers, spans, np.repeat(x, m, axis=1), np.full(m, -2.0), out)
        assert all(a is b for a, b in zip(got, (out[0], out[1], out[4])))
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_input_dimension_enforced(self):
        net = one_unit_net()
        with pytest.raises(DomainError):
            net.hidden_activations(np.array([0.1, 0.2]))


class TestErrorSignal:
    def test_difference(self):
        np.testing.assert_array_equal(
            error_signal(np.array([1.0, 2.0]), np.array([0.5, 3.0])),
            np.array([0.5, -1.0]),
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            error_signal(np.array([1.0]), np.array([1.0, 2.0]))


class TestTrainStep:
    def test_zero_error_leaves_network_unchanged(self):
        for mode in ("derived_gradient", "paper_literal"):
            net = one_unit_net(weight=0.7, center=0.3)
            config = RbfConfig(
                m_hidden=1, input_dim=1, tau_w=0.5, tau_mu=0.5, update_mode=mode
            )
            train_step(net, np.array([0.3]), np.array([0.7]), config)
            assert net.weights[0, 0] == 0.7
            assert net.centers[0, 0] == 0.3
            assert net.spans[0] == 1.0

    def test_weight_update_at_center_descends(self):
        # At the center z = 1 and the geometry terms vanish, so the whole
        # step is W += tau_w * e.
        net = one_unit_net(weight=0.2, center=0.4)
        config = RbfConfig(m_hidden=1, input_dim=1, tau_w=0.1, tau_mu=0.3)
        train_step(net, np.array([0.4]), np.array([1.0]), config)
        assert net.weights[0, 0] == pytest.approx(0.2 + 0.1 * 0.8, abs=1e-15)
        assert net.centers[0, 0] == 0.4
        assert net.spans[0] == 1.0

    def test_weight_update_at_center_literal_ascends(self):
        net = one_unit_net(weight=0.2, center=0.4)
        config = RbfConfig(
            m_hidden=1, input_dim=1, tau_w=0.1, tau_mu=0.3,
            update_mode="paper_literal",
        )
        train_step(net, np.array([0.4]), np.array([1.0]), config)
        assert net.weights[0, 0] == pytest.approx(0.2 - 0.1 * 0.8, abs=1e-15)

    def test_small_steps_reduce_objective(self):
        rng = np.random.default_rng(31)
        config = RbfConfig(
            m_hidden=4, input_dim=3, output_dim=2,
            tau_w=1e-4, tau_mu=1e-4, tau_delta=1e-4,
        )
        for _ in range(50):
            net = random_net(rng)
            x = rng.uniform(0.0, 1.0, size=3)
            d = rng.uniform(0.0, 1.0, size=2)
            before = float(np.sum((d - net.forward(x)) ** 2))
            train_step(net, x, d, config)
            after = float(np.sum((d - net.forward(x)) ** 2))
            assert after <= before

    def test_literal_weight_rule_grows_error(self):
        # Freeze centers and spans; the flipped sign then moves the output
        # away from the target each step.
        net = one_unit_net(weight=0.2, center=0.5)
        config = RbfConfig(
            m_hidden=1, input_dim=1, tau_w=0.05, tau_mu=0.0, tau_delta=0.0,
            update_mode="paper_literal",
        )
        x, d = np.array([0.5]), np.array([1.0])
        errors = []
        for _ in range(20):
            errors.append(abs(d[0] - net.forward(x)[0]))
            train_step(net, x, d, config)
        errors.append(abs(d[0] - net.forward(x)[0]))
        assert all(b > a for a, b in zip(errors, errors[1:]))

    def test_span_update_floor(self):
        net = one_unit_net(weight=1.0, center=0.0, span=0.5)
        config = RbfConfig(
            m_hidden=1, input_dim=1, tau_w=0.0, tau_mu=0.0, tau_delta=50.0
        )
        # Output 1*z exceeds the 0 target, so e*W < 0 and the span shrinks;
        # a huge rate slams it into the floor.
        train_step(net, np.array([0.8]), np.array([0.0]), config)
        assert net.spans[0] == SPAN_FLOOR

    def test_span_step_reaching_minus_inf_is_floored(self):
        # -2 tau_delta overflows to -inf, so the span step is -inf; the floor
        # makes the span finite within the step, so nothing diverges
        net = one_unit_net(weight=1.0, center=0.0, span=0.5)
        config = RbfConfig(
            m_hidden=1, input_dim=1, tau_w=0.1, tau_mu=0.1, tau_delta=1e308
        )
        ref = net.copy()
        with np.errstate(over="ignore"):
            reference_step(ref, np.array([0.8]), np.array([0.0]), config)
        train_step(net, np.array([0.8]), np.array([0.0]), config)
        assert net.spans[0] == SPAN_FLOOR
        assert_same_parameters(net, ref)
        assert net.weights[0, 0] != 1.0 and net.centers[0, 0] != 0.0

    def test_two_classes_diverging_in_one_step_blame_the_first(self):
        # a huge target overflows the weight and the span step at once; the
        # blame goes in block order, weights before centers before spans
        net = one_unit_net(weight=1.0, center=0.0, span=0.5)
        config = RbfConfig(
            m_hidden=1, input_dim=1, tau_w=1e10, tau_mu=0.0, tau_delta=1e10
        )
        ref, x, d = net.copy(), np.array([0.8]), np.array([1e300])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as want:
                reference_step(ref, x, d, config)
        with pytest.raises(TrainingDivergedError) as got:
            train_step(net, x, d, config)
        assert got.value.parameter_class == want.value.parameter_class == "weights"
        assert_same_parameters(net, one_unit_net(weight=1.0, center=0.0, span=0.5))

    def test_centers_and_spans_diverging_in_one_step_blame_the_centers(self):
        # frozen weights; huge center and span rates overflow both classes at
        # once. The blame order is weights, centers, spans, although the block
        # holds the span row before the center rows
        net = one_unit_net(weight=1.0, center=0.0, span=0.5)
        config = RbfConfig(
            m_hidden=1, input_dim=1, tau_w=0.0, tau_mu=1e300, tau_delta=1e300
        )
        ref, x, d = net.copy(), np.array([0.8]), np.array([1e10])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as want:
                reference_step(ref, x, d, config)
        with pytest.raises(TrainingDivergedError) as got:
            train_step(net, x, d, config)
        assert got.value.parameter_class == want.value.parameter_class == "centers"
        assert_same_parameters(net, one_unit_net(weight=1.0, center=0.0, span=0.5))

    def test_target_dimension_enforced(self):
        net = one_unit_net()
        config = RbfConfig(m_hidden=1, input_dim=1)
        with pytest.raises(DomainError):
            train_step(net, np.array([0.5]), np.array([1.0, 2.0]), config)


class TestKernelMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(training_cases())
    def test_train_is_bitwise_reference(self, case):
        net, X, Y, config = case
        initial, ref = net.copy(), net.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            mse = reference_train(ref, X, Y, config)
            net, report = train(net, X, Y, config)
        assert_same_parameters(net, ref)
        assert report.mse_per_epoch == mse
        assert_zero_rates_frozen(net, initial, config)

    @settings(max_examples=60, deadline=None)
    @given(training_cases())
    def test_train_step_is_bitwise_reference(self, case):
        net, X, Y, config = case
        initial, ref = net.copy(), net.copy()
        Xn = net.norm.normalize_features(X)
        Yn = Y / 100.0 + 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for x, d in zip(Xn, Yn):
                reference_step(ref, x, d, config)
                train_step(net, x, d, config)
                assert_same_parameters(net, ref)
        assert_zero_rates_frozen(net, initial, config)

    @pytest.mark.parametrize("dim", [4, 7, 8, 9])  # row sums of 8+ terms run pairwise
    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode", UPDATE_MODES)
    @pytest.mark.parametrize("frozen", ["tau_w", "tau_mu", "tau_delta"])
    def test_train_is_bitwise_reference_around_eight_inputs(self, dim, k, mode, frozen):
        rates = {"tau_w": 0.2, "tau_mu": 0.05, "tau_delta": 0.05, frozen: 0.0}
        config = RbfConfig(
            m_hidden=5, input_dim=dim, output_dim=k, epochs=3, seed=dim,
            update_mode=mode, **rates,
        )
        rng = np.random.default_rng(100 * dim + k)
        X = rng.uniform(0.0, 100.0, size=(12, dim))
        Y = rng.uniform(-120.0, -40.0, size=(12, k))
        net = init_network(config, X)
        initial, ref = net.copy(), net.copy()
        mse = reference_train(ref, X, Y, config)
        net, report = train(net, X, Y, config)
        assert_same_parameters(net, ref)
        assert report.mse_per_epoch == mse
        assert_zero_rates_frozen(net, initial, config)

    def test_train_step_is_bitwise_reference_with_subnormal_span_squares(self):
        # delta ~ 1e-160, so delta^2 is subnormal and (-2 delta) delta differs
        # from -2 (delta delta); z / delta^2 overflows, so tau_mu = 0
        config = RbfConfig(
            m_hidden=8, input_dim=2, tau_w=0.2, tau_mu=0.0, tau_delta=0.05
        )
        rng = np.random.default_rng(5)
        for _ in range(5):
            net = RbfNetwork(
                centers=rng.uniform(0.0, 3e-160, size=(8, 2)),
                spans=rng.uniform(0.5e-160, 2e-160, size=8),
                weights=rng.uniform(-1.0, 1.0, size=(1, 8)),
                norm=identity_norm(2),
            )
            assert 0.0 < np.max(net.spans * net.spans) < np.finfo(float).tiny
            ref = net.copy()
            x, d = rng.uniform(0.0, 3e-160, size=2), rng.uniform(0.0, 1.0, size=1)
            with np.errstate(over="ignore"):
                reference_step(ref, x, d, config)
            train_step(net, x, d, config)
            assert_same_parameters(net, ref)

    def test_zero_rate_centers_stay_bit_exact_with_subnormal_span_squares(self):
        # the center rows of the update are +-0 at tau_mu = 0, and -0.0 + 0.0
        # is 0.0: only copying the frozen rows back keeps a -0.0 center
        config = RbfConfig(
            m_hidden=8, input_dim=2, tau_w=0.2, tau_mu=0.0, tau_delta=0.05
        )
        rng = np.random.default_rng(6)
        centers = rng.uniform(0.0, 3e-160, size=(8, 2))
        centers[:, 0] = -0.0
        net = RbfNetwork(
            centers=centers, spans=rng.uniform(0.5e-160, 2e-160, size=8),
            weights=rng.uniform(-1.0, 1.0, size=(1, 8)), norm=identity_norm(2),
        )
        assert 0.0 < np.max(net.spans * net.spans) < np.finfo(float).tiny
        for _ in range(5):
            x, d = rng.uniform(0.0, 3e-160, size=2), rng.uniform(0.0, 1.0, size=1)
            train_step(net, x, d, config)
            assert net.centers.tobytes() == centers.tobytes()
            assert np.all(np.signbit(net.centers[:, 0]))


class TestGradientCheck:
    def test_random_networks_pass(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            net = random_net(rng)
            x = rng.uniform(0.0, 1.0, size=3)
            d = rng.uniform(0.0, 1.0, size=2)
            assert gradient_check(net, (x, d)) < 1e-4

    def test_zero_error_gives_zero_gradients(self):
        net = one_unit_net(weight=0.7, center=0.3)
        err = gradient_check(net, (np.array([0.3]), np.array([0.7])))
        assert err < 1e-6

    @pytest.mark.parametrize("seed, m, dim, k, want", [
        (21, 4, 3, 2, "0x1.5b962c66f6454p-27"),
        (22, 6, 9, 1, "0x1.1af6667ddc000p-24"),
    ])
    def test_value_is_pinned(self, seed, m, dim, k, want):
        # pinned from the code that evaluated the hidden layer by two formulas
        rng = np.random.default_rng(seed)
        net = random_net(rng, m=m, input_dim=dim, output_dim=k)
        sample = rng.uniform(size=dim), rng.uniform(size=k)
        assert gradient_check(net, sample).hex() == want

    def test_epsilon_domain(self):
        net = one_unit_net()
        sample = (np.array([0.5]), np.array([1.0]))
        with pytest.raises(DomainError):
            gradient_check(net, sample, epsilon=1e-2)
        with pytest.raises(DomainError):
            gradient_check(net, sample, epsilon=1e-10)

    def test_does_not_mutate_network(self):
        rng = np.random.default_rng(9)
        net = random_net(rng)
        w0, c0, s0 = net.weights.copy(), net.centers.copy(), net.spans.copy()
        gradient_check(net, (rng.uniform(size=3), rng.uniform(size=2)))
        np.testing.assert_array_equal(net.weights, w0)
        np.testing.assert_array_equal(net.centers, c0)
        np.testing.assert_array_equal(net.spans, s0)


class TestInitNetwork:
    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(13)
        inputs = rng.uniform(0.0, 100.0, size=(30, 4))
        config = RbfConfig(m_hidden=10, input_dim=4, seed=5)
        a = init_network(config, inputs)
        b = init_network(config, inputs)
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.spans, b.spans)
        np.testing.assert_array_equal(a.weights, b.weights)
        c = init_network(RbfConfig(m_hidden=10, input_dim=4, seed=6), inputs)
        assert not np.array_equal(a.centers, c.centers)

    def test_centers_are_input_rows(self):
        rng = np.random.default_rng(19)
        inputs = rng.uniform(0.0, 10.0, size=(8, 2))
        config = RbfConfig(m_hidden=8, input_dim=2, seed=0)
        net = init_network(config, inputs)
        normalized = net.norm.normalize_features(inputs)
        got = sorted(map(tuple, np.round(net.centers, 12)))
        want = sorted(map(tuple, np.round(normalized, 12)))
        assert got == want

    def test_uniform_positive_spans(self):
        rng = np.random.default_rng(29)
        inputs = rng.uniform(0.0, 10.0, size=(40, 3))
        net = init_network(RbfConfig(m_hidden=12, input_dim=3), inputs)
        assert np.all(net.spans > 0.0)
        assert np.unique(net.spans).size == 1

    def test_coinciding_centers_start_at_span_one_half(self):
        inputs = np.tile([3.0, 7.0], (5, 1))  # every row the same
        net = init_network(RbfConfig(m_hidden=3, input_dim=2), inputs)
        assert net.spans.tolist() == [0.5, 0.5, 0.5]

    def test_two_output_anchor_weights(self):
        rng = np.random.default_rng(37)
        inputs = rng.uniform(0.0, 10.0, size=(20, 3))
        net = init_network(
            RbfConfig(m_hidden=6, input_dim=3, output_dim=2), inputs
        )
        assert net.weights[0, 0] == 1.0
        assert net.weights[1, 0] == 1.0
        rest = np.ones_like(net.weights, dtype=bool)
        rest[0, 0] = rest[1, 0] = False
        assert np.all(np.abs(net.weights[rest]) <= 0.1)

    def test_requires_enough_rows(self):
        inputs = np.zeros((5, 4))
        with pytest.raises(ConfigurationError):
            init_network(RbfConfig(m_hidden=6, input_dim=4), inputs)

    def test_requires_matching_width(self):
        inputs = np.zeros((30, 3))
        with pytest.raises(ConfigurationError):
            init_network(RbfConfig(m_hidden=5, input_dim=4), inputs)

    def test_constant_column_maps_to_midpoint(self):
        rng = np.random.default_rng(41)
        inputs = np.column_stack(
            [rng.uniform(0.0, 10.0, size=20), np.full(20, 7.0)]
        )
        net = init_network(RbfConfig(m_hidden=5, input_dim=2), inputs)
        normalized = net.norm.normalize_features(inputs)
        np.testing.assert_allclose(normalized[:, 1], 0.5, rtol=0, atol=1e-15)


class TestNormStats:
    def test_round_trip(self):
        rng = np.random.default_rng(43)
        stats = NormStats(
            x_min=np.array([-3.0, 10.0]), x_max=np.array([5.0, 400.0]),
            y_min=np.array([-120.0]), y_max=np.array([-40.0]),
        )
        for _ in range(50):
            x = rng.uniform(-10.0, 500.0, size=2)
            y = rng.uniform(-150.0, 0.0, size=1)
            np.testing.assert_allclose(
                stats.denormalize_features(stats.normalize_features(x)),
                x, rtol=1e-12,
            )
            np.testing.assert_allclose(
                stats.denormalize_targets(stats.normalize_targets(y)),
                y, rtol=1e-12,
            )

    def test_requires_min_below_max(self):
        with pytest.raises(ConfigurationError):
            NormStats(
                x_min=np.array([1.0]), x_max=np.array([1.0]),
                y_min=np.array([0.0]), y_max=np.array([1.0]),
            )

    @pytest.mark.parametrize("field, value, message", [
        ("x_min", [[0.0]], "x_min array must have shape (*), got (1, 1)"),
        ("x_max", [1.0, 2.0], "x_max array must have shape (1), got (2)"),
        ("y_min", [math.nan], "non-finite y_min at row 0, column 0: nan"),
        ("y_max", [math.inf], "non-finite y_max at row 0, column 0: inf"),
    ])
    def test_each_array_is_one_dimensional_and_finite(self, field, value, message):
        stats = {"x_min": [0.0], "x_max": [1.0], "y_min": [0.0], "y_max": [1.0]}
        with pytest.raises(ConfigurationError) as excinfo:
            NormStats(**{**stats, field: value})
        assert str(excinfo.value) == message


    @pytest.mark.parametrize("lo, hi", [("x_min", "x_max"), ("y_min", "y_max")])
    def test_span_must_be_finite(self, lo, hi):
        stats = {"x_min": [0.0], "x_max": [1.0], "y_min": [0.0], "y_max": [1.0]}
        with pytest.raises(ConfigurationError) as excinfo:
            NormStats(**{**stats, lo: [-1e308], hi: [1e308]})
        assert str(excinfo.value) == f"{hi} - {lo} must be finite"


def toy_problem(n=40, seed=3):
    """Smooth scalar map on [0, 1]^2 with raw-unit targets."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 2))
    y = -90.0 + 25.0 * np.exp(-((X[:, 0] - 0.4) ** 2 + (X[:, 1] - 0.6) ** 2) / 0.1)
    return X, y[:, None]


class TestTrain:
    def test_empty_training_set_rejected(self):
        config = RbfConfig(m_hidden=2, input_dim=2, epochs=1)
        net = init_network(config, toy_problem()[0])
        with pytest.raises(ConfigurationError) as excinfo:
            train(net, np.empty((0, 2)), np.empty((0, 1)), config)
        assert str(excinfo.value) == "training set is empty"

    def test_targets_whose_span_overflows_rejected(self):
        X, _ = toy_problem(n=4)
        config = RbfConfig(m_hidden=2, input_dim=2, epochs=1)
        Y = np.array([[-1e308], [1e308], [0.0], [0.0]])
        with pytest.raises(ConfigurationError) as excinfo:
            train(init_network(config, X), X, Y, config)
        assert str(excinfo.value) == "y_max - y_min must be finite"

    def test_learns_smooth_surface(self):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=8, input_dim=2, epochs=200, seed=1)
        net = init_network(config, X)
        net, report = train(net, X, Y, config)
        assert report.final_train_rmse_norm < 0.05
        assert len(report.mse_per_epoch) == 200

    def test_single_sample_descent_is_monotone(self):
        X = np.array([[0.3, 0.6]])
        Y = np.array([[-75.0]])
        config = RbfConfig(
            m_hidden=1, input_dim=2, tau_w=1e-3, tau_mu=1e-3, epochs=400, seed=0
        )
        net = init_network(config, X)
        net, report = train(net, X, Y, config)
        mses = report.mse_per_epoch
        assert all(b <= a + 1e-15 for a, b in zip(mses, mses[1:]))

    def test_zero_rates_freeze_loss(self):
        X, Y = toy_problem()
        config = RbfConfig(
            m_hidden=6, input_dim=2, tau_w=0.0, tau_mu=0.0, tau_delta=0.0,
            epochs=30, seed=2,
        )
        net = init_network(config, X)
        w0 = net.weights.copy()
        net, report = train(net, X, Y, config)
        assert len(set(report.mse_per_epoch)) == 1
        np.testing.assert_array_equal(net.weights, w0)

    def test_first_epoch_mse_matches_hand_computation(self):
        X, Y = toy_problem()
        config = RbfConfig(
            m_hidden=6, input_dim=2, tau_w=0.0, tau_mu=0.0, tau_delta=0.0,
            epochs=1, seed=2,
        )
        net = init_network(config, X)
        frozen = net.copy()
        net, report = train(net, X, Y, config)
        # With frozen parameters the epoch MSE is the plain average of
        # sum_k e_k^2 over all rows, in normalized units.
        y_min, y_max = Y.min(), Y.max()
        total = 0.0
        for x, y in zip(X, Y):
            yn = (y - y_min) / (y_max - y_min)
            e = yn - frozen.forward(frozen.norm.normalize_features(x))
            total += float(e @ e)
        assert report.mse_per_epoch[0] == pytest.approx(
            total / len(X), rel=1e-12
        )

    def test_repeat_runs_are_bitwise_identical(self):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=8, input_dim=2, epochs=50, seed=4)
        net1, rep1 = train(init_network(config, X), X, Y, config)
        net2, rep2 = train(init_network(config, X), X, Y, config)
        np.testing.assert_array_equal(net1.weights, net2.weights)
        np.testing.assert_array_equal(net1.centers, net2.centers)
        np.testing.assert_array_equal(net1.spans, net2.spans)
        assert rep1.mse_per_epoch == rep2.mse_per_epoch
        assert rep1.final_train_rmse_db == rep2.final_train_rmse_db

    def test_validation_metrics_reported(self):
        X, Y = toy_problem(n=50)
        config = RbfConfig(m_hidden=8, input_dim=2, epochs=100, seed=5)
        net = init_network(config, X[:40])
        net, report = train(net, X[:40], Y[:40], config, validation=(X[40:], Y[40:]))
        assert report.final_val_rmse_db is not None
        assert report.final_val_rmse_norm is not None
        pv = net.predict(X[40:]).reshape(-1, 1)
        want = float(np.sqrt(np.mean((pv - Y[40:]) ** 2)))
        assert report.final_val_rmse_db == pytest.approx(want, rel=1e-12)

    def test_no_validation_leaves_fields_none(self):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=5, seed=6)
        _, report = train(init_network(config, X), X, Y, config)
        assert report.final_val_rmse_db is None
        assert report.final_val_rmse_norm is None

    def test_centers_divergence_keeps_last_finite_parameters(self):
        # One sample at the unit's center: diff stays 0 and the ascending
        # paper_literal weights grow 1.5x per step until the center step
        # overflows (inf * 0 is nan) while the weights are still finite.
        X, Y = np.array([[7.0]]), np.array([[-80.0]])
        config = RbfConfig(
            m_hidden=1, input_dim=1, tau_w=0.5, tau_mu=1e300, tau_delta=0.0,
            epochs=100, seed=0, update_mode="paper_literal",
        )
        net = init_network(config, X)
        ref = net.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as want:
                reference_train(ref, X, Y, config)
            with pytest.raises(TrainingDivergedError) as got:
                train(net, X, Y, config)
        assert got.value.parameter_class == want.value.parameter_class == "centers"
        assert got.value.epoch == want.value.epoch > 10
        assert_same_parameters(net, ref)
        assert abs(net.weights[0, 0]) > 1e3

    def test_spans_divergence_keeps_last_finite_parameters(self):
        # with so large a span rate a span step overflows in the first
        # epoch, after the weights have taken finite steps
        X, Y = toy_problem()
        config = RbfConfig(
            m_hidden=6, input_dim=2, tau_w=0.1, tau_mu=0.0, tau_delta=1e304,
            epochs=5, seed=7,
        )
        net = init_network(config, X)
        initial, ref = net.copy(), net.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as want:
                reference_train(ref, X, Y, config)
            with pytest.raises(TrainingDivergedError) as got:
                train(net, X, Y, config)
        assert got.value.parameter_class == want.value.parameter_class == "spans"
        assert got.value.epoch == want.value.epoch == 0
        assert_same_parameters(net, ref)
        assert not np.array_equal(net.weights, initial.weights)

    def test_divergence_after_the_first_step_of_a_later_epoch_replays_exactly(self):
        # _sgd checks finiteness once per epoch, then replays the epoch with a
        # check per step: the error and the parameters it leaves are those of
        # the reference's per-step check
        X, Y = toy_problem()
        config = RbfConfig(
            m_hidden=6, input_dim=2, tau_w=10.0, tau_mu=0.0, tau_delta=0.0,
            epochs=60, seed=7,
        )
        net = init_network(config, X)
        ref = net.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as want:
                reference_train(ref, X, Y, config)
        with pytest.raises(TrainingDivergedError) as got:
            train(net, X, Y, config)  # no RuntimeWarning escapes either
        assert got.value.parameter_class == want.value.parameter_class == "weights"
        assert got.value.epoch == want.value.epoch > 0
        assert_same_parameters(net, ref)
        # the diverging epoch took finite steps before the one that diverged
        begun = init_network(config, X)
        with np.errstate(over="ignore"):
            reference_train(begun, X, Y, replace(config, epochs=want.value.epoch))
        assert not np.array_equal(net.weights, begun.weights)

    def test_reordered_update_stays_within_1e_9_of_the_previous_order(self, urban):
        # bounds the drift between the kernel's operation order and
        # previous_reference_step's: parameters relatively, predictions in dB
        distances = np.linspace(100.0, 2000.0, 200).tolist()
        X, Y = features_targets(gen_distance_sweep(urban, 100.0, distances))
        config = RbfConfig(epochs=100, seed=7)
        net = init_network(config, X)
        previous = net.copy()
        net, report = train(net, X, Y, config)
        mse = reference_train(previous, X, Y, config, step=previous_reference_step)
        for name in ("weights", "centers", "spans"):
            np.testing.assert_allclose(
                getattr(net, name), getattr(previous, name), rtol=1e-9, atol=0.0
            )
        np.testing.assert_allclose(
            net.predict(X), previous.predict(X), rtol=0.0, atol=1e-9
        )
        np.testing.assert_allclose(report.mse_per_epoch, mse, rtol=1e-9, atol=0.0)

    def test_divergence_reports_epoch_and_parameters(self):
        X, Y = toy_problem()
        config = RbfConfig(
            m_hidden=6, input_dim=2, tau_w=1e8, tau_mu=0.0, tau_delta=0.0,
            epochs=50, seed=7,
        )
        net = init_network(config, X)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as excinfo:
                train(net, X, Y, config)
        assert excinfo.value.epoch is not None
        assert "weights" in str(excinfo.value)
        assert "epoch" in str(excinfo.value)

    def test_shape_validation(self):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=5)
        net = init_network(config, X)
        with pytest.raises(ConfigurationError):
            train(net, X[:, :1], Y, config)
        with pytest.raises(ConfigurationError):
            train(net, X, Y[:-1], config)


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            RbfConfig(m_hidden=0)
        with pytest.raises(ConfigurationError):
            RbfConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            RbfConfig(tau_w=-0.1)
        with pytest.raises(ConfigurationError):
            RbfConfig(tau_mu=math.nan)
        with pytest.raises(ConfigurationError):
            RbfConfig(update_mode="newton")

    @pytest.mark.parametrize("field, value, rule", [
        ("epochs", 2.5, "int and > 0"),
        ("m_hidden", True, "int and > 0"),
        ("seed", "7", "int and >= 0"),
        ("seed", -1, "int and >= 0"),
        ("tau_delta", math.inf, "finite and >= 0"),
    ])
    def test_rejects_wrong_typed_values(self, field, value, rule):
        with pytest.raises(ConfigurationError) as excinfo:
            RbfConfig(**{field: value})
        assert str(excinfo.value) == f"{field} must be {rule}, got {value!r}"

    def test_zero_rates_allowed(self):
        config = RbfConfig(tau_w=0.0, tau_mu=0.0, tau_delta=0.0)
        assert config.effective_tau_delta == 0.0

    def test_tau_delta_defaults_to_tau_mu(self):
        assert RbfConfig(tau_mu=0.07).effective_tau_delta == 0.07
        assert RbfConfig(tau_mu=0.07, tau_delta=0.01).effective_tau_delta == 0.01


class TestPersistence:
    def test_round_trip_is_value_exact(self, tmp_path):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=8, input_dim=2, epochs=30, seed=8)
        net, _ = train(init_network(config, X), X, Y, config)
        path = tmp_path / "model.json"
        save_model(path, net, config)
        loaded, loaded_config = load_model(path)
        np.testing.assert_array_equal(loaded.centers, net.centers)
        np.testing.assert_array_equal(loaded.spans, net.spans)
        np.testing.assert_array_equal(loaded.weights, net.weights)
        np.testing.assert_array_equal(loaded.norm.x_min, net.norm.x_min)
        np.testing.assert_array_equal(loaded.norm.y_max, net.norm.y_max)
        assert loaded_config == config
        probe = np.array([[0.2, 0.9], [0.7, 0.1]])
        np.testing.assert_array_equal(loaded.predict(probe), net.predict(probe))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_round_trip_is_bit_exact_for_any_finite_parameters(self, data):
        finite = st.floats(allow_nan=False, allow_infinity=False)
        rate = st.floats(min_value=0.0, allow_infinity=False)
        m, d, out = (data.draw(st.integers(1, n)) for n in (4, 3, 2))

        def array(shape, elements=finite):
            size = math.prod(shape)
            values = data.draw(st.lists(elements, min_size=size, max_size=size))
            return np.array(values, dtype=float).reshape(shape)

        def bounds(n):  # n columns of min < max, max - min finite as NormStats needs
            pairs = st.tuples(finite, finite).filter(
                lambda p: p[0] != p[1] and math.isfinite(p[0] - p[1])
            )
            lo, hi = zip(*(sorted(p) for p in data.draw(
                st.lists(pairs, min_size=n, max_size=n)
            )))
            return list(lo), list(hi)

        norm = NormStats(*bounds(d), *bounds(out))
        positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
        spans = array((m,), positive)
        net = RbfNetwork(array((m, d)), spans, array((out, m)), norm)
        config = RbfConfig(
            m_hidden=m, input_dim=d, output_dim=out, tau_w=data.draw(rate),
            tau_mu=data.draw(rate), tau_delta=data.draw(st.none() | rate),
            epochs=data.draw(st.integers(1, 10**6)),
            seed=data.draw(st.integers(0, 2**64)),
            update_mode=data.draw(st.sampled_from(UPDATE_MODES)),
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(path, net, config)
            loaded, loaded_config = load_model(path)
        assert loaded_config == config
        pairs = [(loaded.centers, net.centers), (loaded.spans, net.spans),
                 (loaded.weights, net.weights)] + [
            (getattr(loaded.norm, k), getattr(net.norm, k))
            for k in ("x_min", "x_max", "y_min", "y_max")
        ]
        for got, want in pairs:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_fit_digest_is_one_more_key_that_load_checks_on_request(self, tmp_path):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=9)
        net, _ = train(init_network(config, X), X, Y, config)
        digest = fit_digest(config, X, Y)
        save_model(tmp_path / "plain.json", net, config)
        save_model(tmp_path / "model.json", net, config, digest)
        plain = json.loads((tmp_path / "plain.json").read_text(encoding="utf-8"))
        doc = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert doc == {**plain, "fit_digest": digest} and list(doc)[-1] == "fit_digest"
        for args in ([], [digest]):
            loaded, loaded_config = load_model(tmp_path / "model.json", *args)
            assert loaded_config == config
            for name in ("centers", "spans", "weights"):
                assert getattr(loaded, name).tobytes() == getattr(net, name).tobytes()
        for name, other in (("plain.json", digest), ("model.json", "0" * 64)):
            with pytest.raises(SchemaError, match=f": fit_digest is not {other}$"):
                load_model(tmp_path / name, other)

    @pytest.mark.parametrize("change", [
        "config", "entry", "shape", "arrays", "package", "format", "numpy", "source",
    ])
    def test_fit_digest_covers_what_fixes_the_fit(self, tmp_path, monkeypatch, change):
        import skylink
        from skylink import rbf_net

        X, Y = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=9)
        args = [config, X, Y]
        want = fit_digest(*args)
        assert fit_digest(config, X.copy(), Y.copy()) == want
        if change == "config":
            args[0] = RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=10)
        elif change == "entry":
            args[1] = X.copy()
            args[1][3, 1] = np.nextafter(X[3, 1], 2.0)
        elif change == "shape":  # the same bytes
            args[1] = X.reshape(X.shape[1], X.shape[0])
        elif change == "arrays":  # a validation split
            args += [X[:2], Y[:2]]
        elif change == "package":
            monkeypatch.setattr(skylink, "__version__", "0.0.0")
        elif change == "format":
            monkeypatch.setattr(rbf_net, "MODEL_FORMAT_VERSION", 2)
        elif change == "numpy":
            monkeypatch.setattr(np, "__version__", "0.0.0")
        else:  # an edit to rbf_net.py that bumps no version
            source = Path(rbf_net.__file__).read_text(encoding="utf-8")
            (tmp_path / "rbf_net.py").write_text(source + "#\n", encoding="utf-8")
            monkeypatch.setattr(rbf_net, "__file__", str(tmp_path / "rbf_net.py"))
        assert fit_digest(*args) != want

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_model(path)

    def test_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format_version": 1}', encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_model(path)
        assert "missing" in str(excinfo.value)

    def test_rejects_unknown_version(self, tmp_path):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=9)
        net, _ = train(init_network(config, X), X, Y, config)
        path = tmp_path / "model.json"
        save_model(path, net, config)
        doc = path.read_text(encoding="utf-8").replace(
            '"format_version": 1', '"format_version": 99'
        )
        path.write_text(doc, encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_model(path)
        assert "format_version" in str(excinfo.value)

    def test_rejects_a_boolean_version(self, tmp_path):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=9)
        path = tmp_path / "model.json"
        save_model(path, init_network(config, X), config)
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["format_version"] = True  # True == 1 in Python
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: unsupported format_version True"

    def test_rejects_an_unknown_norm_stats_key(self, tmp_path):
        X, _ = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=9)
        path = tmp_path / "model.json"
        save_model(path, init_network(config, X), config)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert list(doc["norm_stats"]) == ["x_min", "x_max", "y_min", "y_max"]
        doc["norm_stats"]["z_min"] = [0.0]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SchemaError) as excinfo:
            load_model(path)
        assert str(excinfo.value).startswith(f"{path}: malformed model document: ")
        assert "z_min" in str(excinfo.value)

    def test_rejects_inconsistent_shapes(self, tmp_path):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=10)
        net, _ = train(init_network(config, X), X, Y, config)
        path = tmp_path / "model.json"
        save_model(path, net, config)
        doc = path.read_text(encoding="utf-8")
        import json as jsonlib

        data = jsonlib.loads(doc)
        data["spans"] = data["spans"][:-1]
        path.write_text(jsonlib.dumps(data), encoding="utf-8")
        with pytest.raises(SchemaError):
            load_model(path)


class TestPredict:
    def test_single_and_batch_agree(self):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=8, input_dim=2, epochs=30, seed=11)
        net, _ = train(init_network(config, X), X, Y, config)
        batch = net.predict(X[:5])
        for i in range(5):
            np.testing.assert_array_equal(net.predict(X[i]), batch[i])

    def test_rejects_wrong_width(self):
        X, Y = toy_problem()
        config = RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=12)
        net, _ = train(init_network(config, X), X, Y, config)
        with pytest.raises(DomainError):
            net.predict(np.zeros((3, 5)))

    @pytest.mark.parametrize("m", [5, 8, 20])
    @pytest.mark.parametrize("output_dim", [1, 2, 3])
    def test_batch_matches_row_loop_across_chunks(self, output_dim, m):
        rng = np.random.default_rng(17)
        net = random_net(rng, m=m, input_dim=3, output_dim=output_dim)
        net.norm = NormStats(
            np.array([0.0, 10.0, -5.0]), np.array([100.0, 50.0, 5.0]),
            np.full(output_dim, -120.0), np.full(output_dim, -40.0),
        )
        n = 2 * PREDICT_CHUNK + 37
        X = rng.uniform([-10.0, 0.0, -6.0], [110.0, 60.0, 6.0], size=(n, 3))
        batch = net.predict(X)
        rows = []
        for x in X:  # the per-row loop predict replaced
            xn = net.norm.normalize_features(x)
            diff = xn - net.centers
            q = (diff * diff).sum(axis=1) / (2.0 * net.spans * net.spans)
            rows.append(net.norm.denormalize_targets(net.weights @ np.exp(-q)))
        np.testing.assert_array_equal(batch, np.stack(rows), strict=True)
        np.testing.assert_array_equal(
            batch, np.stack([net.predict(x) for x in X]), strict=True
        )


class TestNonFiniteInput:
    def config(self):
        return RbfConfig(m_hidden=6, input_dim=2, epochs=2, seed=3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_train_names_first_bad_target(self, bad):
        X, Y = toy_problem()
        Y[[3, 9], 0] = bad
        net = init_network(self.config(), X)
        with pytest.raises(ConfigurationError) as excinfo:
            train(net, X, Y, self.config())
        assert f"training target at row 3, column 0: {bad}" in str(excinfo.value)

    def test_train_names_first_bad_feature(self):
        X, Y = toy_problem()
        net = init_network(self.config(), X)
        X[5, 1] = math.inf
        with pytest.raises(ConfigurationError) as excinfo:
            train(net, X, Y, self.config())
        assert "training feature at row 5, column 1: inf" in str(excinfo.value)
        with pytest.raises(ConfigurationError) as excinfo:
            init_network(self.config(), X)
        assert "training feature at row 5, column 1: inf" in str(excinfo.value)

    def test_train_checks_validation_before_training(self):
        X, Y = toy_problem()
        Yv = Y[:4, 0].copy()  # one column may come flat
        Yv[2] = math.nan
        net = init_network(self.config(), X)
        before = net.copy()
        with pytest.raises(ConfigurationError) as excinfo:
            train(net, X, Y, self.config(), validation=(X[:4], Yv))
        assert "validation target at row 2, column 0: nan" in str(excinfo.value)
        assert_same_parameters(net, before)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_predict_rejects(self, bad):
        X, Y = toy_problem()
        net, _ = train(init_network(self.config(), X), X, Y, self.config())
        with pytest.raises(DomainError, match="non-finite feature at row 0, column 1"):
            net.predict(np.array([0.5, bad]))
        batch = np.full((4, 2), 0.5)
        batch[2, 0] = bad
        with pytest.raises(DomainError, match="row 2, column 0"):
            net.predict(batch)

    def test_train_checks_validation_shape_before_training(self):
        X, Y = toy_problem()
        net = init_network(self.config(), X)
        before = net.copy()
        with pytest.raises(ConfigurationError) as excinfo:
            train(net, X, Y, self.config(), validation=(X[:4], Y[:3]))
        assert str(excinfo.value) == (
            "validation target array must have shape (4, 1), got (3, 1)"
        )
        assert_same_parameters(net, before)

    @pytest.mark.parametrize("array, index", [
        ("centers", (1, 0)), ("spans", (2,)), ("weights", (0, 3)),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_network_rejects_non_finite_parameters(self, array, index, bad):
        rng = np.random.default_rng(5)
        parts = {
            "centers": rng.uniform(size=(4, 2)), "spans": np.full(4, 0.5),
            "weights": rng.uniform(size=(1, 4)), "norm": identity_norm(2),
        }
        parts[array][index] = bad
        row, column = (*index, 0)[:2]
        with pytest.raises(DomainError) as excinfo:
            RbfNetwork(**parts)
        assert str(excinfo.value) == (
            f"non-finite {array} at row {row}, column {column}: {bad}"
        )

    @pytest.mark.parametrize("part, value, message", [
        ("centers", np.zeros(3), "centers array must have shape (*, *), got (3)"),
        ("spans", np.ones(3), "spans array must have shape (2), got (3)"),
        ("weights", np.ones((1, 3)), "weights array must have shape (*, 2), got (1, 3)"),
        ("norm", identity_norm(3), "norm.x_min array must have shape (2), got (3)"),
        ("norm", identity_norm(2, 2), "norm.y_min array must have shape (1), got (2)"),
    ])
    def test_network_names_the_array_of_wrong_shape(self, part, value, message):
        parts = {
            "centers": np.zeros((2, 2)), "spans": np.ones(2),
            "weights": np.ones((1, 2)), "norm": identity_norm(2),
        }
        with pytest.raises(DomainError) as excinfo:
            RbfNetwork(**{**parts, part: value})
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("span", [0.0, -1.0])
    def test_network_rejects_spans_that_are_not_positive(self, span):
        with pytest.raises(DomainError) as excinfo:
            RbfNetwork(np.zeros((2, 2)), [1.0, span], np.ones((1, 2)), identity_norm(2))
        assert str(excinfo.value) == "spans must be strictly positive"

    def test_predict_names_the_first_row_whose_output_overflows(self):
        # finite parameters whose output is not; no RuntimeWarning either
        net = RbfNetwork(
            np.array([[0.0]]), [1.0], np.array([[1e308]]), identity_norm(1, 1)
        )
        net.norm.y_min[:] = -1.0  # y = 2 yn - 1 overflows where yn is near 1e308
        net.norm.y_max[:] = 1.0
        rows = np.zeros((PREDICT_CHUNK + 3, 1))
        rows[:PREDICT_CHUNK + 1] = 30.0  # z ~ e^-450: the output stays finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(net.predict(rows[:PREDICT_CHUNK + 1])).all()
            with pytest.raises(DomainError) as excinfo:
                net.predict(rows)
        assert str(excinfo.value) == (
            f"non-finite prediction at row {PREDICT_CHUNK + 1}, column 0: inf"
        )

    def test_single_vectors_are_checked_as_one_row(self):
        net, config = one_unit_net(), RbfConfig(m_hidden=1, input_dim=1)
        for call in (
            lambda: net.hidden_activations([math.nan]),
            lambda: train_step(net, [0.5], [math.inf], config),
        ):
            with pytest.raises(DomainError, match="at row 0, column 0"):
                call()
        with pytest.raises(DomainError) as excinfo:
            net.forward([0.1, 0.2])
        assert str(excinfo.value) == "feature array must have shape (1, 1), got (1, 2)"

    def test_one_vector_far_outside_raises_predicts_domain_error(self):
        # its squared distance overflows; no RuntimeWarning and no z = 0
        net = one_unit_net()
        message = (
            "feature at row 0, column 0 too far outside the training range: 1e+200"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (net.hidden_activations, net.forward, net.predict):
                with pytest.raises(DomainError) as excinfo:
                    call([1e200])
                assert str(excinfo.value) == message
            assert net.hidden_activations([1e150]).tolist() == [0.0]  # q is finite

    def test_predict_rejects_overflowing_distance(self):
        X, Y = toy_problem()
        net, _ = train(init_network(self.config(), X), X, Y, self.config())
        batch = np.full((PREDICT_CHUNK + 5, 2), 0.5)
        batch[PREDICT_CHUNK + 2, 1] = 1e308  # finite, but its distance is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as excinfo:
                net.predict(batch)
        assert str(excinfo.value) == (
            f"feature at row {PREDICT_CHUNK + 2}, column 1 too far outside "
            "the training range: 1e+308"
        )
