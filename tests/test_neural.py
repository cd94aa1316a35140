"""Dense networks: forward, exact backprop, Adam, and target averaging."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridsac.neural import (AdamState, GradientSet, adam_step,
                            backward, copy_network, forward, init_network,
                            network_from_flat, network_to_flat, polyak_update)


def flat_grads(grads: GradientSet) -> np.ndarray:
    return grads.d_params.copy()


def numeric_grads(net, x, weights, h=1e-5):
    """Central finite differences of L = sum(weights * forward(x))."""
    def loss(flat):
        y, _ = forward(network_from_flat(net.layer_dims, flat), x)
        return float(np.sum(weights * y))
    flat = network_to_flat(net)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        fp = flat.copy(); fp[i] += h
        fm = flat.copy(); fm[i] -= h
        out[i] = (loss(fp) - loss(fm)) / (2.0 * h)
    return out


# --- forward ---------------------------------------------------------------------

def test_zero_network_maps_to_zero():
    rng = np.random.default_rng(0)
    net = init_network((3, 4, 2), rng)
    for w in net.weights:
        w[:] = 0.0
    y, _ = forward(net, rng.normal(size=3))
    assert np.array_equal(y, np.zeros(2))


def test_identity_single_layer():
    net = network_from_flat((3, 3), np.concatenate([np.eye(3).ravel(), np.zeros(3)]))
    x = np.array([0.5, -1.0, 2.0])
    y, _ = forward(net, x)
    assert np.array_equal(y, x)


def test_batched_forward_matches_per_sample():
    rng = np.random.default_rng(1)
    net = init_network((4, 6, 6, 2), rng)
    xs = rng.normal(size=(7, 4))
    batched, _ = forward(net, xs)
    for k in range(7):
        single, _ = forward(net, xs[k])
        # row-wise agreement up to BLAS kernel reassociation
        assert np.allclose(batched[k], single, rtol=1e-12, atol=1e-14)


def test_forward_is_pure():
    rng = np.random.default_rng(2)
    net = init_network((5, 8, 3), rng)
    x = rng.normal(size=5)
    y1, _ = forward(net, x)
    y2, _ = forward(net, x)
    assert np.array_equal(y1, y2)


def test_forward_rejects_bad_width():
    net = init_network((4, 2), np.random.default_rng(0))
    with pytest.raises(ValueError):
        forward(net, np.zeros(5))


# --- backward: finite-difference oracle ----------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dims", [(4, 8, 2), (6, 64, 64, 3), (3, 16, 16, 16, 1)])
def test_gradients_match_finite_differences(seed, dims):
    rng = np.random.default_rng(seed)
    net = init_network(dims, rng)
    for b in net.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)  # exercise bias gradients
    x = rng.normal(size=(3, dims[0]))
    w = rng.normal(size=(3, dims[-1]))
    _, tape = forward(net, x)
    analytic = flat_grads(backward(net, tape, w))
    numeric = numeric_grads(net, x, w)
    denom = np.maximum(np.maximum(np.abs(numeric), np.abs(analytic)), 1e-4)
    assert np.max(np.abs(analytic - numeric) / denom) <= 1e-4


def test_zero_output_grad_gives_zero_gradients():
    rng = np.random.default_rng(3)
    net = init_network((4, 8, 2), rng)
    _, tape = forward(net, rng.normal(size=(5, 4)))
    grads = backward(net, tape, np.zeros((5, 2)))
    assert all(np.all(g == 0) for g in grads.d_weights)
    assert all(np.all(g == 0) for g in grads.d_biases)
    assert np.all(grads.d_input == 0)


def test_backward_is_linear_in_output_grad():
    rng = np.random.default_rng(4)
    net = init_network((4, 8, 2), rng)
    x = rng.normal(size=(5, 4))
    gy = rng.normal(size=(5, 2))
    _, tape = forward(net, x)
    g1 = flat_grads(backward(net, tape, gy))
    g3 = flat_grads(backward(net, tape, 3.0 * gy))
    assert np.allclose(g3, 3.0 * g1, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("dims", [(4, 2), (4, 8, 2), (6, 16, 16, 3)])
def test_backward_skips_only_the_products_the_caller_turns_off(dims):
    rng = np.random.default_rng(8)
    net = init_network(dims, rng)
    _, tape = forward(net, rng.normal(size=(5, dims[0])))
    gy = rng.normal(size=(5, dims[-1]))
    full = backward(net, tape, gy)
    params_only = backward(net, tape, gy, input_grad=False)
    input_only = backward(net, tape, gy, param_grads=False)
    assert np.array_equal(params_only.d_params, full.d_params)
    assert params_only.d_input is None
    assert np.array_equal(input_only.d_input, full.d_input)
    assert input_only.d_params is None


def test_backward_rejects_mismatched_tape():
    rng = np.random.default_rng(5)
    net = init_network((4, 8, 2), rng)
    other = init_network((4, 8, 8, 2), rng)
    _, tape = forward(other, rng.normal(size=4))
    with pytest.raises(ValueError):
        backward(net, tape, np.ones(2))


def test_input_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    net = init_network((4, 16, 2), rng)
    x = rng.normal(size=4)
    w = rng.normal(size=2)
    _, tape = forward(net, x)
    d_input = backward(net, tape, w).d_input
    h = 1e-6
    for j in range(4):
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        num = (np.sum(w * forward(net, xp)[0]) - np.sum(w * forward(net, xm)[0])) / (2 * h)
        assert d_input[j] == pytest.approx(num, rel=1e-5, abs=1e-8)


# --- Adam ------------------------------------------------------------------------

def zero_grads(net) -> GradientSet:
    return GradientSet(net.layer_dims, np.zeros_like(net.params),
                       d_input=np.zeros(net.layer_dims[0]))


def test_adam_zero_gradient_is_parameter_noop():
    rng = np.random.default_rng(7)
    net = init_network((3, 8, 2), rng)
    state = AdamState.for_network(net, learning_rate=1e-3)
    snapshot = network_to_flat(net).copy()
    for _ in range(25):
        adam_step(net, zero_grads(net), state)
    assert np.array_equal(network_to_flat(net), snapshot)
    assert state.step == 25


def test_adam_descends_against_constant_gradient():
    net = network_from_flat((1, 1), [0.0, 0.0])
    state = AdamState.for_network(net, learning_rate=1e-2)
    g = GradientSet((1, 1), np.array([2.5, 0.0]), d_input=np.zeros(1))
    for _ in range(100):
        adam_step(net, g, state)
    assert net.weights[0][0, 0] < 0.0  # moved opposite the gradient sign


@pytest.mark.parametrize("g", [1e-4, 0.1, 5.0, 300.0])
def test_adam_first_step_magnitude_is_learning_rate(g):
    # bias correction makes the first update lr * g / (|g| + eps)
    lr = 3e-4
    net = network_from_flat((1, 1), [1.0, 0.0])
    state = AdamState.for_network(net, learning_rate=lr)
    grads = GradientSet((1, 1), np.array([g, 0.0]), d_input=np.zeros(1))
    adam_step(net, grads, state)
    expected = lr * g / (abs(g) + state.eps)
    assert 1.0 - net.weights[0][0, 0] == pytest.approx(expected, rel=1e-9)
    assert 1.0 - net.weights[0][0, 0] == pytest.approx(lr, rel=1e-3)


def test_adam_skips_nonfinite_gradients(caplog):
    rng = np.random.default_rng(8)
    net = init_network((2, 4, 1), rng)
    state = AdamState.for_network(net, learning_rate=1e-3)
    bad = zero_grads(net)
    bad.d_weights[0][0, 0] = np.nan
    before = network_to_flat(net).copy()
    with caplog.at_level(logging.WARNING):
        adam_step(net, bad, state)
    assert np.array_equal(network_to_flat(net), before)
    assert state.step == 0
    assert any("non-finite" in r.message for r in caplog.records)


# --- polyak ---------------------------------------------------------------------

def make_pair(seed=9):
    rng = np.random.default_rng(seed)
    return init_network((3, 8, 2), rng), init_network((3, 8, 2), rng)


def test_polyak_one_keeps_target():
    target, source = make_pair()
    before = network_to_flat(target).copy()
    polyak_update(target, source, 1.0)
    assert np.array_equal(network_to_flat(target), before)


def test_polyak_zero_copies_source():
    target, source = make_pair()
    polyak_update(target, source, 0.0)
    assert np.array_equal(network_to_flat(target), network_to_flat(source))


def test_polyak_midpoint_scalar():
    target = network_from_flat((1, 1), [0.0, 0.0])
    source = network_from_flat((1, 1), [2.0, 0.0])
    polyak_update(target, source, 0.5)
    assert target.weights[0][0, 0] == pytest.approx(1.0, abs=1e-15)


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_polyak_contracts_toward_source(polyak, seed):
    target, source = make_pair(seed % 1000)
    gap_before = np.abs(network_to_flat(target) - network_to_flat(source))
    polyak_update(target, source, polyak)
    gap_after = np.abs(network_to_flat(target) - network_to_flat(source))
    assert np.all(gap_after <= polyak * gap_before + 1e-15)


def test_flat_roundtrip_row_major():
    rng = np.random.default_rng(10)
    net = init_network((3, 5, 2), rng)
    flat = network_to_flat(net)
    # row-major layout: first row of the first weight matrix leads
    assert np.array_equal(flat[:5], net.weights[0][0])
    rebuilt = network_from_flat(net.layer_dims, flat)
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt.weights, net.weights))
    assert all(np.array_equal(a, b) for a, b in zip(rebuilt.biases, net.biases))
    with pytest.raises(ValueError):
        network_from_flat(net.layer_dims, flat[:-1])


def test_copy_network_is_deep():
    net = init_network((2, 3, 1), np.random.default_rng(11))
    clone = copy_network(net)
    clone.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != clone.weights[0][0, 0]


# --- flat parameter layout -----------------------------------------------------

def test_layer_arrays_are_views_of_the_flat_vector():
    rng = np.random.default_rng(12)
    net = init_network((4, 6, 6, 2), rng)
    _, tape = forward(net, rng.normal(size=(5, 4)))
    grads = backward(net, tape, rng.normal(size=(5, 2)))
    for flat, weights, biases in ((net.params, net.weights, net.biases),
                                  (grads.d_params, grads.d_weights, grads.d_biases)):
        assert len(weights) == len(biases) == 3
        for w, b in zip(weights, biases):
            assert np.shares_memory(flat, w)
            assert np.shares_memory(flat, b)


def test_write_through_bias_view_shows_in_flat():
    net = init_network((3, 5, 2), np.random.default_rng(13))
    net.biases[-1][:] = [7.0, -7.0]
    assert np.array_equal(net.params[-2:], [7.0, -7.0])
    assert np.array_equal(network_to_flat(net)[-2:], [7.0, -7.0])


def test_adam_moments_are_flat():
    net = init_network((3, 5, 2), np.random.default_rng(14))
    state = AdamState.for_network(net, learning_rate=1e-3)
    assert state.m.shape == state.v.shape == net.params.shape


def test_network_from_flat_copies_its_input():
    flat = np.arange(9, dtype=float)
    net = network_from_flat((2, 2, 1), flat)
    net.params[0] = 99.0
    assert flat[0] == 0.0
    with pytest.raises(ValueError):
        network_from_flat((1, 1), np.zeros((1, 2)))
