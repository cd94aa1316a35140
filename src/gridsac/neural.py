"""Dense networks with exact backpropagation and an Adam optimizer.

Just enough machinery for the policy and critic networks: fully connected
layers, ReLU hidden activations, a linear output, reverse-mode gradients
through a forward tape, and in-place Adam updates. No general autodiff.

Each network keeps all its parameters in one flat float64 vector, laid out
as the checkpoint stores them (per layer: row-major weights, then biases);
the per-layer weight and bias arrays are views into it. Gradients and Adam
moments use the same layout, so Adam, Polyak averaging, the finite-gradient
check and (de)serialization are each one vector operation.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "DenseNetwork",
    "ForwardTape",
    "GradientSet",
    "AdamState",
    "init_network",
    "forward",
    "backward",
    "adam_step",
    "polyak_update",
    "copy_network",
    "network_to_flat",
    "network_from_flat",
]


@functools.lru_cache(maxsize=32)
def _layout(layer_dims: tuple[int, ...]) -> tuple[tuple[int, int, tuple[int, int], int], ...]:
    """Per layer: weight start, weight end (= bias start), weight shape, bias
    end, in the flat layout (row-major weights, then biases, layer by layer).
    Cached because backward() builds gradient views on every call; the result
    is immutable."""
    spans = []
    k = 0
    for n_in, n_out in zip(layer_dims[:-1], layer_dims[1:]):
        spans.append((k, k + n_in * n_out, (n_in, n_out), k + (n_in + 1) * n_out))
        k += (n_in + 1) * n_out
    return tuple(spans)


def _layer_views(layer_dims: tuple[int, ...], flat: np.ndarray):
    """Per-layer (weights, biases) views into a flat parameter vector."""
    spans = _layout(layer_dims)
    if not spans or flat.ndim != 1 or flat.size != spans[-1][3]:
        raise ValueError(f"flat parameter vector of shape {flat.shape} "
                         f"does not fit layer dims {layer_dims}")
    weights = []
    biases = []
    for w0, b0, shape, b1 in spans:
        weights.append(flat[w0:b0].reshape(shape))
        biases.append(flat[b0:b1])
    return weights, biases


@dataclass
class DenseNetwork:
    """ReLU MLP parameters, all in the one flat vector ``params``.

    ``weights[l]`` (shape (fan_in, fan_out)) and ``biases[l]`` are views into
    ``params``, built once here; writes through either side show in the other.
    """

    layer_dims: tuple[int, ...]
    params: np.ndarray

    def __post_init__(self):
        self.layer_dims = tuple(int(d) for d in self.layer_dims)
        self.weights, self.biases = _layer_views(self.layer_dims, self.params)

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1


@dataclass
class ForwardTape:
    """Cached activations from one forward pass, consumed by backward()."""

    inputs: list[np.ndarray]       # input to each layer, shape (B, fan_in)
    pre_activations: list[np.ndarray]


@dataclass
class GradientSet:
    """Parameter gradients in the network's flat layout (``d_weights[l]`` and
    ``d_biases[l]`` are views into ``d_params``), plus the gradient w.r.t.
    the network input. Either part is None where :func:`backward` was told
    to skip it."""

    layer_dims: tuple[int, ...]
    d_params: np.ndarray | None
    d_input: np.ndarray | None = None

    def __post_init__(self):
        if self.d_params is not None:
            self.d_weights, self.d_biases = _layer_views(self.layer_dims, self.d_params)

    def finite(self) -> bool:
        return bool(np.isfinite(self.d_params).all())


def init_network(layer_dims: tuple[int, ...] | list[int],
                 rng: np.random.Generator,
                 final_scale: float | None = None) -> DenseNetwork:
    """Uniform fan-in initialization: limits 1/sqrt(fan_in) per layer.

    ``final_scale`` overrides the last layer's limit (small output layers
    keep a fresh squashed policy near the action midpoint).
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ValueError(f"bad layer dims {dims}")
    net = DenseNetwork(layer_dims=dims, params=np.zeros(_layout(dims)[-1][3]))
    for l, w in enumerate(net.weights):
        limit = 1.0 / np.sqrt(w.shape[0])
        if final_scale is not None and l == net.n_layers - 1:
            limit = final_scale
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return net


def forward(net: DenseNetwork, x: np.ndarray) -> tuple[np.ndarray, ForwardTape]:
    """Run the network; accepts a single vector or a (B, d) batch.

    Pure function: identical inputs give bit-identical outputs. The returned
    tape belongs to this input and is required for an exact backward pass.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.shape[1] != net.layer_dims[0]:
        raise ValueError(f"input width {h.shape[1]} != {net.layer_dims[0]}")
    inputs = []
    pre_acts = []
    last = net.n_layers - 1
    for l, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ w
        z += b
        pre_acts.append(z)
        h = z if l == last else np.maximum(z, 0.0)
    out = h[0] if single else h
    return out, ForwardTape(inputs=inputs, pre_activations=pre_acts)


def backward(net: DenseNetwork, tape: ForwardTape, output_grad: np.ndarray, *,
             param_grads: bool = True, input_grad: bool = True) -> GradientSet:
    """Exact gradients of the scalar whose output-gradient is ``output_grad``.

    For batched tapes the parameter gradients accumulate over rows, so the
    caller owns any 1/B averaging. Also returns d_input for chaining through
    the network's input (used by the policy update through the critics).
    A caller that reads only one of the two passes ``param_grads=False``
    (``d_params`` is then None) or ``input_grad=False`` (``d_input`` stays
    None); the gradients it does get are the same either way.
    """
    if len(tape.inputs) != net.n_layers:
        raise ValueError("tape does not match network depth")
    g = np.asarray(output_grad, dtype=float)
    single = g.ndim == 1
    g = g[None, :] if single else g
    if g.shape != tape.pre_activations[-1].shape:
        raise ValueError(
            f"output_grad shape {g.shape} != forward output {tape.pre_activations[-1].shape}")
    grads = GradientSet(net.layer_dims, np.empty_like(net.params) if param_grads else None)
    for l in range(net.n_layers - 1, -1, -1):
        if l != net.n_layers - 1:
            g *= tape.pre_activations[l] > 0.0  # g is this pass's own array here
        if param_grads:
            np.matmul(tape.inputs[l].T, g, out=grads.d_weights[l])
            g.sum(axis=0, out=grads.d_biases[l])
        if l > 0 or input_grad:     # layer 0's product is the input gradient
            g = g @ net.weights[l].T
    if input_grad:
        grads.d_input = g[0] if single else g
    return grads


@dataclass
class AdamState:
    """First/second moment accumulators (flat, in the network's parameter
    layout) and step counter for one network."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_network(cls, net: DenseNetwork, learning_rate: float) -> "AdamState":
        return cls(learning_rate=learning_rate,
                   m=np.zeros_like(net.params), v=np.zeros_like(net.params))


def adam_step(net: DenseNetwork, grads: GradientSet, state: AdamState) -> tuple[DenseNetwork, AdamState]:
    """One bias-corrected Adam update, in place on ``net`` and ``state``.

    Non-finite gradients are rejected: the update is skipped (moments and
    step counter untouched) and the event logged.
    """
    if not grads.finite():
        logger.warning("non-finite gradients; Adam update skipped")
        return net, state
    state.step += 1
    c1 = 1.0 - state.beta1 ** state.step
    c2 = 1.0 - state.beta2 ** state.step
    g, m, v = grads.d_params, state.m, state.v
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * np.square(g)
    net.params -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps)
    return net, state


def polyak_update(target: DenseNetwork, source: DenseNetwork, polyak: float) -> DenseNetwork:
    """Exponential averaging toward the source network, in place on target.

    ``polyak`` is the retention coefficient on the target's own parameters:
    target <- polyak * target + (1 - polyak) * source. 1.0 leaves the target
    untouched, 0.0 hard-copies the source.
    """
    if not (0.0 <= polyak <= 1.0):
        raise ValueError("polyak must be in [0, 1]")
    if target.layer_dims != source.layer_dims:
        raise ValueError("network shapes differ")
    target.params *= polyak
    target.params += (1.0 - polyak) * source.params
    return target


def copy_network(net: DenseNetwork) -> DenseNetwork:
    return DenseNetwork(layer_dims=net.layer_dims, params=net.params.copy())


def network_to_flat(net: DenseNetwork) -> np.ndarray:
    """All parameters as one row-major flat vector (weights then bias, per layer)."""
    return net.params.copy()


def network_from_flat(layer_dims: tuple[int, ...] | list[int], flat: np.ndarray) -> DenseNetwork:
    """A network owning a float64 copy of ``flat``; its length must match ``layer_dims``."""
    return DenseNetwork(layer_dims=layer_dims, params=np.array(flat, dtype=float))
