"""Soft actor-critic agent: squashed-Gaussian policy, twin critics with
Polyak-averaged targets, automatic temperature tuning, replay buffer, and the
training loop.

Actions live in [-1, 1] everywhere inside the agent (policy, critics,
replay); the affine map to voltage setpoints happens only at the environment
boundary in :meth:`SacAgent.select_action`.
"""

from __future__ import annotations

import enum
import json
import logging
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .environment import (Action, GridControlEnv, Normalizer,
                          SnapshotStreamExhausted, StateVector)
from .grid_model import V_SET_MAX, V_SET_MIN, from_json, write_text_atomic
from .neural import (AdamState, DenseNetwork, adam_step, backward,
                     copy_network, forward, init_network, network_from_flat,
                     network_to_flat, polyak_update)

logger = logging.getLogger(__name__)

__all__ = [
    "SacConfig",
    "Transition",
    "ReplayBuffer",
    "Batch",
    "SelectMode",
    "SacAgent",
    "UpdateStats",
    "EpisodeMetrics",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "raw_to_setpoints",
    "setpoints_to_raw",
    "METRICS_HEADER",
]

LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
TANH_EPS = 1e-6

CHECKPOINT_VERSION = 1
CHECKPOINT_EVERY = 200     # episodes between intermediate checkpoints


@dataclass
class SacConfig:
    """Training knobs. Ranged fields are validated against their admissible
    intervals on construction."""

    batch_size: int = 64
    max_episode_steps: int = 10
    replay_capacity: int = 100_000
    gamma: float = 0.99
    polyak: float = 0.995
    lr_q: float = 3e-4
    lr_pi: float = 3e-4
    lr_alpha: float = 3e-4
    alpha_init: float = 0.1
    n_epochs: int = 3
    random_seed: int = 17
    hidden_layers: int = 2
    hidden_width: int = 64
    start_steps: int = 1000
    updates_per_step: int = 1
    n_episodes: int | None = None
    target_entropy: float | None = None  # default: -action_dim

    def __post_init__(self):
        _check_range("batch_size", self.batch_size, 32, 200)
        _check_range("max_episode_steps", self.max_episode_steps, 10, 40)
        _check_range("replay_capacity", self.replay_capacity, 100_000, 1_000_000)
        _check_range("n_epochs", self.n_epochs, 1, 5)
        for name in ("lr_q", "lr_pi", "lr_alpha"):
            # 0.0 freezes that optimizer (baseline runs); otherwise the rate
            # must sit in the admissible band.
            if getattr(self, name) != 0.0:
                _check_range(name, getattr(self, name), 1e-4, 1e-3)
        _check_range("alpha_init", self.alpha_init, 0.001, 0.2)
        _check_range("hidden_layers", self.hidden_layers, 2, 5)
        _check_range("gamma", self.gamma, 0.0, 1.0)
        _check_range("polyak", self.polyak, 0.0, 1.0)
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be positive")
        if self.start_steps < self.batch_size:
            raise ValueError("start_steps must be >= batch_size")
        if self.updates_per_step < 1:
            raise ValueError("updates_per_step must be >= 1")
        if self.target_entropy is not None and not np.isfinite(self.target_entropy):
            raise ValueError(f"target_entropy={self.target_entropy} must be finite")

    @classmethod
    def from_dict(cls, doc: dict) -> "SacConfig":
        """Config from a JSON object, read by :func:`~gridsac.grid_model.from_json`.
        Keys of knobs that were removed are dropped first, so configs and
        checkpoints written before still load; one that had learning-rate
        decay switched on is refused with ``ValueError``."""
        if isinstance(doc, dict):
            doc = dict(doc)
            if doc.pop("lr_decay_enabled", False):
                raise ValueError("learning-rate decay (lr_decay_enabled) is no longer supported")
            for key in ("entropy_max", "lr_decay_rate"):
                doc.pop(key, None)
        return from_json(cls, doc)


def _check_range(name, value, lo, hi):
    if not (lo <= value <= hi):
        raise ValueError(f"{name}={value} outside [{lo}, {hi}]")


class SelectMode(enum.Enum):
    STOCHASTIC = "Stochastic"
    DETERMINISTIC = "Deterministic"


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: np.ndarray      # squashed action in [-1, 1]^d
    reward: float
    next_state: np.ndarray
    done: float


@dataclass
class Batch:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    dones: np.ndarray


class ReplayBuffer:
    """Fixed-capacity FIFO transition store with uniform batch sampling
    (without replacement within a batch)."""

    def __init__(self, capacity: int, state_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._states = np.zeros((capacity, state_dim))
        self._actions = np.zeros((capacity, action_dim))
        self._rewards = np.zeros(capacity)
        self._next_states = np.zeros((capacity, state_dim))
        self._dones = np.zeros(capacity)
        self._ptr = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, t: Transition) -> None:
        i = self._ptr
        self._states[i] = t.state
        self._actions[i] = np.clip(t.action, -1.0, 1.0)
        self._rewards[i] = t.reward
        self._next_states[i] = t.next_state
        self._dones[i] = t.done
        self._ptr = (self._ptr + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if batch_size > self._size:
            raise ValueError(f"cannot sample {batch_size} from buffer of {self._size}")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return Batch(states=self._states[idx], actions=self._actions[idx],
                     rewards=self._rewards[idx], next_states=self._next_states[idx],
                     dones=self._dones[idx])

    def transitions(self) -> list[Transition]:
        """Stored transitions oldest-first (test/inspection helper)."""
        if self._size < self.capacity:
            order = range(self._size)
        else:
            order = [(self._ptr + k) % self.capacity for k in range(self.capacity)]
        return [Transition(self._states[i].copy(), self._actions[i].copy(),
                           float(self._rewards[i]), self._next_states[i].copy(),
                           float(self._dones[i])) for i in order]


@dataclass
class UpdateStats:
    q1_loss: float
    q2_loss: float
    policy_loss: float
    alpha: float


@dataclass
class _ScalarAdam:
    learning_rate: float
    m: float = 0.0
    v: float = 0.0
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def update(self, value: float, grad: float) -> float:
        if not np.isfinite(grad):
            logger.warning("non-finite temperature gradient; update skipped")
            return value
        self.step += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1 - self.beta2) * grad * grad
        m_hat = self.m / (1 - self.beta1 ** self.step)
        v_hat = self.v / (1 - self.beta2 ** self.step)
        return value - self.learning_rate * m_hat / (np.sqrt(v_hat) + self.eps)


def raw_to_setpoints(a_raw: np.ndarray) -> np.ndarray:
    """Affine map from the squashed action space [-1, 1] to setpoint p.u."""
    mid = 0.5 * (V_SET_MAX + V_SET_MIN)
    half = 0.5 * (V_SET_MAX - V_SET_MIN)
    return mid + half * np.asarray(a_raw, dtype=float)


def setpoints_to_raw(v_set: np.ndarray) -> np.ndarray:
    mid = 0.5 * (V_SET_MAX + V_SET_MIN)
    half = 0.5 * (V_SET_MAX - V_SET_MIN)
    return (np.asarray(v_set, dtype=float) - mid) / half


def _values(state: StateVector | np.ndarray) -> np.ndarray:
    return state.values if isinstance(state, StateVector) else np.asarray(state, dtype=float)


def _squashed_gaussian(mean: np.ndarray, log_std: np.ndarray, eps: np.ndarray):
    """Reparameterized tanh-Gaussian action a = tanh(mean + std * eps) and its
    log-density: the Gaussian log-density of the pre-squash value minus the
    tanh change-of-variables correction sum(log(1 - a^2 + 1e-6)) over the
    last axis (Haarnoja et al., arXiv 1812.05905, App. C)."""
    a = np.tanh(mean + np.exp(log_std) * eps)
    logp = (-0.5 * np.log(2.0 * np.pi) - log_std - 0.5 * eps ** 2
            - np.log(1.0 - a ** 2 + TANH_EPS)).sum(axis=-1)
    return a, logp


class SacAgent:
    """Policy, twin critics and their targets, and the temperature."""

    def __init__(self, policy: DenseNetwork, q1: DenseNetwork, q2: DenseNetwork,
                 q1_target: DenseNetwork, q2_target: DenseNetwork,
                 log_alpha: float, target_entropy: float, config: SacConfig):
        self.policy = policy
        self.q1 = q1
        self.q2 = q2
        self.q1_target = q1_target
        self.q2_target = q2_target
        self.log_alpha = float(log_alpha)
        self.target_entropy = float(target_entropy)
        self.config = config
        self.state_dim = policy.layer_dims[0]
        self.action_dim = policy.layer_dims[-1] // 2
        self.rng = np.random.default_rng(config.random_seed)
        self.policy_opt = AdamState.for_network(policy, config.lr_pi)
        self.q1_opt = AdamState.for_network(q1, config.lr_q)
        self.q2_opt = AdamState.for_network(q2, config.lr_q)
        self.alpha_opt = _ScalarAdam(config.lr_alpha)

    @classmethod
    def create(cls, state_dim: int, action_dim: int, config: SacConfig) -> "SacAgent":
        rng = np.random.default_rng(config.random_seed)
        hidden = [config.hidden_width] * config.hidden_layers
        policy = init_network([state_dim, *hidden, 2 * action_dim], rng, final_scale=1e-3)
        q1 = init_network([state_dim + action_dim, *hidden, 1], rng)
        q2 = init_network([state_dim + action_dim, *hidden, 1], rng)
        target_entropy = (config.target_entropy if config.target_entropy is not None
                          else -float(action_dim))
        return cls(policy=policy, q1=q1, q2=q2,
                   q1_target=copy_network(q1), q2_target=copy_network(q2),
                   log_alpha=float(np.log(config.alpha_init)),
                   target_entropy=target_entropy, config=config)

    @property
    def alpha(self) -> float:
        return float(np.exp(self.log_alpha))

    # --- policy evaluation ---------------------------------------------

    def _policy_stats(self, states: np.ndarray):
        """Mean, clamped log-std, the unclamped log-std, and the tape."""
        out, tape = forward(self.policy, states)
        d = self.action_dim
        log_std_raw = out[..., d:]
        return out[..., :d], np.clip(log_std_raw, LOG_STD_MIN, LOG_STD_MAX), log_std_raw, tape

    def _sample(self, states: np.ndarray, rng: np.random.Generator):
        """Reparameterized policy sample: squashed actions and their log-probs."""
        mean, log_std, _, _ = self._policy_stats(states)
        return _squashed_gaussian(mean, log_std, rng.standard_normal(mean.shape))

    def select_action(self, state: StateVector | np.ndarray,
                      mode: SelectMode = SelectMode.DETERMINISTIC,
                      rng: np.random.Generator | None = None) -> Action:
        """Map a state to per-plant voltage setpoints.

        Deterministic mode squashes the policy mean and never touches any
        RNG; stochastic mode draws a reparameterized sample.
        """
        values = _values(state)
        if values.shape != (self.state_dim,):
            raise ValueError(f"state has shape {values.shape}, expected ({self.state_dim},)")
        out, _ = forward(self.policy, values)
        if not np.all(np.isfinite(out)):
            raise ArithmeticError("non-finite policy output (corrupt parameters?)")
        mean = out[: self.action_dim]
        if mode is SelectMode.DETERMINISTIC:
            a = np.tanh(mean)
        else:
            log_std = np.clip(out[self.action_dim:], LOG_STD_MIN, LOG_STD_MAX)
            gen = rng if rng is not None else self.rng
            a, _ = _squashed_gaussian(mean, log_std, gen.standard_normal(self.action_dim))
        return Action(v_set_per_plant=raw_to_setpoints(a))

    def sample_raw(self, state: StateVector | np.ndarray,
                   rng: np.random.Generator | None = None) -> np.ndarray:
        """One stochastic squashed action in [-1, 1]^d for the given state."""
        gen = rng if rng is not None else self.rng
        return self._sample(_values(state)[None, :], gen)[0][0]

    # --- learning --------------------------------------------------------

    def compute_q_target(self, batch: Batch, rng: np.random.Generator | None = None) -> np.ndarray:
        """Soft Bellman backup per sample:
        y = r + gamma * (1 - done) * (min_i Q_target_i(s', a') - alpha * log pi(a'|s'))
        with a' freshly sampled from the current policy at s'."""
        gen = rng if rng is not None else self.rng
        a_next, logp_next = self._sample(batch.next_states, gen)
        sa = np.concatenate([batch.next_states, a_next], axis=1)
        q1t, _ = forward(self.q1_target, sa)
        q2t, _ = forward(self.q2_target, sa)
        q_min = np.minimum(q1t[:, 0], q2t[:, 0])
        soft = q_min - self.alpha * logp_next
        return batch.rewards + self.config.gamma * (1.0 - batch.dones) * soft

    def update(self, buffer: ReplayBuffer) -> UpdateStats:
        batch = buffer.sample(self.config.batch_size, self.rng)
        return self.update_from_batch(batch)

    def _policy_gradient(self, states: np.ndarray, eps: np.ndarray):
        """Gradients of mean(alpha * log pi - min_i Q_i(s, a)) w.r.t. the
        policy parameters, for fixed reparameterization noise ``eps`` and
        fixed critics. Returns (grads, loss, logp)."""
        b = states.shape[0]
        alpha = self.alpha
        mean, log_std, log_std_raw, tape = self._policy_stats(states)
        a, logp = _squashed_gaussian(mean, log_std, eps)
        std = np.exp(log_std)

        sa_pi = np.concatenate([states, a], axis=1)
        q1_pi, tape1 = forward(self.q1, sa_pi)
        q2_pi, tape2 = forward(self.q2, sa_pi)
        q_min = np.minimum(q1_pi[:, 0], q2_pi[:, 0])
        loss = float(np.mean(alpha * logp - q_min))

        # -d(mean q_min)/da, routed through whichever critic attains the min.
        pick1 = (q1_pi[:, 0] <= q2_pi[:, 0]).astype(float)
        g1 = backward(self.q1, tape1, (-pick1 / b)[:, None], param_grads=False).d_input
        g2 = backward(self.q2, tape2, (-(1.0 - pick1) / b)[:, None],
                      param_grads=False).d_input
        dq_da = (g1 + g2)[:, self.state_dim:]

        one_m_a2 = 1.0 - a ** 2
        # d(log pi)/du, all through the tanh correction term.
        c = 2.0 * a * one_m_a2 / (one_m_a2 + TANH_EPS)
        gy_mean = (alpha / b) * c + dq_da * one_m_a2
        # The clamp passes the gradient only where it did not bind.
        mask = (log_std_raw >= LOG_STD_MIN) & (log_std_raw <= LOG_STD_MAX)
        gy_log_std = ((alpha / b) * (c * std * eps - 1.0)
                      + dq_da * one_m_a2 * std * eps) * mask
        grads = backward(self.policy, tape,
                         np.concatenate([gy_mean, gy_log_std], axis=1), input_grad=False)
        return grads, loss, logp

    def update_from_batch(self, batch: Batch) -> UpdateStats:
        """One gradient step on both critics, the policy, and the temperature,
        then a Polyak update of the target critics."""
        b = batch.states.shape[0]
        alpha = self.alpha

        # Critic regression toward the soft Bellman target.
        y = self.compute_q_target(batch)
        sa = np.concatenate([batch.states, batch.actions], axis=1)
        q_losses = []
        for net, opt in ((self.q1, self.q1_opt), (self.q2, self.q2_opt)):
            q, tape = forward(net, sa)
            err = q[:, 0] - y
            q_losses.append(float(np.mean(err ** 2)))
            adam_step(net, backward(net, tape, (2.0 * err / b)[:, None], input_grad=False), opt)

        # Policy step with reparameterized actions against the fresh critics.
        eps = self.rng.standard_normal((b, self.action_dim))
        grads, policy_loss, logp = self._policy_gradient(batch.states, eps)
        adam_step(self.policy, grads, self.policy_opt)

        # Temperature: descend J(alpha) = mean(-alpha * (log pi + target_entropy)).
        ent_err = float(np.mean(logp + self.target_entropy))
        self.log_alpha = self.alpha_opt.update(self.log_alpha, -alpha * ent_err)

        polyak_update(self.q1_target, self.q1, self.config.polyak)
        polyak_update(self.q2_target, self.q2, self.config.polyak)
        return UpdateStats(q1_loss=q_losses[0], q2_loss=q_losses[1],
                           policy_loss=policy_loss, alpha=self.alpha)


# --- training loop ---------------------------------------------------------

@dataclass
class EpisodeMetrics:
    """One row of ``metrics.csv``; the columns are the fields, in order."""

    episode: int
    steps: int
    reward: float
    p_loss_pre: float
    p_loss_final: float
    delta_loss_frac: float
    done_reason: str
    q1_loss: float
    q2_loss: float
    policy_loss: float
    alpha: float

    def csv_row(self) -> str:
        """Floats as the ``repr`` of a Python float, everything else as ``str``."""
        return ",".join(repr(float(getattr(self, f.name))) if f.type == "float"
                        else str(getattr(self, f.name)) for f in fields(self))


METRICS_HEADER = tuple(f.name for f in fields(EpisodeMetrics))


def train(agent: SacAgent, env: GridControlEnv,
          out_dir: str | Path | None = None) -> list[EpisodeMetrics]:
    """Run episodes against ``env`` under ``agent.config`` until the env's
    snapshot stream is exhausted or ``n_episodes`` is reached.

    An episode runs until the env reports it done, so ``env.max_steps`` is
    its step budget. Actions are uniform-random until ``start_steps`` total
    environment steps, then sampled from the policy. Gradient updates run
    ``updates_per_step`` times per environment step once the episode index and
    the buffer size both reach ``batch_size``. Transitions store the squashed
    action.

    With ``out_dir``, writes one ``metrics.csv`` row per episode and
    checkpoints, with ``env.normalizer``, to ``<out_dir>/checkpoints/``:
    ``ep<N>.json`` every :data:`CHECKPOINT_EVERY` episodes and ``final.json``
    at the end.
    """
    config = agent.config
    buffer = ReplayBuffer(config.replay_capacity, agent.state_dim, agent.action_dim)
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    metrics: list[EpisodeMetrics] = []
    total_steps = 0
    episode = 0
    with open(out / "metrics.csv", "w") if out is not None else nullcontext() as fh:
        if fh is not None:
            fh.write(",".join(METRICS_HEADER) + "\n")
        while config.n_episodes is None or episode < config.n_episodes:
            try:
                state, _, p_loss_pre, _, _ = env.reset()
            except SnapshotStreamExhausted:
                break
            ep_reward = 0.0
            steps = 0
            last_stats: UpdateStats | None = None
            p_loss_final = float("nan")
            delta_final = float("nan")
            while True:
                if total_steps < config.start_steps:
                    a_raw = agent.rng.uniform(-1.0, 1.0, agent.action_dim)
                else:
                    a_raw = agent.sample_raw(state)
                result = env.step(Action(raw_to_setpoints(a_raw)))
                buffer.add(Transition(state=state.values, action=a_raw,
                                      reward=result.reward,
                                      next_state=result.next_state.values,
                                      done=float(result.done)))
                ep_reward += result.reward
                steps += 1
                total_steps += 1
                state = result.next_state
                if np.isfinite(result.info["p_loss"]):
                    p_loss_final = result.info["p_loss"]
                    delta_final = result.info["delta_p_loss_frac"]
                if episode >= config.batch_size and len(buffer) >= config.batch_size:
                    for _ in range(config.updates_per_step):
                        last_stats = agent.update(buffer)
                if result.done:
                    break
            row = EpisodeMetrics(
                episode=episode, steps=steps, reward=ep_reward,
                p_loss_pre=p_loss_pre, p_loss_final=p_loss_final,
                delta_loss_frac=delta_final, done_reason=result.done_reason.value,
                q1_loss=last_stats.q1_loss if last_stats else float("nan"),
                q2_loss=last_stats.q2_loss if last_stats else float("nan"),
                policy_loss=last_stats.policy_loss if last_stats else float("nan"),
                alpha=agent.alpha,
            )
            metrics.append(row)
            if fh is not None:
                fh.write(row.csv_row() + "\n")
            episode += 1
            if out is not None and episode % CHECKPOINT_EVERY == 0:
                save_checkpoint(out / "checkpoints" / f"ep{episode:06d}.json",
                                agent, env.normalizer)
    if out is not None:
        save_checkpoint(out / "checkpoints" / "final.json", agent, env.normalizer)
    return metrics


# --- checkpoints -------------------------------------------------------------

def save_checkpoint(path: str | Path, agent: SacAgent,
                    normalizer: Normalizer | None) -> None:
    """Versioned JSON checkpoint: layer dims, row-major flat parameters,
    normalizer statistics, and the full config. Sufficient for inference
    without any training state. An existing file is replaced atomically."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    norm = normalizer or Normalizer.identity(agent.state_dim)
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "state_dim": agent.state_dim,
        "action_dim": agent.action_dim,
        "log_alpha": agent.log_alpha,
        "target_entropy": agent.target_entropy,
        "networks": {
            name: {"layer_dims": list(net.layer_dims),
                   "values": network_to_flat(net).tolist()}
            for name, net in (("policy", agent.policy), ("q1", agent.q1),
                              ("q2", agent.q2), ("q1_target", agent.q1_target),
                              ("q2_target", agent.q2_target))
        },
        "normalizer": {"mean": norm.mean.tolist(), "scale": norm.scale.tolist()},
        "config": asdict(agent.config),
    }
    write_text_atomic(path, json.dumps(doc))


def load_checkpoint(path: str | Path) -> tuple[SacAgent, Normalizer]:
    """Agent and normalizer from a checkpoint file; a file that is not a
    well-formed checkpoint is refused with ``ValueError`` naming it."""
    # Each statement here reads the document, so each of the errors caught
    # below means the file is malformed.
    try:
        doc = json.loads(Path(path).read_text())
        version = doc.get("format_version")
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        config = SacConfig.from_dict(doc["config"])
        nets = {name: network_from_flat(spec["layer_dims"], spec["values"])
                for name, spec in doc["networks"].items()}
        agent = SacAgent(policy=nets["policy"], q1=nets["q1"], q2=nets["q2"],
                         q1_target=nets["q1_target"], q2_target=nets["q2_target"],
                         log_alpha=doc["log_alpha"],
                         target_entropy=doc["target_entropy"], config=config)
        normalizer = Normalizer(mean=np.array(doc["normalizer"]["mean"], dtype=float),
                                scale=np.array(doc["normalizer"]["scale"], dtype=float))
        if not normalizer.mean.shape == normalizer.scale.shape == (agent.state_dim,):
            raise ValueError(f"normalizer does not have state_dim {agent.state_dim} entries")
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return agent, normalizer
