"""1-D CNN speaker classifier over the differentiable log-mel front-end.

Architecture: a configurable stack of conv -> batchnorm -> relu blocks with
max pooling after every alternate layer, global average pooling over time,
and a final affine layer producing one logit per speaker. The front-end is
part of the forward pass, so logits are differentiable all the way back to
the raw waveform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Value
from .frontend import FrontendConfig, FrontendOps, log_mel
from .util import ConfigError, from_json, to_json

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class SpeakerCNNConfig:
    num_stacks: int = 8
    channels: tuple[int, ...] = (16, 16, 32, 32, 64, 64, 128, 128)
    kernel_size: int = 5
    pool_every: int = 2
    pool_width: int = 2
    num_speakers: int = 251

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if len(self.channels) != self.num_stacks:
            raise ValueError(f"channels has {len(self.channels)} entries for {self.num_stacks} stacks")
        if any(c < 1 for c in self.channels):
            raise ValueError("all channel counts must be >= 1")
        if self.kernel_size < 1 or self.pool_width < 2:
            raise ValueError("kernel_size must be >= 1 and pool_width >= 2")
        if self.num_speakers < 2:
            raise ValueError("num_speakers must be >= 2")
        if self.pool_every < 1:
            raise ValueError("pool_every must be >= 1")

    @classmethod
    def tiny(cls, num_speakers: int) -> "SpeakerCNNConfig":
        """Two-stack preset used by tests and the desk-scale experiments."""
        return cls(num_stacks=2, channels=(8, 8), kernel_size=5,
                   pool_every=2, num_speakers=num_speakers)

    def pool_layers(self) -> tuple[int, ...]:
        """1-based indices of conv layers followed by a pooling stage."""
        return tuple(i for i in range(1, self.num_stacks + 1) if i % self.pool_every == 0)


@dataclass
class ModelParams:
    """Trainable arrays plus batch-norm running statistics for one model."""

    model_config: SpeakerCNNConfig
    frontend_config: FrontendConfig
    arrays: dict[str, np.ndarray]
    running: dict[str, np.ndarray]
    seed: int
    frontend_ops: FrontendOps = field(repr=False, default=None)

    def __post_init__(self):
        if self.frontend_ops is None:
            self.frontend_ops = FrontendOps(self.frontend_config)

    def trainable_values(self) -> dict[str, Value]:
        return {name: Value(arr, requires_grad=True) for name, arr in self.arrays.items()}

    def copy_state(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        return ({k: v.copy() for k, v in self.arrays.items()},
                {k: v.copy() for k, v in self.running.items()})

    def restore_state(self, state) -> None:
        arrays, running = state
        self.arrays = {k: v.copy() for k, v in arrays.items()}
        self.running = {k: v.copy() for k, v in running.items()}


def build(model_config: SpeakerCNNConfig, frontend_config: FrontendConfig,
          seed: int) -> ModelParams:
    """He-initialized parameters, reproducible from the seed."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    running: dict[str, np.ndarray] = {}
    c_in = frontend_config.mel_bins
    k = model_config.kernel_size
    for i, c_out in enumerate(model_config.channels):
        fan_in = c_in * k
        arrays[f"conv{i}.w"] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(c_out, c_in, k))
        arrays[f"conv{i}.b"] = np.zeros(c_out)
        arrays[f"bn{i}.gamma"] = np.ones(c_out)
        arrays[f"bn{i}.beta"] = np.zeros(c_out)
        running[f"bn{i}.mean"] = np.zeros(c_out)
        running[f"bn{i}.var"] = np.ones(c_out)
        c_in = c_out
    arrays["fc.w"] = rng.normal(0.0, np.sqrt(2.0 / c_in),
                                size=(c_in, model_config.num_speakers))
    arrays["fc.b"] = np.zeros(model_config.num_speakers)
    return ModelParams(model_config, frontend_config, arrays, running, seed)


_BN_MODE = {"train": "train", "attack": "batch", "eval": "eval"}


def forward_logits(params: ModelParams, waveform_batch, mode: str = "eval",
                   param_values: dict[str, Value] | None = None) -> Value:
    """Unnormalized logits (n, num_speakers) for a batch of equal-length waveforms.

    mode "train" uses batch statistics and updates the running stats,
    "attack" uses batch statistics without updates (adversary generation
    inside the training loop), "eval" uses running statistics and is a
    deterministic pure function.
    """
    if mode not in _BN_MODE:
        raise ValueError(f"unknown mode {mode!r}")
    pv = param_values if param_values is not None else {
        name: Value(arr) for name, arr in params.arrays.items()
    }
    cfg = params.model_config
    pools = cfg.pool_layers()
    h = log_mel(waveform_batch, params.frontend_ops)
    for i, c_out in enumerate(cfg.channels):
        h = ad.conv1d(h, pv[f"conv{i}.w"]) + ad.reshape(pv[f"conv{i}.b"], (1, c_out, 1))
        h = ad.batchnorm(h, pv[f"bn{i}.gamma"], pv[f"bn{i}.beta"],
                         params.running[f"bn{i}.mean"], params.running[f"bn{i}.var"],
                         mode=_BN_MODE[mode])
        h = ad.relu(h)
        if i + 1 in pools:
            h = ad.maxpool1d(h, cfg.pool_width)
    h = ad.reduce_mean(h, axis=2)
    return ad.affine(h, pv["fc.w"], pv["fc.b"])


def min_input_samples(model_config: SpeakerCNNConfig, frontend_config: FrontendConfig) -> int:
    """Smallest waveform length the forward pass accepts (receptive field)."""
    pools = model_config.pool_layers()
    frames = 1
    for i in range(model_config.num_stacks, 0, -1):
        if i in pools:
            frames = frames * model_config.pool_width
        frames = frames + model_config.kernel_size - 1
    return frontend_config.window_length + (frames - 1) * frontend_config.hop_length


# ---------------------------------------------------------------------------
# checkpoints

class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: ModelParams, *, config_fingerprint: str = "",
                    corpus_fingerprint: str = "", epoch: int = 0,
                    velocity: dict[str, np.ndarray] | None = None,
                    extra: dict | None = None) -> None:
    """Versioned container: config, parameters, running stats, seed, optimizer state."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "seed": params.seed,
        "epoch": epoch,
        "config_fingerprint": config_fingerprint,
        "corpus_fingerprint": corpus_fingerprint,
        "model": to_json(params.model_config),
        "frontend": to_json(params.frontend_config),
        "extra": extra or {},
    }
    payload = {f"arr__{k}": v for k, v in params.arrays.items()}
    payload.update({f"run__{k}": v for k, v in params.running.items()})
    if velocity is not None:
        payload.update({f"vel__{k}": v for k, v in velocity.items()})
    payload["meta_json"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    np.savez(path, **payload)


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Returns (params, meta); meta carries epoch, fingerprints and optimizer state."""
    try:
        with np.load(path) as data:
            payload = {k: data[k] for k in data.files}
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "meta_json" not in payload:
        raise CheckpointError(f"{path} is not a model checkpoint")
    try:
        meta = json.loads(payload.pop("meta_json").tobytes().decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CheckpointError(f"{path}: unreadable meta: {exc}") from exc
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    missing = [key for key in ("seed", "corpus_fingerprint") if key not in meta]
    if missing:
        raise CheckpointError(f"{path}: meta lacks {', '.join(missing)}")
    arrays = {k[len("arr__"):]: v for k, v in payload.items() if k.startswith("arr__")}
    running = {k[len("run__"):]: v for k, v in payload.items() if k.startswith("run__")}
    velocity = {k[len("vel__"):]: v for k, v in payload.items() if k.startswith("vel__")}
    model_config = _config_from_meta(path, meta, "model", SpeakerCNNConfig)
    frontend_config = _config_from_meta(path, meta, "frontend", FrontendConfig)
    params = ModelParams(model_config, frontend_config, arrays, running, meta["seed"])
    meta["velocity"] = velocity or None
    return params, meta


def _config_from_meta(path, meta: dict, key: str, cls):
    """The ``cls`` recorded under ``meta[key]``, which must state every field."""
    block = meta.get(key)
    missing = [f.name for f in fields(cls) if not isinstance(block, dict) or f.name not in block]
    if missing:
        raise CheckpointError(f"{path}: meta {key!r} lacks {', '.join(missing)}")
    try:
        return from_json(cls, block, key)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: meta {exc}") from exc
