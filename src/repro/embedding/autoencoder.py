"""1-D convolutional autoencoder baseline ("Autoencoder + OD", Sec. V).

The paper reports its autoencoder's best results with "four layers of
1-D convolution with the ReLU activation function" over the imputed
record matrix.  We use a four-conv encoder (stride-2 downsampling) whose
flattened output is projected to the embedding dimension, and a dense
decoder trained with mean-squared reconstruction error.  Embeddings
replace BiSAGE's in the detection pipeline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.nn import (Adam, Conv1d, Linear, Module, Tensor, export_parameters,
                      load_parameters, no_grad, ops)
from repro.utils.rng import as_rng
from repro.utils.validation import check_positive, check_positive_int

__all__ = ["AutoencoderConfig", "ConvAutoencoder"]


@dataclass(frozen=True)
class AutoencoderConfig:
    dim: int = 32
    channels: tuple[int, int, int, int] = (8, 16, 16, 8)
    kernel_size: int = 5
    learning_rate: float = 0.003
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_positive_int(self.dim, "dim")
        if len(self.channels) != 4:
            raise ValueError("the paper's autoencoder uses exactly four conv layers")
        check_positive_int(self.kernel_size, "kernel_size")
        check_positive(self.learning_rate, "learning_rate")
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_size, "batch_size")

    def to_dict(self) -> dict:
        """JSON-safe dict (``channels`` becomes a list); see :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AutoencoderConfig":
        data = dict(data)
        if "channels" in data:
            data["channels"] = tuple(int(c) for c in data["channels"])
        return cls(**data)


class _Encoder(Module):
    def __init__(self, num_features: int, config: AutoencoderConfig, rng):
        pad = config.kernel_size // 2
        c1, c2, c3, c4 = config.channels
        self.conv1 = Conv1d(1, c1, config.kernel_size, stride=2, padding=pad, rng=rng)
        self.conv2 = Conv1d(c1, c2, config.kernel_size, stride=2, padding=pad, rng=rng)
        self.conv3 = Conv1d(c2, c3, config.kernel_size, stride=2, padding=pad, rng=rng)
        self.conv4 = Conv1d(c3, c4, config.kernel_size, stride=2, padding=pad, rng=rng)
        length = num_features
        for conv in (self.conv1, self.conv2, self.conv3, self.conv4):
            length = conv.output_length(length)
            if length <= 0:
                raise ValueError(f"input with {num_features} features is too short for the encoder")
        self.flat_size = c4 * length
        self.project = Linear(self.flat_size, config.dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = ops.relu(self.conv1(x))
        out = ops.relu(self.conv2(out))
        out = ops.relu(self.conv3(out))
        out = ops.relu(self.conv4(out))
        out = out.reshape(out.shape[0], self.flat_size)
        return self.project(out)


class ConvAutoencoder(Module):
    """Encoder–decoder over imputed, [0,1]-scaled record vectors."""

    def __init__(self, num_features: int, config: AutoencoderConfig = AutoencoderConfig()):
        check_positive_int(num_features, "num_features")
        self.config = config
        self.num_features = num_features
        rng = as_rng(config.seed)
        self.encoder = _Encoder(num_features, config, rng)
        self.decoder = Linear(config.dim, num_features, rng=rng)
        self.loss_history: list[float] = []

    def forward(self, x: Tensor) -> tuple[Tensor, Tensor]:
        """(embedding, reconstruction) for a (batch, features) input."""
        batch = x.shape[0]
        embedding = self.encoder(x.reshape(batch, 1, self.num_features))
        reconstruction = self.decoder(embedding)
        return embedding, reconstruction

    def fit(self, x: np.ndarray) -> "ConvAutoencoder":
        """Train with MSE reconstruction on rows of ``x`` (scaled to [0,1])."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(f"expected (n, {self.num_features}) training matrix, got {x.shape}")
        if len(x) == 0:
            raise ValueError("cannot fit an autoencoder on zero samples")
        cfg = self.config
        optimizer = Adam(self.parameters(), lr=cfg.learning_rate)
        shuffle_rng = as_rng(cfg.seed + 1)
        self.loss_history = []
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(len(x))
            for start in range(0, len(x), cfg.batch_size):
                batch = Tensor(x[order[start:start + cfg.batch_size]])
                _, reconstruction = self.forward(batch)
                loss = ops.mse_loss(reconstruction, batch)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                self.loss_history.append(loss.item())
        return self

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Embeddings for rows of ``x`` (no gradient tracking)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        with no_grad():
            embedding, _ = self.forward(Tensor(x))
        return embedding.numpy()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Checkpointable state: config, input width and all weights.

        ``Module.parameters()`` walks attributes in definition order, so
        the flat parameter export is stable across constructions of the
        same architecture.
        """
        return {
            "config": self.config.to_dict(),
            "num_features": self.num_features,
            "loss_history": [float(x) for x in self.loss_history],
            "parameters": export_parameters(self.parameters()),
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "ConvAutoencoder":
        """Reconstruct a trained autoencoder saved by :meth:`state_dict`."""
        model = cls(int(state["num_features"]), AutoencoderConfig.from_dict(state["config"]))
        load_parameters(model.parameters(), state["parameters"])
        model.loss_history = [float(x) for x in state.get("loss_history", [])]
        return model
