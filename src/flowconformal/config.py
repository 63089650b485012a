"""The typed settings of the model, training, conformal and classifier stages.

A leaf module: it imports numpy and ``errors`` only, so the command line
checks a whole config without loading the code that trains or scores.
``roundtrip``, ``conformal``, ``baselines`` and ``nn`` re-export the names
they used to define, so ``from flowconformal.roundtrip import TrainConfig``
still works.

Each dataclass checks its ranges when built and raises a ConfigError whose
message starts with the field name.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "P_VALUE_MODES",
    "hidden_widths",
    "FlowArchitecture",
    "TrainConfig",
    "ConformalConfig",
    "ClassifierConfig",
]

P_VALUE_MODES = ("smoothed", "paper-literal")


def hidden_widths(name: str, widths) -> tuple[int, ...]:
    """The config field ``name``'s hidden layer widths as ints, each >= 1."""
    widths = tuple(int(w) for w in widths)
    if min(widths, default=1) < 1:
        raise ConfigError(f"{name} widths must be >= 1, got {list(widths)}")
    return widths


@dataclass(frozen=True)
class FlowArchitecture:
    """Network shapes for one class model."""

    input_dim: int
    latent_dim: int
    gen_hidden: tuple[int, ...] = (48, 48)
    inv_hidden: tuple[int, ...] = (48, 48)
    disc_hidden: tuple[int, ...] = (48, 48)

    def __post_init__(self):
        for name in ("gen_hidden", "inv_hidden", "disc_hidden"):
            object.__setattr__(self, name, hidden_widths(name, getattr(self, name)))
        if self.latent_dim < 1:
            raise ConfigError(f"latent_dim must be >= 1, got {self.latent_dim}")
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        # latent dims up to the input dim are allowed so 1-D data can use d=1
        if self.latent_dim > self.input_dim:
            raise ConfigError(
                f"latent_dim must lie in [1, input_dim={self.input_dim}], got {self.latent_dim}"
            )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 40
    batch_size: int = 128
    lr_gen: float = 1e-3
    lr_disc: float = 1e-3
    # the fine-tune step shares the inverse map with the latent-matching
    # objective; a gentler rate keeps it from dragging encodings off center
    lr_pred: float = 1e-4
    w_gan: float = 1.0
    w_mmd: float = 1.0
    w_cycle: float = 1.0
    w_pred: float = 1.0
    disc_steps: int = 1
    seed: int = 0
    bandwidth: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.disc_steps < 1:
            raise ConfigError(f"disc_steps must be >= 1, got {self.disc_steps}")
        for name in ("lr_gen", "lr_disc", "lr_pred"):
            v = getattr(self, name)
            if not v > 0:
                raise ConfigError(f"{name} must be positive, got {v}")
        for name in ("w_gan", "w_mmd", "w_cycle", "w_pred"):
            v = getattr(self, name)
            if v < 0 or not np.isfinite(v):
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if self.bandwidth is not None and not self.bandwidth > 0:
            raise ConfigError(f"bandwidth must be positive when fixed, got {self.bandwidth}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ConformalConfig:
    alpha: float = 0.05
    p_value_mode: str = "smoothed"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.p_value_mode not in P_VALUE_MODES:
            raise ConfigError(
                f"p_value_mode must be one of {P_VALUE_MODES}, got {self.p_value_mode!r}"
            )


@dataclass(frozen=True)
class ClassifierConfig:
    hidden: tuple[int, ...] = (32,)
    epochs: int = 60
    batch_size: int = 128
    lr: float = 5e-3

    def __post_init__(self):
        object.__setattr__(self, "hidden", hidden_widths("hidden", self.hidden))
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
