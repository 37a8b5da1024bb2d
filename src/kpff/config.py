"""Run configuration: plain `key = value` files with `#` comments,
overridable by CLI flags. Defaults follow the reference training recipe
(Adam, lr 1e-4, weight decay 5e-4, batch 50, 200 epochs, validate every
10, dropout 0.5, five folds)."""

from dataclasses import dataclass, fields
import hashlib
import math

from .net import ACTIVATIONS, OPTIMIZERS, check_image_size

# the values each field of this kind may take, for RunConfig and the CLI's choices
CHOICES = {"optimizer": OPTIMIZERS, "activation": tuple(ACTIVATIONS)}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    optimizer: str = "adam"
    lr: float = 1e-4
    weight_decay: float = 5e-4
    batch_size: int = 50
    max_epochs: int = 200
    val_interval: int = 10
    dropout_p: float = 0.5
    activation: str = "relu"
    channels: tuple = (6, 12)
    per_class: int = 25
    image_size: int = 16
    data_dir: str = ""  # empty -> synthetic
    kpff_noise: float = 0.0
    folds: int = 5

    def __post_init__(self):
        for f in ("lr", "weight_decay", "kpff_noise"):
            if not math.isfinite(getattr(self, f)):
                raise ValueError(f"{f} must be finite, got {getattr(self, f)}")
        for f in ("lr", "batch_size", "max_epochs", "val_interval", "folds",
                  "image_size", "per_class"):
            if getattr(self, f) <= 0:
                raise ValueError(f"{f} must be positive, got {getattr(self, f)}")
        for f in ("weight_decay", "kpff_noise"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative, got {getattr(self, f)}")
        if self.folds < 2:
            raise ValueError(f"folds must be at least 2, got {self.folds}")
        if not self.channels or any(ch <= 0 for ch in self.channels):
            raise ValueError(f"channels must be a non-empty list of positive counts, "
                             f"got {self.channels}")
        if not self.data_dir:  # image_size sizes the synthetic images only
            try:
                check_image_size(self.image_size, len(self.channels))
            except ValueError as exc:
                raise ValueError(f"image_size: {exc} (channels {self.channels})") from None
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValueError(f"dropout_p must be in [0,1), got {self.dropout_p}")
        for f, allowed in CHOICES.items():
            if getattr(self, f) not in allowed:
                raise ValueError(f"{f} must be one of {', '.join(allowed)}, "
                                 f"got {getattr(self, f)!r}")


def _format_value(v):
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def field_types():
    """RunConfig field name -> the type _parse_value parses its values to:
    that of its default, as the annotations may be strings."""
    return {f.name: type(f.default) for f in fields(RunConfig)}


def _parse_value(text, ftype):
    """A config value of type ftype from its text, as in a config file."""
    text = text.strip()
    if ftype is int:
        return int(text)
    if ftype is float:
        return float(text)
    if ftype is tuple:
        items = text.split(",")
        if not all(x.strip() for x in items):
            raise ValueError(f"empty item in list {text!r}")
        return tuple(int(x) for x in items)
    return text


def serialize_config(cfg: RunConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}" for f in fields(cfg)]
    return "\n".join(lines) + "\n"


def parse_config_text(text) -> RunConfig:
    ftypes = field_types()
    overrides, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ftypes:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ValueError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        try:
            overrides[key] = _parse_value(value, ftypes[key])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    return RunConfig(**overrides)


def load_config(path) -> RunConfig:
    with open(path) as f:
        return parse_config_text(f.read())


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
