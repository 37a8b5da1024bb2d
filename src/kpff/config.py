"""Run configuration: plain `key = value` files with `#` comments,
overridable by CLI flags. Defaults follow the reference training recipe
(Adam, lr 1e-4, weight decay 5e-4, batch 50, 200 epochs, validate every
10, dropout 0.5, five folds)."""

from dataclasses import dataclass, fields
import hashlib
import math
from pathlib import Path

from .net import ACTIVATIONS, OPTIMIZERS, check_image_size

# the values each field of this kind may take, for RunConfig and the CLI's choices
CHOICES = {"optimizer": OPTIMIZERS, "activation": tuple(ACTIVATIONS)}


# (fields, test, what each of their values must be), in the order RunConfig checks them
_RULES = (
    (("lr", "weight_decay", "kpff_noise"), math.isfinite, "finite"),
    (("lr", "batch_size", "max_epochs", "val_interval", "folds", "image_size", "per_class"),
     lambda v: v > 0, "positive"),
    (("weight_decay", "kpff_noise"), lambda v: v >= 0, "non-negative"),
    (("folds",), lambda v: v >= 2, "at least 2"),
    (("channels",), lambda v: v and all(ch > 0 for ch in v), "a non-empty list of positive counts"),
    (("dropout_p",), lambda v: 0.0 <= v < 1.0, "in [0,1)"),
    # a config line ends at '#' and at a line break, and its value is stripped
    (("data_dir",), lambda v: "#" not in v and v == v.strip() and len(v.splitlines()) < 2,
     "a path with no '#', line break or surrounding whitespace"),
) + tuple(((f,), allowed.__contains__, f"one of {', '.join(allowed)}")
          for f, allowed in CHOICES.items())


class FieldError(ValueError):
    """A rejected RunConfig value; fields names the fields it concerns."""

    def __init__(self, fields, message):
        super().__init__(message)
        self.fields = fields


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
        for names, ok, what in _RULES:
            for f in names:
                if not ok(getattr(self, f)):
                    raise FieldError((f,), f"{f} must be {what}, got {getattr(self, f)!r}")
        if not self.data_dir:  # image_size sizes the synthetic images only
            try:
                check_image_size(self.image_size, len(self.channels))
            except ValueError as exc:
                raise FieldError(("image_size", "channels", "data_dir"),
                                 f"image_size: {exc} (channels {self.channels}, "
                                 f"synthetic data as data_dir is empty)") from None


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
    try:
        return RunConfig(**overrides)
    except FieldError as exc:  # named by the lines of those of its fields set here
        lines = sorted(set_on[f] for f in exc.fields if f in set_on)  # defaults pass
        where = ", ".join(map(str, lines))
        raise ValueError(f"{'lines' if len(lines) > 1 else 'line'} {where}: {exc}") from None


def read_utf8(path, kind) -> str:
    """The text of a UTF-8 file, without one leading byte-order mark. An
    error reading or decoding it is a ValueError that names the file, as a
    `kind` file, and the offset of the first byte that is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {kind} file is not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                         f"at offset {exc.start}") from None
    except OSError as exc:
        raise ValueError(f"{path}: cannot read {kind} file: {exc.strerror}") from None


def load_config(path) -> RunConfig:
    """The RunConfig of a UTF-8 config file. An error reading or decoding
    it names the file; one in its text names the line."""
    return parse_config_text(read_utf8(path, "config"))


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]
