import re
from dataclasses import fields

import pytest
from hypothesis import given, reject, settings, strategies as st

from kpff.config import (
    CHOICES,
    FieldError,
    RunConfig,
    config_hash,
    load_config,
    parse_config_text,
    serialize_config,
)


def test_defaults_match_recipe():
    cfg = RunConfig()
    assert cfg.lr == 1e-4
    assert cfg.weight_decay == 5e-4
    assert cfg.batch_size == 50
    assert cfg.max_epochs == 200
    assert cfg.val_interval == 10
    assert cfg.dropout_p == 0.5
    assert cfg.optimizer == "adam"
    assert cfg.folds == 5


def test_roundtrip_identity():
    cfg = RunConfig(seed=7, optimizer="sgd", lr=0.003, channels=(4, 8, 16), image_size=32,
                    kpff_noise=0.01)
    again = parse_config_text(serialize_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_parse_comments_and_overrides():
    text = """
    # a comment
    seed = 12   # trailing comment
    optimizer = sgd
    channels = 3,5
    """
    cfg = parse_config_text(text)
    assert cfg.seed == 12
    assert cfg.optimizer == "sgd"
    assert cfg.channels == (3, 5)


def test_parse_rejects_unknown_key_and_bad_lines():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("nope = 1")
    with pytest.raises(ValueError, match="expected"):
        parse_config_text("just words")


@pytest.mark.parametrize("value", ["4,,6", "4, 6,", ",4", " , "])
def test_parse_rejects_an_empty_list_item(value):
    with pytest.raises(ValueError, match=f"^line 2: channels: empty item in list '{value.strip()}'$"):
        parse_config_text(f"seed = 1\nchannels = {value}\n")


def test_parse_rejects_a_key_given_twice():
    with pytest.raises(ValueError, match="^line 4: key 'lr' already set on line 2$"):
        parse_config_text("seed = 1\nlr = 0.1\n# a comment\nlr = 0.1\n")
    with pytest.raises(ValueError, match="^line 2: key 'seed' already set on line 1$"):
        parse_config_text("seed = 1\n  seed=2  # the same key, spaced otherwise\n")


def test_validation():
    with pytest.raises(ValueError):
        RunConfig(dropout_p=1.0)
    with pytest.raises(ValueError):
        RunConfig(max_epochs=0)
    with pytest.raises(ValueError, match="^optimizer must be one of sgd, adam, got 'rmsprop'"):
        RunConfig(optimizer="rmsprop")


def test_activation_is_one_the_model_runs(tmp_path):
    assert sorted(CHOICES["activation"]) == ["identity", "leaky_relu", "relu", "sigmoid"]
    for activation in CHOICES["activation"]:
        assert RunConfig(activation=activation).activation == activation
    with pytest.raises(ValueError, match="^activation must be one of .*, got 'tanh'"):
        RunConfig(activation="tanh")
    path = tmp_path / "run.cfg"
    path.write_text("activation = tanh\n")
    with pytest.raises(ValueError, match="^line 1: activation must be one of"):
        load_config(path)


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nlr = 0.01\n")
    cfg = load_config(path)
    assert cfg == RunConfig(seed=3, lr=0.01)


def test_hash_changes_with_config():
    assert config_hash(RunConfig(seed=1)) != config_hash(RunConfig(seed=2))


@pytest.mark.parametrize("field", ["lr", "weight_decay", "kpff_noise"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_validation_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        RunConfig(**{field: value})


@pytest.mark.parametrize("field", ["weight_decay", "kpff_noise"])
def test_validation_rejects_negative_decay_and_noise(field):
    with pytest.raises(ValueError, match=f"^{field} must be non-negative"):
        RunConfig(**{field: -1e-4})
    RunConfig(**{field: 0.0})


def test_validation_rejects_one_fold():
    with pytest.raises(ValueError, match="^folds must be at least 2"):
        RunConfig(folds=1)
    RunConfig(folds=2)


@pytest.mark.parametrize("channels", [(), (6, 0), (-3,)])
def test_validation_rejects_bad_channels(channels):
    with pytest.raises(ValueError, match="^channels must be"):
        RunConfig(channels=channels)


def test_validation_rejects_image_too_small_for_channels():
    # 16 -> 14 -> 7 -> 5 -> 2 -> 0: a third 3x3 conv has no output
    RunConfig(image_size=16, channels=(2, 2))
    with pytest.raises(ValueError, match="^image_size"):
        RunConfig(image_size=16, channels=(2, 2, 2))
    RunConfig(image_size=3, channels=(6,))
    with pytest.raises(ValueError, match="^image_size"):
        RunConfig(image_size=2, channels=(6,))
    # image_size sizes the synthetic data only; a data directory sets its own
    RunConfig(image_size=16, channels=(2, 2, 2), data_dir="images")


def test_validation_through_config_text():
    with pytest.raises(ValueError, match="^line 1: lr must be finite"):
        parse_config_text("lr = nan")


@pytest.mark.parametrize("text,message", [
    ("seed = 1\nactivation = ReLU\n",
     "line 2: activation must be one of identity, relu, sigmoid, leaky_relu, got 'ReLU'"),
    ("seed = 1\n# a comment\ndropout_p = 1.5\n", "line 3: dropout_p must be in [0,1), got 1.5"),
    ("folds = 1\n", "line 1: folds must be at least 2, got 1"),
    ("seed = 2\nlr = -0.5\n", "line 2: lr must be positive, got -0.5"),
    # a size error concerns image_size, channels and the empty data_dir that
    # asks for synthetic images of that size: the lines of those set
    ("channels = 2,2,2\nimage_size = 16\n", "lines 1, 2: image_size: image size 16 too small"),
    ("data_dir =\nchannels = 2,2,2\n", "lines 1, 2: image_size: image size 16 too small"),
    ("seed = 1\nchannels = 2,2,2\n", "line 2: image_size: image size 16 too small"),
], ids=["activation", "dropout", "folds", "lr", "image-size", "data-dir", "channels-only"])
def test_config_errors_name_the_line_of_their_key(text, message):
    with pytest.raises(ValueError) as info:
        parse_config_text(text)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("kwargs,fields", [
    ({"activation": "tanh"}, ("activation",)),
    ({"lr": float("nan")}, ("lr",)),
    ({"per_class": 0}, ("per_class",)),
    ({"channels": ()}, ("channels",)),
    ({"image_size": 2, "channels": (6,)}, ("image_size", "channels", "data_dir")),
    ({"data_dir": "a#b"}, ("data_dir",)),
])
def test_config_errors_carry_their_fields(kwargs, fields):
    with pytest.raises(FieldError) as info:
        RunConfig(**kwargs)
    assert info.value.fields == fields
    assert isinstance(info.value, ValueError)


def test_load_config_names_a_file_it_cannot_read_or_decode(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("seed = 1\nactivation = r\u00e9lu\n".encode("latin-1"))  # 0xe9 at byte 23
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: config file is not UTF-8: byte 0xe9 "
                                         f"at offset 23$"):
        load_config(path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(tmp_path))}: cannot read config file: Is a directory$"):
        load_config(tmp_path)
    missing = tmp_path / "missing.cfg"
    with pytest.raises(ValueError, match=f"^{re.escape(str(missing))}: cannot read config file: No such file"):
        load_config(missing)
    path.write_text("# caf\u00e9\nseed = 4\n", encoding="utf-8")  # UTF-8 is read as such
    assert load_config(path) == RunConfig(seed=4)


# --- properties ----------------------------------------------------------------------


@st.composite
def run_configs(draw):
    """RunConfigs with each field drawn from the values its own rule allows;
    a draw that a rule across fields rejects (an image too small for the
    channels) is discarded."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.integers(min_value=1)
    kwargs = dict(
        seed=draw(st.integers()), optimizer=draw(st.sampled_from(CHOICES["optimizer"])),
        lr=draw(finite.filter(lambda v: v > 0)), weight_decay=draw(finite.map(abs)),
        batch_size=draw(positive), max_epochs=draw(positive), val_interval=draw(positive),
        dropout_p=draw(st.floats(0.0, 1.0, exclude_max=True)),
        activation=draw(st.sampled_from(CHOICES["activation"])),
        channels=tuple(draw(st.lists(positive, min_size=1, max_size=4))),
        per_class=draw(positive), image_size=draw(st.integers(1, 64)),
        data_dir=draw(st.text(max_size=10)), kpff_noise=draw(finite.map(abs)),
        folds=draw(st.integers(min_value=2)))
    try:
        return RunConfig(**kwargs)
    except FieldError:
        reject()


@given(run_configs())
@settings(max_examples=50, deadline=None)
def test_config_text_round_trip(cfg):
    assert parse_config_text(serialize_config(cfg)) == cfg


# one token of a config line: anything without whitespace, and the tokens
# a config line is made of
TOKENS = st.one_of(
    st.text(max_size=8).map(lambda t: "".join(c for c in t if not c.isspace())),
    st.sampled_from([f.name for f in fields(RunConfig)] + ["=", "#", ""]),
    st.sampled_from([v for values in CHOICES.values() for v in values]),
    st.integers().map(str), st.floats().map(repr),
    st.lists(st.integers(-1, 40), max_size=5).map(lambda v: ",".join(map(str, v))),
)


def _lines_named(message):
    """The line numbers a parse_config_text error names."""
    prefix = re.match(r"lines? (\d+(?:, \d+)*): ", message)
    assert prefix, message
    return ({int(n) for n in prefix.group(1).split(", ")}
            | {int(n) for n in re.findall(r"already set on line (\d+)$", message)})


@given(run_configs(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_corrupt_config_token_gives_a_config_or_an_error_naming_its_line(cfg, data):
    lines = serialize_config(cfg).splitlines()
    n = data.draw(st.integers(1, len(lines)), label="line")
    tokens = lines[n - 1].split()
    tokens[data.draw(st.integers(0, len(tokens) - 1), label="token")] = data.draw(TOKENS)
    lines[n - 1] = " ".join(tokens)

    def parse(text_lines):
        try:
            return parse_config_text("\n".join(text_lines) + "\n")
        except ValueError as exc:
            return str(exc)

    outcome = parse(lines)
    if not lines[n - 1].split("#", 1)[0].strip():
        # the line became a comment or blank: the file without it
        assert outcome == parse(lines[:n - 1] + lines[n:])
    elif isinstance(outcome, str):
        assert n in _lines_named(outcome), outcome
