"""Model file round trips and loud failure on mismatches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigblock.encoder import FIELDS, AttentionalEncoder
from sigblock.model_io import load_model, save_model
from sigblock.signatures import SignatureModel, SignatureWeights
from sigblock.text_embedding import EmbeddingTable
from sigblock.training import TrainingConfig, train

from conftest import duplicated_dataset


@pytest.fixture(scope="module")
def model():
    ds, labels = duplicated_dataset(25, attrs_informative=1, attrs_noise=1, seed=3)
    cfg = TrainingConfig(
        iterations=8,
        batch_size=8,
        negatives=3,
        embedding_dim=10,
        hidden_size=5,
        bucket_count=128,
        seed=2,
        learning_rate=0.02,
        log_every=1000,
    )
    return train(ds, labels, cfg)


def test_round_trip_fields(model, tmp_path):
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.schema == model.schema
    assert loaded.weights.matrix.shape == model.weights.matrix.shape
    np.testing.assert_allclose(
        loaded.weights.matrix, model.weights.matrix, atol=1e-6
    )
    assert loaded.table.bucket_count == model.table.bucket_count
    assert loaded.table.ngram_range == model.table.ngram_range
    assert loaded.config_snapshot == model.config_snapshot
    for a, b in zip(loaded.encoders, model.encoders):
        assert a.hidden == b.hidden
        assert abs(a.smoothing_rho - b.smoothing_rho) < 1e-6
        for (name, x), (_, y) in zip(a.blocks(), b.blocks()):
            np.testing.assert_allclose(x, y, atol=1e-6, err_msg=name)


def test_load_save_byte_identical(model, tmp_path):
    p1 = tmp_path / "a.bin"
    p2 = tmp_path / "b.bin"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_loaded_model_blocks_identically(model, tmp_path):
    from sigblock.blocking import block
    from sigblock.lsh import LshParams

    ds, _ = duplicated_dataset(25, attrs_informative=1, attrs_noise=1, seed=3)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    a = block(ds, loaded, 0.8, LshParams(seed=1))
    b = block(ds, loaded, 0.8, LshParams(seed=1))
    assert a.pairs == b.pairs


def test_pretrained_map_round_trips(tmp_path):
    from sigblock.encoder import AttentionalEncoder
    from sigblock.signatures import SignatureModel, SignatureWeights
    from sigblock.text_embedding import EmbeddingTable

    rng = np.random.default_rng(0)
    table = EmbeddingTable(
        dim=4,
        bucket_count=16,
        seed=1,
        trainable=False,
        pretrained={"jones": np.array([1.0, 2.0, 3.0, 4.0])},
    )
    model = SignatureModel(
        schema=("t",),
        table=table,
        encoders=[AttentionalEncoder.initialize(4, 3, 1.0, rng)],
        weights=SignatureWeights(np.array([[1.0]])),
        config_snapshot={"note": "tiny"},
    )
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert set(loaded.table.pretrained) == {"jones"}
    np.testing.assert_allclose(loaded.table.pretrained["jones"], [1, 2, 3, 4])
    assert loaded.table.trainable is False


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"garbage here")
    with pytest.raises(ValueError, match="magic"):
        load_model(path)


def test_version_mismatch(model, tmp_path):
    path = tmp_path / "m.bin"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[6:8] = (77).to_bytes(2, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="version"):
        load_model(path)


@pytest.fixture(scope="module")
def tiny_model_bytes(tmp_path_factory):
    """A small model file that has every field: two attributes, a
    pretrained token, two signatures and a config snapshot."""
    from sigblock.encoder import AttentionalEncoder
    from sigblock.signatures import SignatureModel, SignatureWeights
    from sigblock.text_embedding import EmbeddingTable

    rng = np.random.default_rng(0)
    table = EmbeddingTable(
        dim=2, bucket_count=4, seed=1, pretrained={"dylan": np.array([0.5, -1.0])}
    )
    model = SignatureModel(
        schema=("title", "artist"),
        table=table,
        encoders=[AttentionalEncoder.initialize(2, 1, 0.5, rng) for _ in range(2)],
        weights=SignatureWeights(np.array([[1.0, 0.0], [0.0, 1.0]])),
        config_snapshot={"note": "tiny"},
    )
    path = tmp_path_factory.mktemp("tiny") / "m.bin"
    save_model(model, path)
    return path.read_bytes()


FIELD_RE = r"truncated \((\d+) bytes needed, (\d+) left\) at byte (\d+) while reading (.+)$"


def test_every_truncation_names_path_offset_and_field(tiny_model_bytes, tmp_path):
    import re

    path = tmp_path / "cut.bin"
    fields = set()
    for cut in range(len(tiny_model_bytes)):
        path.write_bytes(tiny_model_bytes[:cut])
        with pytest.raises(ValueError) as info:
            load_model(path)
        message = str(info.value)
        assert message.startswith(f"{path}: ") and "\n" not in message
        needed, left, start, field = re.search(FIELD_RE, message).groups()
        # the field starts at or before the cut and runs past it
        assert int(start) <= cut < int(start) + int(needed)
        assert int(start) + int(left) == cut
        fields.add(field)
    assert {
        "magic", "version", "attribute count", "attribute 1 name length",
        "attribute 1 name", "table shape", "table seed", "embedding rows",
        "pretrained count", "pretrained token 0", "pretrained vector 0",
        "encoder shape", "encoder 0 rho", "encoder 1 attn", "signature count",
        "signature weights", "config snapshot length", "config snapshot",
    } <= fields


def test_trailing_byte_rejected(tiny_model_bytes, tmp_path):
    path = tmp_path / "long.bin"
    path.write_bytes(tiny_model_bytes + b"\0")
    with pytest.raises(ValueError, match=f"1 trailing bytes at byte {len(tiny_model_bytes)}"):
        load_model(path)
    path.write_bytes(tiny_model_bytes)
    assert load_model(path).schema == ("title", "artist")


def test_bad_snapshot_json_names_offset(tiny_model_bytes, tmp_path):
    path = tmp_path / "json.bin"
    raw = bytearray(tiny_model_bytes)
    raw[-1:] = b"!"  # the closing brace of the snapshot
    path.write_bytes(bytes(raw))
    start = len(raw) - len(b'{"note": "tiny"}')
    with pytest.raises(ValueError, match=f"invalid JSON at byte {start} while reading config snapshot"):
        load_model(path)


def test_cli_truncated_model_exits_1_with_one_line(tiny_model_bytes, tmp_path, capsys):
    from sigblock.cli import main

    data = tmp_path / "data.csv"
    data.write_text("id,title,artist\na,blowin,dylan\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(f"[data]\ndataset = {data}\n", encoding="utf-8")
    model = tmp_path / "cut.bin"
    model.write_bytes(tiny_model_bytes[:-3])
    rc = main(["block", "--config", str(config), "--model", str(model), "--out", str(tmp_path / "c.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {model}: truncated") and "config snapshot" in err


def patched(data, at, raw):
    return data[:at] + raw + data[at + len(raw) :]


def encoder_shape_at(data):
    """Byte offset of the encoder shape field of the tiny model: after the
    pretrained vector, which ends the embedding table."""
    return data.index(b"dylan") + len(b"dylan") + 2 * 4


@pytest.mark.parametrize("field,raw", [("hidden", b"\0\0\0\0"), ("max_tokens", b"\0\0\0\0")])
def test_zero_encoder_size_rejected_with_offset(tiny_model_bytes, tmp_path, field, raw):
    at = encoder_shape_at(tiny_model_bytes)
    assert tiny_model_bytes[at : at + 8] == (1).to_bytes(4, "little") + (64).to_bytes(4, "little")
    path = tmp_path / "zero.bin"
    path.write_bytes(patched(tiny_model_bytes, at + (4 if field == "max_tokens" else 0), raw))
    want = f"{path}: hidden .* must be positive at byte {at} while reading encoder shape"
    with pytest.raises(ValueError, match=want):
        load_model(path)


def test_ngram_min_zero_rejected_with_offset(tiny_model_bytes, tmp_path):
    # magic, version, count, "title" and "artist" with lengths: table shape
    at = 6 + 2 + 4 + (2 + 5) + (2 + 6)
    assert tiny_model_bytes[at + 8 : at + 12] == b"\x03\x00\x05\x00"  # n-grams 3..5
    path = tmp_path / "ngram.bin"
    path.write_bytes(patched(tiny_model_bytes, at + 8, b"\x00"))
    want = (
        rf"n-grams 0\.\.5: .* and 1 <= ngram_min <= ngram_max at byte {at}"
        " while reading table shape"
    )
    with pytest.raises(ValueError, match=want):
        load_model(path)


def test_trainable_flag_other_than_0_or_1_rejected(tiny_model_bytes, tmp_path):
    # magic, version, count, "title" and "artist" with lengths, table shape, seed
    at = 6 + 2 + 4 + (2 + 5) + (2 + 6) + 12 + 8
    assert tiny_model_bytes[at] == 1
    path = tmp_path / "flag.bin"
    path.write_bytes(patched(tiny_model_bytes, at, b"\x02"))
    want = f"trainable flag 2 is not 0 or 1 at byte {at - 8} while reading table seed"
    with pytest.raises(ValueError, match=want):
        load_model(path)


@pytest.mark.parametrize("old,new", [(b'": "', b'":\t"'), (b'{"note"', b'{"n\\u006fte"')])
def test_snapshot_not_as_saved_rejected(tiny_model_bytes, tmp_path, old, new):
    """Valid JSON that save_model would write differently cannot round
    trip, so it is refused."""
    path = tmp_path / "json.bin"
    data = tiny_model_bytes.replace(old, new)
    start = data.index(b"{")
    data = data[: start - 4] + (len(data) - start).to_bytes(4, "little") + data[start:]
    path.write_bytes(data)
    want = f"not in the form save_model writes at byte {start} while reading config snapshot"
    with pytest.raises(ValueError, match=want):
        load_model(path)


def test_max_tokens_zero_is_a_config_error():
    with pytest.raises(ValueError, match="max_tokens must be positive, got 0"):
        TrainingConfig(max_tokens=0).validate()


def test_repeated_pretrained_token_rejected(tmp_path):
    from sigblock.encoder import AttentionalEncoder
    from sigblock.signatures import SignatureModel, SignatureWeights
    from sigblock.text_embedding import EmbeddingTable

    rng = np.random.default_rng(0)
    pretrained = {"dylan": np.array([0.5, -1.0]), "dylam": np.array([1.0, 2.0])}
    model = SignatureModel(
        schema=("t",),
        table=EmbeddingTable(dim=2, bucket_count=4, seed=1, pretrained=pretrained),
        encoders=[AttentionalEncoder.initialize(2, 1, 0.5, rng)],
        weights=SignatureWeights(np.array([[1.0]])),
    )
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = path.read_bytes()
    second = data.index(b"dylam") - 2  # its length field
    path.write_bytes(data.replace(b"dylam", b"dylan"))
    want = f"duplicate token 'dylan' at byte {second} while reading pretrained token 1"
    with pytest.raises(ValueError, match=want):
        load_model(path)


@pytest.mark.parametrize("rho", [1.5, -0.5])
def test_smoothing_rho_outside_unit_interval_rejected(tiny_model_bytes, tmp_path, rho):
    at = encoder_shape_at(tiny_model_bytes) + 9  # encoder 0 rho
    assert np.frombuffer(tiny_model_bytes[at : at + 4], "<f4")[0] == 0.5
    path = tmp_path / "rho.bin"
    path.write_bytes(patched(tiny_model_bytes, at, np.float32(rho).tobytes()))
    want = f"smoothing rho {rho} outside .* at byte {at} while reading encoder 0 rho"
    with pytest.raises(ValueError, match=want):
        load_model(path)


def test_cell_kind_other_than_1_rejected(tiny_model_bytes, tmp_path):
    at = encoder_shape_at(tiny_model_bytes)
    assert tiny_model_bytes[at + 8] == 1
    path = tmp_path / "cell.bin"
    path.write_bytes(patched(tiny_model_bytes, at + 8, b"\x02"))
    want = f"unknown sequence cell kind 2 at byte {at} while reading encoder shape"
    with pytest.raises(ValueError, match=want):
        load_model(path)


# SHA-256 of the untrained model below. Its bytes come from PCG64 draws
# rounded to f32 only, with no BLAS, so they are the same on every host;
# a round trip cannot see two blocks swapped alike in save and in load,
# a pinned digest can.
UNTRAINED_SHA256 = "e6983d09387ba13476a34dacf4ea8a0a6de0d80828f49962b4cedca1d0a792a0"


def test_untrained_model_file_is_pinned(tmp_path):
    import hashlib

    from sigblock.encoder import AttentionalEncoder
    from sigblock.signatures import SignatureModel, SignatureWeights
    from sigblock.text_embedding import EmbeddingTable

    rng = np.random.Generator(np.random.PCG64(7))
    model = SignatureModel(
        ("title", "rest"),
        EmbeddingTable(4, 16, seed=3, trainable=False),
        [AttentionalEncoder.initialize(4, 2, rho, rng) for rho in (1.0, 0.0)],
        SignatureWeights(np.eye(2)),
        config_snapshot={"seed": 7},
    )
    path = tmp_path / "untrained.bin"
    save_model(model, path)
    data = path.read_bytes()
    assert len(data) == 1286
    assert hashlib.sha256(data).hexdigest() == UNTRAINED_SHA256


def _two_attribute_model(encoders, weights):
    return SignatureModel(("a", "b"), EmbeddingTable(2, 4, seed=1), encoders, weights)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda rng: AttentionalEncoder.initialize(2, 4, 0.5, rng, max_tokens=0),
            r"^hidden 4 and max_tokens 0 must be positive$",
        ),
        (
            lambda rng: _two_attribute_model(
                [AttentionalEncoder.initialize(2, 1, 0.5, rng)], SignatureWeights(np.eye(2))
            ),
            r"^2 attributes need 2 encoders and 2 weight columns, got 1 and 2$",
        ),
        (
            lambda rng: _two_attribute_model(
                [AttentionalEncoder.initialize(2, 1, 0.5, rng) for _ in range(2)],
                SignatureWeights(np.ones((1, 3))),
            ),
            r"^2 attributes need 2 encoders and 2 weight columns, got 2 and 3$",
        ),
        (
            lambda rng: _two_attribute_model(
                [
                    AttentionalEncoder.initialize(2, 1, 0.5, rng),
                    AttentionalEncoder.initialize(2, 2, 0.5, rng),
                ],
                SignatureWeights(np.eye(2)),
            ),
            r"^encoder shape: encoders differ in \(hidden, max_tokens\): \[\(1, 64\), \(2, 64\)\]$",
        ),
        (
            lambda rng: _two_attribute_model(
                [AttentionalEncoder.initialize(d, 1, 0.5, rng) for d in (2, 3)],
                SignatureWeights(np.eye(2)),
            ),
            r"^encoder shape: encoder dims \[2, 3\] differ from the table dim 2$",
        ),
    ],
    ids=[
        "max-tokens-zero",
        "one-encoder-two-attributes",
        "three-columns-two-attributes",
        "encoders-of-two-shapes",
        "encoder-dim-off-the-table",
    ],
)
def test_a_model_load_would_refuse_fails_at_build(build, message):
    with pytest.raises(ValueError, match=message):
        build(np.random.default_rng(0))


@st.composite
def small_models(draw):
    """Small models of every shape ``save_model`` writes: one hidden size
    and token cap for all encoders, each encoder's dim the table's."""
    m, dim, hidden = (draw(st.integers(1, 3)) for _ in range(3))
    nmin = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tokens = draw(st.lists(st.text(max_size=3), max_size=2, unique=True))
    table = EmbeddingTable(
        dim,
        2 ** draw(st.integers(0, 3)),
        (nmin, nmin + draw(st.integers(0, 2))),
        seed=draw(st.integers(0, 2**64 - 1)),
        trainable=draw(st.booleans()),
        pretrained={t: rng.standard_normal(dim) for t in tokens},
    )
    max_tokens = draw(st.integers(1, 5))
    rhos = draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m))
    encoders = [AttentionalEncoder.initialize(dim, hidden, r, rng, max_tokens) for r in rhos]
    return SignatureModel(
        schema=tuple(draw(st.lists(st.text(max_size=3), min_size=m, max_size=m, unique=True))),
        table=table,
        encoders=encoders,
        weights=SignatureWeights(rng.standard_normal((draw(st.integers(0, 3)), m))),
        config_snapshot=draw(st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)),
    )


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_saved_models_round_trip_bitwise(tmp_path_factory, model):
    path = tmp_path_factory.mktemp("round") / "m.bin"
    save_model(model, path)
    data = path.read_bytes()
    loaded = load_model(path)
    save_model(loaded, path)
    assert path.read_bytes() == data

    def bits(array):
        return array.dtype, array.shape, array.tobytes()

    assert loaded.schema == model.schema and loaded.config_snapshot == model.config_snapshot
    assert bits(loaded.table.rows) == bits(model.table.rows)
    assert list(loaded.table.pretrained) == list(model.table.pretrained)
    for token, vector in model.table.pretrained.items():
        assert bits(loaded.table.pretrained[token]) == bits(vector)
    assert bits(loaded.weights.matrix) == bits(model.weights.matrix)
    for got, want in zip(loaded.encoders, model.encoders, strict=True):
        assert got.smoothing_rho == want.smoothing_rho and got.max_tokens == want.max_tokens
        for name in FIELDS:
            assert bits(getattr(got, name)) == bits(getattr(want, name))
