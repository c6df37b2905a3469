"""Model file round trips and loud failure on mismatches."""

import numpy as np
import pytest

from sigblock.model_io import load_model, save_model
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
    assert loaded.seq_cell == model.seq_cell
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
        for name in a.params:
            np.testing.assert_allclose(a.params[name], b.params[name], atol=1e-6)


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
