"""Both binary formats through the shared codec: fuzzed loads, checked saves."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigblock.encoder import AttentionalEncoder
from sigblock.lsh import LshIndex, LshParams
from sigblock.model_io import load_model, save_model
from sigblock.signatures import SignatureModel, SignatureWeights
from sigblock.text_embedding import EmbeddingTable


def tiny_parts(schema=("title", "artist"), token="dylan"):
    """The fields of :func:`tiny_model`, before the model rounds them."""
    rng = np.random.default_rng(0)
    table = EmbeddingTable(dim=2, bucket_count=4, seed=1, pretrained={token: np.array([0.5, -1.0])})
    return dict(
        schema=schema,
        table=table,
        encoders=[AttentionalEncoder.initialize(2, 1, 0.5, rng) for _ in schema],
        weights=SignatureWeights(np.eye(len(schema))),
        config_snapshot={"note": "tiny", "theta": 0.8},
    )


def tiny_model(schema=("title", "artist"), token="dylan"):
    return SignatureModel(**tiny_parts(schema, token))


def tiny_index(ids=("a", "b", "é", "d", "a")):
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((len(ids), 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    params = LshParams(tables=2, hashes_per_table=2, multiprobe=1, seed=5, max_results=7)
    items = [(rid, i // 4, v) for i, (rid, v) in enumerate(zip(ids, vecs))]
    return LshIndex.build(items, 2, params)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The bytes of a tiny index file and a tiny model file, a few
    hundred bytes each, with every field present."""
    root = tmp_path_factory.mktemp("codec")
    tiny_index().save(root / "index.bin")
    save_model(tiny_model(), root / "model.bin")
    return {
        "index": (LshIndex.load, LshIndex.save, (root / "index.bin").read_bytes()),
        "model": (load_model, save_model, (root / "model.bin").read_bytes()),
    }


def load_or_round_trip(load, save, data, tmp_path):
    """Either ``load`` raises a one-line ValueError naming the path, or
    the file loads and saves back to the same bytes."""
    path, again = tmp_path / "case.bin", tmp_path / "again.bin"
    path.write_bytes(data)
    try:
        loaded = load(path)
    except ValueError as exc:
        message = str(exc)
        assert message.startswith(f"{path}: ") and "\n" not in message
        return False
    save(loaded, again)
    assert again.read_bytes() == data
    return True


@pytest.mark.parametrize("kind", ["index", "model"])
def test_files_are_small_and_round_trip(files, kind, tmp_path):
    load, save, data = files[kind]
    assert len(data) < 600
    assert load_or_round_trip(load, save, data, tmp_path)


@pytest.mark.parametrize("kind", ["index", "model"])
def test_every_truncation_and_extension_fails_naming_path(files, kind, tmp_path):
    load, save, data = files[kind]
    for cut in range(len(data)):
        assert not load_or_round_trip(load, save, data[:cut], tmp_path)
    for extra in (b"\0", b"\xff" * 5):
        assert not load_or_round_trip(load, save, data + extra, tmp_path)


@pytest.mark.parametrize("kind", ["index", "model"])
@settings(max_examples=300, deadline=None)
@given(
    flips=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)), min_size=1, max_size=3
    )
)
def test_flipped_bytes_fail_naming_path_or_round_trip(files, kind, flips, tmp_path_factory):
    load, save, data = files[kind]
    raw = bytearray(data)
    for where, mask in flips:
        raw[int(where * len(raw))] ^= mask
    load_or_round_trip(load, save, bytes(raw), tmp_path_factory.mktemp("flip"))


@pytest.mark.parametrize("kind", ["index", "model"])
def test_non_finite_float_names_offset(files, kind, tmp_path):
    """A NaN or an infinity anywhere a float goes is refused with its
    exact byte offset (f32 -> f64 -> f32 would quiet a signalling NaN)."""
    load, _, data = files[kind]
    path = tmp_path / "nan.bin"
    exact = 0
    for at in range(0, len(data) - 3):
        value = np.frombuffer(data[at : at + 4], "<f4")[0]
        # what may be a float of the file: make it a signalling NaN, then -inf
        if not 1e-3 < abs(value) < 1e3:
            continue
        for bad in (b"\x01\x00\x80\x7f", b"\x00\x00\x80\xff"):
            path.write_bytes(data[:at] + bad + data[at + 4 :])
            try:  # a window off the float grid may still load
                load(path)
                continue
            except ValueError as exc:
                found = re.search(r"non-finite value \S+ at byte (\d+) while reading", str(exc))
            if found:  # the float the window overwrote, or one it straddles
                assert at - 3 <= int(found.group(1)) <= at + 3
                exact += int(found.group(1)) == at
    assert exact >= 40


def test_index_save_rejects_long_id_and_leaves_no_file(tmp_path):
    index = tiny_index(ids=("a", "x" * 70_000))
    path = tmp_path / "index.bin"
    with pytest.raises(ValueError, match=r"entry id 'xxxx.*\.\.\. is 70000 bytes in UTF-8, over"):
        index.save(path)
    assert not path.exists()


def test_index_save_rejects_signature_id_over_u32(tmp_path):
    v = np.array([1.0, 0.0])
    index = LshIndex.build([("a", 0, v), ("b", 2**32, v)], 2)
    path = tmp_path / "index.bin"
    with pytest.raises(ValueError, match=r"\('b', 4294967296\): signature id over u32"):
        index.save(path)
    assert not path.exists()


@pytest.mark.parametrize(
    "schema,token,match",
    [
        (("title", "n" * 70_000), "dylan", "attribute name 'nnn.*is 70000 bytes"),
        (("title",), "t" * 70_000, "pretrained token 'ttt.*is 70000 bytes"),
    ],
)
def test_model_save_rejects_long_text_and_leaves_no_file(tmp_path, schema, token, match):
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match=match):
        save_model(tiny_model(schema, token), path)
    assert not path.exists()


@pytest.mark.parametrize(
    "field",
    ["embedding rows", "pretrained vector 'dylan'", "encoder 1 wh", "signature weights"],
    ids=["rows", "pretrained", "encoder", "weights"],
)
def test_model_build_refuses_value_over_f32_range(field):
    parts = tiny_parts()
    table, encoders, weights = parts["table"], parts["encoders"], parts["weights"]
    target = {
        "embedding rows": table.rows,
        "pretrained vector 'dylan'": table.pretrained["dylan"],
        "encoder 1 wh": encoders[1].wh,
        "signature weights": weights.matrix,
    }[field]
    target.flat[1] = 1e39
    want = rf"^{re.escape(field)}: value 1e\+39 at flat index 1 is not a finite f32$"
    with pytest.raises(ValueError, match=want):
        SignatureModel(**parts)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_save_rejects_non_finite_f32_and_leaves_no_file(tmp_path, bad):
    model = tiny_model()
    model.encoders[1].wh[1, 0, 2] = bad
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match=r"encoder 1 wh_b: value .* at flat index 2 is not"):
        save_model(model, path)
    assert not path.exists()


def test_model_save_rejects_count_over_field(tmp_path):
    model = tiny_model()
    for enc in model.encoders:
        enc.max_tokens = 2**32
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match=r"encoder shape \(1, 4294967296, 1\) does not fit"):
        save_model(model, path)
    assert not path.exists()


def test_cli_index_long_id_exits_1_with_one_line(tmp_path, capsys):
    from sigblock.cli import main

    data = tmp_path / "data.csv"
    data.write_text(f"id,title,artist\na,blowin,dylan\n{'x' * 70_000},blowin,dylan\n")
    config = tmp_path / "run.ini"
    config.write_text(f"[data]\ndataset = {data}\n", encoding="utf-8")
    model = tmp_path / "model.bin"
    save_model(tiny_model(), model)
    out = tmp_path / "index.bin"
    rc = main(["index", "--config", str(config), "--model", str(model), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: entry id 'xxx") and "over the limit of 65535" in err
    assert not out.exists()


def test_model_save_rejects_encoders_of_different_shapes(tmp_path):
    """The file stores one (hidden, max_tokens) for every encoder, so a
    model whose encoders differ would load changed."""
    model = tiny_model()
    model.encoders[1].max_tokens = 8
    path = tmp_path / "model.bin"
    want = r"encoders differ in \(hidden, max_tokens\): \[\(1, 64\), \(1, 8\)\]"
    with pytest.raises(ValueError, match=want):
        save_model(model, path)
    assert not path.exists()


def test_model_save_rejects_encoder_dim_off_the_table(tmp_path):
    """The file takes each encoder's dim from the table, so an encoder of
    another dim would write a file that cannot load."""
    model = tiny_model()
    model.encoders[1] = AttentionalEncoder.initialize(3, 1, 0.5, np.random.default_rng(0))
    path = tmp_path / "model.bin"
    with pytest.raises(ValueError, match=r"encoder dims \[2, 3\] differ from the table dim 2"):
        save_model(model, path)
    assert not path.exists()
