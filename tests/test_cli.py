"""Command-line behavior: pipeline wiring, determinism, exit codes."""

import argparse
import filecmp
import re
import shlex
from pathlib import Path

import pytest

import sigblock.cli as cli
from sigblock.cli import main

CONFIG = """\
[data]
dataset = {data}
labels = {labels}

[model]
dim = 16
hidden = 8
bucket_count = 1024

[training]
iterations = 25
batch_size = 8
negatives = 4
learning_rate = 0.02
temperature = 0.2
seed = 11

[lsh]
theta = 0.8
seed = 2

[minhash]
theta = 0.4
seed = 3
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    labels = root / "labels.csv"
    rc = main(
        [
            "synth",
            "--entities",
            "60",
            "--duplicates",
            "2",
            "--regime",
            "dirty",
            "--typo-rate",
            "0.3",
            "--missing-attr-rate",
            "0.3",
            "--attr-swap-rate",
            "0.2",
            "--version-suffix-rate",
            "0.2",
            "--seed",
            "4",
            "--out",
            str(data),
            "--labels-out",
            str(labels),
        ]
    )
    assert rc == 0
    config = root / "run.ini"
    config.write_text(CONFIG.format(data=data, labels=labels), encoding="utf-8")
    return root, config


def test_synth_deterministic(tmp_path):
    args = lambda out, lab: [
        "synth", "--entities", "20", "--duplicates", "2", "--typo-rate", "0.5",
        "--seed", "9", "--out", str(out), "--labels-out", str(lab),
    ]
    assert main(args(tmp_path / "a.csv", tmp_path / "al.csv")) == 0
    assert main(args(tmp_path / "b.csv", tmp_path / "bl.csv")) == 0
    assert filecmp.cmp(tmp_path / "a.csv", tmp_path / "b.csv", shallow=False)
    assert filecmp.cmp(tmp_path / "al.csv", tmp_path / "bl.csv", shallow=False)


def test_train_block_eval_pipeline(workspace, tmp_path):
    root, config = workspace
    model = tmp_path / "model.bin"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    assert model.exists()

    cands = tmp_path / "cands.csv"
    assert main(
        ["block", "--config", str(config), "--model", str(model), "--out", str(cands)]
    ) == 0
    header = cands.read_text().splitlines()[0]
    assert header.startswith("id_a,id_b")

    key_out = tmp_path / "key.csv"
    assert main(
        [
            "baseline", "--config", str(config), "--method", "key",
            "--key-kind", "single", "--key-attributes", "title",
            "--out", str(key_out),
        ]
    ) == 0

    mh_out = tmp_path / "mh.csv"
    assert main(
        ["baseline", "--config", str(config), "--method", "minhash", "--out", str(mh_out)]
    ) == 0

    metrics = tmp_path / "metrics.csv"
    assert main(
        [
            "eval", "--config", str(config),
            "--candidates", f"auto={cands}", f"key={key_out}", f"minhash={mh_out}",
            "--out", str(metrics),
        ]
    ) == 0
    lines = metrics.read_text().splitlines()
    assert lines[0] == "method,dataset,regime,repeat,recall,pe_ratio,wall_time_s"
    assert len(lines) == 4


def test_train_rerun_byte_identical(workspace, tmp_path):
    _, config = workspace
    m1 = tmp_path / "m1.bin"
    m2 = tmp_path / "m2.bin"
    assert main(["train", "--config", str(config), "--out", str(m1)]) == 0
    assert main(["train", "--config", str(config), "--out", str(m2)]) == 0
    assert filecmp.cmp(m1, m2, shallow=False)


def test_block_theta_monotone(workspace, tmp_path):
    _, config = workspace
    model = tmp_path / "model.bin"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    lo = tmp_path / "lo.csv"
    hi = tmp_path / "hi.csv"
    assert main(
        ["block", "--config", str(config), "--model", str(model),
         "--set", "lsh.theta=0.8", "--out", str(lo)]
    ) == 0
    assert main(
        ["block", "--config", str(config), "--model", str(model),
         "--set", "lsh.theta=0.99", "--out", str(hi)]
    ) == 0
    n_lo = len(lo.read_text().splitlines())
    n_hi = len(hi.read_text().splitlines())
    assert n_hi <= n_lo


def test_minhash_theta_monotone(workspace, tmp_path):
    _, config = workspace
    loose = tmp_path / "loose.csv"
    tight = tmp_path / "tight.csv"
    for theta, out in ((0.5, loose), (0.99, tight)):
        assert main(
            ["baseline", "--config", str(config), "--method", "minhash",
             "--set", f"minhash.theta={theta}", "--out", str(out)]
        ) == 0
    pairs = lambda p: set(p.read_text().splitlines()[1:])
    assert pairs(tight) <= pairs(loose)


def test_inspect_and_index(workspace, tmp_path):
    _, config = workspace
    model = tmp_path / "model.bin"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    attn = tmp_path / "attn.csv"
    assert main(
        ["inspect", "--config", str(config), "--model", str(model),
         "--limit", "2", "--out", str(attn)]
    ) == 0
    lines = attn.read_text().splitlines()
    assert lines[0] == "record_id,attribute,token,weight"
    assert len(lines) > 1
    index = tmp_path / "index.bin"
    assert main(
        ["index", "--config", str(config), "--model", str(model), "--out", str(index)]
    ) == 0
    assert index.read_bytes()[:6] == b"XPLSH1"


def test_eval_recall_hand_computed(workspace, tmp_path):
    root, config = workspace
    labels_path = root / "labels.csv"
    label_rows = labels_path.read_text().splitlines()[1:]
    # candidates covering exactly 3 of the first 4 label pairs
    subset = tmp_path / "subset.csv"
    subset.write_text("id_a,id_b\n" + "\n".join(label_rows[:3]) + "\n", encoding="utf-8")
    full = tmp_path / "full.csv"
    full.write_text("id_a,id_b\n" + "\n".join(label_rows) + "\n", encoding="utf-8")
    small_labels = tmp_path / "labels4.csv"
    small_labels.write_text("id_a,id_b\n" + "\n".join(label_rows[:4]) + "\n", encoding="utf-8")
    metrics = tmp_path / "metrics.csv"
    assert main(
        ["eval", "--config", str(config), "--set", f"data.labels={small_labels}",
         "--candidates", f"sub={subset}", f"full={full}", "--out", str(metrics)]
    ) == 0
    rows = {ln.split(",")[0]: ln.split(",") for ln in metrics.read_text().splitlines()[1:]}
    assert float(rows["sub"][4]) == 0.75
    assert float(rows["full"][4]) == 1.0


@pytest.mark.parametrize("row", ["lonely", "a,b,zero,0.9"])
def test_eval_malformed_candidates_exits_2(workspace, tmp_path, capsys, row):
    _, config = workspace
    bad = tmp_path / "bad.csv"
    bad.write_text(f"id_a,id_b,signature_id,cosine\n{row}\n", encoding="utf-8")
    rc = main(
        ["eval", "--config", str(config), "--candidates", f"bad={bad}",
         "--out", str(tmp_path / "metrics.csv")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2: ") and err.count("\n") == 1


def test_eval_non_utf8_candidates_exits_2(workspace, tmp_path, capsys):
    _, config = workspace
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"id_a,id_b\na,b\xff\n")
    rc = main(
        ["eval", "--config", str(config), "--candidates", f"bad={bad}",
         "--out", str(tmp_path / "metrics.csv")]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: line 2: byte 13: not UTF-8")


@pytest.mark.parametrize(
    "rows, message",
    [(["{a},{a}"], "self-pair"), (["{a},{b}", "{a},zz"], "unknown record_id 'zz'")],
    ids=["self-pair", "unknown-id"],
)
def test_eval_candidates_the_dataset_rules_out_exit_2(workspace, tmp_path, capsys, rows, message):
    root, config = workspace
    a, b = [ln.split(",")[0] for ln in (root / "data.csv").read_text().splitlines()[1:3]]
    bad = tmp_path / "bad.csv"
    bad.write_text("id_a,id_b\n" + "\n".join(rows).format(a=a, b=b) + "\n", encoding="utf-8")
    rc = main(
        ["eval", "--config", str(config), "--candidates", f"bad={bad}",
         "--out", str(tmp_path / "metrics.csv")]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and message in err
    assert not (tmp_path / "metrics.csv").exists()


def test_eval_missing_candidate_file_exits_2(workspace, tmp_path, capsys):
    _, config = workspace
    missing = tmp_path / "none.csv"
    rc = main(
        ["eval", "--config", str(config), "--candidates", f"x={missing}",
         "--out", str(tmp_path / "metrics.csv")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: no such file: {missing}\n"


def test_eval_repeats_make_metric_rows(workspace, tmp_path):
    _, config = workspace
    model = tmp_path / "model.bin"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    paths = []
    for theta in ("0.9", "0.8", "0.7", "0.6", "0.5"):
        out = tmp_path / f"auto-{theta}.csv"
        assert main(
            ["block", "--config", str(config), "--model", str(model),
             "--set", f"lsh.theta={theta}", "--out", str(out)]
        ) == 0
        key_out = tmp_path / f"key-{theta}.csv"
        assert main(
            ["baseline", "--config", str(config), "--method", "key",
             "--out", str(key_out)]
        ) == 0
        paths += [f"auto={out}", f"key={key_out}"]
    metrics = tmp_path / "metrics.csv"
    assert main(
        ["eval", "--config", str(config), "--candidates", *paths,
         "--out", str(metrics)]
    ) == 0
    lines = metrics.read_text().splitlines()
    assert len(lines) == 11  # header + two methods x five repeats
    assert sum(1 for ln in lines if ln.startswith("auto,")) == 5


def test_tiny_fixture_trains_quickly(tmp_path):
    import time

    data = tmp_path / "data.csv"
    labels = tmp_path / "labels.csv"
    # 100 records: 50 entities with one duplicate each, 50 label pairs;
    # train on a trimmed iteration budget appropriate for the scale.
    assert main(
        ["synth", "--entities", "50", "--duplicates", "1", "--typo-rate", "0.3",
         "--seed", "3", "--out", str(data), "--labels-out", str(labels)]
    ) == 0
    config = tmp_path / "run.ini"
    config.write_text(
        CONFIG.format(data=data, labels=labels).replace(
            "iterations = 25", "iterations = 100"
        ),
        encoding="utf-8",
    )
    t0 = time.perf_counter()
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "m.bin")]) == 0
    assert time.perf_counter() - t0 < 60


def test_workers_flag_identical_output(workspace, tmp_path):
    _, config = workspace
    model = tmp_path / "model.bin"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    one = tmp_path / "w1.csv"
    four = tmp_path / "w4.csv"
    for workers, out in (("1", one), ("4", four)):
        assert main(
            ["block", "--config", str(config), "--model", str(model),
             "--workers", workers, "--out", str(out)]
        ) == 0
    assert filecmp.cmp(one, four, shallow=False)


def test_workers_zero_exits_2(workspace, tmp_path):
    _, config = workspace
    model = tmp_path / "model.bin"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    out = tmp_path / "w0.csv"
    assert main(
        ["block", "--config", str(config), "--model", str(model),
         "--workers", "0", "--out", str(out)]
    ) == 2
    assert not out.exists()


def test_single_key_of_several_attributes_exits_2(workspace, tmp_path, capsys):
    _, config = workspace
    base = ["baseline", "--config", str(config), "--method", "key", "--key-kind", "single"]
    out = tmp_path / "two.csv"
    assert main([*base, "--key-attributes", "album,title", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: --key-kind single takes one attribute, got album,title\n"
    assert not out.exists()
    # with no --key-attributes the key is the first schema attribute, title
    default, title = tmp_path / "default.csv", tmp_path / "title.csv"
    assert main([*base, "--out", str(default)]) == 0
    assert main([*base, "--key-attributes", "title", "--out", str(title)]) == 0
    assert default.read_bytes() == title.read_bytes()


@pytest.mark.parametrize(
    "command, flag",
    [
        (["baseline", "--method", "minhash", "--key-attributes", "album,foo"], "--key-attributes"),
        (["baseline", "--method", "minhash", "--key-kind", "disjunction"], "--key-kind"),
        (["inspect", "--attribute", "nosuch"], "--attribute"),
        (["inspect", "--attribute", ""], "--attribute"),
        (["inspect", "--limit", "-5"], "--limit"),
        (["inspect", "--limit", "0"], "--limit"),
    ],
    ids=[
        "minhash-key-attributes", "minhash-key-kind",
        "unknown-attribute", "empty-attribute", "negative-limit", "zero-limit",
    ],
)
def test_flag_that_names_nothing_exits_2(workspace, trained, tmp_path, capsys, command, flag):
    _, config = workspace
    if command[0] == "inspect":
        command = [*command, "--model", str(trained)]
    out = tmp_path / "out.csv"
    assert main([*command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
    assert not out.exists()


def test_missing_label_file_exits_2(workspace, tmp_path):
    root, config = workspace
    bad = tmp_path / "bad.ini"
    bad.write_text(
        config.read_text().replace("labels.csv", "no_such_labels.csv"),
        encoding="utf-8",
    )
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "m.bin")])
    assert rc == 2


def test_non_utf8_dataset_exits_2(workspace, tmp_path, capsys):
    root, config = workspace
    data = tmp_path / "data.csv"
    lines = (root / "data.csv").read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    data.write_bytes(b"".join(lines))
    bad = tmp_path / "bad.ini"
    bad.write_text(
        config.read_text().replace(str(root / "data.csv"), str(data)), encoding="utf-8"
    )
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    offset = len(lines[0] + lines[1])
    assert err.startswith(f"error: {data}: line 3: byte {offset}: not UTF-8")


def test_non_utf8_config_exits_2_naming_line_and_byte(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_bytes(b"[training]\nseed = 1\niterations = 5\xff\n")
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 3: byte 34: not UTF-8") and err.count("\n") == 1


def test_unknown_config_key_exits_2(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[training]\nbogus_knob = 5\n", encoding="utf-8")
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "m.bin")])
    assert rc == 2


def test_invalid_override_exits_2(workspace, tmp_path):
    _, config = workspace
    rc = main(
        ["train", "--config", str(config), "--set", "training.batch_size=lots",
         "--out", str(tmp_path / "m.bin")]
    )
    assert rc == 2


def test_empty_dataset_block_empty_csv(workspace, tmp_path):
    root, config = workspace
    model = tmp_path / "model.bin"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("id,title,album,composer,writer\n", encoding="utf-8")
    out = tmp_path / "cands.csv"
    rc = main(
        ["block", "--config", str(config), "--set", f"data.dataset={empty}",
         "--model", str(model), "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().splitlines()[0].startswith("id_a,id_b")
    assert len(out.read_text().splitlines()) == 1


@pytest.mark.parametrize("command", ["block", "key", "minhash"])
def test_empty_dataset_summary_line(workspace, tmp_path, capsys, command):
    _, config = workspace
    if command == "block":
        model = tmp_path / "model.bin"
        assert main(["train", "--config", str(config), "--out", str(model)]) == 0
        command = ["block", "--model", str(model)]
    else:
        command = ["baseline", "--method", command]
    empty = tmp_path / "empty.csv"
    empty.write_text("id,title,album,composer,writer\n", encoding="utf-8")
    out = tmp_path / "cands.csv"
    capsys.readouterr()
    rc = main(
        [*command, "--config", str(config), "--set", f"data.dataset={empty}", "--out", str(out)]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.fullmatch(
        rf"candidates=0 pe_ratio=0\.0000 wall_time_s=\d+\.\d\d -> {re.escape(str(out))}\n",
        captured.out,
    )
    assert out.read_text().splitlines()[0].startswith("id_a,id_b")


@pytest.mark.parametrize("value", ["0", "-3"])
def test_max_tokens_not_positive_exits_2(workspace, tmp_path, capsys, value):
    _, config = workspace
    out = tmp_path / "m.bin"
    rc = main(
        ["train", "--config", str(config), "--set", f"model.max_tokens={value}", "--out", str(out)]
    )
    assert rc == 2
    assert f"max_tokens must be positive, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("training.log_every=0", "log_every must be at least 1, got 0"),
        ("model.bucket_count=1000", "bucket_count must be a power of two, got 1000"),
        ("training.learning_rate=nan", "learning_rate must be finite and positive, got nan"),
        ("model.ngram_min=0", "ngram_min must be at least 1, got 0"),
        ("training.temperature=inf", "temperature must be finite and positive, got inf"),
        ("training.seed=-1", "seed must be non-negative, got -1"),
    ],
)
def test_untrainable_setting_exits_2(workspace, tmp_path, capsys, setting, message):
    _, config = workspace
    out = tmp_path / "m.bin"
    rc = main(["train", "--config", str(config), "--set", setting, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("model.primary_attribute=titel", "primary_attribute: no attribute 'titel' in the schema"),
        ("model.rho_albm=0.3", "rho_albm: no attribute 'albm' in the schema"),
        ("model.rho_album=1.5", "rho_album must lie in [0, 1], got 1.5"),
        ("model.rho_album=-0.1", "rho_album must lie in [0, 1], got -0.1"),
        ("model.rho_album=nan", "rho_album must lie in [0, 1], got nan"),
    ],
)
def test_bad_attribute_setting_exits_2_before_training(
    workspace, tmp_path, capsys, monkeypatch, setting, message
):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train", no_training)
    _, config = workspace
    out = tmp_path / "m.bin"
    rc = main(["train", "--config", str(config), "--set", setting, "--out", str(out)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_train_ignores_lsh_and_minhash_sections(workspace, tmp_path):
    _, config = workspace
    rc = main(
        ["train", "--config", str(config), "--set", "lsh.tables=0", "--set", "lsh.theta=1.5",
         "--set", "minhash.bands=0", "--out", str(tmp_path / "m.bin")]
    )
    assert rc == 0


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    _, config = workspace
    model = tmp_path_factory.mktemp("trained") / "model.bin"
    assert main(["train", "--config", str(config), "--out", str(model)]) == 0
    return model


@pytest.mark.parametrize(
    "command",
    [
        ["block", "--model", "m.bin", "--theta", "0.7"],
        ["baseline", "--method", "minhash", "--theta", "0.4"],
        ["eval", "--candidates", "a=c.csv", "--dataset", "d.csv"],
        ["eval", "--candidates", "a=c.csv", "--dataset-b", "d.csv"],
        ["eval", "--candidates", "a=c.csv", "--labels", "l.csv"],
    ],
    ids=["block-theta", "baseline-theta", "eval-dataset", "eval-dataset-b", "eval-labels"],
)
def test_no_flag_shadows_a_config_key(tmp_path, capsys, command):
    # lsh.theta, minhash.theta and data.* are set in the file or by --set only
    with pytest.raises(SystemExit) as exc:
        main([*command, "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {command[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_synth_negative_seed_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "data.csv"
    rc = main(
        ["synth", "--entities", "5", "--seed", seed, "--out", str(out),
         "--labels-out", str(tmp_path / "labels.csv")]
    )
    assert rc == 2
    assert capsys.readouterr().err == f"error: --seed must be non-negative, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("sizes", ["0", "-2", "", "2,1"])
def test_minhash_ngram_size_below_two_exits_2(workspace, tmp_path, capsys, sizes):
    _, config = workspace
    out = tmp_path / "mh.csv"
    rc = main(
        ["baseline", "--config", str(config), "--method", "minhash",
         "--set", f"minhash.ngram_sizes={sizes}", "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: minhash.ngram_sizes must be at least 2, got (")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, setting",
    [
        ("block", "lsh.theta=1.5"),
        ("block", "lsh.tables=0"),
        ("minhash", "minhash.theta=5"),
        ("minhash", "minhash.bands=0"),
        ("block", "lsh.seed=-1"),
        ("index", "lsh.seed=-1"),
        ("index", "lsh.seed=18446744073709551616"),  # 2**64: no u64 in the index file
        ("index", "lsh.tables=0"),
        ("minhash", "minhash.seed=-1"),
    ],
)
def test_invalid_setting_a_command_reads_exits_2(
    workspace, trained, tmp_path, capsys, command, setting
):
    _, config = workspace
    if command in ("block", "index"):
        command = [command, "--model", str(trained)]
    else:
        command = ["baseline", "--method", command]
    out = tmp_path / "out.csv"
    rc = main([*command, "--config", str(config), "--set", setting, "--out", str(out)])
    assert rc == 2
    assert setting.split("=")[0].split(".")[1] in capsys.readouterr().err  # the key is named
    assert not out.exists()


def test_index_ignores_theta(workspace, trained, tmp_path):
    _, config = workspace
    rc = main(
        ["index", "--config", str(config), "--model", str(trained),
         "--set", "lsh.theta=1.5", "--out", str(tmp_path / "index.bin")]
    )
    assert rc == 0


def test_theta_prime_is_an_unknown_key(workspace, tmp_path, capsys):
    _, config = workspace
    rc = main(
        ["train", "--config", str(config), "--set", "lsh.theta_prime=0.9",
         "--out", str(tmp_path / "m.bin")]
    )
    assert rc == 2
    assert "unknown configuration key lsh.theta_prime" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[str]:
    """Every ``sigblock ...`` command of the README: the lines of its code
    blocks, with continued lines joined, then its inline code spans."""
    text = README.read_text(encoding="utf-8")
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)
    lines = [
        line.strip()
        for body in fence.findall(text)
        for line in body.replace("\\\n", " ").splitlines()
    ]
    inline = re.findall(r"`(sigblock [^`]*)`", fence.sub("", text))
    return [line for line in lines if line.startswith("sigblock ")] + inline


def test_readme_commands_parse():
    """A README command may leave out required options (the prose names
    ``sigblock block`` alone); those get a placeholder before parsing, so
    only a flag, choice or subcommand the parser lacks fails."""
    commands = readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    failed = []
    for command in commands:
        argv = shlex.split(command)[1:]
        for action in sub.choices[argv[0]]._actions if argv[0] in sub.choices else ():
            if action.required and not set(action.option_strings) & set(argv):
                argv += [action.option_strings[0], action.choices[0] if action.choices else "1"]
        try:
            parser.parse_args(argv)
        except SystemExit:
            failed.append(command)
    assert failed == []
