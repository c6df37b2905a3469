"""Acceptance suite: one test per release criterion, cheapest first.

Each test prints a ``criterion N`` line with its measured numbers; the
pytest verdict is the pass/fail signal. Tolerances are fixed here and
nowhere else.
"""

import filecmp
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sigblock
from sigblock import autodiff as ad
from sigblock.baselines import KeySpec, MinHasher, MinHashParams, estimate_jaccard, exact_jaccard, key_block, minhash_block
from sigblock.blocking import block, pe_ratio
from sigblock.cli import main as cli_main
from sigblock.evaluation import (
    RunRecord,
    SplitSpec,
    SynthSpec,
    recall,
    split as make_splits,
    summary_table,
    synthesize,
)
from sigblock.lsh import LshIndex, LshParams, random_rotations, rho_exponent
from sigblock.training import SignatureTrainer, TrainingConfig, selection_probability, train

from conftest import duplicated_dataset, relative_error


# --------------------------------------------------------------------------
# criterion 4: query-time exponent at the paper's operating point
# --------------------------------------------------------------------------


def test_criterion_04_rho_exponent():
    got = rho_exponent(0.8, 0.4)
    print(f"criterion 4: rho(0.8, 0.4) = {got:.6f} (target 0.2593 +/- 0.0003)")
    assert abs(got - 0.2593) <= 0.0003
    assert abs(1.0 / got - 3.86) < 0.01


# --------------------------------------------------------------------------
# criterion 3: selection probabilities over role assignments sum to one
# --------------------------------------------------------------------------


def test_criterion_03_softmax_normalization():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 11))
        scores = rng.uniform(-1.0, 1.0, size=2 * k + 1)
        tau = float(rng.uniform(0.05, 2.0))
        total = sum(
            selection_probability(
                scores[r], np.delete(scores, r), tau
            )
            for r in range(len(scores))
        )
        worst = max(worst, abs(total - 1.0))
    print(f"criterion 3: worst |sum - 1| over 1000 score sets = {worst:.2e}")
    assert worst <= 1e-9


# --------------------------------------------------------------------------
# criterion 9: MinHash estimates its target Jaccard
# --------------------------------------------------------------------------


def test_criterion_09_minhash_estimator():
    hasher = MinHasher(10_000, seed=17)
    cases = {
        0.25: (8, 12, 12),
        0.5: (12, 6, 6),
        0.75: (36, 6, 6),
    }
    errors = {}
    for target, (shared, a_only, b_only) in cases.items():
        a = frozenset([f"s{i}" for i in range(shared)] + [f"a{i}" for i in range(a_only)])
        b = frozenset([f"s{i}" for i in range(shared)] + [f"b{i}" for i in range(b_only)])
        assert abs(exact_jaccard(a, b) - target) < 1e-12
        est = estimate_jaccard(hasher.sketch(a), hasher.sketch(b))
        errors[target] = abs(est - target)
    print(
        "criterion 9: |estimate - J| over 10^4 rows = "
        + ", ".join(f"J={j}: {e:.4f}" for j, e in errors.items())
    )
    assert all(e <= 0.02 for e in errors.values())


# --------------------------------------------------------------------------
# criterion 1: analytic gradients vs central finite differences
# --------------------------------------------------------------------------


def _gradient_instance(seed: int):
    ds, labels = duplicated_dataset(
        8, attrs_informative=1, attrs_noise=1, copies=2, seed=seed
    )
    cfg = TrainingConfig(
        iterations=1,
        batch_size=2,
        negatives=2,
        embedding_dim=8,
        hidden_size=4,
        bucket_count=32,
        seed=seed,
        temperature=0.7,
        log_every=10_000,
    )
    tr = SignatureTrainer(ds, labels, cfg)
    rng = np.random.default_rng(seed + 1000)
    w = ad.Tensor(
        np.abs(rng.standard_normal(2)) + 0.1, requires_grad=True
    )
    w.data /= np.linalg.norm(w.data)
    batch = [tr.pairs[i] for i in rng.permutation(len(tr.pairs))[:2]]
    negs = []
    for a, b in batch:
        pool = [i for i in range(tr.n) if i not in (a, b)]
        negs.append(np.array(rng.permutation(pool)[:2]))
    params = {"w": w, "emb": tr.emb_t}
    for j in (0, 1):
        params.update({f"e{j}.{n}": t for n, t in tr.enc_t[j].items()})
    return tr, w, batch, negs, params


def test_criterion_01_gradient_correctness():
    t_start = time.perf_counter()
    eps = 1e-6
    n_instances = 24
    worst_dir = 0.0
    worst_coord = 0.0
    for seed in range(n_instances):
        tr, w, batch, negs, params = _gradient_instance(seed)

        def value() -> float:
            loss, _ = tr.batch_loss(w, [0, 1], batch, negs)
            return float(loss.data)

        loss, used = tr.batch_loss(w, [0, 1], batch, negs)
        assert used == 2
        for t in params.values():
            t.grad = None
        ad.backward(loss)
        grads = {
            n: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for n, t in params.items()
        }

        # every instance: central differences along 8 random directions
        rng = np.random.default_rng(seed + 5000)
        for _ in range(8):
            direction = {
                n: rng.standard_normal(t.data.shape) for n, t in params.items()
            }
            norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
            analytic = sum(
                float((grads[n] * d).sum()) for n, d in direction.items()
            ) / norm
            for n, t in params.items():
                t.data += eps * direction[n] / norm
            lp = value()
            for n, t in params.items():
                t.data -= 2 * eps * direction[n] / norm
            lm = value()
            for n, t in params.items():
                t.data += eps * direction[n] / norm
            fd = (lp - lm) / (2 * eps)
            err = relative_error(np.array([analytic]), np.array([fd]), floor=1e-5)
            worst_dir = max(worst_dir, err)

        # first two instances: every coordinate of every parameter
        if seed < 2:
            for name, t in params.items():
                flat = t.data.reshape(-1)
                gflat = np.asarray(grads[name]).reshape(-1)
                for k in range(flat.size):
                    orig = flat[k]
                    flat[k] = orig + eps
                    lp = value()
                    flat[k] = orig - eps
                    lm = value()
                    flat[k] = orig
                    fd = (lp - lm) / (2 * eps)
                    err = relative_error(
                        np.array([gflat[k]]), np.array([fd]), floor=1e-5
                    )
                    worst_coord = max(worst_coord, err)
    elapsed = time.perf_counter() - t_start
    print(
        f"criterion 1: {n_instances} instances, worst directional rel err "
        f"{worst_dir:.2e}, worst coordinate rel err {worst_coord:.2e}, "
        f"{elapsed:.0f}s"
    )
    assert worst_dir <= 1e-4
    assert worst_coord <= 1e-4
    assert elapsed < 60


# --------------------------------------------------------------------------
# criterion 2: sequential training yields disjoint unit-norm signatures
# --------------------------------------------------------------------------


def test_criterion_02_orthogonality():
    t_start = time.perf_counter()
    ds, labels = duplicated_dataset(150, attrs_informative=2, attrs_noise=2, seed=21)
    cfg = TrainingConfig(
        iterations=500,
        batch_size=16,
        negatives=6,
        embedding_dim=24,
        hidden_size=12,
        bucket_count=2**12,
        seed=9,
        learning_rate=0.03,
        temperature=0.2,
        log_every=10_000,
    )
    model = train(ds, labels, cfg)
    W = model.weights.matrix
    norms = np.linalg.norm(W, axis=1)
    gram = W @ W.T
    off = np.abs(gram - np.diag(np.diag(gram))).max() if W.shape[0] > 1 else 0.0
    supports = [set(model.weights.support(s)) for s in range(W.shape[0])]
    elapsed = time.perf_counter() - t_start
    print(
        f"criterion 2: S={W.shape[0]} supports={[sorted(s) for s in supports]} "
        f"max|norm-1|={np.abs(norms - 1).max():.2e} gram offdiag={off:.2e}, "
        f"{elapsed:.0f}s"
    )
    assert (W >= 0).all()
    assert np.abs(norms - 1.0).max() <= 1e-6
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            assert not (supports[i] & supports[j])
    assert off <= 1e-6  # disjoint supports make the signature gram diagonal
    assert W.shape[0] >= 2  # the noise attributes force a second signature
    assert elapsed < 300


# --------------------------------------------------------------------------
# criterion 5: collision probability decreases with angle
# --------------------------------------------------------------------------


def _collision_rates(d: int, n: int, angles, seed: int):
    rng = np.random.default_rng(seed)
    x = np.zeros(d)
    x[0] = 1.0
    hits = np.zeros(len(angles), dtype=np.int64)
    done = 0
    chunk = 10_000
    while done < n:
        m = min(chunk, n - done)
        rots = random_rotations(d, m, rng)
        ux = rots @ x
        jx = np.argmax(np.abs(ux), axis=1)
        sx = ux[np.arange(m), jx] >= 0
        for a_idx, phi in enumerate(angles):
            y = np.zeros(d)
            y[0], y[1] = math.cos(phi), math.sin(phi)
            uy = rots @ y
            jy = np.argmax(np.abs(uy), axis=1)
            sy = uy[np.arange(m), jy] >= 0
            hits[a_idx] += int(np.sum((jx == jy) & (sx == sy)))
        done += m
    return hits / n


def test_criterion_05_collision_monotonicity():
    t_start = time.perf_counter()
    n = 100_000
    angles = (0.0, math.pi / 6, math.pi / 3, math.pi / 2)
    report = []
    for d in (8, 64):
        rates = _collision_rates(d, n, angles, seed=d)
        report.append(f"d={d}: " + ", ".join(f"{r:.4f}" for r in rates))
        assert rates[0] == 1.0
        for a, b in zip(rates, rates[1:]):
            sigma = math.sqrt(
                a * (1 - a) / n + b * (1 - b) / n
            )
            assert a - b > 3 * sigma, (d, a, b, sigma)
    elapsed = time.perf_counter() - t_start
    print(
        f"criterion 5: collision rates over {n} rotations [{'; '.join(report)}], "
        f"{elapsed:.0f}s"
    )
    assert elapsed < 300


# --------------------------------------------------------------------------
# criterion 6: hashed retrieval vs brute force on planted neighbors
# --------------------------------------------------------------------------


def _planted_cloud(n: int, d: int, n_planted: int, seed: int):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    for i in range(n_planted):
        v = vecs[i]
        w = rng.standard_normal(d)
        w -= (w @ v) * v
        w /= np.linalg.norm(w)
        cos_target = float(rng.uniform(0.82, 0.97))
        psi = math.acos(cos_target)
        vecs[n_planted + i] = math.cos(psi) * v + math.sin(psi) * w
    return vecs


def test_criterion_06_lsh_vs_brute_force_recall():
    t_start = time.perf_counter()
    n, d = 10_000, 64
    vecs = _planted_cloud(n, d, n_planted=2500, seed=3)
    theta = 0.8

    brute: set[tuple[int, int]] = set()
    chunk = 500
    for lo in range(0, n, chunk):
        cos = vecs[lo : lo + chunk] @ vecs.T
        qi, ij = np.nonzero(cos >= theta)
        for a, b in zip(qi, ij):
            i, j = lo + int(a), int(b)
            if i < j:
                brute.add((i, j))

    index = LshIndex.build(
        ((f"v{i:05d}", 0, vecs[i]) for i in range(n)), dim=d, params=LshParams(seed=8)
    )
    got: set[tuple[int, int]] = set()
    for i in range(n):
        for rid, _, _ in index.query(vecs[i], theta):
            j = int(rid[1:])
            if i != j:
                got.add((i, j) if i < j else (j, i))

    found = len(brute & got)
    rec = found / len(brute)
    elapsed = time.perf_counter() - t_start
    print(
        f"criterion 6: brute pairs={len(brute)} retrieved={found} "
        f"recall={rec:.4f} (threshold 0.97), {elapsed:.0f}s"
    )
    assert got <= brute  # exact re-ranking admits no false positives
    assert rec >= 0.97
    assert elapsed < 600


# --------------------------------------------------------------------------
# criterion 7: speedup over brute force grows with the collection
# --------------------------------------------------------------------------


def _timed_speedup(n: int, d: int, queries: np.ndarray, seed: int) -> float:
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, d))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    index = LshIndex.build(
        ((f"v{i:06d}", 0, vecs[i]) for i in range(n)), dim=d, params=LshParams(seed=seed)
    )
    theta = 0.8

    def lsh_pass():
        for q in queries:
            index.query(q, theta)

    def brute_pass():
        for q in queries:
            cos = vecs @ q
            keep = np.nonzero(cos >= theta)[0]
            if keep.size:
                keep = keep[np.argsort(-cos[keep])]

    def best_of_3(run_pass):
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            run_pass()
            times.append(time.perf_counter() - t0)
        return min(times)

    # one untimed pass of each first, so no timing includes a cold start
    lsh_pass()
    brute_pass()
    lsh_time = best_of_3(lsh_pass)
    brute_time = best_of_3(brute_pass)
    return brute_time / lsh_time


def test_criterion_07_sublinear_speedup_trend():
    t_start = time.perf_counter()
    d = 64
    rng = np.random.default_rng(0)
    queries = rng.standard_normal((300, d))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    speedup_small = _timed_speedup(10_000, d, queries, seed=5)
    speedup_large = _timed_speedup(100_000, d, queries, seed=6)
    elapsed = time.perf_counter() - t_start
    print(
        f"criterion 7: mean-query speedup n=1e4: {speedup_small:.1f}x, "
        f"n=1e5: {speedup_large:.1f}x, {elapsed:.0f}s"
    )
    assert speedup_large > speedup_small
    assert elapsed < 1200


# --------------------------------------------------------------------------
# criterion 8: qualitative method ordering on the dirty corpus
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dirty_corpus():
    spec = SynthSpec(
        entity_count=10_000,
        duplicates_per_entity=2,
        regime="dirty",
        typo_rate=0.3,
        missing_attr_rate=0.3,
        attr_swap_rate=0.2,
        version_suffix_rate=0.2,
    )
    return synthesize(spec, seed=2024)


def test_criterion_08_end_to_end_ordering(dirty_corpus):
    t_start = time.perf_counter()
    dataset, labels = dirty_corpus
    splits = make_splits(labels, dataset, SplitSpec(repeats=5, seed=77))
    theta = 0.8
    runs: list[RunRecord] = []
    for rep, sp in enumerate(splits):
        train_ds = dataset.subset(sp.train_ids)
        test_ds = dataset.subset(sp.test_ids)

        cfg = TrainingConfig(
            iterations=300,
            batch_size=32,
            negatives=10,
            embedding_dim=32,
            hidden_size=16,
            bucket_count=2**13,
            seed=100 + rep,
            learning_rate=0.01,
            temperature=0.2,
            log_every=10_000,
        )
        t0 = time.perf_counter()
        model = train(train_ds, sp.train_labels, cfg)
        cands = block(test_ds, model, theta, LshParams(seed=rep))
        runs.append(
            RunRecord(
                "autoblock", "synth-dirty", "dirty", rep,
                recall(cands, sp.test_labels), pe_ratio(cands, test_ds),
                time.perf_counter() - t0,
            )
        )
        for method, fn in (
            ("single-key", lambda: key_block(test_ds, KeySpec("single", ("title",)))),
            ("disjunctive-key", lambda: key_block(test_ds, KeySpec("disjunction", dataset.schema))),
            ("minhash-0.4", lambda: minhash_block(test_ds, dataset.schema, 0.4, MinHashParams(seed=rep))),
        ):
            t0 = time.perf_counter()
            cs = fn()
            runs.append(
                RunRecord(
                    method, "synth-dirty", "dirty", rep,
                    recall(cs, sp.test_labels), pe_ratio(cs, test_ds),
                    time.perf_counter() - t0,
                )
            )

    def mean(method, field):
        vals = [getattr(r, field) for r in runs if r.method == method]
        return float(np.mean(vals))

    elapsed = time.perf_counter() - t_start
    print("criterion 8: mean metrics over 5 splits")
    print(summary_table(runs), end="")
    print(f"criterion 8: total {elapsed:.0f}s")
    assert mean("single-key", "recall") < mean("disjunctive-key", "recall")
    assert mean("disjunctive-key", "recall") < mean("autoblock", "recall")
    assert mean("autoblock", "recall") >= mean("minhash-0.4", "recall")
    assert mean("autoblock", "pe_ratio") <= mean("minhash-0.4", "pe_ratio")
    assert elapsed < 3600


# --------------------------------------------------------------------------
# criterion 10: pipeline reruns are byte-identical
# --------------------------------------------------------------------------


CRITERION_10_CONFIG = """\
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
seed = 5

[lsh]
theta = 0.8
seed = 3
"""
CRITERION_10_SYNTH = [
    "synth", "--entities", "120", "--duplicates", "2",
    "--typo-rate", "0.3", "--missing-attr-rate", "0.3",
    "--attr-swap-rate", "0.2", "--version-suffix-rate", "0.2", "--seed", "5",
]


def test_criterion_10_pipeline_determinism(tmp_path):
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        data, labels = d / "data.csv", d / "labels.csv"
        assert cli_main(
            [*CRITERION_10_SYNTH, "--out", str(data), "--labels-out", str(labels)]
        ) == 0
        cfg = d / "run.ini"
        cfg.write_text(CRITERION_10_CONFIG.format(data=data, labels=labels), encoding="utf-8")
        model = d / "model.bin"
        cands = d / "cands.csv"
        metrics = d / "metrics.csv"
        assert cli_main(["train", "--config", str(cfg), "--out", str(model)]) == 0
        assert cli_main(
            ["block", "--config", str(cfg), "--model", str(model), "--out", str(cands)]
        ) == 0
        assert cli_main(
            ["eval", "--config", str(cfg), "--candidates", f"autoblock={cands}",
             "--out", str(metrics)]
        ) == 0
        outputs.append((model, cands, metrics))

    (m1, c1, x1), (m2, c2, x2) = outputs
    same_model = filecmp.cmp(m1, m2, shallow=False)
    same_cands = filecmp.cmp(c1, c2, shallow=False)
    same_metrics = filecmp.cmp(x1, x2, shallow=False)
    print(
        f"criterion 10: model identical={same_model} candidates identical={same_cands} "
        f"metrics identical={same_metrics}"
    )
    assert same_model and same_cands and same_metrics


_PIPELINE = """\
import json, sys
from sigblock.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"sigblock {argv[0]} failed")
"""


def test_criterion_10_reruns_across_string_hash_seeds(tmp_path):
    """Criterion 10's synth -> train -> block in two fresh interpreters
    whose string hashes differ: set and dict orders keyed by strings
    must not reach the model or the candidate file."""
    src = str(Path(sigblock.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        d = tmp_path / f"hashseed-{hash_seed}"
        d.mkdir()
        data, labels, cfg = d / "data.csv", d / "labels.csv", d / "run.ini"
        model, cands = d / "model.bin", d / "cands.csv"
        cfg.write_text(CRITERION_10_CONFIG.format(data=data, labels=labels), encoding="utf-8")
        commands = [
            [*CRITERION_10_SYNTH, "--out", str(data), "--labels-out", str(labels)],
            ["train", "--config", str(cfg), "--out", str(model)],
            ["block", "--config", str(cfg), "--model", str(model), "--out", str(cands)],
        ]
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, "-c", _PIPELINE, json.dumps(commands)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert run.returncode == 0, run.stderr
        outputs.append((model.read_bytes(), cands.read_bytes()))
    (m0, c0), (m1, c1) = outputs
    assert m0 == m1
    assert c0 == c1 and c0.count(b"\n") > 100  # a header and many pairs


# --------------------------------------------------------------------------
# criterion 11: key baseline exactness and threshold monotonicity
# --------------------------------------------------------------------------


def test_criterion_11_baseline_exactness_and_monotonicity():
    t_start = time.perf_counter()
    # exactness on a ~1000-record fixture with heavy key collisions
    ds, _ = duplicated_dataset(
        340, attrs_informative=2, attrs_noise=0, copies=3, seed=33
    )
    records = list(ds.all_records())
    assert len(records) >= 1000
    for spec in (
        KeySpec("single", ("info0",)),
        KeySpec("conjunction", ("info0", "info1")),
        KeySpec("disjunction", ("info0", "info1")),
    ):
        got = key_block(ds, spec).pairs
        expected: set = set()
        if spec.kind == "disjunction":
            specs = [KeySpec("single", (a,)) for a in spec.attributes]
        else:
            specs = [spec]
        for sub in specs:
            idx = [ds.attribute_index(a) for a in sub.attributes]
            keys: dict = {}
            for rec in records:
                values = [rec.attributes[j] for j in idx]
                if any(v.is_missing for v in values):
                    continue
                keys.setdefault(tuple(v.text() for v in values), []).append(rec.record_id)
            for members in keys.values():
                for x in range(len(members)):
                    for y in range(x + 1, len(members)):
                        a, b = sorted((members[x], members[y]))
                        expected.add((a, b))
        assert got == expected, spec

    # blocking monotonicity across thresholds under a fixed seed
    train_ds, train_labels = duplicated_dataset(
        80, attrs_informative=2, attrs_noise=0, seed=44
    )
    cfg = TrainingConfig(
        iterations=30,
        batch_size=8,
        negatives=4,
        embedding_dim=16,
        hidden_size=8,
        bucket_count=1024,
        seed=4,
        learning_rate=0.02,
        temperature=0.2,
        log_every=10_000,
    )
    model = train(train_ds, train_labels, cfg)
    params = LshParams(seed=12)
    previous = None
    sizes = []
    for theta in (0.6, 0.7, 0.8, 0.9):
        got = block(train_ds, model, theta, params).pairs
        sizes.append(len(got))
        if previous is not None:
            assert got <= previous
        previous = got
    elapsed = time.perf_counter() - t_start
    print(
        f"criterion 11: key join exact on {len(records)} records; candidate "
        f"counts at theta 0.6..0.9 = {sizes}, {elapsed:.0f}s"
    )
