"""Negative-sampling objective, projection, and the sequential trainer."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigblock import autodiff as ad
from sigblock import training
from sigblock.data_model import AttributeValue, Dataset, LabelSet, Record, Table
from sigblock.text_embedding import EmbeddingTable
from sigblock.training import (
    Adam,
    SignatureTrainer,
    TrainingConfig,
    minibatch_loss,
    project_weights,
    sample_negatives,
    selection_probability,
    train,
)

from conftest import F32_EPS, bucket_ids, duplicated_dataset, relative_error


class TestSelectionProbability:
    def test_no_negatives_is_one(self):
        assert selection_probability(0.3, []) == 1.0

    def test_uniform_scores(self):
        negs = [0.5] * 20
        assert abs(selection_probability(0.5, negs) - 1.0 / 21.0) < 1e-12

    def test_hand_value(self):
        # positive cosine 1, four negative scores 0: e / (e + 4)
        got = selection_probability(1.0, [0.0, 0.0, 0.0, 0.0])
        assert abs(got - math.e / (math.e + 4.0)) < 1e-12

    def test_temperature_sharpens(self):
        mild = selection_probability(0.9, [0.1] * 4, tau=1.0)
        sharp = selection_probability(0.9, [0.1] * 4, tau=0.1)
        assert sharp > mild

    @given(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=21),
        st.floats(0.05, 2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_role_assignments_sum_to_one(self, scores, tau):
        total = 0.0
        for r in range(len(scores)):
            rest = scores[:r] + scores[r + 1 :]
            total += selection_probability(scores[r], rest, tau)
        assert abs(total - 1.0) < 1e-9


class TestProjectWeights:
    def test_clamp_and_normalize(self):
        got = project_weights(np.array([-1.0, 3.0, 4.0]), [1, 2])
        np.testing.assert_allclose(got, [0.0, 0.6, 0.8], atol=1e-12)

    def test_feasible_vector_unchanged(self):
        w = np.array([0.6, 0.8, 0.0])
        np.testing.assert_allclose(project_weights(w, [0, 1]), w, atol=1e-15)

    def test_all_clamped_resets_uniform(self):
        got = project_weights(np.array([-1.0, -1.0]), [0, 1])
        np.testing.assert_allclose(got, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_outside_usable_zeroed(self):
        got = project_weights(np.array([5.0, 5.0, 5.0]), [2])
        np.testing.assert_allclose(got, [0.0, 0.0, 1.0], atol=1e-15)

    def test_empty_usable_raises(self):
        with pytest.raises(ValueError):
            project_weights(np.array([1.0]), [])

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_result_feasible(self, values):
        w = np.array(values)
        usable = list(range(0, len(values), 2))
        got = project_weights(w, usable)
        assert (got >= 0).all()
        assert abs(np.linalg.norm(got) - 1.0) < 1e-9
        for j in range(len(values)):
            if j not in usable:
                assert got[j] == 0.0


class TestSampleNegatives:
    def test_excludes_pair_and_size(self, rng):
        for _ in range(200):
            got = sample_negatives(20, 3, 11, 5, rng)
            assert len(got) == 5
            assert len(set(got.tolist())) == 5
            assert 3 not in got and 11 not in got
            assert ((got >= 0) & (got < 20)).all()

    def test_full_complement_when_tight(self, rng):
        got = sample_negatives(7, 2, 4, 5, rng)
        assert sorted(got.tolist()) == [0, 1, 3, 5, 6]

    def test_deterministic_with_seed(self):
        a = sample_negatives(50, 1, 2, 10, np.random.default_rng(9))
        b = sample_negatives(50, 1, 2, 10, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_uniform_inclusion(self):
        n, k = 12, 4
        rng = np.random.default_rng(0)
        counts = np.zeros(n)
        draws = 10_000
        for _ in range(draws):
            counts[sample_negatives(n, 0, 1, k, rng)] += 1
        expected = k / (n - 2)
        sigma = math.sqrt(expected * (1 - expected) / draws)
        observed = counts[2:] / draws
        assert (np.abs(observed - expected) < 3.5 * sigma + 1e-9).all()
        assert counts[0] == counts[1] == 0

    def test_too_small_population(self, rng):
        with pytest.raises(ValueError):
            sample_negatives(6, 0, 1, 5, rng)


def two_attr_dataset(seed=0, entities=40):
    return duplicated_dataset(entities, attrs_informative=1, attrs_noise=1, seed=seed)


def with_missing(ds, blanks):
    """``ds`` with attributes ``blanks[k]`` of record ``k`` made missing."""
    records = [
        Record(
            r.record_id,
            tuple(
                AttributeValue(()) if j in blanks.get(k, ()) else v
                for j, v in enumerate(r.attributes)
            ),
        )
        for k, r in enumerate(ds.all_records())
    ]
    return Dataset(ds.schema, (Table(records),))


def small_config(**kw):
    base = dict(
        iterations=20,
        batch_size=8,
        negatives=4,
        embedding_dim=12,
        hidden_size=6,
        bucket_count=256,
        seed=7,
        learning_rate=0.02,
        temperature=0.2,
        log_every=1000,
    )
    base.update(kw)
    return TrainingConfig(**base)


class TestBatchLoss:
    def test_uniform_probabilities_closed_form(self):
        # Identical records: every cosine is 1, so with ten negatives
        # each pair's probability is 1/21 and the loss is ln 21.
        recs = [
            Record(f"r{i}", (AttributeValue(("same", "tokens")),)) for i in range(16)
        ]
        ds = Dataset(("title",), (Table(recs),))
        labels = LabelSet(frozenset({("r0", "r1"), ("r2", "r3")}))
        cfg = small_config(batch_size=2, negatives=10, temperature=1.0)
        tr = SignatureTrainer(ds, labels, cfg)
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        negs = [
            sample_negatives(tr.n, 0, 1, 10, np.random.default_rng(1)),
            sample_negatives(tr.n, 2, 3, 10, np.random.default_rng(2)),
        ]
        loss, used = tr.batch_loss(w, [0], [(0, 1), (2, 3)], negs)
        assert used == 2
        assert abs(float(loss.data) - math.log(21.0)) < 1e-9
        assert abs(float(loss.data) - 3.0445) < 1e-3

    def test_no_usable_negatives_gives_zero_loss(self):
        # Probability 1 for every pair once all negatives filter out.
        recs = [Record(f"r{i}", (AttributeValue(("tok",)),)) for i in range(4)]
        recs += [Record(f"r{i}", (AttributeValue(()),)) for i in range(4, 8)]
        ds = Dataset(("title",), (Table(recs),))
        labels = LabelSet(frozenset({("r0", "r1")}))
        cfg = small_config(batch_size=1, negatives=3)
        tr = SignatureTrainer(ds, labels, cfg)
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        loss, used = tr.batch_loss(w, [0], [(0, 1)], [np.array([4, 5, 6])])
        assert used == 1
        assert float(loss.data) == 0.0

    def test_missing_endpoint_drops_pair(self):
        recs = [Record("r0", (AttributeValue(()),))]
        recs += [
            Record(f"r{i}", (AttributeValue(("tok",)),)) for i in range(1, 10)
        ]
        ds = Dataset(("title",), (Table(recs),))
        labels = LabelSet(frozenset({("r0", "r1"), ("r2", "r3")}))
        cfg = small_config(batch_size=2, negatives=3)
        tr = SignatureTrainer(ds, labels, cfg)
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        negs = [np.array([4, 5, 6]), np.array([7, 8, 9])]
        loss, used = tr.batch_loss(w, [0], [(0, 1), (2, 3)], negs)
        assert used == 1  # the pair touching the all-missing record dropped

    def test_empty_batch_returns_none(self):
        recs = [Record("r0", (AttributeValue(()),)), Record("r1", (AttributeValue(()),))]
        recs += [Record(f"r{i}", (AttributeValue(("tok",)),)) for i in range(2, 10)]
        ds = Dataset(("title",), (Table(recs),))
        labels = LabelSet(frozenset({("r0", "r1")}))
        cfg = small_config(batch_size=1, negatives=3)
        tr = SignatureTrainer(ds, labels, cfg)
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        loss, used = tr.batch_loss(w, [0], [(0, 1)], [np.array([2, 3, 4])])
        assert loss is None and used == 0

    def test_inapplicable_negative_dropped(self):
        # Negative r4 has a missing title: the denominator shrinks.
        recs = [Record(f"r{i}", (AttributeValue(("tok",)),)) for i in range(4)]
        recs.append(Record("r4", (AttributeValue(()),)))
        recs += [Record(f"r{i}", (AttributeValue(("tok",)),)) for i in range(5, 9)]
        ds = Dataset(("title",), (Table(recs),))
        labels = LabelSet(frozenset({("r0", "r1")}))
        cfg = small_config(batch_size=1, negatives=2, temperature=1.0)
        tr = SignatureTrainer(ds, labels, cfg)
        w = ad.Tensor(np.array([1.0]), requires_grad=True)
        loss, used = tr.batch_loss(w, [0], [(0, 1)], [np.array([2, 4])])
        # identical tokens: cosines all 1; one usable negative -> 1/3
        assert abs(float(loss.data) - math.log(3.0)) < 1e-9

    def test_public_loss_zero_without_negatives(self):
        ds, labels = two_attr_dataset(seed=3)
        model = train(ds, labels, small_config(iterations=1, max_signatures=1))
        pair = labels.sorted_pairs()[0]
        assert minibatch_loss(model, [pair], [[]], 0, ds) == 0.0

    def test_public_loss_raises_when_batch_filters_empty(self):
        recs = [Record("a", (AttributeValue(()),)), Record("b", (AttributeValue(()),))]
        recs += [Record(f"r{i}", (AttributeValue(("tok",)),)) for i in range(2, 16)]
        ds = Dataset(("title",), (Table(recs),))
        labels = LabelSet(frozenset({("r2", "r3"), ("r4", "r5"), ("r6", "r7"), ("r8", "r9")}))
        model = train(ds, labels, small_config(iterations=1, batch_size=4, max_signatures=1))
        with pytest.raises(ValueError, match="empty"):
            minibatch_loss(model, [("a", "b")], [["r2"]], 0, ds)

    @staticmethod
    def trainer_and_model(ds, labels, cfg):
        """A trained model and a trainer holding its parameters."""
        model = train(ds, labels, cfg)
        tr = SignatureTrainer(ds, labels, cfg, table=model.table)
        for enc, trained in zip(tr.encoders, model.encoders):
            for (_, block), (_, value) in zip(enc.blocks(), trained.blocks()):
                block[...] = value
        return tr, model

    @staticmethod
    def assert_matches_public(tr, model, ds, pairs_idx, negs, used_pairs):
        w = ad.Tensor(model.weights.matrix[0].copy(), requires_grad=True)
        loss, used = tr.batch_loss(w, [0, 1], pairs_idx, negs)
        assert used == used_pairs
        id_pairs = [
            (tr.records[a].record_id, tr.records[b].record_id) for a, b in pairs_idx
        ]
        id_negs = [[tr.records[u].record_id for u in us] for us in negs]
        public = minibatch_loss(model, id_pairs, id_negs, 0, ds, tau=tr.config.temperature)
        # the trainer's loss is float64, the public one encodes in float32
        assert abs(float(loss.data) - public) <= 16 * F32_EPS * abs(public)

    def test_matches_public_minibatch_loss(self):
        ds, labels = two_attr_dataset(seed=3)
        tr, model = self.trainer_and_model(ds, labels, small_config(iterations=1, max_signatures=1))
        pairs_idx = tr.pairs[:3]
        negs = [
            sample_negatives(tr.n, a, b, 4, np.random.default_rng(i))
            for i, (a, b) in enumerate(pairs_idx)
        ]
        self.assert_matches_public(tr, model, ds, pairs_idx, negs, 3)

    def test_matches_public_minibatch_loss_with_masked_records(self):
        # Signature 0 weighs info0 alone, so a record missing info0 is
        # inapplicable: record 0 ends the first pair, records 10 and 12
        # are two of the second pair's negatives and all of the third
        # pair's negatives miss it too.
        ds, labels = two_attr_dataset(seed=3)
        ds = with_missing(ds, {k: (0,) for k in (0, 10, 12, 20, 22, 24, 26)})
        tr, model = self.trainer_and_model(ds, labels, small_config(iterations=1, max_signatures=1))
        model.weights.matrix[0] = [1.0, 0.0]
        pairs_idx = tr.pairs[:4]
        assert pairs_idx == [(0, 1), (2, 3), (4, 5), (6, 7)]
        negs = [
            np.array([30, 31, 32, 33]),
            np.array([10, 11, 12, 13]),
            np.array([20, 22, 24, 26]),
            np.array([40, 41, 42, 43]),
        ]
        self.assert_matches_public(tr, model, ds, pairs_idx, negs, 3)


class TestTrainingGradient:
    CONFIG = dict(
        iterations=1, batch_size=2, negatives=2, embedding_dim=8, hidden_size=4, bucket_count=32
    )

    def test_full_loss_gradcheck(self):
        ds, labels = two_attr_dataset(seed=1, entities=10)
        tr = SignatureTrainer(ds, labels, small_config(**self.CONFIG))
        batch = tr.pairs[:2]
        negs = [
            sample_negatives(tr.n, a, b, 2, np.random.default_rng(i))
            for i, (a, b) in enumerate(batch)
        ]
        self.gradcheck(tr, batch, negs)

    def test_gradcheck_with_masked_negatives(self):
        # Records 10, 12 and 14 miss both attributes: the first pair keeps
        # one of its two negatives, the second pair loses both.
        ds, labels = two_attr_dataset(seed=1, entities=10)
        ds = with_missing(ds, {k: (0, 1) for k in (10, 12, 14)})
        tr = SignatureTrainer(ds, labels, small_config(**self.CONFIG))
        batch = tr.pairs[:2]
        negs = [np.array([10, 8]), np.array([12, 14])]
        grads = self.gradcheck(tr, batch, negs)
        assert all(np.isfinite(g).all() for g in grads.values())

    @staticmethod
    def gradcheck(tr, batch, negs) -> dict[str, np.ndarray]:
        """Analytic gradients of the batch loss against central finite
        differences on 40 coordinates per parameter; returns them."""
        w = ad.Tensor(np.array([0.6, 0.8]), requires_grad=True)
        params = {"w": w, "emb": tr.emb_t}
        for j in (0, 1):
            params.update({f"e{j}.{n}": t for n, t in tr.enc_t[j].items()})

        def value() -> float:
            loss, _ = tr.batch_loss(w, [0, 1], batch, negs)
            return float(loss.data)

        loss, _ = tr.batch_loss(w, [0, 1], batch, negs)
        for t in params.values():
            t.grad = None
        ad.backward(loss)
        eps = 1e-6
        rng = np.random.default_rng(0)
        grads = {}
        for name, t in params.items():
            flat = t.data.reshape(-1)
            grad = grads[name] = (
                t.grad.reshape(-1) if t.grad is not None else np.zeros(flat.size)
            )
            coords = rng.permutation(flat.size)[:40]
            for k in coords:
                orig = flat[k]
                flat[k] = orig + eps
                lp = value()
                flat[k] = orig - eps
                lm = value()
                flat[k] = orig
                fd = (lp - lm) / (2 * eps)
                # floor 1e-5: below it, central differences bottom out
                # at their own truncation noise (~1e-9 here)
                assert (
                    relative_error(np.array([grad[k]]), np.array([fd]), floor=1e-5)
                    < 1e-4
                ), name
        return grads


class TestTrain:
    def test_single_attribute_forces_single_signature(self):
        ds, labels = duplicated_dataset(30, attrs_informative=1, seed=2)
        model = train(ds, labels, small_config(iterations=5, max_signatures=3))
        assert model.num_signatures == 1
        assert model.weights.support(0) == (0,)

    def test_supports_partition_and_unit_rows(self):
        ds, labels = duplicated_dataset(
            30, attrs_informative=2, attrs_noise=1, seed=4
        )
        model = train(ds, labels, small_config(iterations=15))
        W = model.weights.matrix
        assert (W >= 0).all()
        np.testing.assert_allclose(np.linalg.norm(W, axis=1), 1.0, atol=1e-6)
        supports = [set(model.weights.support(s)) for s in range(W.shape[0])]
        for i in range(len(supports)):
            for j in range(i + 1, len(supports)):
                assert not (supports[i] & supports[j])

    def test_noise_attribute_excluded_from_first_signature(self):
        ds, labels = duplicated_dataset(
            120, attrs_informative=1, attrs_noise=1, seed=5
        )
        model = train(ds, labels, small_config(iterations=250))
        assert model.weights.support(0) == (0,)

    def test_loss_decreases_on_synthetic_task(self, caplog):
        ds, labels = duplicated_dataset(50, attrs_informative=1, attrs_noise=0, seed=6)
        cfg = small_config(iterations=100, log_every=1, max_signatures=1)
        with caplog.at_level(logging.INFO, logger="sigblock.training"):
            train(ds, labels, cfg)
        losses = [
            float(r.message.split("loss=")[1].split()[0])
            for r in caplog.records
            if "loss=" in r.message
        ]
        assert len(losses) >= 100
        early = np.mean(losses[:10])
        late = np.mean(losses[-10:])
        assert late < early

    def test_deterministic_given_seed(self):
        ds, labels = two_attr_dataset(seed=8)
        cfg = small_config(iterations=10)
        m1 = train(ds, labels, cfg)
        m2 = train(ds, labels, cfg)
        np.testing.assert_array_equal(m1.weights.matrix, m2.weights.matrix)
        np.testing.assert_array_equal(m1.table.rows, m2.table.rows)
        for e1, e2 in zip(m1.encoders, m2.encoders):
            for (name, a), (_, b) in zip(e1.blocks(), e2.blocks()):
                np.testing.assert_array_equal(a, b, err_msg=name)

    def test_requires_enough_labels(self):
        ds, labels = two_attr_dataset(seed=9, entities=3)
        with pytest.raises(ValueError, match="batch_size"):
            train(ds, labels, small_config(batch_size=100))

    @pytest.mark.parametrize(
        "settings_, message",
        [
            ({"primary_attribute": "nme"}, "primary_attribute: no attribute 'nme'"),
            ({"rho_overrides": {"nme": 0.5}}, "rho_nme: no attribute 'nme'"),
            ({"rho_overrides": {"info0": float("nan")}}, r"rho_info0 must lie in \[0, 1\], got nan"),
        ],
    )
    def test_attribute_settings_checked_before_any_work(self, monkeypatch, settings_, message):
        ds, labels = two_attr_dataset(seed=9)

        def no_work(*args, **kwargs):
            raise AssertionError("values prepared")

        monkeypatch.setattr(training, "prepare_values", no_work)
        with pytest.raises(ValueError, match=message):
            train(ds, labels, small_config(**settings_))

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan"), float("inf")])
    def test_adam_eps_must_be_finite_and_positive(self, eps):
        # an eps of 0 made every row without a gradient compute 0 / 0
        ds, labels = two_attr_dataset(seed=9)
        with pytest.raises(ValueError, match=f"adam_eps must be finite and positive, got {eps}"):
            train(ds, labels, small_config(adam_eps=eps))


def gappy_dataset(seed=0):
    """Two attributes, one value in five missing, so some of every value's
    rows stay unreachable."""
    ds, labels = two_attr_dataset(seed=seed)
    rng = np.random.default_rng(seed)
    records = [
        Record(
            r.record_id,
            tuple(AttributeValue(()) if rng.random() < 0.2 else v for v in r.attributes),
        )
        for r in ds.all_records()
    ]
    return Dataset(ds.schema, (Table(records),)), labels


class TestCompactTable:
    """The trainer optimises only the table rows some value can reach."""

    @pytest.mark.parametrize("max_tokens", [2, 64])
    def test_reachable_is_union_of_present_bucket_ids(self, max_tokens):
        ds, labels = gappy_dataset(seed=11)
        tr = SignatureTrainer(
            ds, labels, small_config(max_tokens=max_tokens, bucket_count=2**12)
        )
        want: set[int] = set()
        for r in ds.all_records():
            for v in r.attributes:
                for t in v.tokens[:max_tokens]:
                    want.update(bucket_ids(tr.table, t).tolist())
        assert tr.reachable.tolist() == sorted(want)
        assert len(want) < tr.table.bucket_count
        # the table holds the f32 rounding of the float64 rows `emb_t`
        # starts from, and those are the seeded draw
        assert tr.table.rows.dtype == np.float32
        assert tr.table.rows[tr.reachable].tobytes() == tr.emb_t.data.astype(np.float32).tobytes()
        drawn = EmbeddingTable(12, 2**12, (3, 5), tr.table.seed).rows
        assert tr.emb_t.data.tobytes() == drawn[tr.reachable].tobytes()

    def test_pretrained_tokens_reach_no_rows(self):
        ds, labels = gappy_dataset(seed=12)
        token = next(r.attributes[0].tokens[0] for r in ds.all_records() if r.attributes[0].tokens)
        plain = SignatureTrainer(ds, labels, small_config())
        table = EmbeddingTable(
            dim=12, bucket_count=256, seed=plain.table.seed, trainable=False,
            pretrained={token: np.ones(12)},
        )
        tr = SignatureTrainer(ds, labels, small_config(), table=table)
        want: set[int] = set()
        for r in ds.all_records():
            for v in r.attributes:
                want.update(
                    i for t in v.tokens if t != token for i in bucket_ids(table, t).tolist()
                )
        assert tr.reachable.tolist() == sorted(want)
        seq = next(
            tr.prepared(k, 0) for k, r in enumerate(tr.records)
            if r.attributes[0].tokens[:1] == (token,)
        )
        assert seq.sizes[0] == 0
        assert seq.const[0].tolist() == [1.0] * 12

    def test_unreachable_rows_unchanged_by_train(self):
        ds, labels = gappy_dataset(seed=13)
        tr = SignatureTrainer(ds, labels, small_config(iterations=5, bucket_count=2**12))
        before = tr.table.rows.copy()
        model = tr.train()
        assert model.table is tr.table
        outside = np.setdiff1d(np.arange(tr.table.bucket_count), tr.reachable)
        assert outside.size > 0
        # the model holds the rows rounded to f32
        assert model.table.rows[outside].tobytes() == before[outside].astype(np.float32).tobytes()
        # the trained rows were written back
        assert model.table.rows[tr.reachable].tobytes() == tr.emb_t.data.astype(np.float32).tobytes()
        assert not np.array_equal(model.table.rows[tr.reachable], before[tr.reachable])


class TestTrainerMemory:
    """The trainer holds only what training reads."""

    def test_no_gradient_alive_between_steps(self):
        ds, labels = gappy_dataset(seed=15)
        tr = SignatureTrainer(ds, labels, small_config(iterations=4))
        params = [tr.emb_t] + [t for tensors in tr.enc_t for t in tensors.values()]
        forward = tr.batch_loss
        calls = []

        def checked(w_t, *args):
            assert all(p.grad is None for p in [w_t, *params])
            calls.append(w_t)
            return forward(w_t, *args)

        tr.batch_loss = checked
        model = tr.train()
        assert len(calls) == 4 * model.num_signatures
        assert all(p.grad is None for p in [*calls, *params])

    def test_non_f32_row_fails_when_built(self):
        ds, labels = gappy_dataset(seed=16)
        table = EmbeddingTable(12, 256, (3, 5), seed=3)
        table.rows[0, 0] = 1e39
        with pytest.raises(ValueError, match="embedding rows: value 1e\\+39"):
            SignatureTrainer(ds, labels, small_config(), table=table)


def reference_adam_step(opt, data, grads):
    """One step of the out-of-place formula ``Adam.step`` must equal
    bitwise, on copies of ``data`` and of the moments."""
    t = opt.t + 1
    bc1 = 1.0 - opt.b1**t
    bc2 = 1.0 - opt.b2**t
    out = []
    for x, g, m, v in zip(data, grads, opt.m, opt.v):
        if g is None:
            out.append((x.copy(), m.copy(), v.copy()))
            continue
        m = m * opt.b1 + (1.0 - opt.b1) * g
        v = v * opt.b2 + (1.0 - opt.b2) * (g * g)
        x = x - opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)
        out.append((x, m, v))
    return out


class TestAdam:
    def test_in_place_step_is_the_formula_bitwise(self):
        rng = np.random.default_rng(5)
        shapes_scales = [((7, 5), 1e-6), ((9,), 1.0), ((4, 3), 1e4), ((3, 2), 1.0)]
        params = [
            ad.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)
            for shape, scale in shapes_scales
        ]
        params[0].data[2] = -0.0
        opt = Adam(params, lr=0.03, betas=(0.8, 0.99), eps=1e-7)
        for step in range(5):
            grads = [rng.standard_normal(p.data.shape) * 10.0 ** rng.uniform(-6, 3) for p in params]
            grads[0][1] = 0.0  # a row with no gradient
            grads[0][3] = -0.0
            if step % 2:
                grads[3] = None  # a parameter this step never reached
            want = reference_adam_step(opt, [p.data for p in params], grads)
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            opt.step()
            assert opt.t == step + 1
            assert all(p.grad is None for p in params)
            for k, (p, (x, m, v)) in enumerate(zip(params, want)):
                assert p.data.tobytes() == x.tobytes(), (step, k)
                assert opt.m[k].tobytes() == m.tobytes(), (step, k)
                assert opt.v[k].tobytes() == v.tobytes(), (step, k)

    def test_zero_grad_and_moments_leave_data_bitwise(self):
        # Why a dense step over the compact table is exact: a row with no
        # gradient and zero moments moves by lr * 0 / (0 + eps) = 0.
        rng = np.random.default_rng(0)
        data = rng.standard_normal((5, 4)) * 10.0 ** rng.uniform(-8, 8, (5, 4))
        data[0, 0] = -0.0
        x = ad.Tensor(data.copy(), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(3):
            x.grad = np.zeros_like(x.data)
            opt.step()
            assert x.data.tobytes() == data.tobytes()
        assert not opt.m[0].any() and not opt.v[0].any()

    def test_descends_quadratic(self):
        x = ad.Tensor(np.array([5.0, -3.0]), requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(300):
            loss = ad.tsum(ad.mul(x, x))
            ad.backward(loss)
            opt.step()
        assert np.abs(x.data).max() < 1e-2
