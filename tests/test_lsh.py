"""Cross-polytope hashing, index behavior, theory formulas, persistence."""

import dataclasses
import math
import re
from contextlib import contextmanager
from unittest.mock import patch

import numpy as np
import pytest

from sigblock.lsh import (
    LshIndex,
    LshParams,
    _hash,
    _signed,
    _top2,
    next_pow2,
    pad_to,
    random_rotations,
    rho_exponent,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_units(n, d, rng):
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def signed_axes(rotations, vectors):
    """Signed dominant axis (+/-1..+/-d) of each vector under each rotation,
    shaped (vectors, rotations)."""
    best, _, _ = _hash(rotations[:, None], vectors)
    return _signed(best)[:, :, 0]


class TestHashOne:
    """One cross-polytope hash: the signed axis nearest a rotated vector."""

    def test_identity_fixed_point(self):
        e3 = np.zeros(4)
        e3[2] = 1.0
        assert signed_axes(np.eye(4)[None], e3[None]).tolist() == [[3]]

    def test_negative_axis(self):
        v = np.zeros(4)
        v[0] = -1.0
        assert signed_axes(np.eye(4)[None], v[None]).tolist() == [[-1]]

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="'z' is not unit norm"):
            LshIndex.build([("z", 0, np.zeros(4))], dim=4)

    def test_tie_breaks_smallest_index_positive_first(self):
        vs = np.stack([unit([1.0, 1.0, 0.0]), unit([0.0, -1.0, 1.0]), unit([0.0, 1.0, -1.0])])
        assert signed_axes(np.eye(3)[None], vs).tolist() == [[1], [-2], [2]]
        # the runner-up is the next axis in the same order
        _, second, gap = _top2(vs)
        assert _signed(second).tolist() == [2, 3, -3]
        assert gap.tolist() == [0.0, 0.0, 0.0]

    def test_identical_always_collide_antipodal_never(self, rng):
        rots = random_rotations(8, 200, rng)
        vs = random_units(50, 8, rng)
        axes = signed_axes(rots, vs)
        assert (signed_axes(rots, vs.copy()) == axes).all()
        assert (signed_axes(rots, -vs) == -axes).all()


class TestRotations:
    def test_orthogonal(self, rng):
        rots = random_rotations(16, 5, rng)
        for r in rots:
            np.testing.assert_allclose(r @ r.T, np.eye(16), atol=1e-6)

    def test_next_pow2(self):
        assert next_pow2(1) == 1
        assert next_pow2(3) == 4
        assert next_pow2(64) == 64
        assert next_pow2(65) == 128

    def test_pad_preserves_cosine(self, rng):
        a, b = random_units(2, 6, rng)
        pa, pb = pad_to(a, 8), pad_to(b, 8)
        assert abs(a @ b - pa @ pb) < 1e-12

    def test_collision_probability_decreases_with_angle(self, rng):
        # Small-scale version of the monotonicity property.
        n = 20000
        d = 8
        rots = random_rotations(d, n, rng)
        x = np.zeros(d)
        x[0] = 1.0
        rates = []
        for phi in (0.0, math.pi / 6, math.pi / 3, math.pi / 2):
            y = np.zeros(d)
            y[0], y[1] = math.cos(phi), math.sin(phi)
            ux, uy = rots @ x, rots @ y
            jx = np.argmax(np.abs(ux), axis=1)
            jy = np.argmax(np.abs(uy), axis=1)
            sx = ux[np.arange(n), jx] >= 0
            sy = uy[np.arange(n), jy] >= 0
            rates.append(float(np.mean((jx == jy) & (sx == sy))))
        assert rates[0] == 1.0
        assert rates[0] > rates[1] > rates[2] > rates[3]


class TestTheory:
    def test_rho_paper_operating_point(self):
        # 0.2593... corresponds to the reported n^(1/3.86) query time
        got = rho_exponent(0.8, 0.4)
        assert abs(got - 7.0 / 27.0) < 1e-12
        assert abs(got - 0.2593) < 0.0003
        assert abs(1.0 / got - 3.857) < 0.01

    def test_rho_limit_to_one(self):
        assert abs(rho_exponent(0.5, 0.5 - 1e-9) - 1.0) < 1e-6

    def test_rho_half_zero(self):
        assert abs(rho_exponent(0.5, 0.0) - 1.0 / 3.0) < 1e-12

    def test_rho_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            rho_exponent(0.4, 0.8)
        with pytest.raises(ValueError):
            rho_exponent(1.0, 0.4)


class TestIndex:
    def test_empty_input(self):
        index = LshIndex.build([], dim=8, params=LshParams(tables=4))
        assert len(index) == 0
        assert len(index.tables) == 4
        assert all(len(t) == 0 for t in index.tables)

    def test_duplicate_entry_rejected(self, rng):
        v = random_units(1, 8, rng)[0]
        with pytest.raises(ValueError, match="duplicate"):
            LshIndex.build([("a", 0, v), ("a", 0, v)], dim=8)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            LshIndex.build([("a", 0, np.ones(8))], dim=8)

    def test_wrong_shape_rejected(self, rng):
        v = random_units(1, 8, rng)[0]
        with pytest.raises(ValueError, match=r"'b' has shape \(7,\), want \(8,\)"):
            LshIndex.build([("a", 0, v), ("b", 0, v[:7]), ("c", 0, v[:6])], dim=8)
        with pytest.raises(ValueError, match=r"'a' has shape \(1, 8\), want \(8,\)"):
            LshIndex.build([("a", 0, v[None]), ("b", 0, v[None])], dim=8)

    def test_first_offending_id_named(self, rng):
        v = random_units(1, 8, rng)[0]
        with pytest.raises(ValueError, match="'b' is not unit norm"):
            LshIndex.build([("a", 0, v), ("b", 0, 2 * v), ("c", 0, 3 * v)], dim=8)
        with pytest.raises(ValueError, match=r"duplicate entry \('b', 1\)"):
            LshIndex.build(
                [("a", 0, v), ("b", 1, v), ("a", 1, v), ("b", 1, v), ("a", 0, v)], dim=8
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, rng, bad):
        vs = random_units(3, 8, rng)
        vs[1, 4] = bad
        with pytest.raises(ValueError, match="'b' is not unit norm"):
            LshIndex.build([("a", 0, vs[0]), ("b", 0, vs[1]), ("c", 0, vs[2])], dim=8)
        with pytest.raises(ValueError, match="'n' is not unit norm"):
            LshIndex.build([("n", 0, np.full(8, bad))], dim=8)

    def test_nan_query_rejected(self, rng):
        vs = random_units(4, 8, rng)
        index = LshIndex.build([(f"v{i}", 0, vs[i]) for i in range(3)], dim=8)
        bad = vs[3].copy()
        bad[0] = np.nan
        with pytest.raises(ValueError, match="query vector is not unit norm"):
            index.search(np.stack([vs[3], bad]), theta=0.5)
        with pytest.raises(ValueError, match="query vector is not unit norm"):
            index.query(np.full(8, np.nan), theta=0.5)

    def test_query_of_wrong_shape_rejected(self, rng):
        # a 63-d query pads to the 64-d rotations, so only a shape check
        # stops it before the re-rank
        vs = random_units(4, 64, rng)
        index = LshIndex.build([(f"v{i}", 0, vs[i]) for i in range(3)], dim=64)
        short = unit(vs[3][:63])
        with pytest.raises(ValueError, match=r"query has shape \(63,\), want \(64,\)"):
            index.query(short, theta=0.5)
        with pytest.raises(ValueError, match=r"query has shape \(1, 64\), want \(64,\)"):
            index.query(vs[3][None], theta=0.5)
        with pytest.raises(ValueError, match=r"queries have shape \(1, 63\), want \(rows, 64\)"):
            index.search(short[None], theta=0.5)
        with pytest.raises(ValueError, match=r"queries have shape \(64,\), want \(rows, 64\)"):
            index.search(vs[3], theta=0.5)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_max_results_below_one_rejected(self, rng, cap):
        vs = random_units(3, 8, rng)
        items = [(f"v{i}", 0, vs[i]) for i in range(3)]
        with pytest.raises(ValueError, match="max_results must be positive when set"):
            LshIndex.build(items, dim=8, params=LshParams(max_results=cap))

    def test_total_stored_entries(self, rng):
        n = 500
        vecs = random_units(n, 16, rng)
        index = LshIndex.build(
            [(f"v{i}", 0, vecs[i]) for i in range(n)], dim=16, params=LshParams(seed=3)
        )
        total = sum(len(b) for t in index.tables for b in t.values())
        assert total == n * index.params.tables

    def test_self_retrieval_deterministic(self, rng):
        vecs = random_units(50, 16, rng)
        index = LshIndex.build(
            [(f"v{i:02d}", 0, vecs[i]) for i in range(50)], dim=16
        )
        for i in range(50):
            hits = index.query(vecs[i], theta=0.99)
            assert any(rid == f"v{i:02d}" and c >= 0.999999 for rid, _, c in hits)

    def test_near_orthogonal_points_rarely_retrieved(self, rng):
        vecs = random_units(400, 64, rng)
        index = LshIndex.build(
            [(f"v{i}", 0, vecs[i]) for i in range(400)], dim=64
        )
        hits = 0
        for i in range(100):
            got = index.query(vecs[i], theta=0.8)
            hits += sum(1 for rid, _, _ in got if rid != f"v{i}")
        assert hits == 0  # random 64-dim pairs essentially never reach 0.8

    def test_results_subset_of_brute_force(self, rng):
        n, d = 800, 16
        vecs = random_units(n, d, rng)
        index = LshIndex.build([(f"v{i:03d}", 0, vecs[i]) for i in range(n)], dim=d)
        theta = 0.7
        for i in range(40):
            got = {rid for rid, _, _ in index.query(vecs[i], theta)}
            exact = {f"v{j:03d}" for j in range(n) if vecs[i] @ vecs[j] >= theta}
            assert got <= exact

    def test_max_results_truncates_to_best(self, rng):
        base = random_units(1, 16, rng)[0]
        items = []
        for i in range(20):
            w = rng.standard_normal(16)
            w -= (w @ base) * base
            w = unit(w)
            psi = 0.05 + 0.01 * i
            items.append((f"v{i:02d}", 0, math.cos(psi) * base + math.sin(psi) * w))
        index = LshIndex.build(items, dim=16, params=LshParams(max_results=5))
        got = index.query(base, theta=0.5)
        assert len(got) == 5
        cosines = [c for _, _, c in got]
        assert cosines == sorted(cosines, reverse=True)
        assert got[0][0] == "v00"

    def test_signature_filter(self, rng):
        v = random_units(1, 8, rng)[0]
        index = LshIndex.build([("a", 0, v), ("b", 1, v)], dim=8)
        got = index.query(v, 0.5, signature=1)
        assert [rid for rid, _, _ in got] == ["b"]

    def test_multiprobe_improves_single_table_capture(self, rng):
        # With one table and one composed hash, probing the runner-up
        # bucket can only add candidates.
        n, d = 2000, 16
        vecs = random_units(n, d, rng)
        twins = []
        for i in range(300):
            w = rng.standard_normal(d)
            w -= (w @ vecs[i]) * vecs[i]
            w = unit(w)
            psi = math.acos(0.88)
            twins.append(math.cos(psi) * vecs[i] + math.sin(psi) * w)
        items = [(f"v{i:04d}", 0, vecs[i]) for i in range(n)]
        p0 = LshParams(tables=1, hashes_per_table=1, multiprobe=0, seed=5)
        p1 = LshParams(tables=1, hashes_per_table=1, multiprobe=1, seed=5)
        i0 = LshIndex.build(items, dim=d, params=p0)
        i1 = LshIndex.build(items, dim=d, params=p1)
        hits0 = sum(
            any(rid == f"v{i:04d}" for rid, _, _ in i0.query(unit(t), 0.8))
            for i, t in enumerate(twins)
        )
        hits1 = sum(
            any(rid == f"v{i:04d}" for rid, _, _ in i1.query(unit(t), 0.8))
            for i, t in enumerate(twins)
        )
        assert hits1 > hits0

    def test_build_deterministic(self, rng):
        vecs = random_units(100, 8, rng)
        items = [(f"v{i}", 0, vecs[i]) for i in range(100)]
        a = LshIndex.build(items, dim=8, params=LshParams(seed=9))
        b = LshIndex.build(items, dim=8, params=LshParams(seed=9))
        assert a.tables == b.tables
        np.testing.assert_array_equal(a.rotations, b.rotations)


class TestPersistence:
    def test_round_trip_preserves_queries(self, rng, tmp_path):
        vecs = random_units(200, 12, rng)
        items = [(f"rec-{i:03d}", i % 3, vecs[i]) for i in range(200)]
        index = LshIndex.build(items, dim=12, params=LshParams(seed=4))
        path = tmp_path / "index.bin"
        index.save(path)
        loaded = LshIndex.load(path)
        assert loaded.entries == index.entries
        assert loaded.tables == index.tables
        assert loaded.params == index.params
        q = vecs[7]
        got = loaded.query(q, 0.9)
        assert any(rid == "rec-007" for rid, _, _ in got)

    def test_save_load_save_byte_identical(self, rng, tmp_path):
        vecs = random_units(50, 8, rng)
        items = [(f"v{i}", 0, vecs[i]) for i in range(50)]
        index = LshIndex.build(items, dim=8)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        index.save(p1)
        LshIndex.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_fails_loudly(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTANINDEX")
        with pytest.raises(ValueError, match="magic"):
            LshIndex.load(path)

    def test_version_mismatch_fails_loudly(self, rng, tmp_path):
        vecs = random_units(3, 8, rng)
        index = LshIndex.build([(f"v{i}", 0, vecs[i]) for i in range(3)], dim=8)
        path = tmp_path / "index.bin"
        index.save(path)
        raw = bytearray(path.read_bytes())
        for version in (1, 99):  # 1: the layout that listed buckets
            raw[6:8] = version.to_bytes(2, "little")
            path.write_bytes(bytes(raw))
            want = f"{path}: unsupported index version {version} (want 2)"
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                LshIndex.load(path)

    def test_file_length_is_the_documented_layout(self, rng, tmp_path):
        dim, tables, hashes = 5, 3, 2
        vecs = random_units(7, dim, rng)
        items = [(f"r\u00e9c-{i // 2}", i % 2, vecs[i]) for i in range(7)]
        params = LshParams(tables=tables, hashes_per_table=hashes, seed=3)
        index = LshIndex.build(items, dim, params)
        path = tmp_path / "index.bin"
        index.save(path)
        dp = next_pow2(dim)
        header = 6 + 2 + 4 * 5 + 8 + 4 + 4
        rotations = 4 * tables * hashes * dp * dp
        records = sum(2 + len(rid.encode("utf-8")) + 4 + 4 * dim for rid, _, _ in items)
        keys = 4 * len(items) * tables * hashes
        assert path.stat().st_size == header + rotations + records + keys


def tables_of(keys):
    """Dict tables of signed-axis keys (n, tables, hashes), each bucket
    added when its first entry is seen."""
    tables = [{} for _ in range(keys.shape[1])]
    for e, row in enumerate(keys.tolist()):
        for k, key in enumerate(row):
            tables[k].setdefault(tuple(key), []).append(e)
    return tables


class TestIndexFile:
    """What ``LshIndex.load`` makes of the bucket keys a file stores."""

    N, TABLES, HASHES = 12, 2, 2

    @pytest.fixture
    def saved(self, rng, tmp_path):
        vecs = random_units(self.N, 2, rng)
        params = LshParams(tables=self.TABLES, hashes_per_table=self.HASHES, seed=7)
        index = LshIndex.build([(f"v{i:02d}", 0, v) for i, v in enumerate(vecs)], 2, params)
        path = tmp_path / "index.bin"
        index.save(path)
        data = path.read_bytes()
        keys = _signed(ref_codes(index.tables, self.N, self.HASHES))
        tail = keys.astype("<i4").tobytes()
        assert data.endswith(tail)  # each entry's key as the dicts hold it
        return path, data[: len(data) - len(tail)], keys

    @pytest.mark.parametrize("component", [0, 3, -3, 2**31 - 1, -(2**31)])
    def test_key_component_out_of_range(self, saved, component):
        # dim_padded is 2: +/-3 are the nearest values out of range
        path, head, keys = saved
        keys[5, 1, 1] = component
        path.write_bytes(head + keys.astype("<i4").tobytes())
        with pytest.raises(ValueError) as info:
            LshIndex.load(path)
        where = len(head) + 4 * ((5 * self.TABLES + 1) * self.HASHES + 1)
        want = f"{path}: key component {component} outside +/-1..+/-2 at byte {where}"
        assert str(info.value) == f"{want} while reading entry 5 table 1 key"

    @pytest.mark.parametrize("seed", range(6))
    def test_any_in_range_keys_load_as_their_partition(self, saved, seed):
        # buckets by first entry, members ascending, every entry in one
        # bucket per table, keys distinct, no empty bucket: by construction
        path, head, _ = saved
        rng = np.random.default_rng(seed)
        keys = rng.choice([-2, -1, 1, 2], (self.N, self.TABLES, self.HASHES))
        if seed == 0:
            keys[:] = keys[0]  # one bucket per table
        data = head + keys.astype("<i4").tobytes()
        path.write_bytes(data)
        loaded = LshIndex.load(path)
        assert [list(t.items()) for t in loaded.tables] == [
            list(t.items()) for t in tables_of(keys)
        ]
        again = path.with_suffix(".again")
        loaded.save(again)
        assert again.read_bytes() == data

    def test_truncation_and_trailing_bytes_name_offset_and_field(self, saved):
        path, head, _ = saved
        data = path.read_bytes()
        size = 4 * self.N * self.TABLES * self.HASHES
        cases = {
            10: "truncated (4 bytes needed, 2 left) at byte 8 while reading dim",
            len(data) - 1: (
                f"truncated ({size} bytes needed, {size - 1} left) at byte {len(head)}"
                " while reading bucket keys"
            ),
        }
        for cut, want in cases.items():
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError, match=re.escape(f"{path}: {want}")):
                LshIndex.load(path)
        path.write_bytes(data + b"\0\0")
        with pytest.raises(ValueError, match=f"2 trailing bytes at byte {len(data)}"):
            LshIndex.load(path)

    def test_header_the_layout_rules_out(self, saved):
        path, _, _ = saved
        data = path.read_bytes()
        for at, value in ((12, 4), (16, 0), (20, 0), (20, 40)):  # dim_padded, tables, hashes
            bad = bytearray(data)
            bad[at : at + 4] = value.to_bytes(4, "little")
            path.write_bytes(bytes(bad))
            want = f"{re.escape(str(path))}: .* at byte 8 while reading header"
            with pytest.raises(ValueError, match=want):
                LshIndex.load(path)


class TestSearchSelf:
    def test_reuses_build_hashes_bitwise(self, rng):
        vecs = random_units(700, 8, rng)
        items = [(f"v{i:03d}", i % 2, v) for i, v in enumerate(vecs)]
        for cap in (None, 3):
            index = LshIndex.build(items, 8, LshParams(max_results=cap))
            for kept, fresh in zip(index._hashes, _hash(index.rotations, index.vectors)):
                np.testing.assert_array_equal(kept, fresh)
            for a, b in zip(index.search_self(0.5), index.search(index.vectors, 0.5)):
                np.testing.assert_array_equal(a, b)

    def test_loaded_index_hashes_its_vectors(self, rng, tmp_path):
        vecs = random_units(40, 8, rng)
        LshIndex.build([(f"v{i}", 0, v) for i, v in enumerate(vecs)], 8).save(tmp_path / "i.bin")
        loaded = LshIndex.load(tmp_path / "i.bin")
        for a, b in zip(loaded.search_self(0.5), loaded.search(loaded.vectors, 0.5)):
            np.testing.assert_array_equal(a, b)


from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


class TestEntryChecks:
    """``load`` refuses the entries ``build`` refuses; ``save`` refuses
    an index whose f32 vectors ``load`` would refuse."""

    @pytest.fixture
    def saved(self, rng, tmp_path):
        vecs = random_units(12, 2, rng)
        params = LshParams(tables=2, hashes_per_table=1, seed=7)
        index = LshIndex.build([(f"v{i:02d}", 0, v) for i, v in enumerate(vecs)], 2, params)
        path = tmp_path / "index.bin"
        index.save(path)
        return path, bytearray(path.read_bytes())

    def test_duplicate_entry(self, saved):
        path, data = saved
        at = data.find(b"v01") - 2  # entry 1: u16 length, id, u32 signature, vector
        data[at + 2 : at + 5] = b"v00"
        path.write_bytes(bytes(data))
        want = f"{path}: duplicate entry ('v00', 0) at byte {at} while reading entry 1"
        with pytest.raises(ValueError, match=re.escape(want)):
            LshIndex.load(path)

    @pytest.mark.parametrize("scale", [2.0, 0.0, 1 - 2e-6])
    def test_vector_off_unit_norm(self, saved, scale):
        path, data = saved
        at = data.find(b"v03") - 2
        vec = slice(at + 2 + 3 + 4, at + 2 + 3 + 4 + 8)
        vector = np.frombuffer(bytes(data[vec]), "<f4") * np.float32(scale)
        data[vec] = vector.astype("<f4").tobytes()
        path.write_bytes(bytes(data))
        want = f"{path}: vector for id 'v03' is not unit norm at byte {at} while reading entry 3"
        with pytest.raises(ValueError, match=re.escape(want)):
            LshIndex.load(path)

    @pytest.mark.parametrize(
        "x, saves", [(1 - 0.99e-6, False), (1 - 0.95e-6, True), (1 + 0.99e-6, True)]
    )
    def test_save_checks_f32_vectors_at_the_boundary(self, tmp_path, x, saves):
        # all three pass build; 1 - 0.99e-6 rounds to 1 - 17 * 2^-24 in f32,
        # off unit norm by more than UNIT_TOL
        index = LshIndex.build([("a", 0, np.array([x, 0.0])), ("b", 0, np.array([0.0, 1.0]))], 2)
        path = tmp_path / "index.bin"
        if not saves:
            with pytest.raises(ValueError, match="'a' is not unit norm once stored as f32"):
                index.save(path)
            assert not path.exists()
            return
        index.save(path)
        again = tmp_path / "again.bin"
        LshIndex.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
        st.floats(-1.5e-6, 1.5e-6),
    )
    def test_every_saved_file_loads_and_resaves(self, tmp_path_factory, dim, seed, off):
        v = random_units(1, dim, np.random.default_rng(seed))[0] * (1 + off)
        try:
            index = LshIndex.build([("a", 0, v)], dim)
        except ValueError:
            return  # build refuses it
        path = tmp_path_factory.mktemp("idx") / "index.bin"
        try:
            index.save(path)
        except ValueError as exc:
            assert "once stored as f32" in str(exc) and not path.exists()
            return
        again = path.with_suffix(".again")
        LshIndex.load(path).save(again)
        assert again.read_bytes() == path.read_bytes()


# -- the batched hasher and join against per-vector references ------------

def ref_signed_top2(u):
    """(best, runner-up) signed axes and their score gap for one rotation."""
    mag = np.abs(u)
    j1 = int(np.argmax(mag))
    c1 = (j1 + 1) if u[j1] >= 0.0 else -(j1 + 1)
    if len(u) == 1:
        return c1, -c1, 2.0 * mag[j1]
    mag2 = mag.copy()
    mag2[j1] = -np.inf
    j2 = int(np.argmax(mag2))
    c2 = (j2 + 1) if u[j2] >= 0.0 else -(j2 + 1)
    return c1, c2, float(mag[j1] - mag[j2])


def ref_probe_keys(index, q_padded):
    """Primary bucket key plus multiprobe alternatives, per table."""
    out = []
    for k in range(index.params.tables):
        best, second, gaps = [], [], []
        for b in range(index.params.hashes_per_table):
            c1, c2, gap = ref_signed_top2(index.rotations[k, b] @ q_padded)
            best.append(c1)
            second.append(c2)
            gaps.append(gap)
        keys = [tuple(best)]
        for b in np.argsort(gaps, kind="stable")[: index.params.multiprobe]:
            alt = list(best)
            alt[b] = second[b]
            keys.append(tuple(alt))
        out.append(keys)
    return out


def ref_tables(rotations, vectors):
    """Bucket tables built by inserting the entries one by one."""
    tables = []
    padded = pad_to(vectors, rotations.shape[-1])
    for k in range(rotations.shape[0]):
        comps = np.empty((len(vectors), rotations.shape[1]), dtype=np.int64)
        for b in range(rotations.shape[1]):
            u = padded @ rotations[k, b].T
            j = np.argmax(np.abs(u), axis=1)
            comps[:, b] = np.where(u[np.arange(len(u)), j] >= 0.0, 1, -1) * (j + 1)
        table = {}
        for idx in range(len(vectors)):
            table.setdefault(tuple(int(c) for c in comps[idx]), []).append(idx)
        tables.append(table)
    return tables


def ref_codes(tables, n, hashes):
    """Each entry's axis codes in every table, (n, tables, hashes), read
    off dict tables."""
    codes = np.empty((n, len(tables), hashes), dtype=np.int64)
    for k, table in enumerate(tables):
        for key, members in table.items():
            codes[members, k] = [2 * (abs(c) - 1) + (c < 0) for c in key]
    return codes


def with_cap(index, cap):
    """``index`` with ``max_results`` set to ``cap``: the same arrays,
    rebuilt from its keys."""
    params = dataclasses.replace(index.params, max_results=cap)
    return LshIndex(index.dim, params, index.rotations, index.entries, index.vectors, index._codes)


def ref_query(index, q, theta, max_results, signature=None):
    """Union of the reference probes' buckets, re-ranked and cut."""
    cand = set()
    for k, keys in enumerate(ref_probe_keys(index, pad_to(q, index.dim_padded))):
        for key in keys:
            cand.update(index.tables[k].get(key, ()))
    idx = [i for i in sorted(cand) if signature in (None, index.entries[i][1])]
    # per-pair products summed as the batched path sums them, so equal
    # vectors give equal cosines and ties order the same way
    cos = np.einsum("ij,ij->i", np.repeat(q[None], len(idx), 0), index.vectors[idx])
    hits = [(*index.entries[i], float(c)) for i, c in zip(idx, cos) if c >= theta]
    hits.sort(key=lambda h: (-h[2], h[0], h[1]))
    return hits[:max_results]


def decode_probes(index, probes):
    """Packed probe keys of one query as signed-axis tuples, per table."""
    bits = index.dim_padded.bit_length()
    hashes = index.params.hashes_per_table
    out = []
    for k, row in enumerate(probes.tolist()):
        keys = []
        for key in row:
            key -= k << (bits * hashes)
            codes = [(key >> (bits * (hashes - 1 - b))) & ((1 << bits) - 1) for b in range(hashes)]
            keys.append(tuple((c >> 1) + 1 if c % 2 == 0 else -((c >> 1) + 1) for c in codes))
        out.append(keys)
    return out


def signed_permutations(count, dp, rng):
    """Rotations that move coordinates exactly, so ties survive them."""
    out = np.zeros((count, dp, dp))
    for m in range(count):
        out[m, np.arange(dp), rng.permutation(dp)] = rng.choice([-1.0, 1.0], dp)
    return out


@st.composite
def tied_index(draw, entries=0):
    """Index with signed-permutation rotations over small integer vectors,
    plus integer queries: exact ties between axes, zero coordinates and
    repeated vectors are common."""
    dim = draw(st.integers(1, 9))
    params = LshParams(
        tables=draw(st.integers(1, 3)),
        hashes_per_table=draw(st.integers(1, 3)),
        multiprobe=draw(st.integers(0, 3)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dp = next_pow2(dim)
    rotations = signed_permutations(params.tables * params.hashes_per_table, dp, rng)
    rotations = rotations.reshape(params.tables, params.hashes_per_table, dp, dp)
    ints = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any)
    vectors = np.array(draw(st.lists(ints, min_size=entries, max_size=entries)), dtype=float)
    vectors = vectors.reshape(entries, dim)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    queries = np.array(draw(st.lists(ints, min_size=1, max_size=6)), dtype=float)
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    entries_ = [(f"v{i % 7}", i // 7) for i in range(entries)]
    codes = ref_codes(ref_tables(rotations, vectors), entries, params.hashes_per_table)
    index = LshIndex(dim, params, rotations, entries_, vectors, codes)
    return index, queries


class TestBatchedHasher:
    @settings(max_examples=150, deadline=None)
    @given(tied_index())
    def test_probe_keys_match_reference_with_ties(self, case):
        index, queries = case
        probes = index._probes(*_hash(index.rotations, pad_to(queries, index.dim_padded)))
        for q, got in zip(queries, probes):
            want = ref_probe_keys(index, pad_to(q, index.dim_padded))
            assert decode_probes(index, got) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 9),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_probe_keys_match_reference_random_rotations(self, dim, tables, hashes, mp, seed):
        rng = np.random.default_rng(seed)
        params = LshParams(tables=tables, hashes_per_table=hashes, multiprobe=mp, seed=seed)
        index = LshIndex.build([], dim, params)
        queries = random_units(5, dim, rng)
        probes = index._probes(*_hash(index.rotations, pad_to(queries, index.dim_padded)))
        for q, got in zip(queries, probes):
            want = ref_probe_keys(index, pad_to(q, index.dim_padded))
            assert decode_probes(index, got) == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 60),
        st.integers(1, 9),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_build_tables_match_reference(self, n, dim, tables, hashes, seed, tied):
        rng = np.random.default_rng(seed)
        if tied:  # few distinct integer vectors: shared buckets, repeated keys
            vecs = rng.integers(-1, 2, (n, dim)).astype(float)
            vecs[~vecs.any(axis=1), 0] = 1.0
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        else:
            vecs = random_units(n, dim, rng)
        params = LshParams(tables=tables, hashes_per_table=hashes, seed=seed)
        index = LshIndex.build([(f"v{i}", 0, vecs[i]) for i in range(n)], dim, params)
        want = ref_tables(index.rotations, index.vectors)
        assert [list(t.items()) for t in index.tables] == [list(t.items()) for t in want]


class TestBatchedJoin:
    @settings(max_examples=100, deadline=None)
    @given(tied_index(entries=30), st.sampled_from([None, 1, 3]), st.sampled_from([None, 0, 2]))
    def test_search_matches_reference_query(self, case, max_results, signature):
        index, queries = case
        index = with_cap(index, max_results)
        theta = 0.3
        row, entry, cos = index.search(queries, theta, signature)
        for r, q in enumerate(queries):
            want = ref_query(index, q, theta, index.default_max_results, signature)
            got = [(*index.entries[e], c) for e, c in zip(entry[row == r], cos[row == r])]
            assert [h[:2] for h in got] == [h[:2] for h in want]
            assert np.allclose([h[2] for h in got], [h[2] for h in want], rtol=0, atol=1e-12)
            assert index.query(q, theta, signature) == got

    def test_batch_over_several_chunks_matches_single_queries(self, rng):
        vecs = random_units(700, 8, rng)
        items = [(f"v{i:03d}", 0, v) for i, v in enumerate(vecs)]
        index = LshIndex.build(items, 8, LshParams(max_results=4))
        row, entry, cos = index.search(vecs, 0.6)
        assert set(row.tolist()) == set(range(700))  # every row finds itself
        for r in range(700):
            got = [(*index.entries[e], c) for e, c in zip(entry[row == r], cos[row == r])]
            assert index.query(vecs[r], 0.6) == got

    def test_large_bucket_searched_in_parts(self, rng):
        # every entry in one bucket: the re-rank runs in several parts
        v = random_units(1, 8, rng)[0]
        jitter = 1e-4 * random_units(3000, 8, rng)
        vecs = (v + jitter) / np.linalg.norm(v + jitter, axis=1, keepdims=True)
        params = LshParams(tables=2, hashes_per_table=1, multiprobe=0, max_results=5)
        index = LshIndex.build([(f"v{i:04d}", 0, x) for i, x in enumerate(vecs)], 8, params)
        assert max(len(b) for t in index.tables for b in t.values()) == 3000
        row, entry, cos = index.search(vecs[:20], 0.9)
        for r in range(20):
            want = ref_query(index, vecs[r], 0.9, 5)
            assert [index.entries[e] for e in entry[row == r]] == [h[:2] for h in want]


def unique_rerank(index, q, start, size, theta, max_results, signature):
    """``LshIndex._rerank`` as first written: the (row, entry) codes
    deduplicated by ``np.unique``, then the signature filter."""
    n = len(index.entries)
    rows = np.repeat(np.arange(len(size)) // (len(size) // len(q)), size)
    first = np.repeat(start - (np.cumsum(size) - size), size)
    pairs = rows * n + index._members[first + np.arange(len(first))]
    row, entry = np.divmod(np.unique(pairs), n)
    if signature is not None:
        keep = index._signatures[entry] == signature
        row, entry = row[keep], entry[keep]
    cos = np.einsum("ij,ij->i", q[row], index.vectors[entry])
    keep = cos >= theta
    row, entry, cos = row[keep], entry[keep], cos[keep]
    order = np.lexsort((index._rank[entry], -cos, row))
    row, entry, cos = row[order], entry[order], cos[order]
    keep = np.arange(len(row)) - np.searchsorted(row, row) < max_results
    return row[keep], entry[keep], cos[keep]


def plain_locate(index, probes):
    """``LshIndex._locate`` as first written: the probes searched in
    their own order."""
    return np.searchsorted(index._keys, probes)


@contextmanager
def first_written_search():
    """``search`` with the bucket join and the re-rank as first written."""
    with patch.object(LshIndex, "_rerank", unique_rerank):
        with patch.object(LshIndex, "_locate", plain_locate):
            yield


def assert_same_hits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestSortedDedup:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(0, 80),
        st.integers(1, 9),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([None, 1, 5, 64]),
        st.sampled_from([-1.0, 0.0, 0.6]),
    )
    def test_search_matches_unique_oracle_bitwise(
        self, n, dim, tables, hashes, mp, seed, tied, max_results, signature, chunk, theta
    ):
        rng = np.random.default_rng(seed)
        if tied:  # few distinct integer vectors: shared buckets, tied cosines
            vecs = rng.integers(-1, 2, (n + 12, dim)).astype(float)
            vecs[~vecs.any(axis=1), 0] = 1.0
            vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        else:
            vecs = random_units(n + 12, dim, rng)
        # mixed signatures; ids drawn so that (id, signature) order is not entry order
        ids = rng.permutation(n)
        sigs = rng.integers(0, 3, n)
        items = [(f"v{ids[i]:02d}", int(sigs[i]), vecs[i]) for i in range(n)]
        params = LshParams(tables, hashes, mp, seed, max_results)
        index = LshIndex.build(items, dim, params)
        queries = vecs[n // 2 :]  # some indexed vectors, some not
        for run in (
            lambda: index.search(queries, theta, signature),
            lambda: index.search_self(theta),
        ):
            got = run()
            with first_written_search():
                want = run()
            assert_same_hits(got, want)
            if chunk is not None:  # rows re-ranked in several parts
                with patch("sigblock.lsh._CHUNK_PAIRS", chunk):
                    assert_same_hits(run(), want)
                    with first_written_search():
                        assert_same_hits(run(), want)

    def test_empty_index(self, rng):
        index = LshIndex.build([], 5, LshParams(max_results=1))
        queries = random_units(3, 5, rng)
        got = index.search(queries, 0.0)
        with first_written_search():
            assert_same_hits(got, index.search(queries, 0.0))
        assert all(len(a) == 0 for a in got + index.search_self(0.0))
