"""Tests for save/load of trained systems."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.mei import MEI, MEIConfig
from repro.core.rcs import TraditionalRCS
from repro.core.saab import SAAB, SAABConfig
from repro.cost.area import Topology
from repro.nn.network import MLP
from repro.nn.trainer import TrainConfig
from repro.serialization import (
    IntegrityError,
    load_mei,
    load_mlp,
    load_rcs,
    load_saab,
    read_archive,
    save_mei,
    save_mlp,
    save_rcs,
    save_saab,
)
from repro.serve import ARTIFACT_KIND, load_artifact, save_artifact

FAST = TrainConfig(epochs=20, batch_size=64, learning_rate=0.02, shuffle_seed=0)


def _toy_data(rng, n=300):
    x = rng.uniform(0, 1, (n, 2))
    y = 0.2 + 0.5 * (0.6 * x[:, :1] + 0.4 * x[:, 1:] ** 2)
    return x, y


class TestMLPRoundtrip:
    def test_predictions_identical(self, rng, tmp_path):
        net = MLP((3, 7, 2), hidden_activation="tanh", rng=0)
        path = tmp_path / "net.npz"
        save_mlp(net, path)
        restored = load_mlp(path)
        x = rng.uniform(0, 1, (10, 3))
        assert np.array_equal(restored.predict(x), net.predict(x))
        assert restored.layers[0].activation.name == "tanh"

    def test_kind_mismatch_rejected(self, rng, tmp_path):
        net = MLP((2, 3, 1), rng=0)
        path = tmp_path / "net.npz"
        save_mlp(net, path)
        with pytest.raises(ValueError):
            load_mei(path)


class TestMEIRoundtrip:
    def test_full_roundtrip(self, rng, tmp_path):
        x, y = _toy_data(rng)
        mei = MEI(MEIConfig(2, 1, 8, msb_weighted=True, weight_decay_ratio=1.5),
                  seed=0).train(x, y, FAST)
        path = tmp_path / "mei.npz"
        save_mei(mei, path)
        restored = load_mei(path)
        assert np.array_equal(restored.predict(x[:30]), mei.predict(x[:30]))
        assert restored.config == mei.config

    def test_pruning_masks_survive(self, rng, tmp_path):
        x, y = _toy_data(rng)
        mei = MEI(MEIConfig(2, 1, 8), seed=0).train(x, y, FAST)
        pruned = mei.pruned(in_bits=5, out_bits=6)
        path = tmp_path / "pruned.npz"
        save_mei(pruned, path)
        restored = load_mei(path)
        assert restored.in_bits == 5
        assert restored.out_bits == 6
        assert np.array_equal(restored.predict(x[:20]), pruned.predict(x[:20]))

    def test_restored_is_deployed(self, rng, tmp_path):
        x, y = _toy_data(rng)
        mei = MEI(MEIConfig(2, 1, 8), seed=0).train(x, y, FAST)
        path = tmp_path / "mei.npz"
        save_mei(mei, path)
        restored = load_mei(path)
        assert restored.analog is not None


class TestRCSRoundtrip:
    def test_full_roundtrip(self, rng, tmp_path):
        x, y = _toy_data(rng)
        rcs = TraditionalRCS(Topology(2, 8, 1, bits=6), seed=0).train(x, y, FAST)
        path = tmp_path / "rcs.npz"
        save_rcs(rcs, path)
        restored = load_rcs(path)
        assert np.array_equal(restored.predict(x[:30]), rcs.predict(x[:30]))
        assert restored.topology == rcs.topology


class TestSAABRoundtrip:
    def test_full_roundtrip(self, rng, tmp_path):
        x, y = _toy_data(rng)
        saab = SAAB(
            lambda k: MEI(MEIConfig(2, 1, 8), seed=30 + k),
            SAABConfig(n_learners=2, compare_bits=4, seed=0),
        ).train(x, y, FAST)
        path = tmp_path / "ensemble.npz"
        written = save_saab(saab, path)
        assert len(written) == 3  # index + 2 members
        restored = load_saab(path)
        assert len(restored) == 2
        assert np.allclose(restored.alphas, saab.alphas)
        assert np.array_equal(restored.predict(x[:20]), saab.predict(x[:20]))

    def test_untrained_rejected(self, tmp_path):
        saab = SAAB(lambda k: MEI(MEIConfig(1, 1, 4), seed=k), SAABConfig(n_learners=1))
        with pytest.raises(ValueError):
            save_saab(saab, tmp_path / "x.npz")


_CORRUPT = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def artifact_bytes(tmp_path_factory):
    """A small MEI serving artifact, as the bytes written to disk."""
    rng = np.random.default_rng(0)
    x, y = rng.uniform(0, 1, (32, 2)), rng.uniform(0, 1, (32, 1))
    fit = TrainConfig(epochs=2, batch_size=16, learning_rate=0.02, shuffle_seed=0)
    mei = MEI(MEIConfig(2, 1, 4, bits=4), seed=0).train(x, y, fit)
    path = save_artifact(mei, tmp_path_factory.mktemp("artifact") / "mei.npz")
    return path.read_bytes()


def _corruptions(blob_size):
    """Truncate at any offset, or XOR one byte anywhere with a nonzero mask."""
    truncate = st.tuples(st.just("truncate"), st.integers(0, blob_size - 1), st.just(0))
    flip = st.tuples(
        st.just("flip"), st.integers(0, blob_size - 1), st.integers(1, 255)
    )
    return st.one_of(truncate, flip)


def _damage(blob, corruption):
    how, offset, mask = corruption
    if how == "truncate":
        return blob[:offset]
    damaged = bytearray(blob)
    damaged[offset] ^= mask
    return bytes(damaged)


class TestCorruptArchives:
    """Damaged bytes raise IntegrityError; a wrong schema raises ValueError.

    A flip the zip layer never reads (e.g. a timestamp) may still load,
    and then the digest guarantees the content is the original's.
    """

    @_CORRUPT
    @given(data=st.data())
    def test_read_archive(self, artifact_bytes, tmp_path, data):
        original = tmp_path / "original.npz"
        original.write_bytes(artifact_bytes)
        meta, arrays = read_archive(original, ARTIFACT_KIND)
        corruption = data.draw(_corruptions(len(artifact_bytes)))
        path = tmp_path / "damaged.npz"
        path.write_bytes(_damage(artifact_bytes, corruption))
        try:
            got_meta, got_arrays = read_archive(path, ARTIFACT_KIND)
        except IntegrityError:
            return
        assert corruption[0] == "flip"
        assert got_meta == meta
        assert got_arrays.keys() == arrays.keys()
        for name, array in arrays.items():
            assert np.array_equal(got_arrays[name], array)

    @_CORRUPT
    @given(data=st.data())
    def test_load_artifact(self, artifact_bytes, tmp_path, data):
        corruption = data.draw(_corruptions(len(artifact_bytes)))
        path = tmp_path / "damaged.npz"
        path.write_bytes(_damage(artifact_bytes, corruption))
        try:
            loaded = load_artifact(path)
        except IntegrityError:
            return
        assert corruption[0] == "flip"
        assert loaded.kind == "mei"

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.npz"
        path.write_bytes(b"")
        with pytest.raises(IntegrityError):
            read_archive(path, ARTIFACT_KIND)
        with pytest.raises(IntegrityError):
            load_artifact(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_archive(tmp_path / "absent.npz", ARTIFACT_KIND)

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(meta=st.one_of(
        st.none(),
        st.binary(max_size=32),
        st.lists(st.integers()).map(lambda v: json.dumps(v).encode()),
        st.integers().map(lambda v: json.dumps(v).encode()),
        st.text(max_size=16).map(lambda v: json.dumps(v).encode()),
        st.sampled_from(["mlp", "mei", None]).map(
            lambda kind: json.dumps({"kind": kind, "format_version": 1}).encode()
        ),
    ))
    def test_wrong_schema_meta(self, tmp_path, meta):
        """``None`` writes no ``__meta__`` record at all."""
        path = tmp_path / "schema.npz"
        records = {"w": np.zeros(3)}
        if meta is not None:
            records["__meta__"] = np.frombuffer(meta, dtype=np.uint8)
        np.savez(path, **records)
        for load in (lambda: read_archive(path, ARTIFACT_KIND),
                     lambda: load_artifact(path)):
            with pytest.raises(ValueError) as raised:
                load()
            assert not isinstance(raised.value, IntegrityError)
