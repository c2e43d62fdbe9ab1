"""MetallStore lifecycle — the Section 4.6 persistence substitute."""

import json

import numpy as np
import pytest

from repro.errors import StoreCorruptError, StoreError
from repro.runtime.metall import MetallStore


class TestLifecycle:
    def test_create_open_roundtrip(self, tmp_path):
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["arr"] = np.arange(10)
        with MetallStore.open(path) as store:
            np.testing.assert_array_equal(store["arr"], np.arange(10))

    def test_create_twice_rejected(self, tmp_path):
        path = tmp_path / "ds"
        MetallStore.create(path).close()
        with pytest.raises(StoreError):
            MetallStore.create(path)

    def test_create_on_nonempty_dir_rejected(self, tmp_path):
        path = tmp_path / "ds"
        path.mkdir()
        (path / "junk.txt").write_text("not a store")
        with pytest.raises(StoreError):
            MetallStore.create(path)

    def test_create_on_file_rejected(self, tmp_path):
        f = tmp_path / "plainfile"
        f.write_text("x")
        with pytest.raises(StoreError):
            MetallStore.create(f)

    def test_open_missing_rejected(self, tmp_path):
        with pytest.raises(StoreError):
            MetallStore.open(tmp_path / "nope")

    def test_exists(self, tmp_path):
        path = tmp_path / "ds"
        assert not MetallStore.exists(path)
        MetallStore.create(path).close()
        assert MetallStore.exists(path)

    def test_remove(self, tmp_path):
        path = tmp_path / "ds"
        MetallStore.create(path).close()
        MetallStore.remove(path)
        assert not MetallStore.exists(path)

    def test_remove_missing_is_noop(self, tmp_path):
        MetallStore.remove(tmp_path / "nothing")

    def test_closed_store_rejects_access(self, tmp_path):
        store = MetallStore.create(tmp_path / "ds")
        store["x"] = np.ones(3)
        store.close()
        with pytest.raises(StoreError):
            store["x"]

    def test_double_close_is_noop(self, tmp_path):
        store = MetallStore.create(tmp_path / "ds")
        store.close()
        store.close()


class TestObjects:
    def test_ndarray_mmap_on_open(self, tmp_path):
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["big"] = np.arange(100, dtype=np.float32)
        with MetallStore.open(path) as store:
            arr = store["big"]
            assert isinstance(arr, np.memmap)

    def test_dict_of_arrays(self, tmp_path):
        path = tmp_path / "ds"
        graph = {"ids": np.arange(6).reshape(2, 3), "dists": np.ones((2, 3))}
        with MetallStore.create(path) as store:
            store["graph"] = graph
        with MetallStore.open(path) as store:
            out = store["graph"]
            np.testing.assert_array_equal(out["ids"], graph["ids"])
            np.testing.assert_array_equal(out["dists"], graph["dists"])

    def test_pickle_fallback(self, tmp_path):
        """There is none any more: what used to fall back to pickle is
        plain data stored as JSON, or refused when it is assigned."""
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["meta"] = {"k": 10, "metric": "cosine", "counts": [3, 1]}
            for unsupported in (object(), {"k": {1, 2}}, np.float32(1.0),
                                np.array([object()]), [np.ones((2, 2))]):
                with pytest.raises(StoreError, match="cannot be stored"):
                    store["bad"] = unsupported
            assert "bad" not in store
        assert json.loads((path / "meta.json").read_text())["k"] == 10
        assert not list(path.glob("*.pkl"))
        with MetallStore.open(path) as store:
            assert store["meta"] == {"k": 10, "metric": "cosine",
                                     "counts": [3, 1]}

    def test_ragged_list_of_records(self, tmp_path):
        """A sparse dataset — a list of 1-D arrays of any lengths — is
        one ``.npz`` of ``indptr`` + ``values``."""
        path = tmp_path / "ds"
        records = [np.array([1, 4, 9]), np.array([], dtype=np.int64),
                   np.array([2]), np.array([0, 5])]
        with MetallStore.create(path) as store:
            store["dataset"] = records
            store["one"] = records[:1]
        with MetallStore.open_read_only(path) as store:
            for name, expected in (("dataset", records), ("one", records[:1])):
                got = store[name]
                assert isinstance(got, list) and len(got) == len(expected)
                for rec, exp in zip(got, expected):
                    assert rec.dtype == exp.dtype
                    np.testing.assert_array_equal(rec, exp)

    def test_missing_object(self, tmp_path):
        with MetallStore.create(tmp_path / "ds") as store:
            with pytest.raises(StoreError):
                store["ghost"]

    def test_contains_and_keys(self, tmp_path):
        with MetallStore.create(tmp_path / "ds") as store:
            store["a"] = np.ones(2)
            store["b"] = {"x": 1}
            assert "a" in store and "b" in store and "c" not in store
            assert store.keys() == ["a", "b"]
            assert len(store) == 2
            assert list(iter(store)) == ["a", "b"]

    def test_delete_object(self, tmp_path):
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["a"] = np.ones(2)
            store.snapshot()
            del store["a"]
            assert "a" not in store
        with MetallStore.open(path) as store:
            assert "a" not in store

    def test_update_object_across_sessions(self, tmp_path):
        # The paper's rapid-graph-update future-work scenario: reopen,
        # mutate, persist again.
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["v"] = np.zeros(4)
        with MetallStore.open(path) as store:
            arr = np.asarray(store["v"]).copy()
            arr += 1
            store["v"] = arr
        with MetallStore.open(path) as store:
            np.testing.assert_array_equal(np.asarray(store["v"]), np.ones(4))

    def test_invalid_names(self, tmp_path):
        with MetallStore.create(tmp_path / "ds") as store:
            for bad in ("", "a/b", ".hidden", "a\\b"):
                with pytest.raises(StoreError):
                    store[bad] = np.ones(1)


class TestReadOnly:
    def test_read_only_rejects_writes(self, tmp_path):
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["x"] = np.ones(2)
        ro = MetallStore.open_read_only(path)
        with pytest.raises(StoreError):
            ro["y"] = np.ones(2)
        with pytest.raises(StoreError):
            del ro["x"]
        np.testing.assert_array_equal(ro["x"], np.ones(2))
        ro.close()

    def test_read_only_close_does_not_snapshot(self, tmp_path):
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["x"] = np.ones(2)
        ro = MetallStore.open_read_only(path)
        ro.close()  # must not raise

    def test_writable_flag(self, tmp_path):
        path = tmp_path / "ds"
        st = MetallStore.create(path)
        assert st.writable
        st.close()
        assert not MetallStore.open_read_only(path).writable


class TestDurability:
    def test_snapshot_midway(self, tmp_path):
        path = tmp_path / "ds"
        store = MetallStore.create(path)
        store["x"] = np.arange(3)
        store.snapshot()
        # A second handle opened before close sees the snapshot.
        other = MetallStore.open_read_only(path)
        np.testing.assert_array_equal(other["x"], np.arange(3))
        other.close()
        store.close()

    def test_unsnapshotted_objects_not_visible(self, tmp_path):
        path = tmp_path / "ds"
        store = MetallStore.create(path)
        store["x"] = np.arange(3)
        other = MetallStore.open_read_only(path)
        assert "x" not in other
        other.close()
        store.close()

    def test_path_property(self, tmp_path):
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            assert store.path == path


class TestCorruptionDetection:
    """Checksummed, atomically-replaced object files: truncation and
    bit-rot must surface as StoreCorruptError, never a parse crash."""

    @staticmethod
    def _create(tmp_path):
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["arr"] = np.arange(64, dtype=np.int64)
            store["meta"] = {"k": np.ones(4)}
        return path

    def test_no_temp_files_after_snapshot(self, tmp_path):
        path = self._create(tmp_path)
        assert not list(path.glob("*.tmp"))

    def test_truncation_detected_on_load(self, tmp_path):
        path = self._create(tmp_path)
        f = path / "arr.npy"
        f.write_bytes(f.read_bytes()[:-16])
        with MetallStore.open_read_only(path) as store:
            with pytest.raises(StoreCorruptError, match="truncated"):
                store["arr"]

    def test_bitrot_detected_under_verify(self, tmp_path):
        path = self._create(tmp_path)
        f = path / "arr.npy"
        raw = bytearray(f.read_bytes())
        raw[-1] ^= 0xFF  # same size, different content
        f.write_bytes(bytes(raw))
        with MetallStore.open_read_only(path, verify=True) as store:
            with pytest.raises(StoreCorruptError, match="SHA-256"):
                store["arr"]

    def test_bitrot_passes_size_check_without_verify(self, tmp_path):
        """The cheap always-on check is size-only; the flipped tail byte
        still *parses* — verify=True is what catches it (above)."""
        path = self._create(tmp_path)
        f = path / "arr.npy"
        raw = bytearray(f.read_bytes())
        raw[-1] ^= 0xFF
        f.write_bytes(bytes(raw))
        with MetallStore.open_read_only(path) as store:
            store["arr"]  # no exception

    def test_unparseable_json_detected(self, tmp_path):
        path = tmp_path / "ds"
        with MetallStore.create(path) as store:
            store["obj"] = {"a": 1, "b": [2, 3]}
        f = path / "obj.json"
        f.write_bytes(b"\x80" + b"\x00" * (f.stat().st_size - 1))
        with MetallStore.open_read_only(path) as store:
            with pytest.raises(StoreCorruptError, match="cannot parse"):
                store["obj"]

    def test_pickle_kind_refused_never_unpickled(self, tmp_path):
        """Opening a store never executes code: an object an older
        version pickled is refused by its manifest kind, and the payload
        — here one that would run on load — is not read."""
        import pickle

        path = self._create(tmp_path)
        fired = tmp_path / "fired"

        class Payload:
            def __reduce__(self):
                return (fired.write_text, ("ran",))

        blob = pickle.dumps(Payload())
        (path / "old.pkl").write_bytes(blob)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["objects"]["old"] = {"kind": "pickle", "files": ["old.pkl"],
                                      "bytes": len(blob)}
        (path / "manifest.json").write_text(json.dumps(manifest))
        for verify in (False, True):
            with MetallStore.open_read_only(path, verify=verify) as store:
                assert "old" in store
                with pytest.raises(StoreError, match="'old'.*rebuild") as err:
                    store["old"]
                assert not isinstance(err.value, StoreCorruptError)
                np.testing.assert_array_equal(store["arr"], np.arange(64))
        assert not fired.exists()

    def test_garbage_manifest_detected(self, tmp_path):
        path = self._create(tmp_path)
        (path / "manifest.json").write_text("{not json")
        with pytest.raises(StoreCorruptError, match="manifest"):
            MetallStore.open_read_only(path)

    @pytest.mark.parametrize("manifest", [
        [1, 2], "text", None,
        {"format_version": 1},
        {"format_version": 1, "objects": []},
        {"format_version": 1, "objects": {"arr": "arr.npy"}},
        {"format_version": 1, "objects": {"arr": {"files": ["arr.npy"]}}},
        {"format_version": 1, "objects": {"arr": {"kind": "ndarray"}}},
        {"format_version": 1, "objects": {"arr": {"kind": "ndarray",
                                                  "files": []}}},
    ], ids=["list", "string", "null", "no-objects", "objects-list",
            "entry-not-object", "no-kind", "no-files", "empty-files"])
    def test_wrong_shaped_manifest_detected(self, tmp_path, manifest):
        """A manifest that parses but is not shaped like one is
        corruption, typed as such — never a raw KeyError."""
        path = self._create(tmp_path)
        assert json.loads((path / "manifest.json").read_text())[
            "format_version"] == 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptError, match="manifest"):
            MetallStore.open_read_only(path)

    def test_corrupt_is_a_store_error(self):
        """Recovery code catching StoreError still sees corruption."""
        assert issubclass(StoreCorruptError, StoreError)
