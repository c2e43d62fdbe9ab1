"""Metall-style persistent object store (Section 4.6).

Metall is an mmap-backed C++ allocator that lets applications keep STL
data structures in a file system transparently; DNND uses it so the
construction executable can persist the k-NNG + dataset, and the
optimization/query executables can reopen them later without rebuilds.

This module reproduces that *lifecycle* in Python:

- ``MetallStore.create(path)`` — create a new datastore (error if one
  already exists, like ``metall::create_only``),
- ``MetallStore.open(path)`` / ``open_read_only`` — attach to an
  existing datastore (error if absent, like ``metall::open_only``),
- ``store[name] = obj`` — named-object construction
  (``construct<T>(name)``),
- ``store.snapshot()`` / close-on-exit — durability point,
- numpy arrays are stored as ``.npy`` and *memory-mapped on open*, which
  mirrors Metall's mmap-backed access (no full read at open time).

**Opening a store never executes code.**  Four kinds of object are
stored, each in a data-only format: a numpy array (``.npy``,
memory-mapped), a dict of arrays (``.npz``), a list of 1-D arrays — a
ragged sparse dataset — as one ``.npz`` of ``indptr`` + ``values``, and
plain data (numbers, strings, lists, string-keyed dicts) as JSON; tuples
come back as lists.  Anything else is refused when it is assigned, and a
store written by an older version that pickled such objects is refused
on load with a :class:`~repro.errors.StoreError` — never unpickled.

Durability: object files are written to a temporary name and atomically
renamed into place (a crash mid-write leaves the previous snapshot
intact, never a half-written object), and every save records the file's
size and SHA-256 in the manifest.  Loads always check the size;
``open(path, verify=True)`` additionally re-hashes the file before
trusting it.  Corruption surfaces as
:class:`~repro.errors.StoreCorruptError` — distinct from
:class:`~repro.errors.StoreError` absence/usage failures — so recovery
code can fall back to an older snapshot instead of crashing on a parse
error.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import Any, Dict, Iterator, List

import numpy as np

from ..errors import StoreCorruptError, StoreError

_MANIFEST = "manifest.json"
_FORMAT_VERSION = 1


class MetallStore:
    """A directory-backed persistent object store.

    Use the classmethod constructors, not ``__init__`` directly::

        with MetallStore.create(path) as store:
            store["graph_ids"] = ids_array
        ...
        with MetallStore.open(path) as store:
            ids = store["graph_ids"]       # np.memmap-backed
    """

    def __init__(self, path: Path, writable: bool, manifest: Dict[str, Any],
                 verify: bool = False) -> None:
        self._path = Path(path)
        self._writable = writable
        self._manifest = manifest
        self._verify = verify
        self._cache: Dict[str, Any] = {}
        self._dirty: Dict[str, Any] = {}
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def create(cls, path) -> "MetallStore":
        """Create a fresh datastore (``metall::create_only`` semantics)."""
        p = Path(path)
        if p.exists():
            if not p.is_dir():
                raise StoreError(f"datastore path {p} exists and is not a directory")
            if (p / _MANIFEST).exists():
                raise StoreError(f"datastore already exists at {p}")
            if any(p.iterdir()):
                raise StoreError(f"datastore path {p} is a non-empty directory")
        p.mkdir(parents=True, exist_ok=True)
        manifest = {"format_version": _FORMAT_VERSION, "objects": {}}
        store = cls(p, writable=True, manifest=manifest)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, path, verify: bool = False) -> "MetallStore":
        """Attach to an existing datastore (``metall::open_only``).

        ``verify=True`` re-hashes each object file against its recorded
        SHA-256 before trusting it (recovery paths use this: a restore
        must detect a corrupt checkpoint instead of restoring garbage).
        """
        return cls._open(path, writable=True, verify=verify)

    @classmethod
    def open_read_only(cls, path, verify: bool = False) -> "MetallStore":
        return cls._open(path, writable=False, verify=verify)

    @classmethod
    def _open(cls, path, writable: bool, verify: bool = False) -> "MetallStore":
        p = Path(path)
        mf = p / _MANIFEST
        if not mf.exists():
            raise StoreError(f"no datastore at {p}")
        try:
            manifest = json.loads(mf.read_text())
        except ValueError as exc:
            raise StoreCorruptError(
                f"datastore manifest at {mf} is unparseable: {exc}") from exc
        if not isinstance(manifest, dict):
            raise StoreCorruptError(
                f"datastore manifest at {mf} is not a JSON object")
        if manifest.get("format_version") != _FORMAT_VERSION:
            raise StoreError(
                f"datastore format version {manifest.get('format_version')} "
                f"!= supported {_FORMAT_VERSION}"
            )
        objects = manifest.get("objects")
        if not isinstance(objects, dict):
            raise StoreCorruptError(
                f"datastore manifest at {mf} has no object table")
        for name, meta in objects.items():
            if not (isinstance(meta, dict) and isinstance(meta.get("kind"), str)
                    and isinstance(meta.get("files"), list)
                    and meta["files"]
                    and all(isinstance(f, str) for f in meta["files"])):
                raise StoreCorruptError(
                    f"datastore manifest at {mf}: entry {name!r} lacks a "
                    f"kind or its files")
        return cls(p, writable=writable, manifest=manifest, verify=verify)

    @staticmethod
    def exists(path) -> bool:
        return (Path(path) / _MANIFEST).exists()

    @staticmethod
    def remove(path) -> None:
        """Destroy a datastore directory (if present)."""
        p = Path(path)
        if p.exists():
            shutil.rmtree(p)

    def __enter__(self) -> "MetallStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Persist pending objects and detach."""
        if self._closed:
            return
        if self._writable:
            self.snapshot()
        self._closed = True

    # -- object access ----------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError("datastore is closed")

    def _check_writable(self) -> None:
        self._check_open()
        if not self._writable:
            raise StoreError("datastore opened read-only")

    def __setitem__(self, name: str, obj: Any) -> None:
        """Stage a named object; persisted at :meth:`snapshot`/close."""
        self._check_writable()
        _validate_name(name)
        _kind_of(name, obj)
        self._dirty[name] = obj
        self._cache[name] = obj

    def __getitem__(self, name: str) -> Any:
        self._check_open()
        if name in self._cache:
            return self._cache[name]
        meta = self._manifest["objects"].get(name)
        if meta is None:
            raise StoreError(f"no object named {name!r} in datastore")
        obj = self._load(name, meta)
        self._cache[name] = obj
        return obj

    def __contains__(self, name: str) -> bool:
        self._check_open()
        return name in self._cache or name in self._manifest["objects"]

    def __delitem__(self, name: str) -> None:
        self._check_writable()
        self._cache.pop(name, None)
        self._dirty.pop(name, None)
        meta = self._manifest["objects"].pop(name, None)
        if meta is not None:
            for fname in meta.get("files", []):
                f = self._path / fname
                if f.exists():
                    f.unlink()
            self._write_manifest()

    def keys(self) -> List[str]:
        self._check_open()
        return sorted(set(self._manifest["objects"]) | set(self._dirty))

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self.keys())

    # -- persistence ----------------------------------------------------------

    def snapshot(self) -> None:
        """Write all staged objects to disk and update the manifest —
        Metall's ``snapshot()`` durability point."""
        self._check_writable()
        for name, obj in self._dirty.items():
            self._manifest["objects"][name] = self._save(name, obj)
        self._dirty.clear()
        self._write_manifest()

    def _write_manifest(self) -> None:
        tmp = self._path / (_MANIFEST + ".tmp")
        tmp.write_text(json.dumps(self._manifest, indent=1, sort_keys=True))
        tmp.replace(self._path / _MANIFEST)

    def _save(self, name: str, obj: Any) -> Dict[str, Any]:
        kind = _kind_of(name, obj)
        fname = name + _SUFFIX[kind]
        # Write-temp-then-rename: a crash mid-write must leave the
        # previous object version intact, never a truncated file the
        # next open would mmap/parse.
        fpath = self._path / fname
        tmp = self._path / (fname + ".tmp")
        with tmp.open("wb") as fh:
            if kind == "ndarray":
                np.save(fh, obj, allow_pickle=False)
            elif kind == "npz":
                np.savez(fh, **obj)
            elif kind == "ragged":
                indptr = np.zeros(len(obj) + 1, dtype=np.int64)
                np.cumsum([len(rec) for rec in obj], out=indptr[1:])
                np.savez(fh, indptr=indptr, values=np.concatenate(obj))
            else:
                fh.write(json.dumps(obj).encode())
        digest, nbytes = _file_digest(tmp)
        os.replace(tmp, fpath)
        return {"kind": kind, "files": [fname],
                "bytes": nbytes, "sha256": digest}

    def _load(self, name: str, meta: Dict[str, Any]) -> Any:
        kind = meta["kind"]
        if kind == "pickle":
            raise StoreError(
                f"object {name!r} was stored as a pickle by an older "
                f"version; opening a store never executes code, so it is "
                f"not loaded — rebuild the store")
        fname = meta["files"][0]
        fpath = self._path / fname
        if not fpath.exists():
            raise StoreError(f"datastore object file missing: {fpath}")
        # Size is checked on every load (truncation is the common
        # corruption); the full re-hash only under verify=True.
        # Manifests written before checksums were recorded skip both.
        expected = meta.get("bytes")
        if expected is not None and fpath.stat().st_size != expected:
            raise StoreCorruptError(
                f"object {name!r}: file {fpath} is {fpath.stat().st_size} "
                f"bytes, manifest records {expected} (truncated or "
                f"overwritten)")
        if self._verify and meta.get("sha256") is not None:
            digest, _ = _file_digest(fpath)
            if digest != meta["sha256"]:
                raise StoreCorruptError(
                    f"object {name!r}: SHA-256 mismatch for {fpath} "
                    f"(stored payload was modified or corrupted)")
        try:
            if kind == "ndarray":
                # mmap-backed, mirroring Metall's lazy paging.
                mode = "r+" if self._writable else "r"
                return np.load(fpath, mmap_mode=mode)
            if kind in ("npz", "ragged"):
                with np.load(fpath) as z:
                    arrays = {k: z[k] for k in z.files}
                if kind == "npz":
                    return arrays
                return np.split(arrays["values"], arrays["indptr"][1:-1])
            if kind == "json":
                return json.loads(fpath.read_bytes())
        except (ValueError, EOFError, OSError, KeyError) as exc:
            raise StoreCorruptError(
                f"object {name!r}: cannot parse {fpath}: {exc}") from exc
        raise StoreError(f"unknown object kind {kind!r} for {name!r}")

    @property
    def path(self) -> Path:
        return self._path

    @property
    def writable(self) -> bool:
        return self._writable


def _file_digest(path: Path) -> tuple:
    """``(sha256_hexdigest, size_in_bytes)`` of a file, streamed."""
    h = hashlib.sha256()
    nbytes = 0
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            nbytes += len(chunk)
    return h.hexdigest(), nbytes


_SUFFIX = {"ndarray": ".npy", "npz": ".npz", "ragged": ".npz",
           "json": ".json"}


def _kind_of(name: str, obj: Any) -> str:
    """The stored kind of ``obj`` (see the module docstring), or
    :class:`StoreError` for an object no data-only format holds."""
    def arrays(values) -> bool:
        return all(isinstance(v, np.ndarray) and not v.dtype.hasobject
                   for v in values)

    if isinstance(obj, np.ndarray) and arrays([obj]):
        return "ndarray"
    if isinstance(obj, dict) and obj and arrays(obj.values()):
        return "npz"
    if (isinstance(obj, list) and obj and arrays(obj)
            and all(v.ndim == 1 for v in obj)):
        return "ragged"
    try:
        json.dumps(obj)
    except (TypeError, ValueError) as exc:
        raise StoreError(
            f"object {name!r} ({type(obj).__name__}) cannot be stored: a "
            f"store holds arrays, dicts of arrays, lists of 1-D arrays "
            f"and JSON-serializable plain data ({exc})") from exc
    return "json"


def _validate_name(name: str) -> None:
    if not name or "/" in name or "\\" in name or name.startswith("."):
        raise StoreError(f"invalid object name {name!r}")
