"""Results store of the ensemble service, keyed by job config hash.

Layout (one directory per configuration identity)::

    <root>/<config_hash>/result.json      # terminal result document
    <root>/<config_hash>/checkpoint.npz   # last atomic mid-run checkpoint
    <root>/<config_hash>/job.json         # wire spec of the last launch
    <root>/<config_hash>/attempt_NN.log   # worker stderr per attempt
    <root>/<config_hash>/fault_*.fired    # one-shot fault sentinels

Two contracts:

* **Cache hits are bit-exact.**  The determinism contract (serial ==
  parallel for any worker count, resumed == uninterrupted) means a stored
  result *is* the result of recomputing -- so :meth:`ResultStore.get`
  short-circuits identical :class:`~repro.serve.jobs.JobSpec` submissions
  without recompute, and :func:`state_digest` gives tests the handle to
  prove it (sha256 over every array of the checkpoint serialization).

* **Writes are atomic, reads are validated.**  ``result.json`` follows
  the PR-3 checkpoint protocol (same-directory temp file, fsync,
  ``os.replace``); an unreadable or schema-less file is treated as a
  cache miss and removed, never propagated.  Lookups create nothing: a
  miss leaves the store as it found it.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

__all__ = ["RESULT_SCHEMA", "ResultStore", "state_digest"]

#: schema tag of every stored result document; bump on breaking change
RESULT_SCHEMA = "repro.serve.result/1"


def state_digest(sim) -> str:
    """sha256 (hex, 32 chars) over the full evolving state of ``sim``.

    Hashes every array of :func:`repro.sim.checkpoint.state_dict` in
    sorted key order (dtype and shape included, so a reshaped array never
    collides with its flat twin).  Because ``state_dict`` is the single
    source of truth for checkpoints *and* rollback snapshots, digest
    equality is exactly the "bit-identical state" the resume and cache
    contracts promise.
    """
    from ..sim.checkpoint import state_dict

    h = hashlib.sha256()
    data = state_dict(sim)
    for key in sorted(data):
        arr = np.asarray(data[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:32]


def _atomic_write_json(path: str, doc: dict) -> None:
    tmp = path + f".tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class ResultStore:
    """Content-addressed result + checkpoint store under one root dir."""

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    # -- paths --------------------------------------------------------- #
    def job_dir(self, config_hash: str, create: bool = True) -> str:
        path = os.path.join(self.root, str(config_hash))
        if create:
            os.makedirs(path, exist_ok=True)
        return path

    def result_path(self, config_hash: str, create: bool = True) -> str:
        return os.path.join(self.job_dir(config_hash, create), "result.json")

    def checkpoint_path(self, config_hash: str, create: bool = True) -> str:
        return os.path.join(self.job_dir(config_hash, create),
                            "checkpoint.npz")

    # -- results ------------------------------------------------------- #
    def get(self, config_hash: str) -> dict | None:
        """The stored result document, or ``None`` on miss/corruption.

        A result that cannot be parsed or carries the wrong schema tag is
        removed and reported as a miss -- a poisoned cache entry must
        cause one recompute, not an error in every later battery.
        """
        path = self.result_path(config_hash, create=False)
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._discard(path)
            return None
        if not isinstance(doc, dict) or doc.get("schema") != RESULT_SCHEMA:
            self._discard(path)
            return None
        return doc

    def put(self, config_hash: str, result: dict) -> str:
        """Atomically store ``result`` (stamping the schema tag); returns
        the path written."""
        doc = dict(result)
        doc["schema"] = RESULT_SCHEMA
        path = self.result_path(config_hash)
        _atomic_write_json(path, doc)
        return path

    # -- checkpoints --------------------------------------------------- #
    def has_checkpoint(self, config_hash: str) -> bool:
        return os.path.exists(self.checkpoint_path(config_hash, create=False))

    def clear_checkpoint(self, config_hash: str) -> None:
        """Drop the mid-run checkpoint (called once a job is DONE)."""
        self._discard(self.checkpoint_path(config_hash, create=False))

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass
