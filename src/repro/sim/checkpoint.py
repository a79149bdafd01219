"""Simulation checkpointing: save/restore the full time-loop state.

Long-term lithospheric runs take 1500-2000 steps (SS V); production codes
checkpoint.  The state written here is everything the time loop evolves:
mesh coordinates (ALE), velocity/pressure, temperature, simulation clock,
and the complete material point set including extra history fields.
Static configuration (materials, boundary conditions, solver settings) is
code, not state, and is reconstructed by the caller.

Robustness contract (resilience layer):

* **Atomic saves** -- the archive is written to a temporary file in the
  *same directory* (same filesystem, so the final rename cannot cross a
  mount), flushed and fsynced, then moved into place with
  :func:`os.replace`.  A crash mid-write leaves the previous checkpoint
  intact; readers never observe a half-written file under the final name.
* **Validated loads** -- :func:`load_checkpoint` materializes and
  validates the *entire* payload before mutating ``sim``: ``np.load`` is
  lazy and a truncated zip member only fails when accessed, so a naive
  field-by-field restore can corrupt half the state and then raise.  A
  truncated/unreadable file raises :class:`ValueError` with ``sim``
  untouched.
* The same ``state_dict`` / ``restore_state`` pair backs the time loop's
  in-memory rollback snapshots, so file and memory restore paths cannot
  drift apart.
"""

from __future__ import annotations

import os
import zipfile
import zlib

import numpy as np

from ..mpm.points import MaterialPoints

FORMAT_VERSION = 1

#: every key a valid checkpoint must carry (``point_field_*`` are extra)
REQUIRED_KEYS = (
    "format_version",
    "mesh_shape",
    "mesh_coords",
    "u",
    "p",
    "T",
    "T_is_none",
    "time",
    "step_index",
    "points_x",
    "points_lithology",
    "points_plastic_strain",
    "points_el",
    "points_xi",
    "dt_scale",
    "clean_steps",
)

#: keys older archives may omit, with their fallback (``T_is_none``
#: predates PR 3's flag; ``dt_scale``/``clean_steps`` predate the
#: ensemble service's checkpoint-backed resume, which must restore the
#: rollback engine's dt back-off so a resumed resilient run evolves
#: bit-identically to an uninterrupted one)
_OPTIONAL_DEFAULTS = {"T_is_none": None, "dt_scale": None, "clean_steps": None}


def state_dict(sim) -> dict:
    """The evolving state of a :class:`repro.sim.Simulation` as arrays.

    The single source of truth for both file checkpoints and the time
    loop's in-memory rollback snapshots.  All arrays are copies -- the
    snapshot stays valid while the simulation keeps evolving.

    ``T is None`` (no energy solve) is distinguishable from a legitimately
    empty temperature array via the explicit ``T_is_none`` flag; the old
    ``T.size == 0`` convention collapsed the two and made the round-trip
    lossy.
    """
    pts = sim.points
    data = {
        "format_version": np.int64(FORMAT_VERSION),
        "mesh_shape": np.array(sim.mesh.shape),
        "mesh_coords": sim.mesh.coords.copy(),
        "u": sim.u.copy(),
        "p": sim.p.copy(),
        "T": np.array([]) if sim.T is None else sim.T.copy(),
        "T_is_none": np.bool_(sim.T is None),
        "time": np.float64(sim.time),
        "step_index": np.int64(sim.step_index),
        "dt_scale": np.float64(getattr(sim, "_dt_scale", 1.0)),
        "clean_steps": np.int64(getattr(sim, "_clean_steps", 0)),
        "points_x": pts.x.copy(),
        "points_lithology": pts.lithology.copy(),
        "points_plastic_strain": pts.plastic_strain.copy(),
        "points_el": pts.el.copy(),
        "points_xi": pts.xi.copy(),
    }
    for k in pts.field_names:
        data[f"point_field_{k}"] = pts.field(k).copy()
    return data


def _validate(data: dict, sim) -> None:
    """Check a materialized payload against ``sim`` before any mutation."""
    for key in REQUIRED_KEYS:
        if key not in data and key not in _OPTIONAL_DEFAULTS:
            raise ValueError(f"checkpoint missing required key {key!r}")
    version = int(data["format_version"])
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    shape = tuple(int(s) for s in data["mesh_shape"])
    if shape != sim.mesh.shape:
        raise ValueError(
            f"checkpoint mesh shape {shape} != simulation mesh {sim.mesh.shape}"
        )
    for key, ref in (("u", sim.u), ("p", sim.p)):
        if data[key].shape != ref.shape:
            raise ValueError(
                f"checkpoint field {key!r} has shape {data[key].shape}, "
                f"expected {ref.shape}"
            )


def restore_state(sim, data: dict) -> None:
    """Install a validated :func:`state_dict` payload into ``sim``.

    Used by both :func:`load_checkpoint` and the time loop's rollback;
    callers must pass a fully materialized dict (no lazy npz handles).
    """
    _validate(data, sim)
    sim.mesh.set_coords(np.array(data["mesh_coords"]))
    sim.u = np.array(data["u"])
    sim.p = np.array(data["p"])
    T_is_none = data.get("T_is_none")
    if T_is_none is None:
        # pre-flag archive: fall back to the old (lossy) size convention
        T_is_none = data["T"].size == 0
    sim.T = None if bool(T_is_none) else np.array(data["T"])
    sim.time = float(data["time"])
    sim.step_index = int(data["step_index"])
    # rollback-engine state: absent in pre-serve archives, whose runs did
    # not rely on resume being bit-faithful to the dt back-off
    if data.get("dt_scale") is not None:
        sim._dt_scale = float(data["dt_scale"])
    if data.get("clean_steps") is not None:
        sim._clean_steps = int(data["clean_steps"])
    pts = MaterialPoints(np.array(data["points_x"]),
                         np.array(data["points_lithology"]))
    pts.plastic_strain = np.array(data["points_plastic_strain"])
    pts.el = np.array(data["points_el"])
    pts.xi = np.array(data["points_xi"])
    for key in data:
        if key.startswith("point_field_"):
            pts.add_field(key[len("point_field_"):], np.array(data[key]))
    sim.points = pts
    if sim.energy is not None:
        sim.energy.mesh.set_coords(
            sim.mesh.coords[sim.mesh.corner_node_lattice()]
        )


def save_state(path: str, data: dict) -> str:
    """Atomically write a :func:`state_dict`-shaped payload to ``path``.

    ``numpy`` appends ``.npz`` when the name lacks it; the temp-file dance
    resolves the final name first so the rename target is exact.  Returns
    the final path.  Split out of :func:`save_checkpoint` so callers
    holding a pre-captured snapshot (the serve worker's graceful-shutdown
    flush writes its *last committed* state, never the mid-step one) get
    the same atomicity guarantees.
    """
    final = path if path.endswith(".npz") else path + ".npz"
    tmp = final + f".tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return final


def save_checkpoint(path: str, sim) -> None:
    """Atomically write the evolving state of a simulation to ``path``."""
    save_state(path, state_dict(sim))


def cohort_checkpoint(path: str, sim, comm=None) -> str:
    """Checkpoint at a **collective-consistent** point of a distributed run.

    Recovery after a rank failure (:mod:`repro.parallel.procomm`) kills
    the whole cohort, so any message still sitting in a rank mailbox at
    checkpoint time would be silently lost on resume.  This wrapper
    therefore (1) runs a barrier -- every rank alive and caught up, which
    also *detects* an already-dead rank before a useless write -- and
    (2) refuses to write while messages are undelivered.  Returns the
    final path.  With no communicator it degrades to a plain
    :func:`save_checkpoint`.
    """
    comm = comm if comm is not None else getattr(sim, "comm", None)
    if comm is not None:
        comm.barrier()
        n = comm.pending()
        if n:
            raise RuntimeError(
                f"refusing to checkpoint with {n} undelivered message(s) "
                "in rank mailboxes; drain point-to-point traffic first"
            )
    return save_state(path, state_dict(sim))


def load_checkpoint(path: str, sim) -> None:
    """Restore state written by :func:`save_checkpoint` into ``sim``.

    ``sim`` must have been constructed with the same mesh topology and
    materials; the stored shapes are validated.  The whole payload is read
    and checked *before* the first mutation, so a truncated or corrupt
    file raises :class:`ValueError` and leaves ``sim`` exactly as it was.
    """
    if not path.endswith(".npz") and not os.path.exists(path):
        path = path + ".npz"
    try:
        with np.load(path, allow_pickle=False) as handle:
            # materialize every member now: np.load is lazy and truncated
            # zip members raise only on access
            data = {key: np.array(handle[key]) for key in handle.files}
    except (OSError, ValueError, zipfile.BadZipFile, zlib.error, EOFError) as err:
        raise ValueError(
            f"checkpoint {path!r} is unreadable or truncated: {err}"
        ) from err
    restore_state(sim, data)
