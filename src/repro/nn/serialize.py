"""Model checkpointing: save/load Module parameters as ``.npz`` archives.

The autograd engine stores parameters as plain numpy arrays, so a
checkpoint is just a compressed npz of the state dict plus a small JSON
header describing the architecture for sanity checks at load time.

Durability (via :mod:`repro.store` primitives):

* **Atomic save** — the archive is built in memory, framed with the
  store's ``RPRBLOB1`` checksum footer and lands on disk in one
  tmp + fsync + rename, so a crash mid-save leaves the previous
  checkpoint intact, never a torn or unverifiable file.
* **Verified read** — a missing or mismatched footer raises a
  :class:`CheckpointError` with ``corrupt=True`` (the signal
  :mod:`repro.serve.registry` uses to quarantine).
* **Transient-read retry** — ``EIO``-class errors during the read are
  retried with bounded backoff before surfacing.
"""

from __future__ import annotations

import io
import json
import os
import zipfile

import numpy as np

from ..store.blobs import (BlobCorruptError, atomic_write_bytes,
                           frame_blob, read_bytes, unframe_blob)
from ..testing.faults import current_injector
from .layers import Module

__all__ = ["save_checkpoint", "load_checkpoint", "read_checkpoint",
           "read_checkpoint_header", "CheckpointError"]

_HEADER_KEY = "__repro_header__"


class CheckpointError(RuntimeError):
    """Raised when a checkpoint is malformed or mismatches the model.

    ``corrupt`` is True when the *bytes* are damaged (checksum mismatch,
    torn zip, mangled header) as opposed to absent files or healthy
    files of an unknown format — callers use it to decide whether the
    file deserves quarantine.
    """

    def __init__(self, message: str, *, corrupt: bool = False):
        super().__init__(message)
        self.corrupt = corrupt


def save_checkpoint(model: Module, path: str,
                    metadata: dict | None = None) -> str:
    """Write ``model``'s parameters (and optional metadata) to ``path``.

    The file is a standard ``.npz``; parameter names become array keys
    (dots replaced since npz keys allow them as-is) and a JSON header
    records parameter count and user metadata.  The archive carries the
    store's checksum footer and the write is atomic (tmp + fsync +
    rename), so an interrupted save never destroys the previous
    checkpoint.
    """
    state = model.state_dict()
    header = {
        "format": "repro-checkpoint-v1",
        "num_parameters": int(model.num_parameters()),
        "parameter_names": sorted(state),
        "metadata": metadata or {},
    }
    payload = dict(state)
    payload[_HEADER_KEY] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8)
    # np.savez_compressed appends ``.npz`` only to *str* paths; writing
    # to a buffer keeps the name ours and makes the disk write atomic.
    final = path if path.endswith(".npz") else path + ".npz"
    buf = io.BytesIO()
    np.savez_compressed(buf, **payload)
    directory = os.path.dirname(os.path.abspath(final))
    os.makedirs(directory, exist_ok=True)
    atomic_write_bytes(final, frame_blob(buf.getvalue()),
                       faults=current_injector(), point="checkpoint.write")
    return final


def _resolve_path(path: str) -> str:
    if not os.path.exists(path) and os.path.exists(path + ".npz"):
        return path + ".npz"
    return path


def _read_archive(path: str,
                  with_state: bool = True) -> tuple[dict, dict | None]:
    """Read ``(header, state)`` from ``path``.

    ``with_state=False`` skips materialising the parameter arrays — the
    cheap path for metadata-only readers like
    :func:`read_checkpoint_header`.  Corrupt, truncated or non-npz files
    surface as :class:`CheckpointError` with ``corrupt=True`` (numpy
    raises a zoo of ``BadZipFile`` / ``OSError`` / ``ValueError``
    depending on *how* the bytes are wrong); transient I/O errors are
    retried with backoff before giving up.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"{path}: no such checkpoint")
    try:
        data = read_bytes(path, faults=current_injector(),
                          point="checkpoint.read")
    except OSError as exc:
        raise CheckpointError(
            f"{path}: unreadable checkpoint ({exc})") from exc
    try:
        with np.load(io.BytesIO(unframe_blob(data))) as archive:
            if _HEADER_KEY not in archive:
                raise CheckpointError(f"{path}: not a repro checkpoint")
            header = json.loads(
                bytes(archive[_HEADER_KEY].tobytes()).decode())
            state = ({k: archive[k] for k in archive.files
                      if k != _HEADER_KEY} if with_state else None)
    except (BlobCorruptError, zipfile.BadZipFile, OSError, ValueError,
            EOFError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            f"{path}: unreadable checkpoint ({exc})",
            corrupt=True) from exc
    if header.get("format") != "repro-checkpoint-v1":
        raise CheckpointError(f"{path}: unknown format "
                              f"{header.get('format')!r}")
    return header, state


def read_checkpoint(path: str) -> tuple[dict, dict]:
    """Read a checkpoint's ``(header, state)`` in one verified read.

    For callers that build the model from the header before loading the
    state (:func:`repro.serve.registry.restore_model`): architecture and
    weights then come from the same bytes even if the file is replaced
    concurrently.
    """
    return _read_archive(_resolve_path(path))


def read_checkpoint_header(path: str) -> dict:
    """Return the JSON header of a checkpoint without needing a model.

    The header carries ``format``, ``num_parameters``,
    ``parameter_names`` and ``metadata`` (where
    :func:`repro.serve.registry.save_model` records the typed
    architecture description).  Raises :class:`CheckpointError` on any
    malformed file.
    """
    header, _ = _read_archive(_resolve_path(path), with_state=False)
    return header


def load_checkpoint(model: Module, path: str) -> dict:
    """Load parameters from ``path`` into ``model``; returns the metadata.

    Raises :class:`CheckpointError` on an unreadable file, missing
    header, parameter-name mismatch or shape mismatch (the latter two
    delegated to ``load_state_dict``).
    """
    path = _resolve_path(path)
    header, state = _read_archive(path)
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return header.get("metadata", {})
