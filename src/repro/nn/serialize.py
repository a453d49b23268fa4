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

__all__ = ["save_checkpoint", "read_checkpoint", "CheckpointError"]

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


def _read_archive(path: str) -> tuple[dict, dict]:
    """Read ``(header, state)`` from ``path``.

    Corrupt, truncated or non-npz files surface as
    :class:`CheckpointError` with ``corrupt=True`` (numpy raises a zoo of
    ``BadZipFile`` / ``OSError`` / ``ValueError`` depending on *how* the
    bytes are wrong); transient I/O errors are retried with backoff
    before giving up.
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
            state = {k: archive[k] for k in archive.files
                     if k != _HEADER_KEY}
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

    The one read path: ``path`` may omit the ``.npz`` suffix.  The header
    carries ``format``, ``num_parameters``, ``parameter_names`` and
    ``metadata``; ``state`` feeds :meth:`Module.load_state_dict`.
    :func:`repro.serve.registry.restore_model` builds the model from the
    header's architecture first, so architecture and weights come from
    the same bytes even if the file is replaced concurrently.  Raises
    :class:`CheckpointError` on any missing or malformed file.
    """
    return _read_archive(_resolve_path(path))
