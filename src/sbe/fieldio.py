"""Binary field dumps with JSON sidecars, plus the CSV writer.

Layout: flat little-endian float64, time-major C order, one ``.bin`` per
field with a ``.json`` sidecar carrying {N, T, seed, layout}. A field too
long to hold is appended a block of rows at a time, and its sidecar is
written last. Every JSON file, sidecars included, goes through
``write_json``. CSV is for diagnostic tables; formatting uses %.17g so
identical inputs reproduce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

__all__ = ["write_field", "FieldAppender", "read_field", "write_json", "write_csv", "sha256_file"]


def write_json(directory: str, name: str, obj) -> str:
    """Write obj to directory/name (sorted keys, indent 1, final newline); returns name."""
    with open(os.path.join(directory, name), "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return name


def write_field(directory: str, name: str, values: np.ndarray, meta: dict) -> list[str]:
    """Write name.bin + name.json under directory; returns the file names."""
    writer = FieldAppender(directory, name, meta)
    writer.append(values)
    return writer.close()


class FieldAppender:
    """The files of ``write_field``, written a block of rows at a time.

    Each ``append`` adds rows to name.bin in time order; ``close`` writes the
    name.json sidecar last, with the shape of all the rows appended, and
    returns the file names. The files are those ``write_field`` writes for
    the rows stacked in order. No file stays open between calls.
    """

    def __init__(self, directory: str, name: str, meta: dict):
        os.makedirs(directory, exist_ok=True)
        self.directory, self.name, self.meta = directory, name, meta
        self.path = os.path.join(directory, f"{name}.bin")
        self.shape = None
        open(self.path, "wb").close()

    def append(self, rows: np.ndarray) -> None:
        arr = np.ascontiguousarray(rows, dtype="<f8")
        if self.shape is None:
            self.shape = [0, *arr.shape[1:]]
        elif list(arr.shape[1:]) != self.shape[1:]:
            raise ValueError(f"rows of shape {arr.shape[1:]} appended to a field of rows {tuple(self.shape[1:])}")
        with open(self.path, "ab") as fh:
            fh.write(memoryview(arr))  # the array's own buffer: no copy
        self.shape[0] += arr.shape[0]

    def close(self) -> list[str]:
        sidecar = dict(self.meta)
        sidecar.setdefault("layout", "time-major")
        sidecar["shape"] = self.shape
        sidecar["dtype"] = "<f8"
        return [f"{self.name}.bin", write_json(self.directory, f"{self.name}.json", sidecar)]


def read_field(directory: str, name: str) -> tuple[np.ndarray, dict]:
    """The field and sidecar that ``write_field`` wrote; kept with no library caller as the format's one reader."""
    with open(os.path.join(directory, f"{name}.json")) as fh:
        meta = json.load(fh)
    raw = np.fromfile(os.path.join(directory, f"{name}.bin"), dtype="<f8")
    return raw.reshape(meta["shape"]), meta


def write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(c) for c in row])


def _format_cell(c):
    if isinstance(c, float):
        return f"{c:.17g}"
    if isinstance(c, (np.floating,)):
        return f"{float(c):.17g}"
    if isinstance(c, (np.integer,)):
        return str(int(c))
    return c


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
