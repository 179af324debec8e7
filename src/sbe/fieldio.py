"""Binary field dumps with JSON sidecars, plus the CSV writer.

Layout: flat little-endian float64, time-major C order, one ``.bin`` per
field with a ``.json`` sidecar carrying {N, T, seed, layout}. Every JSON
file, sidecars included, goes through ``write_json``. CSV is for diagnostic
tables; formatting uses %.17g so identical inputs reproduce identical
bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

__all__ = ["write_field", "read_field", "write_json", "write_csv", "sha256_file"]


def write_json(directory: str, name: str, obj) -> str:
    """Write obj to directory/name (sorted keys, indent 1, final newline); returns name."""
    with open(os.path.join(directory, name), "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return name


def write_field(directory: str, name: str, values: np.ndarray, meta: dict) -> list[str]:
    """Write name.bin + name.json under directory; returns the file names."""
    os.makedirs(directory, exist_ok=True)
    bin_name = f"{name}.bin"
    arr = np.ascontiguousarray(values, dtype="<f8")
    with open(os.path.join(directory, bin_name), "wb") as fh:
        fh.write(memoryview(arr))  # the array's own buffer: no field-sized copy
    sidecar = dict(meta)
    sidecar.setdefault("layout", "time-major")
    sidecar["shape"] = list(arr.shape)
    sidecar["dtype"] = "<f8"
    return [bin_name, write_json(directory, f"{name}.json", sidecar)]


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
