"""Binary field dumps with JSON sidecars, plus the CSV writer.

Layout: flat little-endian float64, time-major C order, one ``.bin`` per
field with a ``.json`` sidecar carrying {N, T, seed, layout}. CSV is for
diagnostic tables; formatting uses %.17g so identical inputs reproduce
identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

__all__ = ["write_field", "read_field", "write_csv", "sha256_file"]


def write_field(directory: str, name: str, values: np.ndarray, meta: dict) -> list[str]:
    """Write name.bin + name.json under directory; returns the file names."""
    os.makedirs(directory, exist_ok=True)
    bin_name = f"{name}.bin"
    json_name = f"{name}.json"
    arr = np.ascontiguousarray(values, dtype="<f8")
    with open(os.path.join(directory, bin_name), "wb") as fh:
        fh.write(arr.tobytes(order="C"))
    sidecar = dict(meta)
    sidecar.setdefault("layout", "time-major")
    sidecar["shape"] = list(arr.shape)
    sidecar["dtype"] = "<f8"
    with open(os.path.join(directory, json_name), "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return [bin_name, json_name]


def read_field(directory: str, name: str) -> tuple[np.ndarray, dict]:
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
