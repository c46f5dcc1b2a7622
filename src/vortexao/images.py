"""Grayscale image helpers: 16-bit PGM io, bilinear resampling.

PGM files are written as binary P5 with maxval 65535, row-major,
big-endian sample order (the portable-graymap convention for two-byte
samples). Values round-trip to within one 16-bit quantum: a level L
stands for the float ``L / 65535``.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .errors import DomainError, PgmParseError

PGM_MAXVAL = 65535


def atomic_write_bytes(path, data: bytes) -> None:
    """Write a file via a temp sibling plus rename; never leaves partials."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def quantize_image(img: np.ndarray) -> np.ndarray:
    """The 16-bit levels ``rint(img * 65535)`` of a 2-d image with values in [0, 1]."""
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 2:
        raise DomainError(f"expected a 2-d image, got shape {img.shape}")
    if not (img.min() >= 0 and img.max() <= 1):  # also rejects NaN
        raise DomainError("image values must lie in [0, 1] for PGM export")
    return np.rint(img * PGM_MAXVAL).astype(np.uint16)


def pgm_bytes(levels: np.ndarray) -> bytes:
    """The bytes of a 16-bit binary PGM holding 2-d ``uint16`` levels."""
    if levels.dtype != np.uint16 or levels.ndim != 2:
        raise DomainError(f"expected 2-d uint16 levels, got {levels.dtype} {levels.shape}")
    h, w = levels.shape
    header = f"P5\n{w} {h}\n{PGM_MAXVAL}\n".encode("ascii")
    return header + levels.astype(">u2").tobytes()


def export_pgm(img: np.ndarray, path) -> None:
    """Write an image with values in [0, 1] as a 16-bit binary PGM."""
    atomic_write_bytes(path, pgm_bytes(quantize_image(img)))


def import_pgm(path) -> np.ndarray:
    """Read a 16-bit binary PGM back to a float image in [0, 1]."""
    with open(path, "rb") as fh:
        return parse_pgm(fh.read(), path) / PGM_MAXVAL


def parse_pgm(data: bytes, source) -> np.ndarray:
    """Parse the bytes of a 16-bit binary PGM to its ``uint16`` levels.

    ``source`` names the bytes' origin, usually the file path, in errors.
    """
    pos = 0

    def fail(msg):
        raise PgmParseError(f"{source}: {msg} at byte {pos}")

    # no nested function may refer to itself: that reference cycle would keep
    # ``data`` alive after the return until the cyclic garbage collector runs
    def skip_space():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":  # comment to end of line
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
            else:
                break

    def token():
        nonlocal pos
        skip_space()
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            fail("unexpected end of header")
        return data[start:pos]

    if token() != b"P5":
        fail("not a binary PGM (missing P5 magic)")
    try:
        w = int(token())
        h = int(token())
        maxval = int(token())
    except ValueError:
        fail("non-numeric header field")
    if maxval != PGM_MAXVAL:
        fail(f"unsupported maxval {maxval}, expected {PGM_MAXVAL}")
    if w < 1 or h < 1:
        fail(f"non-positive image size {w} x {h}")
    pos += 1  # single whitespace byte after maxval
    expected = w * h * 2
    if len(data) - pos < expected:
        fail(f"truncated pixel data, expected {expected} bytes")
    samples = np.frombuffer(data, dtype=">u2", count=w * h, offset=pos)
    return samples.reshape(h, w).astype(np.uint16)


def _bilinear_taps(shape, rows: np.ndarray, cols: np.ndarray):
    """``(rows, cols, row_weights, col_weights)`` of the four bilinear taps, stacked.

    Tap k reads ``v = values[rows[k], cols[k]]`` and weighs it
    ``(v * row_weights[k]) * col_weights[k]``; positions are clamped to the border.
    """
    n_r, n_c = shape
    rows = np.clip(rows, 0.0, n_r - 1.0)
    cols = np.clip(cols, 0.0, n_c - 1.0)
    r0 = np.floor(rows).astype(np.intp)
    c0 = np.floor(cols).astype(np.intp)
    r1 = np.minimum(r0 + 1, n_r - 1)
    c1 = np.minimum(c0 + 1, n_c - 1)
    fr = rows - r0
    fc = cols - c0
    taps = np.stack([r0, r1, r0, r1]), np.stack([c0, c0, c1, c1])
    return (*taps, np.stack([1 - fr, fr, 1 - fr, fr]), np.stack([1 - fc, 1 - fc, fc, fc]))


def bilinear_sample(values: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Sample an array at fractional (row, col) positions, bilinear weights.

    Positions are clamped to the array border; callers keep their sample
    points inside the grid.
    """
    tap_rows, tap_cols, row_w, col_w = _bilinear_taps(values.shape, rows, cols)
    t = values[tap_rows, tap_cols] * row_w * col_w
    return t[0] + t[1] + t[2] + t[3]


def resize_bilinear(img: np.ndarray, n_target: int) -> np.ndarray:
    """Separable bilinear resize of a square image, corners-aligned.

    Output sample i maps to input coordinate ``i * (n_in - 1) / (n_out - 1)``,
    so the four corners are reproduced exactly and a same-size resize is the
    identity.
    """
    img = np.asarray(img, dtype=np.float64)
    n_in = img.shape[0]
    if img.shape != (n_in, n_in):
        raise DomainError(f"expected a square image, got shape {img.shape}")
    if n_in < 8 or n_target < 8:
        raise DomainError("resize requires both sizes >= 8")
    if n_target == n_in:
        return img.copy()
    coord = np.arange(n_target) * (n_in - 1) / (n_target - 1)
    rows = np.repeat(coord, n_target).reshape(n_target, n_target)
    cols = np.tile(coord, n_target).reshape(n_target, n_target)
    return bilinear_sample(img, rows, cols)
