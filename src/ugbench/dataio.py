"""LIBSVM-format parsing/serialization and synthetic problem generation."""

import io
import math
import re
from dataclasses import dataclass

import numpy as np


class LibsvmParseError(ValueError):
    """Malformed LIBSVM input; message names the offending line/column."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # dense m x n
    labels: np.ndarray    # m reals
    source: str = ""

    @property
    def m(self):
        return self.features.shape[0]

    @property
    def n(self):
        return self.features.shape[1]


def _plain(token):
    """No non-ASCII, "_" or control character, which int and float read or
    strip but a LIBSVM token does not have."""
    return token.isascii() and token.isprintable() and "_" not in token


def parse_libsvm(stream, classification=False, source=""):
    """Parse LIBSVM text: `<label> <idx>:<val> ...` with 1-based indices.

    Tokens are separated by spaces and tabs; any other character, other
    whitespace too, is part of its token.  Indices must be strictly
    increasing within a row; n is the max index seen and must be >= 1;
    missing entries are zero; labels and values must be finite.  Each
    token is checked as it is read, so the first bad one in file order is
    reported.  With classification=True, {0, 1} labels are remapped to
    {-1, +1}, and any other label outside {-1, +1} is an error.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    linenos, labels, rows, cols, vals = [], [], [], [], []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip(" \t\r\n")
        if not line:
            continue
        # str.split also splits at non-ASCII whitespace and at the ASCII
        # whitespace below; only a line with either, or "_", checks tokens
        odd = (not line.isascii() or "_" in line or "\r" in line
               or "\v" in line or "\f" in line or "\x1c" in line
               or "\x1d" in line or "\x1e" in line or "\x1f" in line)
        label, *tokens = re.split("[ \t]+", line) if odd else line.split()
        try:
            if odd and not _plain(label):
                raise ValueError
            y = float(label)
        except ValueError:
            raise LibsvmParseError(f"non-numeric label {label!r}", lineno, 1) from None
        if not math.isfinite(y):
            raise LibsvmParseError(f"non-finite label {y}", lineno, 1)
        i, prev_index = len(labels), 0
        for col, tok in enumerate(tokens, start=2):
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise LibsvmParseError(f"expected <index>:<value>, got {tok!r}",
                                       lineno, col)
            try:
                if odd and not _plain(tok):
                    raise ValueError
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise LibsvmParseError(f"non-numeric token {tok!r}",
                                       lineno, col) from None
            if idx <= 0:
                raise LibsvmParseError(f"index must be >= 1, got {idx}", lineno, col)
            if idx <= prev_index:
                raise LibsvmParseError(f"indices must be strictly increasing, got "
                                       f"{idx} after {prev_index}", lineno, col)
            if not math.isfinite(val):
                raise LibsvmParseError(f"non-finite value {val}", lineno, col)
            prev_index = idx
            rows.append(i)
            cols.append(idx - 1)
            vals.append(val)
        linenos.append(lineno)
        labels.append(y)
    if not labels:
        raise LibsvmParseError("no records")
    if not cols:
        raise LibsvmParseError("no features: every record has only a label")
    m, n = len(labels), max(cols) + 1
    try:
        features = np.zeros((m, n))
    except (MemoryError, ValueError):  # numpy's "too big" is a ValueError
        raise LibsvmParseError(
            f"cannot allocate the {m} x {n} feature matrix") from None
    features[rows, cols] = vals
    labels = np.asarray(labels)
    if classification:
        if set(np.unique(labels)) <= {0.0, 1.0}:
            labels = 2.0 * labels - 1.0
        outside = np.abs(labels) != 1.0
        if outside.any():
            i = int(np.argmax(outside))
            raise LibsvmParseError(
                "classification labels must be -1/+1 or all 0/1, got "
                f"{float(labels[i])!r}", line=linenos[i], column=1)
    return Dataset(features=features, labels=labels, source=source)


def serialize_libsvm(dataset):
    """Write a Dataset back to LIBSVM text (zeros omitted), one row at a time.

    Each value is repr(float(v)) of an item of the row's Python list, so
    integer data print as floats (`1:1.0`)."""
    return "\n".join(
        " ".join([repr(float(y)), *(f"{j}:{float(v)!r}"
                                    for j, v in enumerate(row.tolist(), 1) if v)])
        for y, row in zip(dataset.labels.tolist(), dataset.features, strict=True)
    ) + "\n"


def synth_least_squares(m, n, seed):
    """Synthetic interpolation instance: b = A x* with x* on the unit sphere.

    A has i.i.d. Uniform[0, 1] entries; the ball-constrained least-squares
    problem then has F* = 0 at the feasible point x*.
    Returns (Dataset, x_star).
    """
    if m < 1 or n < 1:
        raise ValueError(f"m, n must be >= 1, got {m}, {n}")
    rng = np.random.Generator(np.random.Philox(seed))
    x_star = rng.standard_normal(n)
    x_star /= np.linalg.norm(x_star)
    A = rng.random((m, n))
    b = A @ x_star
    ds = Dataset(features=A, labels=b, source=f"synthetic:ls:{m}x{n}:{seed}")
    return ds, x_star
