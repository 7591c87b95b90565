"""LIBSVM-format parsing/serialization and synthetic problem generation."""

import io
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


def parse_libsvm(stream, classification=False, source=""):
    """Parse LIBSVM text: `<label> <idx>:<val> ...` with 1-based indices.

    Indices must be strictly increasing within a row; n is the max index
    seen and must be >= 1; missing entries are zero; labels and values must
    be finite.  With classification=True, {0, 1} labels are remapped to
    {-1, +1}, and any other label outside {-1, +1} is an error.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    rows = {}  # line number -> {index: value}
    labels = []
    max_index = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise LibsvmParseError(
                f"non-numeric label {tokens[0]!r}", line=lineno, column=1
            ) from None
        row = {}
        prev_index = 0
        for col, tok in enumerate(tokens[1:], start=2):
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise LibsvmParseError(
                    f"expected <index>:<value>, got {tok!r}",
                    line=lineno, column=col,
                )
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise LibsvmParseError(
                    f"non-numeric token {tok!r}", line=lineno, column=col
                ) from None
            if idx <= 0:
                raise LibsvmParseError(
                    f"index must be >= 1, got {idx}", line=lineno, column=col
                )
            if idx <= prev_index:
                raise LibsvmParseError(
                    f"indices must be strictly increasing, got {idx} after "
                    f"{prev_index}", line=lineno, column=col,
                )
            prev_index = idx
            row[idx] = val
            max_index = max(max_index, idx)
        rows[lineno] = row
    if not rows:
        raise LibsvmParseError("no records")
    if max_index == 0:
        raise LibsvmParseError("no features: every record has only a label")
    try:
        features = np.zeros((len(rows), max_index))
    except (MemoryError, ValueError):  # numpy's "too big" is a ValueError
        raise LibsvmParseError(f"cannot allocate the {len(rows)} x "
                               f"{max_index} feature matrix") from None
    for i, row in enumerate(rows.values()):
        for idx, val in row.items():
            features[i, idx - 1] = val
    labels = np.asarray(labels)
    # one vectorised check; the offending token is looked up only on failure
    finite_rows = np.isfinite(labels) & np.isfinite(features).all(axis=1)
    if not finite_rows.all():
        i = int(np.argmin(finite_rows))
        lineno = list(rows)[i]
        tokens = [labels[i], *rows[lineno].values()]
        col = next(c for c, v in enumerate(tokens, start=1) if not np.isfinite(v))
        raise LibsvmParseError(
            f"non-finite {'label' if col == 1 else 'value'} {tokens[col - 1]}",
            line=lineno, column=col)
    if classification:
        if set(np.unique(labels)) <= {0.0, 1.0}:
            labels = 2.0 * labels - 1.0
        outside = np.abs(labels) != 1.0
        if outside.any():
            i = int(np.argmax(outside))
            raise LibsvmParseError(
                "classification labels must be -1/+1 or all 0/1, got "
                f"{float(labels[i])!r}", line=list(rows)[i], column=1)
    return Dataset(features=features, labels=labels, source=source)


def serialize_libsvm(dataset):
    """Write a Dataset back to LIBSVM text (zeros omitted)."""
    lines = []
    for i in range(dataset.m):
        parts = [repr(float(dataset.labels[i]))]
        row = dataset.features[i]
        for j in np.nonzero(row)[0]:
            parts.append(f"{j + 1}:{float(row[j])!r}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


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
