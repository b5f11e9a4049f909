"""Named-block text serialization for model parameters.

A file is a sequence of blocks.  Each block starts with a header line
``name: d1 [d2 ...]`` giving the array shape, followed by the values in
row-major order: vectors on one line, higher-rank arrays one line per
leading index.  Lines starting with ``#`` and blank lines outside a block
are skipped; any other line that is not a header is a ``DataFormatError``.

Numbers are written by :func:`write_rows` in :data:`FLOAT_FORMAT` (17
significant digits, so doubles round-trip exactly) and each block's lines
are parsed by one ``np.loadtxt`` call; a truncated block, a wrong value
count or a bad value is a ``DataFormatError``.
"""

import warnings
from pathlib import Path

import numpy as np

from .errors import DataFormatError


# The one number format of every text file the package writes: 17
# significant digits, so doubles round-trip exactly.
FLOAT_FORMAT = "%.17g"


def read_ascii(path) -> str:
    """The text of an ASCII file; a non-ASCII byte is a DataFormatError."""
    try:
        return Path(path).read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def load_matrix(source, context: str, **kwargs) -> np.ndarray:
    """``np.loadtxt(source, comments=None, ndmin=2, **kwargs)``.

    Its ``ValueError`` (a ragged row, a bad value, a non-ASCII byte) is
    re-raised as a ``DataFormatError`` prefixed with ``context``; input
    without data gives an empty array, without loadtxt's warning.
    """
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(source, comments=None, ndmin=2, **kwargs)
    except ValueError as exc:
        raise DataFormatError(f"{context}: {exc}") from None


def write_rows(fh, rows, delimiter: str) -> int:
    """Write the 2-D float64 array rows to the text file fh, one line of
    FLOAT_FORMAT values per row: the bytes of ``np.savetxt(fh, rows,
    fmt=FLOAT_FORMAT, delimiter=delimiter)``. Returns the characters
    written."""
    line = delimiter.join([FLOAT_FORMAT] * rows.shape[1]) + "\n"
    return sum(fh.write(line % tuple(row.tolist())) for row in rows)


def write_blocks(path, blocks: dict):
    with open(path, "w", encoding="ascii") as fh:
        for name, array in blocks.items():
            arr = np.asarray(array, dtype=np.float64)
            shape = arr.shape if arr.ndim > 0 else (1,)
            fh.write(f"{name}: " + " ".join(str(d) for d in shape) + "\n")
            rows = arr.reshape(shape[0], -1) if arr.ndim > 1 else arr.reshape(1, -1)
            write_rows(fh, rows, " ")


def read_blocks(path):
    """Parse a block file; returns a dict of name -> ndarray.

    ``#`` lines and blank lines between blocks are skipped; any other
    line that is not a block header is a DataFormatError.
    """
    lines = read_ascii(path).splitlines()
    blocks = {}
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if line == "" or line.startswith("#"):
            i += 1
            continue
        header = _try_parse_header(line)
        if header is None:
            raise DataFormatError(f"malformed block header at line {i + 1}: {line!r}")
        name, shape = header
        n_lines = shape[0] if len(shape) > 1 else 1
        per_line = int(np.prod(shape[1:], dtype=np.int64)) if len(shape) > 1 else shape[0]
        i += 1
        if i + n_lines > len(lines):
            raise DataFormatError(f"block {name!r} truncated in {path}")
        values = load_matrix(lines[i:i + n_lines],
                             f"block {name!r} at line {i + 1}")
        if values.shape != (n_lines, per_line):
            raise DataFormatError(
                f"block {name!r}: expected {n_lines} lines of {per_line} values "
                f"from line {i + 1}, got shape {values.shape}"
            )
        blocks[name] = values.reshape(shape)
        i += n_lines
    return blocks


def _try_parse_header(line):
    if ":" not in line:
        return None
    name, _, rest = line.partition(":")
    toks = rest.split()
    if not toks:
        return None
    try:
        shape = tuple(int(t) for t in toks)
    except ValueError:
        return None
    if any(d < 1 for d in shape):
        return None
    return name.strip(), shape
