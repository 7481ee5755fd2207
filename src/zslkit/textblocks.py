"""The numeric columns of a text file, parsed a bounded block of lines at a
time by numpy's C reader.

The feature-CSV and word-vector loaders read their file once, in blocks
of lines. Each splits off a block's non-numeric columns in Python and
hands the rest here. A block this reader cannot vouch for comes back as
None, and the loader parses that block with its per-line loop, which
alone decides the result for such lines and raises every error.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, TextIO

import numpy as np

# Values per block. It bounds the text and the array a block holds, so a
# block's memory does not grow with the length of the file.
BLOCK_VALUES = 1 << 13


def line_blocks(fh: TextIO, width: int) -> Iterator[list[str]]:
    """Consecutive lines of ``fh`` in lists of about BLOCK_VALUES values.

    Text that cannot be decoded raises only after the lines decoded
    before it have been yielded, where a line-by-line reader of ``fh``
    would raise it.
    """
    size = max(1, BLOCK_VALUES // width)
    while True:
        lines: list[str] = []
        try:
            lines.extend(islice(fh, size))  # keeps the lines read before an error
        except UnicodeDecodeError:
            if lines:
                yield lines
            raise
        if not lines:
            return
        yield lines


def parse_block(texts: list[str], width: int, delimiter: str) -> np.ndarray | None:
    """One row of finite float64 values per text, each bit-identical to
    Python's ``float`` of its cell, or None if any text is rejected or the
    block is not (len(texts), width)."""
    if not any(text.strip() for text in texts):
        return None  # loadtxt would warn that it found no data
    # comments=None: a "#" is part of a value, which float() then rejects
    try:
        values = np.loadtxt(texts, delimiter=delimiter, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (len(texts), width) or not np.isfinite(values).all():
        return None
    return values
