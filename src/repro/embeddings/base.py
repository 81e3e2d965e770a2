"""Abstract encoder interfaces shared by every embedding model in the library."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

#: Row multiple every :func:`padded_matmul` block is zero-padded to.
GEMM_ROW_MULTIPLE = 16


@dataclass(frozen=True)
class EncoderInfo:
    """Descriptive metadata about an encoder (used in experiment reports)."""

    name: str
    dimension: int
    family: str
    is_finetuned: bool = False


class TupleEncoder(abc.ABC):
    """Maps a serialized tuple (a string) to a fixed-dimension embedding."""

    @property
    @abc.abstractmethod
    def info(self) -> EncoderInfo:
        """Metadata describing this encoder."""

    @property
    def dimension(self) -> int:
        """Output embedding dimensionality."""
        return self.info.dimension

    @abc.abstractmethod
    def encode_text(self, text: str) -> np.ndarray:
        """Encode a single serialized tuple into a 1-D float vector."""

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        """Encode a batch of serialized tuples into a ``(n, dim)`` matrix.

        This is the batch entry point of the pipeline's tuple stage, of the
        column encoders and of fine-tuning.  The default loops over
        :meth:`encode_text`; encoders with a cheaper batch path (shared token
        matrices, stacked GEMMs) override it.

        Contract: row ``i`` is bit-identical (``np.array_equal``) to
        ``encode_text(texts[i])``, whatever else is in the batch and wherever
        ``texts[i]`` sits in it.  A batch implementation therefore keeps every
        row's floating-point operations independent of its neighbours: per-row
        reductions instead of ``axis=1`` ones, and matrix products through
        :func:`padded_matmul`.
        """
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        return np.vstack([self.encode_text(text) for text in texts])


class ColumnEncoder(abc.ABC):
    """Maps the values of one column to a fixed-dimension embedding."""

    @property
    @abc.abstractmethod
    def info(self) -> EncoderInfo:
        """Metadata describing this encoder."""

    @property
    def dimension(self) -> int:
        """Output embedding dimensionality."""
        return self.info.dimension

    @abc.abstractmethod
    def encode_column(self, header: str, values: Sequence[Any]) -> np.ndarray:
        """Encode a column given its header and cell values."""


def l2_normalize(vector: np.ndarray, *, epsilon: float = 1e-12) -> np.ndarray:
    """Return ``vector`` scaled to unit L2 norm (zero vectors stay zero)."""
    norm = float(np.linalg.norm(vector))
    if norm < epsilon:
        return np.zeros_like(vector)
    return vector / norm


def padded_matmul(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``rows @ weights`` with ``rows`` zero-padded to a multiple of
    :data:`GEMM_ROW_MULTIPLE`.

    OpenBLAS's dgemm runs the last ``M % 4`` rows of a block through a tail
    microkernel (Haswell, Zen), whose bits can differ from the main kernel's.
    Unpadded, a row's output would then depend on which rows it was stacked
    with.  Padded to a multiple of 16 every row goes through the main kernel,
    so each output row depends only on its own input row.  Two other
    size-dependent OpenBLAS paths stay uncovered: SkylakeX's small-matrix
    kernel (``m * n * k <= 1e6``) and a two-thread split of an output width
    that is not a multiple of 32.  The library's 768-d encoders and default
    DUST head take neither.
    """
    count = rows.shape[0]
    padded = -(-count // GEMM_ROW_MULTIPLE) * GEMM_ROW_MULTIPLE
    if padded != count:
        rows = np.concatenate([rows, np.zeros((padded - count, rows.shape[1]))])
    return (rows @ weights)[:count]


def l2_normalize_rows(matrix: np.ndarray, *, epsilon: float = 1e-12) -> np.ndarray:
    """:func:`l2_normalize` applied to each row of a 2-D matrix.

    Each row's norm is the same ``np.linalg.norm`` call :func:`l2_normalize`
    makes (an ``axis=1`` reduction sums in a different order), so row ``i``
    is bit-identical to ``l2_normalize(matrix[i])``.
    """
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    norms = np.array([np.linalg.norm(row) for row in matrix])
    zero = norms < epsilon
    normalized = matrix / np.where(zero, 1.0, norms)[:, None]
    normalized[zero] = 0.0
    return normalized
