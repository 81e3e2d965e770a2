"""Contextual (transformer-like) encoders.

BERT, RoBERTa and Sentence-BERT cannot be downloaded in this offline
environment.  Their role in the paper, however, is narrow and well defined:

1. produce a fixed 768-dimension embedding for a serialized tuple or column,
2. place text sharing vocabulary/context nearby, and
3. — crucially for Fig. 6 — *without fine-tuning* they separate unionable from
   non-unionable tuples no better than a coin toss.

:class:`ContextualEncoder` reproduces these properties with a deterministic
random-weight encoder: hashed token embeddings, sinusoidal position signals,
one or more fixed random mixing layers with a tanh non-linearity, then either
CLS-style first-token pooling or mean pooling.  Because the mixing weights are
random (not trained), the resulting space is only weakly aligned with
unionability — the behaviour the paper reports for pre-trained models — while
the fine-tuning head of :mod:`repro.models` can still learn a good space on
top of the same features.

Every encode goes through one batch kernel (``_encode_sequences``): distinct
token sequences are stacked into blocks of at most :data:`CHUNK_ROWS` rows
and each layer runs one row-padded GEMM per block (see
:func:`~repro.embeddings.base.padded_matmul`), so a row of ``encode_many`` is
bit-identical to ``encode_text`` of its text alone.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.api.registry import register_tuple_encoder
from repro.embeddings.base import (
    GEMM_ROW_MULTIPLE,
    EncoderInfo,
    TupleEncoder,
    l2_normalize_rows,
    padded_matmul,
)
from repro.embeddings.hashing import HashedVectorSpace
from repro.embeddings.tokenizer import CLS_TOKEN, MAX_SEQUENCE_LENGTH, Tokenizer
from repro.utils.rng import stable_hash

#: Token rows packed into one GEMM block by the batch kernel.
CHUNK_ROWS = 256


def _position_encoding(length: int, dimension: int) -> np.ndarray:
    """Sinusoidal position encodings (Vaswani et al.) of shape ``(length, dim)``."""
    positions = np.arange(length)[:, None].astype(np.float64)
    dims = np.arange(dimension)[None, :].astype(np.float64)
    angle_rates = 1.0 / np.power(10000.0, (2 * (dims // 2)) / dimension)
    angles = positions * angle_rates
    encoding = np.zeros((length, dimension), dtype=np.float64)
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


class ContextualEncoder(TupleEncoder):
    """Deterministic random-weight contextual encoder.

    Parameters
    ----------
    name:
        Model family name; also namespaces the token vector space and the
        random mixing weights so distinct families are uncorrelated.
    dimension:
        Embedding size (768 to match the paper).
    num_layers:
        Number of fixed mixing layers (loosely "transformer depth").
    pooling:
        ``"cls"`` pools the first token (BERT/RoBERTa convention) mixed with a
        small amount of mean pooling; ``"mean"`` uses pure mean pooling
        (Sentence-BERT convention).
    context_weight:
        How strongly each token is blended with the sequence context before
        mixing.  Larger values make all tokens of one sequence more alike.
    """

    def __init__(
        self,
        name: str,
        *,
        dimension: int = 768,
        num_layers: int = 2,
        pooling: str = "cls",
        context_weight: float = 0.5,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        if pooling not in {"cls", "mean"}:
            raise ValueError(f"pooling must be 'cls' or 'mean', got {pooling!r}")
        if num_layers <= 0:
            raise ValueError(f"num_layers must be positive, got {num_layers}")
        self._info = EncoderInfo(name=name, dimension=dimension, family="contextual")
        self._space = HashedVectorSpace(dimension, seed_namespace=f"ctx::{name}")
        self._tokenizer = tokenizer or Tokenizer()
        self._num_layers = num_layers
        self._pooling = pooling
        self._context_weight = context_weight
        self._weights = [self._layer_weights(layer) for layer in range(num_layers)]

    # ------------------------------------------------------------ construction
    def _layer_weights(self, layer: int) -> np.ndarray:
        """Fixed orthogonal-ish mixing matrix for one layer."""
        seed = stable_hash(f"{self._info.name}::layer::{layer}")
        rng = np.random.default_rng(seed)
        dimension = self._info.dimension
        matrix = rng.standard_normal((dimension, dimension)) / np.sqrt(dimension)
        return matrix

    @property
    def info(self) -> EncoderInfo:
        return self._info

    # ---------------------------------------------------------------- encoding
    def encode_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Encode a pre-tokenized sequence into one embedding."""
        return self._encode_sequences([tokens])[0]

    def encode_text(self, text: str) -> np.ndarray:
        """Tokenize and encode a serialized tuple / column sentence."""
        return self.encode_many([text])[0]

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        """Encode a batch of texts; each distinct text is tokenized once."""
        if type(self).encode_text is not ContextualEncoder.encode_text:
            # A subclass that redefines encode_text keeps the batch contract
            # through the generic per-text loop.
            return super().encode_many(texts)
        tokenized: dict[str, list[str]] = {}
        for text in texts:
            if text not in tokenized:
                tokenized[text] = self._tokenize(text)
        return self._encode_sequences([tokenized[text] for text in texts])

    def _tokenize(self, text: str) -> list[str]:
        tokens = self._tokenizer.tokenize_text(text)
        if tokens and tokens[0] != CLS_TOKEN:
            tokens = [CLS_TOKEN, *tokens]
        return tokens

    def _encode_sequences(self, sequences: Sequence[Sequence[str]]) -> np.ndarray:
        """The batch kernel: one ``(n, dim)`` row per token sequence.

        Each distinct sequence (after truncation to the 512-token limit) is
        encoded once.  Distinct sequences are packed, in order, into blocks of
        at most :data:`CHUNK_ROWS` token rows — a longer sequence forms a block
        of its own — and every layer runs one row-padded GEMM per block.
        Nothing in a row's arithmetic depends on the other sequences of its
        block, so each row is bit-identical to encoding its sequence alone.
        """
        distinct: dict[tuple[str, ...], int] = {}
        rows = [
            distinct.setdefault(tuple(tokens[:MAX_SEQUENCE_LENGTH]), len(distinct))
            for tokens in sequences
        ]
        encoded = np.zeros((len(distinct), self.dimension), dtype=np.float64)
        todo = [(row, tokens) for tokens, row in distinct.items() if tokens]
        for chunk in _chunks(todo, [len(tokens) for _, tokens in todo]):
            pooled = self._encode_chunk([tokens for _, tokens in chunk])
            encoded[[row for row, _ in chunk]] = l2_normalize_rows(pooled)
        return encoded[rows]

    def _encode_chunk(self, sequences: list[tuple[str, ...]]) -> np.ndarray:
        """Pooled (unnormalised) states of the non-empty ``sequences``.

        The stacked ``hidden`` block carries zero rows up to a multiple of
        :data:`GEMM_ROW_MULTIPLE`.  They stay zero through every layer
        (``tanh(0 @ W) + 0``), so each GEMM is padded without a copy.
        """
        lengths = [len(tokens) for tokens in sequences]
        bounds = np.cumsum([0, *lengths])
        rows = int(bounds[-1])
        spans = list(zip(bounds[:-1], bounds[1:]))
        segment = np.repeat(np.arange(len(sequences)), lengths)
        padded = -(-rows // GEMM_ROW_MULTIPLE) * GEMM_ROW_MULTIPLE
        hidden = np.zeros((padded, self.dimension), dtype=np.float64)
        stacked = hidden[:rows]
        np.stack(
            [self._space.token_vector(token) for tokens in sequences for token in tokens],
            out=stacked,
        )
        positions = _position_table(self.dimension)
        stacked += 0.05 * np.concatenate([positions[:length] for length in lengths])
        weight = self._context_weight
        for weights in self._weights:
            context = _segment_means(hidden, spans)
            blended = (1.0 - weight) * hidden
            blended[:rows] += (weight * context)[segment]
            mixed = padded_matmul(blended, weights)
            np.tanh(mixed, out=mixed)
            mixed += hidden
            hidden = mixed
        means = _segment_means(hidden, spans)
        if self._pooling == "mean":
            return means
        return 0.7 * hidden[bounds[:-1]] + 0.3 * means


def _chunks(items: list, lengths: list[int]) -> Iterator[list]:
    """Split ``items`` in order into runs of at most :data:`CHUNK_ROWS` rows."""
    chunk: list = []
    rows = 0
    for item, length in zip(items, lengths):
        if chunk and rows + length > CHUNK_ROWS:
            yield chunk
            chunk, rows = [], 0
        chunk.append(item)
        rows += length
    if chunk:
        yield chunk


def _segment_means(hidden: np.ndarray, spans: list[tuple[int, int]]) -> np.ndarray:
    """Per-sequence means; ``mean(axis=0)`` per slice keeps a sequence's bits.

    (``np.add.reduceat`` sums in a different order.)
    """
    return np.vstack([hidden[start:stop].mean(axis=0) for start, stop in spans])


def _position_table(dimension: int) -> np.ndarray:
    """The read-only ``(512, dimension)`` position encodings, sliced per sequence.

    One table per dimension, shared by every encoder in the process (a
    process holds several encoders of one size).  A slice ``[:n]`` is
    bit-identical to ``_position_encoding(n, dimension)``.
    """
    if dimension not in _POSITION_TABLES:
        table = _position_encoding(MAX_SEQUENCE_LENGTH, dimension)
        table.flags.writeable = False
        _POSITION_TABLES[dimension] = table
    return _POSITION_TABLES[dimension]


_POSITION_TABLES: dict[int, np.ndarray] = {}


@register_tuple_encoder("bert")
class BertLikeModel(ContextualEncoder):
    """Stand-in for pre-trained BERT-base (768-d, CLS pooling)."""

    def __init__(self, dimension: int = 768, *, tokenizer: Tokenizer | None = None) -> None:
        super().__init__(
            "bert-like",
            dimension=dimension,
            num_layers=2,
            pooling="cls",
            context_weight=0.5,
            tokenizer=tokenizer,
        )


@register_tuple_encoder("roberta")
class RobertaLikeModel(ContextualEncoder):
    """Stand-in for pre-trained RoBERTa-base.

    RoBERTa is pre-trained longer on more data than BERT; its stand-in mixes
    slightly deeper and keeps more per-token signal, which in practice gives it
    marginally better column-alignment scores, matching the ordering in
    Table 1 of the paper.
    """

    def __init__(self, dimension: int = 768, *, tokenizer: Tokenizer | None = None) -> None:
        super().__init__(
            "roberta-like",
            dimension=dimension,
            num_layers=3,
            pooling="cls",
            context_weight=0.35,
            tokenizer=tokenizer,
        )


@register_tuple_encoder("sbert")
class SentenceBertLikeModel(ContextualEncoder):
    """Stand-in for Sentence-BERT (mean pooling over token states)."""

    def __init__(self, dimension: int = 768, *, tokenizer: Tokenizer | None = None) -> None:
        super().__init__(
            "sbert-like",
            dimension=dimension,
            num_layers=2,
            pooling="mean",
            context_weight=0.4,
            tokenizer=tokenizer,
        )
