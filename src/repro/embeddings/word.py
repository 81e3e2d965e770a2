"""Static word-embedding models (FastText-like and GloVe-like).

These are the offline stand-ins for the FastText [23] and GloVe [40] word
vectors used as column-alignment baselines in Table 1.  Both expose the
:class:`~repro.embeddings.base.TupleEncoder` interface so they can also embed
serialized tuples when needed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.api.registry import register_tuple_encoder
from repro.embeddings.base import EncoderInfo, TupleEncoder, l2_normalize, l2_normalize_rows
from repro.embeddings.hashing import HashedVectorSpace
from repro.embeddings.tokenizer import Tokenizer


class _StaticWordModel(TupleEncoder):
    """Shared implementation: average of per-token static vectors."""

    def __init__(
        self,
        name: str,
        *,
        dimension: int,
        use_subwords: bool,
        tokenizer: Tokenizer | None = None,
    ) -> None:
        self._info = EncoderInfo(name=name, dimension=dimension, family="word")
        self._space = HashedVectorSpace(
            dimension, use_subwords=use_subwords, seed_namespace=name
        )
        self._tokenizer = tokenizer or Tokenizer()

    @property
    def info(self) -> EncoderInfo:
        return self._info

    @property
    def vector_space(self) -> HashedVectorSpace:
        """The underlying token vector space (exposed for column encoders)."""
        return self._space

    def encode_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Encode a pre-tokenized token list."""
        return l2_normalize(self._space.encode_tokens(list(tokens)))

    def encode_text(self, text: str) -> np.ndarray:
        """Encode free text by averaging its token vectors."""
        tokens = self._tokenizer.tokenize_text(text)
        return self.encode_tokens(tokens)

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        """True batch encoding: one shared token matrix for the whole batch.

        Tokenisation still runs per text, but every distinct token vector is
        materialised once for the batch (instead of once per occurrence via
        the per-text ``vstack`` loop) and each row is normalised as
        :func:`l2_normalize` would.
        Row ``i`` is bit-identical to ``encode_text(texts[i])``.
        """
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        token_lists = [self._tokenizer.tokenize_text(text) for text in texts]
        return l2_normalize_rows(self._space.encode_token_batches(token_lists))


@register_tuple_encoder("fasttext")
class FastTextLikeModel(_StaticWordModel):
    """FastText-style model: token vectors composed from character n-grams.

    Subword composition means morphologically related tokens (``park``,
    ``parks``, ``parking``) receive nearby vectors, mirroring FastText's
    robustness to out-of-vocabulary words.
    """

    def __init__(self, dimension: int = 300, *, tokenizer: Tokenizer | None = None) -> None:
        super().__init__(
            "fasttext-like", dimension=dimension, use_subwords=True, tokenizer=tokenizer
        )


@register_tuple_encoder("glove")
class GloveLikeModel(_StaticWordModel):
    """GloVe-style model: one independent vector per whole token."""

    def __init__(self, dimension: int = 300, *, tokenizer: Tokenizer | None = None) -> None:
        super().__init__(
            "glove-like", dimension=dimension, use_subwords=False, tokenizer=tokenizer
        )
