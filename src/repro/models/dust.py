"""The DUST fine-tuned tuple embedding model (paper Sec. 4).

A :class:`DustTupleModel` wraps a frozen base encoder (the BERT-like or
RoBERTa-like stand-in) and a fine-tuned :class:`EmbeddingHead`.  It exposes the
:class:`~repro.embeddings.base.TupleEncoder` interface so the rest of the
pipeline — column alignment excepted, which uses column encoders — can consume
it exactly like any other tuple encoder.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.embeddings.base import EncoderInfo, TupleEncoder, l2_normalize_rows
from repro.embeddings.contextual import BertLikeModel, RobertaLikeModel
from repro.models.dataset import TuplePairDataset
from repro.models.layers import EmbeddingHead
from repro.models.trainer import FineTuneConfig, FineTuneResult, FineTuningTrainer
from repro.utils.errors import TrainingError


class DustTupleModel(TupleEncoder):
    """Frozen base encoder plus fine-tuned embedding head."""

    def __init__(self, base_encoder: TupleEncoder, head: EmbeddingHead, *, name: str | None = None) -> None:
        if head.input_dim != base_encoder.dimension:
            raise TrainingError(
                f"head expects {head.input_dim}-dim inputs but the base encoder "
                f"produces {base_encoder.dimension}-dim embeddings"
            )
        self.base_encoder = base_encoder
        self.head = head
        self.head.set_training(False)
        self._info = EncoderInfo(
            name=name or f"dust({base_encoder.info.name})",
            dimension=head.output_dim,
            family="dust",
            is_finetuned=True,
        )

    @property
    def info(self) -> EncoderInfo:
        return self._info

    def encode_text(self, text: str) -> np.ndarray:
        return self.encode_many([text])[0]

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        if not texts:
            return np.zeros((0, self.dimension), dtype=np.float64)
        features = self.base_encoder.encode_many(list(texts))
        return l2_normalize_rows(self.head.forward(features))


def build_dust_model(
    dataset: TuplePairDataset,
    *,
    base: str = "roberta",
    config: FineTuneConfig | None = None,
) -> tuple[DustTupleModel, FineTuneResult]:
    """Fine-tune a DUST tuple model on ``dataset`` and return it with the run log.

    Parameters
    ----------
    dataset:
        A :class:`TuplePairDataset` (typically the TUS fine-tuning benchmark).
    base:
        ``"roberta"`` for DUST (RoBERTa), ``"bert"`` for DUST (BERT) — the two
        variations evaluated in Fig. 6.
    config:
        Fine-tuning hyper-parameters; the defaults match the paper (dropout +
        two linear layers, 768-dim output, early stopping with patience 10).
    """
    base = base.lower()
    if base == "roberta":
        base_encoder: TupleEncoder = RobertaLikeModel()
    elif base == "bert":
        base_encoder = BertLikeModel()
    else:
        raise TrainingError(f"base must be 'roberta' or 'bert', got {base!r}")

    trainer = FineTuningTrainer(base_encoder, config)
    result = trainer.train(dataset.train, dataset.validation)
    model = DustTupleModel(
        base_encoder, result.head, name=f"dust-{base}"
    )
    return model, result
