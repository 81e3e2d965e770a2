"""Tests for the hashed vector space, word models and contextual encoders."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.embeddings import (
    BertLikeModel,
    FastTextLikeModel,
    GloveLikeModel,
    HashedVectorSpace,
    RobertaLikeModel,
    SentenceBertLikeModel,
)
from repro.embeddings import contextual
from repro.embeddings.base import (
    GEMM_ROW_MULTIPLE,
    l2_normalize,
    l2_normalize_rows,
    padded_matmul,
)
from repro.embeddings.contextual import CHUNK_ROWS
from repro.embeddings.tokenizer import MAX_SEQUENCE_LENGTH
from repro.cluster.distance import cosine_distance


class TestHashedVectorSpace:
    def test_token_vectors_are_deterministic(self):
        space = HashedVectorSpace(64)
        assert np.allclose(space.token_vector("park"), space.token_vector("park"))

    def test_different_namespaces_differ(self):
        first = HashedVectorSpace(64, seed_namespace="a").token_vector("park")
        second = HashedVectorSpace(64, seed_namespace="b").token_vector("park")
        assert not np.allclose(first, second)

    def test_subword_composition_relates_morphological_variants(self):
        space = HashedVectorSpace(128, use_subwords=True)
        related = cosine_distance(space.token_vector("park"), space.token_vector("parks"))
        unrelated = cosine_distance(space.token_vector("park"), space.token_vector("budget"))
        assert related < unrelated

    def test_encode_tokens_empty_is_zero(self):
        space = HashedVectorSpace(32)
        assert np.allclose(space.encode_tokens([]), np.zeros(32))

    def test_encode_tokens_weighted(self):
        space = HashedVectorSpace(32)
        heavy = space.encode_tokens(["a", "b"], weights=[10.0, 0.0])
        assert np.allclose(heavy, space.token_vector("a"))

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError):
            HashedVectorSpace(8).encode_tokens(["a"], weights=[1.0, 2.0])

    def test_cache(self):
        space = HashedVectorSpace(16)
        space.token_vector("a")
        assert space.cache_size() == 1
        space.clear_cache()
        assert space.cache_size() == 0

    def test_invalid_dimension(self):
        with pytest.raises(ValueError):
            HashedVectorSpace(0)


class TestWordModels:
    def test_dimension_and_norm(self):
        model = GloveLikeModel(dimension=100)
        vector = model.encode_text("river park usa")
        assert vector.shape == (100,)
        assert np.isclose(np.linalg.norm(vector), 1.0)

    def test_same_text_same_vector(self):
        model = FastTextLikeModel()
        assert np.allclose(model.encode_text("hello world"), model.encode_text("hello world"))

    def test_topically_different_text_is_distant(self):
        model = FastTextLikeModel()
        parks = model.encode_text("river park supervisor city country")
        paintings = model.encode_text("painting medium oil canvas dimensions")
        overlap = model.encode_text("river park city supervisor country usa")
        assert cosine_distance(parks, overlap) < cosine_distance(parks, paintings)

    def test_encode_many_shape(self):
        model = GloveLikeModel(dimension=50)
        matrix = model.encode_many(["a b", "c d", "e"])
        assert matrix.shape == (3, 50)
        assert model.encode_many([]).shape == (0, 50)


class TestContextualModels:
    @pytest.mark.parametrize(
        "model_class", [BertLikeModel, RobertaLikeModel, SentenceBertLikeModel]
    )
    def test_deterministic_unit_embeddings(self, model_class):
        model = model_class()
        text = "[CLS] Park Name River Park [SEP] Country USA [SEP]"
        first = model.encode_text(text)
        second = model.encode_text(text)
        assert first.shape == (768,)
        assert np.allclose(first, second)
        assert np.isclose(np.linalg.norm(first), 1.0)

    def test_model_families_are_uncorrelated(self):
        text = "[CLS] Title Midnight Horizon [SEP] Genre Drama [SEP]"
        bert = BertLikeModel().encode_text(text)
        roberta = RobertaLikeModel().encode_text(text)
        assert cosine_distance(bert, roberta) > 0.3

    def test_similar_tuples_closer_than_different_topics(self):
        model = RobertaLikeModel()
        park_a = model.encode_text("[CLS] Park Name River Park [SEP] Country USA [SEP]")
        park_b = model.encode_text("[CLS] Park Name Hyde Park [SEP] Country UK [SEP]")
        painting = model.encode_text(
            "[CLS] Painting Northern Lake [SEP] Medium Oil on canvas [SEP]"
        )
        assert cosine_distance(park_a, park_b) < cosine_distance(park_a, painting)

    def test_empty_text_is_zero_vector(self):
        model = BertLikeModel()
        assert np.allclose(model.encode_tokens([]), np.zeros(768))

    def test_invalid_configuration(self):
        from repro.embeddings.contextual import ContextualEncoder

        with pytest.raises(ValueError):
            ContextualEncoder("x", pooling="bad")
        with pytest.raises(ValueError):
            ContextualEncoder("x", num_layers=0)


CONTEXTUAL_MODELS = [BertLikeModel, RobertaLikeModel, SentenceBertLikeModel]


def _tuple_text(index: int) -> str:
    return f"[CLS] Park Name Park p{index} [SEP] City Town t{index % 7} [SEP] Area {index * 13}"


class TestContextualBatchKernel:
    """``encode_many`` rows are bit-identical to ``encode_text``, in any batch.

    CI re-runs this class with ``OPENBLAS_CORETYPE=Haswell``: on that kernel's
    tail microkernel an unpadded stacked GEMM would break the parity.
    """

    @pytest.fixture(scope="class", params=CONTEXTUAL_MODELS, ids=lambda cls: cls.__name__)
    def model(self, request):
        return request.param()

    @staticmethod
    def assert_rows_match(model, texts):
        batched = model.encode_many(texts)
        assert batched.shape == (len(texts), model.dimension)
        for row, text in zip(batched, texts):
            assert np.array_equal(row, model.encode_text(text)), text[:40]

    def test_duplicates(self, model):
        texts = [_tuple_text(1), _tuple_text(2), _tuple_text(1), _tuple_text(1), _tuple_text(2)]
        self.assert_rows_match(model, texts)
        batched = model.encode_many(texts)
        assert np.array_equal(batched[0], batched[3])

    def test_empty_text_is_zero(self, model):
        self.assert_rows_match(model, ["", _tuple_text(3), ""])
        assert not model.encode_many([""]).any()
        assert model.encode_many([]).shape == (0, model.dimension)

    def test_single_token_text(self, model):
        assert model._tokenize("[CLS]") == ["[CLS]"]
        self.assert_rows_match(model, ["[CLS]", _tuple_text(4), "[CLS]"])
        assert np.array_equal(model.encode_text("[CLS]"), model.encode_tokens(["[CLS]"]))

    def test_text_longer_than_512_tokens_is_truncated(self, model):
        long_text = " ".join(f"word{i}" for i in range(700))
        self.assert_rows_match(model, [_tuple_text(5), long_text, _tuple_text(6)])
        truncated = ["[CLS]", *(f"word{i}" for i in range(MAX_SEQUENCE_LENGTH - 1))]
        assert np.array_equal(model.encode_text(long_text), model.encode_tokens(truncated))

    def test_batch_crossing_the_chunk_budget(self, model):
        texts = [_tuple_text(i) for i in range(3 * CHUNK_ROWS // 10)]
        assert sum(len(model._tokenize(text)) for text in texts) > 2 * CHUNK_ROWS
        self.assert_rows_match(model, texts)

    def test_row_is_independent_of_its_batch(self, model):
        target = _tuple_text(999)
        others = [_tuple_text(i) for i in range(300)]
        alone = model.encode_text(target)
        assert np.array_equal(model.encode_many([target, *others])[0], alone)
        assert np.array_equal(model.encode_many([*others, target])[-1], alone)
        assert np.array_equal(model.encode_many([*others[:150], target, *others[150:]])[150], alone)

    def test_gemm_blocks_stay_within_the_budget(self, model, monkeypatch):
        blocks = []

        def spy(rows, weights):
            blocks.append(rows.shape[0])
            return padded_matmul(rows, weights)

        monkeypatch.setattr(contextual, "padded_matmul", spy)
        long_text = " ".join(f"word{i}" for i in range(399))
        texts = [*map(_tuple_text, range(40)), long_text, *map(_tuple_text, range(40, 80))]
        model.encode_many(texts)
        assert len(model._tokenize(long_text)) == 400
        assert [rows for rows in blocks if rows > CHUNK_ROWS] == [400] * model._num_layers
        assert all(rows % GEMM_ROW_MULTIPLE == 0 for rows in blocks)
        total = sum(len(model._tokenize(text)) for text in texts)
        padding = sum(blocks) - model._num_layers * total
        assert 0 <= padding < len(blocks) * GEMM_ROW_MULTIPLE

    def test_padded_matmul_rows_do_not_depend_on_their_neighbours(self):
        rng = np.random.default_rng(11)
        weights = rng.standard_normal((768, 768))
        rows = rng.standard_normal((37, 768))
        alone = [padded_matmul(rows[i : i + 1], weights)[0] for i in range(len(rows))]
        stacked = padded_matmul(rows, weights)
        assert stacked.shape == (37, 768)
        assert all(np.array_equal(stacked[i], alone[i]) for i in range(len(rows)))
        assert padded_matmul(rows[:0], weights).shape == (0, 768)

    @pytest.mark.parametrize("dimension", [64, 300, 768])
    def test_position_table_slices_match_direct_encodings(self, dimension):
        table = contextual._position_table(dimension)
        assert table.shape == (MAX_SEQUENCE_LENGTH, dimension)
        assert contextual._position_table(dimension) is table
        for length in range(1, MAX_SEQUENCE_LENGTH + 1):
            assert np.array_equal(table[:length], contextual._position_encoding(length, dimension))


class TestNormalisationHelpers:
    def test_l2_normalize(self):
        assert np.isclose(np.linalg.norm(l2_normalize(np.array([3.0, 4.0]))), 1.0)
        assert np.allclose(l2_normalize(np.zeros(3)), np.zeros(3))

    def test_l2_normalize_rows_matches_l2_normalize_per_row(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((9, 300))
        matrix[4] = 0.0
        normalized = l2_normalize_rows(matrix)
        assert all(np.array_equal(normalized[i], l2_normalize(matrix[i])) for i in range(9))

    def test_l2_normalize_rows(self):
        matrix = np.array([[3.0, 4.0], [0.0, 0.0]])
        normalized = l2_normalize_rows(matrix)
        assert np.isclose(np.linalg.norm(normalized[0]), 1.0)
        assert np.allclose(normalized[1], 0.0)
        with pytest.raises(ValueError):
            l2_normalize_rows(np.zeros(3))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.text(alphabet="abcdefg ", min_size=1, max_size=12), min_size=1, max_size=5))
    def test_word_model_embeddings_are_bounded(self, texts):
        model = GloveLikeModel(dimension=32)
        matrix = model.encode_many(texts)
        norms = np.linalg.norm(matrix, axis=1)
        assert (norms <= 1.0 + 1e-9).all()
