"""Tests for tuple serialization and the column encoders."""

import numpy as np
import pytest

from repro.cluster.distance import cosine_distance
from repro.datalake import Table
from repro.embeddings import (
    AlignedTuple,
    CellLevelColumnEncoder,
    ColumnLevelColumnEncoder,
    FastTextLikeModel,
    RobertaLikeModel,
    StarmieColumnEncoder,
    serialize_column,
    serialize_tuple,
)
from repro.embeddings.base import l2_normalize
from repro.embeddings.serialization import serialize_aligned_tuple
from repro.embeddings.tokenizer import CLS_TOKEN, SEP_TOKEN
from repro.utils.errors import EmbeddingError


class TestSerializeTuple:
    def test_paper_example_format(self):
        serialized = serialize_tuple(
            {"Park Name": "River Park", "Supervisor": "Vera Onate",
             "City": "Fresno", "Country": "USA"},
            ["Park Name", "Supervisor", "City", "Country"],
        )
        assert serialized == (
            "[CLS] Park Name River Park [SEP] Supervisor Vera Onate [SEP] "
            "City Fresno [SEP] Country USA [SEP]"
        )

    def test_nulls_are_skipped(self):
        serialized = serialize_tuple(
            {"Park Name": "Chippewa Park", "City": None, "Country": "USA"},
            ["Park Name", "City", "Country"],
        )
        assert "City" not in serialized
        assert "Country USA" in serialized

    def test_missing_columns_are_skipped(self):
        serialized = serialize_tuple({"a": 1}, ["a", "b"])
        assert serialized.count(SEP_TOKEN) == 1

    def test_all_null_tuple_still_serializes(self):
        serialized = serialize_tuple({}, ["a", "b"])
        assert serialized.startswith(CLS_TOKEN)
        assert SEP_TOKEN in serialized

    def test_empty_column_order_rejected(self):
        with pytest.raises(EmbeddingError):
            serialize_tuple({"a": 1}, [])

    def test_column_order_controls_output(self):
        values = {"a": 1, "b": 2}
        assert serialize_tuple(values, ["a", "b"]) != serialize_tuple(values, ["b", "a"])


class TestAlignedTuple:
    def test_as_row_and_present_columns(self):
        aligned = AlignedTuple(
            source_table="lake", source_row=3, values={"a": 1, "b": None}
        )
        assert aligned.as_row(["a", "b", "c"]) == (1, None, None)
        assert aligned.present_columns(["a", "b", "c"]) == ["a"]

    def test_serialize_aligned_tuple(self):
        aligned = AlignedTuple(source_table="lake", source_row=0, values={"a": "x"})
        assert "a x" in serialize_aligned_tuple(aligned, ["a", "b"])


class TestSerializeColumn:
    def test_header_and_values(self):
        sentence = serialize_column("Country", ["USA", None, "UK"])
        assert sentence == "Country USA UK"

    def test_max_values(self):
        sentence = serialize_column("c", ["a", "b", "c"], max_values=2)
        assert sentence == "c a b"


@pytest.fixture(scope="module")
def park_tables() -> tuple[Table, Table]:
    parks = Table(
        name="parks",
        columns=["Park Name", "Supervisor", "Country"],
        rows=[
            ("River Park", "Vera Onate", "USA"),
            ("Hyde Park", "Jenny Rishi", "UK"),
            ("Grant Park", "Alice Morgan", "USA"),
        ],
    )
    paintings = Table(
        name="paintings",
        columns=["Painting", "Medium", "Country"],
        rows=[
            ("Northern Lake", "Oil on canvas", "Canada"),
            ("Memory Landscape", "Mixed media", "USA"),
            ("Harbor Dusk", "Watercolor", "Canada"),
        ],
    )
    return parks, paintings


class TestColumnEncoders:
    def test_cell_level_shape_and_determinism(self, park_tables):
        parks, _ = park_tables
        encoder = CellLevelColumnEncoder(FastTextLikeModel())
        vector = encoder.encode_column("Park Name", parks.column_values("Park Name"))
        assert vector.shape == (300,)
        assert np.allclose(
            vector, encoder.encode_column("Park Name", parks.column_values("Park Name"))
        )

    @pytest.mark.parametrize("base_class", [FastTextLikeModel, RobertaLikeModel])
    def test_cell_level_batches_cells_bit_identically(self, park_tables, base_class):
        parks, _ = park_tables
        base = base_class()
        values = [*parks.column_values("Park Name"), None, parks.column_values("Park Name")[0]]
        expected = l2_normalize(
            np.mean([base.encode_text(f"Park Name {value}") for value in values if value], axis=0)
        )
        encoded = CellLevelColumnEncoder(base).encode_column("Park Name", values)
        assert np.array_equal(encoded, expected)

    def test_cell_level_empty_column_uses_header(self):
        encoder = CellLevelColumnEncoder(FastTextLikeModel())
        vector = encoder.encode_column("Country", [None, None])
        assert np.linalg.norm(vector) > 0

    def test_column_level_same_content_closer_than_other_topic(self, park_tables):
        parks, paintings = park_tables
        encoder = ColumnLevelColumnEncoder(RobertaLikeModel())
        encoder.fit_tables([parks, paintings])
        park_names = encoder.encode_column("Park Name", parks.column_values("Park Name"))
        park_names_again = encoder.encode_column(
            "Name", parks.column_values("Park Name")[:2]
        )
        painting_names = encoder.encode_column(
            "Painting", paintings.column_values("Painting")
        )
        assert cosine_distance(park_names, park_names_again) < cosine_distance(
            park_names, painting_names
        )

    def test_column_level_invalid_token_limit(self):
        with pytest.raises(ValueError):
            ColumnLevelColumnEncoder(RobertaLikeModel(), token_limit=0)

    def test_starmie_encoder_pulls_same_table_columns_together(self, park_tables):
        parks, paintings = park_tables
        plain = ColumnLevelColumnEncoder(RobertaLikeModel())
        starmie = StarmieColumnEncoder(RobertaLikeModel(), table_context_weight=0.6)
        plain_vectors = {
            column: plain.encode_column(column, parks.column_values(column))
            for column in parks.columns
        }
        starmie_vectors = starmie.encode_table_columns(parks)

        def mean_pairwise_distance(vectors):
            columns = list(vectors)
            distances = [
                cosine_distance(vectors[a], vectors[b])
                for i, a in enumerate(columns)
                for b in columns[i + 1 :]
            ]
            return float(np.mean(distances))

        assert mean_pairwise_distance(starmie_vectors) < mean_pairwise_distance(plain_vectors)

    def test_starmie_table_embedding(self, park_tables):
        parks, paintings = park_tables
        encoder = StarmieColumnEncoder(RobertaLikeModel())
        parks_embedding = encoder.encode_table(parks)
        paintings_embedding = encoder.encode_table(paintings)
        assert parks_embedding.shape == (768,)
        assert cosine_distance(parks_embedding, paintings_embedding) > 0.0

    def test_starmie_invalid_weight(self):
        with pytest.raises(ValueError):
            StarmieColumnEncoder(RobertaLikeModel(), table_context_weight=1.0)

    def test_cell_level_invalid_max_cells(self):
        with pytest.raises(ValueError):
            CellLevelColumnEncoder(FastTextLikeModel(), max_cells=0)
