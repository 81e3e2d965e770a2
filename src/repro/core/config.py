"""Configuration objects for the DUST diversifier and end-to-end pipeline."""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.agglomerative import SUPPORTED_LINKAGE
from repro.cluster.distance import DISTANCE_FUNCTIONS
from repro.utils.errors import ConfigurationError


def _require_int(name: str, value: object, *, nullable: bool = False) -> None:
    """Reject anything but an ``int`` (``bool``, ``float`` and ``str`` included)."""
    if value is None and nullable:
        return
    if not isinstance(value, int) or isinstance(value, bool):
        kind = "an integer or None" if nullable else "an integer"
        raise ConfigurationError(f"{name} must be {kind}, got {value!r}")


def _require_str(name: str, value: object) -> None:
    if not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a string, got {value!r}")


@dataclass(frozen=True)
class DustConfig:
    """Parameters of DUST's tuple diversification (Algorithm 2).

    Attributes
    ----------
    candidate_multiplier:
        The ``p`` parameter: the clustering step produces ``k * p`` candidate
        clusters so the re-ranking step has more than ``k`` diverse candidates
        to choose from.  The paper selects ``p = 2`` (Appendix A.2.2).
    prune_limit:
        The ``s`` parameter: maximum number of data lake tuples kept by the
        pre-clustering pruning step (2 500 in the paper's effectiveness
        experiments, Sec. 6.4.3).  ``None`` disables pruning.
    metric:
        Distance metric used for pruning, medoid selection and re-ranking
        (cosine in the paper).
    linkage, cluster_metric:
        Hierarchical-clustering configuration for the candidate clustering.
    """

    candidate_multiplier: int = 2
    prune_limit: int | None = 2500
    metric: str = "cosine"
    linkage: str = "average"
    cluster_metric: str = "euclidean"

    def __post_init__(self) -> None:
        # Types first, so no comparison below can raise a raw TypeError or
        # accept a bool/float silently.
        _require_int("candidate_multiplier", self.candidate_multiplier)
        _require_int("prune_limit", self.prune_limit, nullable=True)
        for name in ("metric", "linkage", "cluster_metric"):
            _require_str(name, getattr(self, name))
        if self.candidate_multiplier < 1:
            raise ConfigurationError(
                f"candidate_multiplier (p) must be >= 1, got {self.candidate_multiplier}"
            )
        if self.prune_limit is not None and self.prune_limit <= 0:
            raise ConfigurationError(
                f"prune_limit (s) must be positive or None, got {self.prune_limit}"
            )
        if self.metric not in DISTANCE_FUNCTIONS:
            raise ConfigurationError(
                f"metric must be one of {sorted(DISTANCE_FUNCTIONS)}, got {self.metric!r}"
            )
        if self.linkage not in SUPPORTED_LINKAGE:
            raise ConfigurationError(
                f"linkage must be one of {sorted(SUPPORTED_LINKAGE)}, got {self.linkage!r}"
            )
        if self.cluster_metric not in DISTANCE_FUNCTIONS:
            raise ConfigurationError(
                f"cluster_metric must be one of {sorted(DISTANCE_FUNCTIONS)}, "
                f"got {self.cluster_metric!r}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Parameters of the end-to-end DUST pipeline (Algorithm 1).

    Attributes
    ----------
    num_search_tables:
        How many unionable tables the union-search stage retrieves before
        alignment (the paper unions the top search results).
    k:
        Number of diverse tuples to output.
    dust:
        Configuration of the diversification stage.
    min_query_rows:
        Query tables with fewer rows are rejected (3 in the paper's
        preprocessing).
    """

    num_search_tables: int = 10
    k: int = 30
    dust: DustConfig = DustConfig()
    min_query_rows: int = 3

    def __post_init__(self) -> None:
        for name in ("num_search_tables", "k", "min_query_rows"):
            _require_int(name, getattr(self, name))
        if self.num_search_tables <= 0:
            raise ConfigurationError(
                f"num_search_tables must be positive, got {self.num_search_tables}"
            )
        if self.k <= 0:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if self.min_query_rows < 0:
            raise ConfigurationError(
                f"min_query_rows must be non-negative, got {self.min_query_rows}"
            )
