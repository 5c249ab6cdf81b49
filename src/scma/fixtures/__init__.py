"""Published artifacts as machine-readable data: the optimized codebook
tables, the factor matrices, the worked-example vectors, and the expected
distance indicators.  Files are verbatim transcriptions (4-decimal values as
printed) and are never re-normalized on load.
"""
from __future__ import annotations

import json
from importlib import resources

import numpy as np

from ..core import CodebookSet, codebook_from_dict

_CODEBOOK_IDS = (
    "table2_awgn_6x4",
    "table3_fading_6x4",
    "table5_awgn_12x6",
    "table6_fading_12x6",
)
_FACTOR_IDS = ("eq2_factor_6x4", "eq9_factor_8x4", "eq10_factor_12x6")
_DATA_IDS = ("example1_vectors", "table4_kpi")

FIXTURE_IDS = _CODEBOOK_IDS + _FACTOR_IDS + _DATA_IDS


def load_fixture(fixture_id: str) -> dict:
    """One shipped artifact's JSON document by id, with its ``meta`` block of
    source and precision notes; unknown ids raise KeyError listing what is
    available."""
    if fixture_id not in FIXTURE_IDS:
        raise KeyError(
            f"unknown fixture {fixture_id!r}; available: {sorted(FIXTURE_IDS)}"
        )
    ref = resources.files(__package__).joinpath(f"data/{fixture_id}.json")
    return json.loads(ref.read_text())


def _load_kind(fixture_id: str, ids: tuple[str, ...], kind: str) -> dict:
    doc = load_fixture(fixture_id)
    if fixture_id not in ids:
        raise ValueError(f"fixture {fixture_id} is not a {kind}")
    return doc


def load_codebook(fixture_id: str) -> CodebookSet:
    return codebook_from_dict(_load_kind(fixture_id, _CODEBOOK_IDS, "codebook"))


def load_factor_matrix(fixture_id: str) -> np.ndarray:
    doc = _load_kind(fixture_id, _FACTOR_IDS, "factor matrix")
    return np.asarray(doc["F"], dtype=np.int64)
