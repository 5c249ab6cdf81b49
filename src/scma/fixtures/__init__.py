"""Published artifacts as machine-readable data: the optimized codebook
tables, the factor matrices, the worked-example vectors, and the expected
distance indicators.  Files are verbatim transcriptions (4-decimal values as
printed) and are never re-normalized on load.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class Fixture:
    id: str
    kind: str  # "codebook" | "factor_matrix" | "data"
    payload: dict
    source: str
    precision: str

    def codebook_set(self) -> CodebookSet:
        if self.kind != "codebook":
            raise ValueError(f"fixture {self.id} is not a codebook")
        return codebook_from_dict(self.payload)

    def matrix(self) -> np.ndarray:
        if self.kind != "factor_matrix":
            raise ValueError(f"fixture {self.id} is not a factor matrix")
        return np.asarray(self.payload["F"], dtype=np.int64)


def _read(fixture_id: str) -> dict:
    ref = resources.files(__package__).joinpath(f"data/{fixture_id}.json")
    return json.loads(ref.read_text())


def load_fixture(fixture_id: str) -> Fixture:
    """Load one shipped artifact by id; unknown ids raise KeyError listing
    what is available."""
    if fixture_id not in FIXTURE_IDS:
        raise KeyError(
            f"unknown fixture {fixture_id!r}; available: {sorted(FIXTURE_IDS)}"
        )
    doc = _read(fixture_id)
    meta = doc.get("meta", {})
    if fixture_id in _CODEBOOK_IDS:
        kind = "codebook"
    elif fixture_id in _FACTOR_IDS:
        kind = "factor_matrix"
    else:
        kind = "data"
    return Fixture(
        id=fixture_id,
        kind=kind,
        payload=doc,
        source=str(meta.get("source", "")),
        precision=str(meta.get("precision", "")),
    )


def load_codebook(fixture_id: str) -> CodebookSet:
    return load_fixture(fixture_id).codebook_set()


def load_factor_matrix(fixture_id: str) -> np.ndarray:
    return load_fixture(fixture_id).matrix()


NORM_WARNING_TOL = 1e-6


@dataclass
class ValidationReport:
    """Structural check results; norm deviations are reported as warnings,
    never violations."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    codeword_norms: np.ndarray | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": self.violations,
            "warnings": self.warnings,
            "codeword_norms": None
            if self.codeword_norms is None
            else np.round(self.codeword_norms, 10).tolist(),
        }


def validate_codebook(cbs: CodebookSet) -> ValidationReport:
    """Check supports against the factor matrix, codeword distinctness and
    antipodal symmetry; report per-codeword norms."""
    report = ValidationReport()
    cfg = cbs.config
    books = cbs.books
    for j in range(cfg.J):
        col = cbs.factor_matrix[:, j].astype(bool)
        for m in range(cfg.M):
            support = np.abs(books[j, m]) > 0
            if not np.array_equal(support, col):
                report.violations.append(
                    f"user {j} codeword {m}: support does not match factor "
                    f"matrix column"
                )
    for j in range(cfg.J):
        for m in range(cfg.M):
            for n in range(m + 1, cfg.M):
                if np.array_equal(books[j, m], books[j, n]):
                    report.violations.append(
                        f"user {j}: codewords {m} and {n} are identical"
                    )
    for j in range(cfg.J):
        for m in range(cfg.M):
            if not np.array_equal(books[j, m], -books[j, cfg.M - 1 - m]):
                report.violations.append(
                    f"user {j}: codeword {m} is not the negation of codeword "
                    f"{cfg.M - 1 - m}"
                )
                break
    norms = np.linalg.norm(books, axis=2)
    report.codeword_norms = norms
    off = np.abs(norms - 1.0)
    if (off > NORM_WARNING_TOL).any():
        worst = float(norms.flat[np.argmax(off)])
        report.warnings.append(
            f"{int((off > NORM_WARNING_TOL).sum())} codewords deviate from unit "
            f"norm (worst {worst:.4f})"
        )
    return report
