"""Shared domain types: system dimensions, codebook containers, parameter
packing, and the codebook JSON interchange format.

All complex values are stored as double-precision ``complex128``; arrays held
by the container types are frozen (non-writeable) after construction so they
can be shared freely across threads.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np


class ScmaError(Exception):
    """Base class for toolkit errors."""


class MalformedParameterError(ScmaError):
    """Parameter vector has the wrong length or layout."""


class DegenerateParameterError(ScmaError):
    """Parameter values produce a zero-norm codeword."""


class CodebookFormatError(ScmaError):
    """Codebook or template file does not follow the JSON schema."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions of a multi-user system: J users share K resources, each user
    sends one of M sparse codewords with N nonzero entries; d_f users collide
    on a resource."""

    J: int
    K: int
    M: int
    N: int
    d_f: int

    def __post_init__(self) -> None:
        if self.J < 1 or self.K < 1:
            raise ValueError("J and K must be >= 1")
        if self.M < 2 or (self.M & (self.M - 1)) != 0:
            raise ValueError(f"M must be a power of 2, got {self.M}")
        if not 1 <= self.N <= self.K:
            raise ValueError(f"N must lie in [1, K], got N={self.N}, K={self.K}")

    @property
    def overloading(self) -> float:
        """Ratio of users to resources (J/K)."""
        return self.J / self.K

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.M))


@dataclass(frozen=True)
class CodebookSet:
    """The per-user codebooks of a system: ``books[j, m, k]`` is the k-th
    entry of user j's m-th codeword.  ``factor_matrix`` (K x J, 0/1) records
    the intended sparsity pattern when known."""

    config: SystemConfig
    books: np.ndarray
    factor_matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        books = np.asarray(self.books, dtype=np.complex128)
        cfg = self.config
        if books.shape != (cfg.J, cfg.M, cfg.K):
            raise ValueError(
                f"books shape {books.shape} does not match (J, M, K)="
                f"{(cfg.J, cfg.M, cfg.K)}"
            )
        object.__setattr__(self, "books", _frozen(books))
        if self.factor_matrix is not None:
            F = np.asarray(self.factor_matrix, dtype=np.int64)
            if F.shape != (cfg.K, cfg.J):
                raise ValueError(f"factor matrix shape {F.shape} != (K, J)")
            object.__setattr__(self, "factor_matrix", _frozen(F))

    def codebook(self, j: int) -> np.ndarray:
        """User j's (M, K) codeword matrix."""
        return self.books[j]

    def supports(self) -> np.ndarray:
        """(K, J) 0/1 matrix of positions used by any codeword of each user."""
        used = (np.abs(self.books) > 0).any(axis=1)  # (J, K)
        return used.T.astype(np.int64)

    @classmethod
    def from_books(
        cls, books: np.ndarray, factor_matrix: np.ndarray | None = None
    ) -> "CodebookSet":
        """Build a set from a (J, M, K) array, deriving the config from the
        factor matrix (or from the observed supports when F is absent)."""
        books = np.asarray(books, dtype=np.complex128)
        if books.ndim != 3:
            raise ValueError("books must be a (J, M, K) array")
        J, M, K = books.shape
        if factor_matrix is not None:
            F = np.asarray(factor_matrix, dtype=np.int64)
        else:
            F = (np.abs(books) > 0).any(axis=1).T.astype(np.int64)
        N = int(F.sum(axis=0).max()) if F.size else 0
        d_f = int(F.sum(axis=1).max()) if F.size else 0
        cfg = SystemConfig(J=J, K=K, M=M, N=max(N, 1), d_f=max(d_f, 1))
        return cls(config=cfg, books=books, factor_matrix=F)


def pack_params(a: Iterable[complex]) -> np.ndarray:
    """Interleave complex parameters into a real vector
    [Re a_1, Im a_1, Re a_2, Im a_2, ...]."""
    arr = np.asarray(list(a) if not isinstance(a, np.ndarray) else a,
                     dtype=np.complex128).ravel()
    out = np.empty(2 * arr.size, dtype=np.float64)
    out[0::2] = arr.real
    out[1::2] = arr.imag
    return out


def unpack_params(p: Iterable[float]) -> np.ndarray:
    """Inverse of :func:`pack_params`; raises on odd-length input."""
    arr = np.asarray(list(p) if not isinstance(p, np.ndarray) else p,
                     dtype=np.float64).ravel()
    if arr.size % 2 != 0:
        raise MalformedParameterError(
            f"parameter vector length must be even, got {arr.size}"
        )
    return arr[0::2] + 1j * arr[1::2]


# --- codebook JSON interchange ------------------------------------------

def codebook_to_dict(cbs: CodebookSet) -> dict:
    """Serialize to the interchange schema: integer J/K/M, optional F rows,
    and codebooks as J x M x K arrays of [re, im] pairs."""
    cfg = cbs.config
    doc: dict = {"J": cfg.J, "K": cfg.K, "M": cfg.M}
    if cbs.factor_matrix is not None:
        doc["F"] = cbs.factor_matrix.tolist()
    doc["codebooks"] = [
        [[[float(z.real), float(z.imag)] for z in cw] for cw in book]
        for book in cbs.books
    ]
    return doc


def codebook_from_dict(doc: dict) -> CodebookSet:
    """Parse the interchange schema; raises :class:`CodebookFormatError` on
    missing fields or shape mismatches."""
    try:
        J, K, M = int(doc["J"]), int(doc["K"]), int(doc["M"])
        raw = doc["codebooks"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CodebookFormatError(f"missing or invalid field: {exc}") from exc
    if len(raw) != J:
        raise CodebookFormatError(f"expected {J} codebooks, found {len(raw)}")
    books = np.zeros((J, M, K), dtype=np.complex128)
    for j, book in enumerate(raw):
        if len(book) != M:
            raise CodebookFormatError(f"codebook {j}: expected {M} codewords")
        for m, cw in enumerate(book):
            if len(cw) != K:
                raise CodebookFormatError(
                    f"codebook {j} codeword {m}: expected {K} entries"
                )
            for k, pair in enumerate(cw):
                if len(pair) != 2:
                    raise CodebookFormatError(
                        f"entry ({j},{m},{k}) is not an [re, im] pair"
                    )
                value = complex(float(pair[0]), float(pair[1]))
                if not np.isfinite(value):
                    raise CodebookFormatError(
                        f"entry ({j},{m},{k}) is not finite: {pair!r}"
                    )
                books[j, m, k] = value
    F = None
    if "F" in doc and doc["F"] is not None:
        F = np.asarray(doc["F"], dtype=np.int64)
        if F.shape != (K, J):
            raise CodebookFormatError(f"F shape {F.shape} != (K, J)")
        if not np.isin(F, (0, 1)).all():
            raise CodebookFormatError("F entries must be 0 or 1")
    return CodebookSet.from_books(books, F)


def write_codebook_json(cbs: CodebookSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(codebook_to_dict(cbs)) + "\n")


def read_codebook_json(path: str | Path) -> CodebookSet:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CodebookFormatError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CodebookFormatError(f"{path}: top level must be an object")
    return codebook_from_dict(doc)
