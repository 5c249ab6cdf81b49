"""Shared domain types: system dimensions, codebook containers, parameter
packing, and the codebook JSON interchange format.

A codebook set is its (J, M, K) books plus an optional factor matrix F
(default: the observed supports); its dimensions and factor graph are derived
from those two and never passed in.  All complex values are stored as
double-precision ``complex128``; arrays held by the container types are frozen
(non-writeable) after construction so they can be shared freely across
threads.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field
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


def _require_int(low: int, **values: int) -> None:
    """Each value an integer (numpy integers included, bools not) of at least ``low``."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value}")


def _json_int(doc: dict, key: str) -> int:
    """``doc[key]`` if it is a JSON integer; a float, string or boolean is
    not coerced into one."""
    if type(doc[key]) is not int:
        raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
    return doc[key]


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions of a multi-user system: J users share K resources, and each
    user sends one of M codewords."""

    J: int
    K: int
    M: int

    def __post_init__(self) -> None:
        if self.J < 1 or self.K < 1:
            raise ValueError("J and K must be >= 1")
        if self.M < 2 or (self.M & (self.M - 1)) != 0:
            raise ValueError(f"M must be a power of 2, got {self.M}")

    @property
    def bits_per_symbol(self) -> int:
        return int(np.log2(self.M))


@dataclass(frozen=True)
class FactorGraph:
    """Binary K x J matrix linking resources (rows) to users (columns), with
    its degrees and edge indices.  Each entry of F must be an integer or bool
    equal to 0 or 1; no other value is coerced.

    The E edges (nonzeros of F) are numbered by degree group, in ascending
    degree, then resource by resource, so resource k owns the contiguous
    edges from ``res_start[k]`` in ascending user order, and each degree
    group's edges are contiguous too.  With one degree that is row by row.
    Edge e joins resource ``edge_res[e]`` to user ``edge_user[e]``.  Row j of
    the (J, max(d_v, 2)) array ``user_edges`` lists user j's edges in
    ascending resource order, padded with the index E; a message array with
    E + 1 rows keeps row E for that padding, and row e of ``partners`` is
    edge e's user's row without e.  ``groups`` holds one (d,
    resources, edges) entry per degree group, in edge order: the degree, the
    group's resources in ascending order and the slice of its edges."""

    F: np.ndarray
    row_degrees: np.ndarray = field(init=False)
    col_degrees: np.ndarray = field(init=False)
    res_start: np.ndarray = field(init=False)
    edge_res: np.ndarray = field(init=False)
    edge_user: np.ndarray = field(init=False)
    user_edges: np.ndarray = field(init=False)
    partners: np.ndarray = field(init=False)
    groups: tuple[tuple[int, np.ndarray, slice], ...] = field(init=False)

    def __post_init__(self) -> None:
        F = np.asarray(self.F)
        if F.ndim != 2:
            raise ValueError("factor matrix must be 2-D")
        if F.shape[1] == 0:
            raise ValueError(f"factor matrix of shape (K, J) = {F.shape} has no user column")
        if F.dtype.kind not in "biu" or not np.isin(F, (0, 1)).all():
            raise ValueError("factor matrix entries must be the integers 0 or 1")
        F = F.astype(np.int64)
        row_degrees, col_degrees = F.sum(axis=1), F.sum(axis=0)
        by_degree = np.argsort(row_degrees, kind="stable")  # resources in edge order
        group_rows, cols = np.nonzero(F[by_degree])
        rows = by_degree[group_rows]  # edge e joins resource rows[e], user cols[e]
        res_start = np.empty_like(row_degrees)
        res_start[by_degree] = np.cumsum(row_degrees[by_degree]) - row_degrees[by_degree]
        by_user = np.lexsort((rows, cols))
        users = cols[by_user]
        col_start = np.cumsum(col_degrees) - col_degrees
        user_edges = np.full((F.shape[1], max(2, *col_degrees)), rows.size)
        user_edges[users, np.arange(rows.size) - col_start[users]] = by_user
        own = user_edges[cols]  # row e holds edge e once
        partners = own[own != np.arange(rows.size)[:, None]].reshape(-1, own.shape[1] - 1)
        for name, value in dict(F=F, row_degrees=row_degrees, col_degrees=col_degrees,
                                res_start=res_start, edge_res=rows, edge_user=cols,
                                user_edges=user_edges, partners=partners).items():
            object.__setattr__(self, name, _frozen(value))
        groups = []
        for d in sorted(set(row_degrees.tolist())):
            ks = np.flatnonzero(row_degrees == d)
            start = int(res_start[ks[0]])
            groups.append((d, _frozen(ks), slice(start, start + ks.size * d)))
        object.__setattr__(self, "groups", tuple(groups))

    def resource_edges(self, k: int) -> slice:
        """The edges of resource k."""
        return slice(self.res_start[k], self.res_start[k] + self.row_degrees[k])

    def resource_users(self, k: int) -> np.ndarray:
        """Indices of the users colliding on resource k."""
        return self.edge_user[self.resource_edges(k)]


@dataclass(frozen=True)
class CodebookSet:
    """The per-user codebooks of a system: ``books[j, m, k]`` is the k-th
    entry of user j's m-th codeword.  ``factor_matrix`` (K x J, 0/1) records
    the intended sparsity pattern and defaults to the observed supports;
    ``config`` and ``graph`` are derived from the books and F."""

    books: np.ndarray
    factor_matrix: np.ndarray | None = None
    config: SystemConfig = field(init=False)
    graph: FactorGraph = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        books = np.asarray(self.books, dtype=np.complex128)
        if books.ndim != 3:
            raise ValueError("books must be a (J, M, K) array")
        J, M, K = books.shape
        object.__setattr__(self, "config", SystemConfig(J=J, K=K, M=M))
        object.__setattr__(self, "books", _frozen(books))
        F = self.factor_matrix
        graph = FactorGraph((np.abs(books) > 0).any(axis=1).T if F is None else F)
        if graph.F.shape != (K, J):
            raise ValueError(f"factor matrix shape {graph.F.shape} != (K, J)")
        object.__setattr__(self, "factor_matrix", graph.F)
        object.__setattr__(self, "graph", graph)


def superpositions(books: np.ndarray) -> np.ndarray:
    """(M^J, K) sums of one codeword per user of (J, M, K) ``books``, in
    lexicographic symbol order with user 0 as the most significant digit.
    The result is allocated once, before any sum, so a size numpy cannot
    allocate raises before memory is touched."""
    J, M, K = books.shape
    S = np.zeros((M,) * J + (K,), dtype=np.complex128)
    for j in range(J):
        S += books[j].reshape((1,) * j + (M,) + (1,) * (J - 1 - j) + (K,))
    return S.reshape(-1, K)


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
    """Serialize to the interchange schema: integer J/K/M, F rows, and
    codebooks as J x M x K arrays of [re, im] pairs."""
    cfg = cbs.config
    doc: dict = {"J": cfg.J, "K": cfg.K, "M": cfg.M, "F": cbs.factor_matrix.tolist()}
    doc["codebooks"] = [
        [[[float(z.real), float(z.imag)] for z in cw] for cw in book]
        for book in cbs.books
    ]
    return doc


def _items(x, n: int, what: str) -> list:
    """``x`` if it is a list of n items, else a format error naming it."""
    if not isinstance(x, (list, tuple)) or len(x) != n:
        raise CodebookFormatError(f"{what}: expected a list of {n} items")
    return x


def _entry(pair, where: str) -> complex:
    try:
        re, im = (float(v) for v in _items(pair, 2, where))
    except (TypeError, ValueError) as exc:
        raise CodebookFormatError(f"{where} is not an [re, im] pair: {pair!r}") from exc
    if not (np.isfinite(re) and np.isfinite(im)):
        raise CodebookFormatError(f"{where} is not finite: {pair!r}")
    return complex(re, im)


def codebook_from_dict(doc: dict) -> CodebookSet:
    """Parse the interchange schema; raises :class:`CodebookFormatError` on
    missing fields, malformed entries or shape mismatches."""
    try:
        J, K, M = (_json_int(doc, key) for key in "JKM")
        raw = doc["codebooks"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CodebookFormatError(f"missing or invalid field: {exc}") from exc
    books = [
        [
            [_entry(pair, f"entry ({j},{m},{k})")
             for k, pair in enumerate(_items(cw, K, f"codebook {j} codeword {m}"))]
            for m, cw in enumerate(_items(book, M, f"codebook {j}"))
        ]
        for j, book in enumerate(_items(raw, J, "codebooks"))
    ]
    try:
        return CodebookSet(np.array(books, complex), doc.get("F"))
    except (TypeError, ValueError, OverflowError) as exc:
        raise CodebookFormatError(str(exc)) from exc


def write_codebook_json(cbs: CodebookSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(codebook_to_dict(cbs)) + "\n")


def _read_json_object(path: str | Path) -> dict:
    """A JSON file whose top level is an object, else a format error."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CodebookFormatError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CodebookFormatError(f"{path}: top level must be an object")
    return doc


def read_codebook_json(path: str | Path) -> CodebookSet:
    return codebook_from_dict(_read_json_object(path))
