"""Symbolic codebook templates, template instantiation and unit-norm
normalization.

A template assigns to every (user, symbol, resource) slot either zero or a
signed reference to one of the complex design parameters a_1..a_T.  Slots are
stored as a (J, M, K) integer array: 0 means a structural zero, +t means +a_t
and -t means -a_t (t is 1-based).  Both built-in templates place antipodal
one-dimensional constellations [a_i, a_j, -a_j, -a_i] on each resource a user
occupies, with the parameter pairs chosen so that constellations colliding on
a resource never share a parameter (the Latin property).  A template's factor
graph is derived from its slots: user j occupies resource k when any slot
(j, m, k) is nonzero.

Templates and codebook sets derive their (J, K, M) ``config`` alike, so
:class:`~scma.core.SystemConfig` checks the dimensions of both: a template
whose users have a number of codewords that is not a power of two is refused
when it is built.  Template slots and codebook entries obey the same
structure rules, :func:`codebook_violations`; :func:`validate_codebook`
reports them for a codebook set with its codeword norms, from which its norm
warning is derived.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    CodebookFormatError,
    CodebookSet,
    DegenerateParameterError,
    FactorGraph,
    MalformedParameterError,
    SystemConfig,
    _frozen,
    _json_int,
    _read_json_object,
)
from .fixtures import load_factor_matrix

NORMALIZE_TOL = 1e-9
NORMALIZE_MAX_SWEEPS = 200
NORM_WARNING_TOL = 1e-6


def codebook_violations(x: np.ndarray, F: np.ndarray) -> list[str]:
    """Structure rules of a (J, M, K) array of template slots or codebook
    entries under its (K, J) factor matrix F.  Returns, in this order: each
    resource no user occupies, each codeword whose support is not its user's
    column of F, each pair of identical codewords of one user, and per user
    the first codeword m that is not the negation of codeword M-1-m."""
    x, F = np.asarray(x), np.asarray(F, bool)
    M = x.shape[1]
    out = [f"resource {k} has no users attached"
           for k in np.flatnonzero(~F.any(axis=1))]
    wrong_support = ((x != 0) != F.T[:, None, :]).any(axis=2)
    out += [
        f"user {j} codeword {m}: support does not match factor matrix column"
        for j, m in zip(*np.nonzero(wrong_support))
    ]
    same = np.triu((x[:, :, None] == x[:, None]).all(axis=3), k=1)
    out += [
        f"user {j}: codewords {m} and {n} are identical"
        for j, m, n in zip(*np.nonzero(same))
    ]
    for j, broken in enumerate((x != -x[:, ::-1]).any(axis=2)):
        if broken.any():
            m = int(np.argmax(broken))
            out.append(
                f"user {j}: codeword {m} is not the negation of codeword {M - 1 - m}"
            )
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Structural check results and the (J, M) codeword norms.  Norm
    deviations are never violations: ``warnings`` is computed from the norms,
    one line when any is more than ``NORM_WARNING_TOL`` off unit norm."""

    violations: list[str]
    codeword_norms: np.ndarray

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def warnings(self) -> list[str]:
        off = np.abs(self.codeword_norms - 1.0)
        n = int((off > NORM_WARNING_TOL).sum())
        worst = float(self.codeword_norms.flat[np.argmax(off)])
        return [f"{n} codewords deviate from unit norm (worst {worst:.4f})"] if n else []

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": self.violations,
            "warnings": self.warnings,
            "codeword_norms": np.round(self.codeword_norms, 10).tolist(),
        }


def validate_codebook(cbs: CodebookSet) -> ValidationReport:
    """Check a codebook set against :func:`codebook_violations` and report
    its per-codeword norms."""
    violations = codebook_violations(cbs.books, cbs.factor_matrix)
    return ValidationReport(violations, np.linalg.norm(cbs.books, axis=2))


@dataclass(frozen=True)
class StructureTemplate:
    """Symbolic codebook skeleton: signed parameter placements, the factor
    graph they realize and the parameter count, the highest one placed.
    ``config`` and ``graph`` are derived from the slots, as a
    :class:`CodebookSet` derives them from its books."""

    name: str
    slots: np.ndarray  # (J, M, K) of 0 / +-t
    num_params: int = field(init=False)
    config: SystemConfig = field(init=False, compare=False, repr=False)
    graph: FactorGraph = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        slots = np.asarray(self.slots, dtype=np.int64)
        if slots.ndim != 3:
            raise ValueError("slots must be a (J, M, K) array")
        J, M, K = slots.shape
        object.__setattr__(self, "config", SystemConfig(J=J, K=K, M=M))
        object.__setattr__(self, "num_params", int(np.abs(slots).max(initial=0)))
        object.__setattr__(self, "slots", _frozen(slots))
        object.__setattr__(self, "graph", FactorGraph((slots != 0).any(axis=1).T))
        violations = codebook_violations(slots, self.graph.F)
        if violations:
            raise ValueError(f"template {self.name}: {violations[0]}")
        self._check_latin()
        used = set(np.abs(slots).ravel().tolist())
        unused = next((t for t in range(1, self.num_params + 1) if t not in used), None)
        if unused is not None:
            raise ValueError(
                f"template {self.name}: no slot references parameter a_{unused}")

    def _check_latin(self) -> None:
        for k in range(self.config.K):
            groups = []
            for j in self.graph.resource_users(k):
                groups.append(set(np.abs(self.slots[j, :, k])) - {0})
            for i in range(len(groups)):
                for l in range(i + 1, len(groups)):
                    if groups[i] & groups[l]:
                        raise ValueError(
                            f"template {self.name}: resource {k} assigns a "
                            f"shared parameter to two colliding users"
                        )


# --- built-in layouts -----------------------------------------------------
#
# Row m of each user block is codeword m; entry k is the signed 1-based
# parameter placed on resource k.  The 6x4 system pairs parameters as
# (a1,a2), (a3,a4), (a5,a6); users 3 and 5 carry the dimension-permuted
# variant [-a4, a3, -a3, a4] of the (a3,a4) constellation on their first
# resource.  The 12x6 system adds the pair (a7,a8) and uses the permuted
# placements inside users 3 and 6.

_SLOTS_6X4 = [
    [[+1, 0, +3, 0], [+2, 0, +4, 0], [-2, 0, -4, 0], [-1, 0, -3, 0]],
    [[0, +3, 0, +1], [0, +4, 0, +2], [0, -4, 0, -2], [0, -3, 0, -1]],
    [[-4, +5, 0, 0], [+3, +6, 0, 0], [-3, -6, 0, 0], [+4, -5, 0, 0]],
    [[0, 0, +1, +5], [0, 0, +2, +6], [0, 0, -2, -6], [0, 0, -1, -5]],
    [[+5, 0, 0, -4], [+6, 0, 0, +3], [-6, 0, 0, -3], [-5, 0, 0, +4]],
    [[0, +1, +5, 0], [0, +2, +6, 0], [0, -2, -6, 0], [0, -1, -5, 0]],
]

_SLOTS_12X6 = [
    # user 1: resources 1,2 with pairs (a1,a2) / (a3,a4)
    [[+1, +3, 0, 0, 0, 0], [+2, +4, 0, 0, 0, 0],
     [-2, -4, 0, 0, 0, 0], [-1, -3, 0, 0, 0, 0]],
    # user 2: resources 1,3 with (a3,a4) / (a5,a6)
    [[+3, 0, +5, 0, 0, 0], [+4, 0, +6, 0, 0, 0],
     [-4, 0, -6, 0, 0, 0], [-3, 0, -5, 0, 0, 0]],
    # user 3: resources 1,4 with (a5,a6) / permuted (a7,a8)
    [[+5, 0, 0, -8, 0, 0], [+6, 0, 0, +7, 0, 0],
     [-6, 0, 0, -7, 0, 0], [-5, 0, 0, +8, 0, 0]],
    # user 4: resources 1,5 with (a7,a8) / (a1,a2)
    [[+7, 0, 0, 0, +1, 0], [+8, 0, 0, 0, +2, 0],
     [-8, 0, 0, 0, -2, 0], [-7, 0, 0, 0, -1, 0]],
    # user 5: resources 2,4 with (a5,a6) / (a3,a4)
    [[0, +5, 0, +3, 0, 0], [0, +6, 0, +4, 0, 0],
     [0, -6, 0, -4, 0, 0], [0, -5, 0, -3, 0, 0]],
    # user 6: resources 2,5 with (a7,a8) / permuted (a3,a4)
    [[0, +7, 0, 0, -4, 0], [0, +8, 0, 0, +3, 0],
     [0, -8, 0, 0, -3, 0], [0, -7, 0, 0, +4, 0]],
    # user 7: resources 2,6 with (a1,a2) / (a5,a6)
    [[0, +1, 0, 0, 0, +5], [0, +2, 0, 0, 0, +6],
     [0, -2, 0, 0, 0, -6], [0, -1, 0, 0, 0, -5]],
    # user 8: resources 3,4 with (a7,a8) / (a1,a2)
    [[0, 0, +7, +1, 0, 0], [0, 0, +8, +2, 0, 0],
     [0, 0, -8, -2, 0, 0], [0, 0, -7, -1, 0, 0]],
    # user 9: resources 3,5 with (a1,a2) / (a5,a6)
    [[0, 0, +1, 0, +5, 0], [0, 0, +2, 0, +6, 0],
     [0, 0, -2, 0, -6, 0], [0, 0, -1, 0, -5, 0]],
    # user 10: resources 3,6 with (a3,a4) / (a1,a2)
    [[0, 0, +3, 0, 0, +1], [0, 0, +4, 0, 0, +2],
     [0, 0, -4, 0, 0, -2], [0, 0, -3, 0, 0, -1]],
    # user 11: resources 4,6 with (a5,a6) / (a7,a8)
    [[0, 0, 0, +5, 0, +7], [0, 0, 0, +6, 0, +8],
     [0, 0, 0, -6, 0, -8], [0, 0, 0, -5, 0, -7]],
    # user 12: resources 5,6 with (a7,a8) / (a3,a4)
    [[0, 0, 0, 0, +7, +3], [0, 0, 0, 0, +8, +4],
     [0, 0, 0, 0, -8, -4], [0, 0, 0, 0, -7, -3]],
]

_BUILTIN = {"6x4": _SLOTS_6X4, "12x6": _SLOTS_12X6}


def builtin_template(name: str) -> StructureTemplate:
    """Return one of the shipped layouts ("6x4" or "12x6")."""
    if name not in _BUILTIN:
        raise KeyError(f"unknown template {name!r}; available: {sorted(_BUILTIN)}")
    return StructureTemplate(name=name, slots=np.asarray(_BUILTIN[name]))


def _params(template: StructureTemplate, a: Sequence[complex]) -> np.ndarray:
    """a as a flat complex vector of the template's num_params parameters."""
    a = np.asarray(a, dtype=np.complex128).ravel()
    if a.size != template.num_params:
        raise MalformedParameterError(
            f"template {template.name} needs {template.num_params} parameters, "
            f"got {a.size}"
        )
    if not np.isfinite(a).all():
        raise MalformedParameterError(f"template {template.name}: non-finite parameter")
    return a


def instantiate(template: StructureTemplate, a: Sequence[complex]) -> CodebookSet:
    """Fill the template slots with concrete parameter values: slot +-t
    becomes +-a_t.  Linear in a."""
    a = _params(template, a)
    padded = np.concatenate(([0.0 + 0.0j], a))  # index 0 = structural zero
    books = np.sign(template.slots) * padded[np.abs(template.slots)]
    return CodebookSet(books, template.graph.F)


def codeword_norms(template: StructureTemplate, a: Sequence[complex]) -> np.ndarray:
    """(J, M) Euclidean norms of the codewords instantiate(template, a)
    would produce."""
    mag2 = np.concatenate(([0.0], np.abs(_params(template, a)) ** 2))
    return np.sqrt(mag2[np.abs(template.slots)].sum(axis=2))


def normalize(
    template: StructureTemplate, a: Sequence[complex]
) -> tuple[np.ndarray, float]:
    """Rescale the parameters so every codeword has unit Euclidean norm.

    Cyclic projection: visit codewords in (user ascending, symbol ascending)
    order and divide each codeword's parameters by its current norm, sweeping
    until the worst deviation |norm - 1| drops below ``NORMALIZE_TOL`` or
    ``NORMALIZE_MAX_SWEEPS`` sweeps elapse.  Returns the adjusted parameters
    and the final residual.  Phases are never touched, only magnitudes.
    Parameters whose largest magnitude lies outside [1/16, 16] are first
    scaled by the power of two that brings it into [1/2, 1): from far off
    unit scale the sweeps stall short of ``NORMALIZE_TOL``.  A codeword whose
    squares underflow to a zero norm is first scaled by the power of two that
    brings its largest magnitude into [1/2, 1).
    """
    a = _params(template, a).copy()
    cfg = template.config
    peak = np.abs(a).max()
    if not 1 / 16 <= peak <= 16:
        shift = -np.frexp(peak)[1]
        np.ldexp(a.real, shift, out=a.real)
        np.ldexp(a.imag, shift, out=a.imag)
    param_sets = [
        [np.abs(template.slots[j, m][template.slots[j, m] != 0]) - 1
         for m in range(cfg.M)]
        for j in range(cfg.J)
    ]
    residual = np.inf
    for _ in range(NORMALIZE_MAX_SWEEPS):
        for j in range(cfg.J):
            for m in range(cfg.M):
                ids = param_sets[j][m]
                norm = np.sqrt((np.abs(a[ids]) ** 2).sum())
                if norm == 0.0:
                    shift = -np.frexp(np.abs(a[ids]).max())[1]
                    a[ids] = np.ldexp(a[ids].real, shift) + 1j * np.ldexp(a[ids].imag, shift)
                    norm = np.sqrt((np.abs(a[ids]) ** 2).sum())
                    if norm == 0.0:
                        raise DegenerateParameterError(
                            f"codeword ({j}, {m}) has zero norm during normalization"
                        )
                a[ids] /= norm
        residual = float(np.abs(codeword_norms(template, a) - 1.0).max())
        if residual < NORMALIZE_TOL:
            break
    return a, residual


def derive_8x4(base: CodebookSet) -> CodebookSet:
    """Extend a 6x4 set to 8 users on the same 4 resources: users 7 and 8
    reuse the constellation values of users 4 and 3 respectively, placed on
    the repeated factor-matrix columns (user 7 on resources {1,2}, user 8 on
    resources {3,4})."""
    cfg = base.config
    if (cfg.J, cfg.K, cfg.M) != (6, 4, 4):
        raise ValueError(
            f"base must be a 6-user, 4-resource, M=4 set, got "
            f"J={cfg.J}, K={cfg.K}, M={cfg.M}"
        )
    books = np.zeros((8, cfg.M, 4), dtype=np.complex128)
    books[:6] = base.books
    # user 7 (index 6): values of base user 4 (support rows {2,3}) moved to
    # rows {0,1}; user 8 (index 7): values of base user 3 (rows {0,1}) moved
    # to rows {2,3}.  Nonzero values keep their within-support order.
    books[6, :, 0] = base.books[3, :, 2]
    books[6, :, 1] = base.books[3, :, 3]
    books[7, :, 2] = base.books[2, :, 0]
    books[7, :, 3] = base.books[2, :, 1]
    return CodebookSet(books, load_factor_matrix("eq9_factor_8x4"))


# --- template JSON files ---------------------------------------------------

def _slot_from_cell(cell) -> int:
    """A template JSON slot cell, the int 0 or {"p": int >= 0, "s": +-1}, as
    a signed 1-based parameter reference."""
    if isinstance(cell, dict):
        p, s = cell.get("p"), cell.get("s")
        if type(p) is int and p >= 0 and type(s) is int and s in (1, -1):
            return s * (p + 1)
    elif type(cell) is int and cell == 0:
        return 0
    raise CodebookFormatError(f"malformed slot entry: {cell!r}")


def template_from_dict(doc: dict) -> StructureTemplate:
    """Parse a template document {"name", "num_params", "F", "slots"}, whose
    (J, M, K) slot cells are read by :func:`_slot_from_cell`."""
    try:
        name = doc["name"]
        if type(name) is not str:
            raise ValueError(f"name must be a string, got {name!r}")
        num_params = _json_int(doc, "num_params")
        F = FactorGraph(doc["F"]).F
        raw = doc["slots"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CodebookFormatError(f"missing or invalid template field: {exc}") from exc
    try:
        slots = np.array(
            [[[_slot_from_cell(cell) for cell in row] for row in book] for book in raw],
            dtype=np.int64,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise CodebookFormatError(f"malformed slot entry: {exc}") from exc
    try:
        template = StructureTemplate(name=name, slots=slots)
    except ValueError as exc:
        raise CodebookFormatError(str(exc)) from exc
    if num_params != template.num_params:
        raise CodebookFormatError(
            f"template {name}: num_params is {num_params}, but the slots "
            f"place {template.num_params} parameters")
    if not np.array_equal(F, template.graph.F):
        raise CodebookFormatError(f"template {name}: slots do not match F")
    return template


def read_template_json(path: str | Path) -> StructureTemplate:
    return template_from_dict(_read_json_object(path))
