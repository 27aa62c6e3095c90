"""Graded cochain complexes over GF(2) from intersection data.

Generators are intersection points carrying an integer degree and the two
potential values of the intersecting Lagrangians; the differential raises
degree by exactly one and counts strips mod 2.  Strip counts are inputs,
never computed here: the module is the bookkeeping engine for complexes
whose counts come from elsewhere.

The differential is indexed once, at construction, as a map from each
source generator to its targets; the d^2 check walks that index.  Cohomology
dimensions come from one GF(2) elimination per degree: the rows of d_k are
bit-packed from the index (Python integers as bit sets, one bit per
generator of degree k+1) and reduced by leading-bit pivots, so each rank is
taken once and no rank scans the whole differential.

The golden values reproduced by the test suite: a transverse sphere pair
meeting in a single point has cohomology Z2 in degree 0 in one order and
degree m in the other, and a compactified plane-pair Lagrangian has the
total cohomology of an m-sphere, {0: 1, m: 1}.

Serialization schema (JSON):

    {"generators": [{"id": str, "degree": int, "fL": float, "fLp": float}],
     "differential": [[p_id, q_id], ...]}
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from .errors import DifferentialError
from .geometry import GradedPointPair, strip_area


@dataclass(frozen=True)
class Generator:
    """Intersection-point generator with degree and potential pair."""

    id: str
    degree: int
    f_l: float = 0.0
    f_lp: float = 0.0

    def pair(self, theta_l: float = 0.0, theta_lp: float = 0.0) -> GradedPointPair:
        return GradedPointPair(theta_l, theta_lp, self.f_l, self.f_lp)


def gf2_rank(rows) -> int:
    """Rank over GF(2) of bit-packed rows (Python ints).

    Pivots are keyed by their leading bit: a row is reduced by the pivot
    sharing its leading bit until it vanishes or its leading bit is new.
    """
    pivots: dict = {}
    for row in rows:
        while row:
            lead = row.bit_length()
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


class FloerComplexZ2:
    """Immutable graded complex over GF(2); build via `build_complex`."""

    def __init__(self, generators, differential):
        self.generators = tuple(generators)
        self.differential = frozenset(differential)
        self._by_id = {g.id: g for g in self.generators}
        self._targets: dict = {}  # source id -> list of target ids
        for p_id, q_id in self.differential:
            self._targets.setdefault(p_id, []).append(q_id)
        self._validate()
        self._cohomology = None

    def _validate(self):
        if len(self._by_id) != len(self.generators):
            raise DifferentialError("generator ids must be unique")
        for p_id, q_id in self.differential:
            if p_id not in self._by_id or q_id not in self._by_id:
                raise DifferentialError(f"unknown generator in entry ({p_id}, {q_id})")
            dp = self._by_id[p_id].degree
            dq = self._by_id[q_id].degree
            if dq != dp + 1:
                raise DifferentialError(
                    f"entry ({p_id}, {q_id}) connects degrees {dp} -> {dq}; "
                    "the differential must raise degree by exactly 1"
                )
        # d^2 = 0 over GF(2): paths p -> q -> r must cancel in pairs
        targets = self._targets
        for p_id, mids in targets.items():
            parity: dict = {}
            for q_id in mids:
                for r_id in targets.get(q_id, ()):
                    parity[r_id] = parity.get(r_id, 0) ^ 1
            bad = [r for r, odd in parity.items() if odd]
            if bad:
                raise DifferentialError(
                    f"d^2 != 0: generator {p_id} reaches {sorted(bad)} an odd "
                    "number of times"
                )

    def degrees(self):
        return sorted({g.degree for g in self.generators})

    def chain_dims(self) -> dict:
        out: dict = {}
        for g in self.generators:
            out[g.degree] = out.get(g.degree, 0) + 1
        return out

    def _rows(self, degree: int) -> list:
        """Bit-packed rows of d: CF^degree -> CF^{degree+1}, one per source."""
        target_bit = {g.id: i for i, g in
                      enumerate(g for g in self.generators if g.degree == degree + 1)}
        return [sum(1 << target_bit[q_id] for q_id in self._targets.get(g.id, ()))
                for g in self.generators if g.degree == degree]

    def differential_rank(self, degree: int) -> int:
        """Rank of d: CF^degree -> CF^{degree+1} over GF(2)."""
        return gf2_rank(self._rows(degree))

    def cohomology_dims(self) -> dict:
        """dim HF^k = dim CF^k - rank d_k - rank d_{k-1}, nonzero entries only.

        Each rank is taken once; the result is kept, since the complex is
        immutable.
        """
        if self._cohomology is None:
            chain = self.chain_dims()
            rank = {k: self.differential_rank(k) for k in chain}
            self._cohomology = {}
            for k, dim in chain.items():
                hk = dim - rank[k] - rank.get(k - 1, 0)
                if hk:
                    self._cohomology[k] = hk
        return dict(self._cohomology)

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * d for k, d in self.chain_dims().items())


def build_complex(generators, counts) -> FloerComplexZ2:
    """Assemble a complex from generators and strip counts mod 2.

    counts maps (p_id, q_id) to 0 or 1; only degree-raising entries are
    legal, and the assembled differential must square to zero.  Nonzero
    entries whose potential bookkeeping gives a nonpositive strip area draw
    a warning: a nonconstant holomorphic strip has positive area.
    """
    gens = [g if isinstance(g, Generator) else Generator(**g) for g in generators]
    by_id = {g.id: g for g in gens}
    differential = set()
    for (p_id, q_id), n in counts.items():
        if n not in (0, 1):
            raise DifferentialError("counts are mod 2: entries must be 0 or 1")
        if n == 0:
            continue
        if p_id not in by_id or q_id not in by_id:
            raise DifferentialError(f"count references unknown generator ({p_id}, {q_id})")
        differential.add((p_id, q_id))
    cx = FloerComplexZ2(gens, differential)
    for p_id, q_id in differential:
        p, q = by_id[p_id], by_id[q_id]
        if p.f_l == p.f_lp == q.f_l == q.f_lp == 0.0:
            continue  # potentials not tracked for this pair
        area = strip_area(p.pair(), q.pair())
        if area <= 0.0:
            warnings.warn(
                f"strip ({p_id}, {q_id}) has nonpositive area {area:.6g}; "
                "counts with honest potentials should have positive area",
                stacklevel=2,
            )
    return cx


def expected_sphere_cohomology(m: int) -> dict:
    """Golden value for compactified plane-pair Lagrangians: {0: 1, m: 1}."""
    if m < 3:
        raise ValueError("m must be >= 3")
    return {0: 1, m: 1}


def verify_degree_zero_identity(cx: FloerComplexZ2) -> bool:
    """Necessary condition for a complex of isomorphic Lagrangians: a
    degree-0 generator exists and HF^0 is nonzero."""
    if not any(g.degree == 0 for g in cx.generators):
        return False
    return cx.cohomology_dims().get(0, 0) > 0


def validate_degree_windows(cx: FloerComplexZ2, m: int,
                            compactification_ids=()) -> bool:
    """Degree windows: interior generators of a special-Lagrangian pair sit
    strictly between 0 and m; generators at the added points at infinity sit
    in {0, m}."""
    special = set(compactification_ids)
    for g in cx.generators:
        if g.id in special:
            if g.degree not in (0, m):
                return False
        elif not 0 < g.degree < m:
            return False
    return True


def complex_to_json(cx: FloerComplexZ2) -> str:
    doc = {
        "generators": [
            {"id": g.id, "degree": g.degree, "fL": g.f_l, "fLp": g.f_lp}
            for g in cx.generators
        ],
        "differential": sorted([p, q] for p, q in cx.differential),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def complex_from_json(text: str) -> FloerComplexZ2:
    doc = json.loads(text)
    gens = [
        Generator(g["id"], int(g["degree"]), float(g.get("fL", 0.0)),
                  float(g.get("fLp", 0.0)))
        for g in doc["generators"]
    ]
    counts = {(p, q): 1 for p, q in doc.get("differential", [])}
    return build_complex(gens, counts)
