"""Graded cochain complexes over GF(2) from intersection data.

Generators are intersection points carrying an integer degree and the two
potential values of the intersecting Lagrangians; the differential raises
degree by exactly one and counts strips mod 2.  Strip counts are inputs,
never computed here: the module is the bookkeeping engine for complexes
whose counts come from elsewhere.

Each complex carries one bit index per degree, built once at construction:
bit i stands for the i-th generator of that degree, in generator order, and
each source gets one row, a Python integer whose bits are its targets one
degree up.  The same rows serve two jobs.  The d^2 check XORs, for every
source, the rows of its targets; those all live in the index two degrees
up, so a nonzero result names the odd paths directly.  Cohomology
dimensions come from one GF(2) elimination per degree over the stored rows,
reduced by leading-bit pivots (bit-packed elimination in the manner of
Arlazarov-Dinic-Kronrod-Faradzev, 1970), so each rank is taken once.
Errors name the first offender in generator order.

The golden values reproduced by the test suite: a transverse sphere pair
meeting in a single point has cohomology Z2 in degree 0 in one order and
degree m in the other, and a compactified plane-pair Lagrangian has the
total cohomology of an m-sphere, {0: 1, m: 1}.

Serialization schema (JSON):

    {"generators": [{"id": str, "degree": int, "fL": float, "fLp": float}],
     "differential": [[p_id, q_id], ...]}

`complex_to_json` writes the layout of json.dumps(doc, sort_keys=True,
indent=2) itself, differential pairs sorted, since that call runs json's
pure-Python encoder; the bytes are the same, and the test suite holds the
call as the oracle.  `complex_from_json` checks the shape, string ids and
integral degrees before the complex axioms.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

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
        if len(self._by_id) != len(self.generators):
            raise DifferentialError("generator ids must be unique")
        # one bit index per degree: bit i stands for the i-th generator of
        # that degree, in generator order
        self._ids: dict = {}  # degree -> generator ids
        degree, bit = {}, {}  # generator id -> its degree, its bit
        for g in self.generators:
            ids = self._ids.setdefault(g.degree, [])
            degree[g.id] = g.degree
            bit[g.id] = 1 << len(ids)
            ids.append(g.id)
        self._row = self._index_rows(degree, bit)  # id -> its targets' bits
        self._check_square()
        self._cohomology = None

    def _index_rows(self, degree, bit) -> dict:
        """One bit row per source over the generators of degree + 1; an
        unknown id or a degree step other than 1 raises."""
        row = dict.fromkeys(bit, 0)
        try:
            for p_id, q_id in self.differential:
                if degree[p_id] + 1 != degree[q_id]:
                    break
                row[p_id] |= bit[q_id]
            else:
                return row
        except KeyError:
            pass
        self._raise_entry_error()

    def _raise_entry_error(self):
        """Name the first bad entry, by the generator order of its ids."""
        order = {gid: i for i, gid in enumerate(self._by_id)}
        last = len(order)
        for p_id, q_id in sorted(self.differential, key=lambda e: (
                order.get(e[0], last), order.get(e[1], last), str(e[0]), str(e[1]))):
            if p_id not in self._by_id or q_id not in self._by_id:
                raise DifferentialError(f"unknown generator in entry ({p_id}, {q_id})")
            dp = self._by_id[p_id].degree
            dq = self._by_id[q_id].degree
            if dq != dp + 1:
                raise DifferentialError(
                    f"entry ({p_id}, {q_id}) connects degrees {dp} -> {dq}; "
                    "the differential must raise degree by exactly 1"
                )

    def _check_square(self):
        """d^2 = 0 over GF(2): the row of d(d p) is the XOR of the rows of
        p's targets, all over the generators of degree(p) + 2."""
        row = self._row
        square = dict.fromkeys(row, 0)
        for p_id, q_id in self.differential:
            square[p_id] ^= row[q_id]
        if any(square.values()):
            p = next(g for g in self.generators if square[g.id])
            bits, ids = square[p.id], self._ids[p.degree + 2]
            odd = [ids[i] for i in range(bits.bit_length()) if bits >> i & 1]
            raise DifferentialError(
                f"d^2 != 0: generator {p.id} reaches {sorted(odd)} an odd "
                "number of times"
            )

    def degrees(self):
        return sorted(self._ids)

    def chain_dims(self) -> dict:
        return {k: len(ids) for k, ids in self._ids.items()}

    def _rows(self, degree: int) -> list:
        """Bit rows of d: CF^degree -> CF^{degree+1}, one per source."""
        return [self._row[gid] for gid in self._ids.get(degree, ())]

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
    if any(n not in (0, 1) for n in counts.values()):
        raise DifferentialError("counts are mod 2: entries must be 0 or 1")
    # FloerComplexZ2 rejects entries naming unknown generators
    differential = {entry for entry, n in counts.items() if n}
    cx = FloerComplexZ2(gens, differential)
    by_id = cx._by_id
    # a pair draws an area check only if one of its ends tracks potentials
    tracked = {g.id for g in gens if not g.f_l == g.f_lp == 0.0}
    strips = ([(p, q) for p, q in differential if p in tracked or q in tracked]
              if tracked else ())
    for p_id, q_id in strips:
        area = strip_area(by_id[p_id].pair(), by_id[q_id].pair())
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


# the fields of a generator and the ids of a pair sit three levels deep
_DEPTH3 = "\n" + " " * 6


def _json_value(value) -> str:
    """value as json.dumps(..., sort_keys=True, indent=2) writes it three
    levels deep: float and int reprs for exact finite floats and ints, json's
    own encoders for everything else (NaN, +-inf, bool, None, subclasses)."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is float and value - value == 0.0:
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value, sort_keys=True, indent=2).replace("\n", _DEPTH3)


class _IdText(dict):
    """JSON text of exact-string ids.  Any other id is encoded at each use:
    1, 1.0 and True are one key but three texts."""

    def __missing__(self, value):
        return _json_value(value)


def _json_list(items) -> str:
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def complex_to_json(cx: FloerComplexZ2) -> str:
    """The complex in the schema above, byte for byte as
    json.dumps(doc, sort_keys=True, indent=2) writes it; each id is escaped
    once and reused by every differential pair."""
    text = _IdText()
    gens = []
    for g in cx.generators:
        gid = _json_value(g.id)
        if type(g.id) is str:
            text[g.id] = gid
        gens.append(
            f'    {{\n      "degree": {_json_value(g.degree)},\n'
            f'      "fL": {_json_value(g.f_l)},\n'
            f'      "fLp": {_json_value(g.f_lp)},\n'
            f'      "id": {gid}\n    }}'
        )
    pairs = [f"    [\n      {text[p]},\n      {text[q]}\n    ]"
             for p, q in sorted(cx.differential)]
    return ('{\n  "differential": ' + _json_list(pairs)
            + ',\n  "generators": ' + _json_list(gens) + "\n}")


def _malformed(what: str) -> DifferentialError:
    return DifferentialError(f"malformed complex: {what}")


def _generator_from_json(g) -> Generator:
    if type(g) is not dict:
        raise _malformed(f"generator {g!r} is not an object")
    gid, degree = g.get("id"), g.get("degree")
    if type(gid) is not str:
        raise _malformed(f"generator id {gid!r} is not a string")
    if type(degree) is not int and not (type(degree) is float and degree.is_integer()):
        raise _malformed(f"generator {gid} has non-integral degree {degree!r}")
    try:
        return Generator(gid, int(degree), float(g.get("fL", 0.0)),
                         float(g.get("fLp", 0.0)))
    except (TypeError, ValueError, OverflowError):
        raise _malformed(f"generator {gid} has a non-numeric potential") from None


def complex_from_json(text: str) -> FloerComplexZ2:
    """Read the schema above; a file of the wrong shape, with non-string ids
    or non-integral degrees raises DifferentialError, as does a complex that
    fails `build_complex`'s checks."""
    try:
        doc = json.loads(text)
    except RecursionError:  # a RuntimeError, which would read as numerical
        raise _malformed("nested too deeply to parse") from None
    if type(doc) is not dict or type(doc.get("generators")) is not list:
        raise _malformed('expected an object with a "generators" list')
    entries = doc.get("differential", [])
    if type(entries) is not list or not {list} >= set(map(type, entries)) \
            or not {2} >= set(map(len, entries)):
        raise _malformed('"differential" must be a list of [p_id, q_id] pairs')
    gens = [_generator_from_json(g) for g in doc["generators"]]
    try:
        counts = dict.fromkeys(map(tuple, entries), 1)
    except TypeError:  # an id that is a list or an object
        raise _malformed("differential ids must be generator ids") from None
    return build_complex(gens, counts)
