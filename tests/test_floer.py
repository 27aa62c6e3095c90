"""Tests for the GF(2) complex bookkeeping."""

import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaglab.errors import DifferentialError
from slaglab.floer import (
    FloerComplexZ2,
    Generator,
    build_complex,
    complex_from_json,
    complex_to_json,
    expected_sphere_cohomology,
    gf2_rank,
    validate_degree_windows,
    verify_degree_zero_identity,
)


def test_one_generator_degree_zero():
    cx = build_complex([Generator("p", 0)], {})
    assert cx.cohomology_dims() == {0: 1}
    assert verify_degree_zero_identity(cx)


def test_one_generator_degree_m():
    for m in (3, 5):
        cx = build_complex([Generator("q", m)], {})
        assert cx.cohomology_dims() == {m: 1}


def test_rejects_counts_between_equal_degrees():
    gens = [Generator("a", 0), Generator("b", 0)]
    with pytest.raises(DifferentialError):
        build_complex(gens, {("a", "b"): 1})


def test_rejects_counts_skipping_degrees():
    gens = [Generator("a", 0), Generator("b", 2)]
    with pytest.raises(DifferentialError):
        build_complex(gens, {("a", "b"): 1})


def test_rejects_d_squared_nonzero():
    gens = [Generator("a", 0), Generator("b", 1), Generator("c", 2)]
    with pytest.raises(DifferentialError):
        build_complex(gens, {("a", "b"): 1, ("b", "c"): 1})


def test_accepts_d_squared_zero_with_cancellation():
    gens = [
        Generator("a", 0),
        Generator("b1", 1),
        Generator("b2", 1),
        Generator("c", 2),
    ]
    counts = {("a", "b1"): 1, ("a", "b2"): 1, ("b1", "c"): 1, ("b2", "c"): 1}
    cx = build_complex(gens, counts)
    assert cx.euler_characteristic() == sum(
        (-1) ** k * v for k, v in cx.cohomology_dims().items()
    )


def _random_complex(rng, size=6):
    """Oracle construction: strictly-degree-ordered random differential with
    d^2 = 0 found by rejection sampling."""
    degrees = sorted(int(rng.integers(0, 4)) for _ in range(size))
    gens = [Generator(f"g{i}", d) for i, d in enumerate(degrees)]
    for _ in range(500):
        counts = {}
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                if gj.degree == gi.degree + 1 and rng.uniform() < 0.4:
                    counts[(gi.id, gj.id)] = 1
        try:
            return build_complex(gens, counts)
        except DifferentialError:
            continue
    return build_complex(gens, {})


def test_random_oracle_complexes_accepted_and_euler_consistent():
    rng = np.random.default_rng(0)
    for _ in range(30):
        cx = _random_complex(rng)
        chain_euler = cx.euler_characteristic()
        co_euler = sum((-1) ** k * v for k, v in cx.cohomology_dims().items())
        assert chain_euler == co_euler


def test_cohomology_invariant_under_graded_basis_change():
    rng = np.random.default_rng(1)
    for _ in range(50):
        cx = _random_complex(rng)
        dims_before = cx.cohomology_dims()
        # conjugate the differential by a random degree-preserving GF(2)
        # isomorphism and rebuild
        by_degree = {}
        for g in cx.generators:
            by_degree.setdefault(g.degree, []).append(g.id)
        maps = {}
        for degree, ids in by_degree.items():
            n = len(ids)
            while True:
                mat = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
                if _gf2_invertible(mat):
                    break
            maps[degree] = (ids, mat)
        new_counts = {}
        for gen in cx.generators:
            ids_k, mat_k = maps[gen.degree]
            i = ids_k.index(gen.id)
            # image of basis vector i under the map in degree k
            sources = [ids_k[s] for s in range(len(ids_k)) if mat_k[s][i]]
            reachable = {}
            for src in sources:
                for (p, q) in cx.differential:
                    if p == src:
                        reachable[q] = reachable.get(q, 0) ^ 1
            # express targets in the new degree-(k+1) basis
            ids_k1, mat_k1 = maps.get(gen.degree + 1, (None, None))
            if ids_k1 is None:
                assert not any(reachable.values())
                continue
            inv = _gf2_inverse(mat_k1)
            vec = np.zeros(len(ids_k1), dtype=np.uint8)
            for q, odd in reachable.items():
                if odd:
                    vec[ids_k1.index(q)] ^= 1
            new_vec = inv @ vec % 2
            for t, bit in enumerate(new_vec):
                if bit:
                    new_counts[(gen.id, ids_k1[t])] = 1
        cx2 = build_complex(list(cx.generators), new_counts)
        assert cx2.cohomology_dims() == dims_before


def _gf2_invertible(mat):
    rows = [int("".join(map(str, row)), 2) for row in mat]
    return gf2_rank(rows) == mat.shape[0]


def _gf2_inverse(mat):
    n = mat.shape[0]
    aug = np.concatenate([mat % 2, np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r, col])
        aug[[col, pivot]] = aug[[pivot, col]]
        for r in range(n):
            if r != col and aug[r, col]:
                aug[r] ^= aug[col]
    return aug[:, n:]


def test_expected_sphere_cohomology():
    assert expected_sphere_cohomology(3) == {0: 1, 3: 1}
    assert expected_sphere_cohomology(5) == {0: 1, 5: 1}
    assert sum(expected_sphere_cohomology(7).values()) == 2
    with pytest.raises(ValueError):
        expected_sphere_cohomology(2)


def test_degree_zero_identity_failure_modes():
    no_zero = build_complex([Generator("q", 2)], {})
    assert not verify_degree_zero_identity(no_zero)
    # degree-0 cohomology killed by the differential
    killed = build_complex(
        [Generator("a", 0), Generator("b", 1)], {("a", "b"): 1}
    )
    assert not verify_degree_zero_identity(killed)


def test_strip_area_positivity_warning():
    gens = [
        Generator("p", 0, f_l=0.0, f_lp=1.0),
        Generator("q", 1, f_l=0.0, f_lp=2.0),  # area = 0 - 0 + 1 - 2 < 0
    ]
    with pytest.warns(UserWarning):
        build_complex(gens, {("p", "q"): 1})


def test_degree_window_validator():
    cx = build_complex(
        [Generator("p", 1), Generator("inf0", 0), Generator("infPhi", 3)], {}
    )
    assert validate_degree_windows(cx, 3, compactification_ids={"inf0", "infPhi"})
    assert not validate_degree_windows(cx, 3)
    bad = build_complex([Generator("x", 0)], {})
    assert not validate_degree_windows(bad, 3)


def test_json_round_trip():
    gens = [
        Generator("a", 0, 0.0, 0.5),
        Generator("b1", 1, 0.1, 0.4),
        Generator("b2", 1, 0.2, 0.3),
        Generator("c", 2, 0.4, 0.1),
    ]
    counts = {("a", "b1"): 1, ("a", "b2"): 1, ("b1", "c"): 1, ("b2", "c"): 1}
    cx = build_complex(gens, counts)
    text = complex_to_json(cx)
    cx2 = complex_from_json(text)
    assert cx2.cohomology_dims() == cx.cohomology_dims()
    assert cx2.differential == cx.differential


def test_gf2_rank_reference():
    # rows of a rank-2 matrix over GF(2)
    rows = [0b110, 0b011, 0b101]  # third row is the sum of the first two
    assert gf2_rank(rows) == 2


# ---------------------------------------------------------------------------
# indexed elimination against a dense oracle
# ---------------------------------------------------------------------------

def _dense_rank(mat):
    """Rank over GF(2) of a 0/1 matrix by dense row reduction."""
    mat = np.array(mat, dtype=np.uint8) % 2
    rank = 0
    for col in range(mat.shape[1]):
        pivot = next((r for r in range(rank, mat.shape[0]) if mat[r, col]), None)
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        below = mat[:, col].astype(bool)
        below[rank] = False
        mat[below] ^= mat[rank]
        rank += 1
    return rank


def _dense_cohomology(cx):
    """Cohomology dims from dense differential matrices, one per degree."""
    by_degree = {}
    for g in cx.generators:
        by_degree.setdefault(g.degree, []).append(g.id)
    rank = {}
    for k, ids in by_degree.items():
        targets = by_degree.get(k + 1, [])
        mat = np.zeros((len(ids), len(targets)), dtype=np.uint8)
        for p, q in cx.differential:
            if p in ids:
                mat[ids.index(p), targets.index(q)] = 1
        rank[k] = _dense_rank(mat)
    dims = {k: len(ids) - rank[k] - rank.get(k - 1, 0) for k, ids in by_degree.items()}
    return {k: v for k, v in dims.items() if v}, rank


def test_cohomology_and_ranks_match_dense_oracle():
    rng = np.random.default_rng(2)
    for size in [6] * 40 + [12] * 20:
        cx = _random_complex(rng, size)
        dims, rank = _dense_cohomology(cx)
        assert cx.cohomology_dims() == dims
        for k, r in rank.items():
            assert cx.differential_rank(k) == r


def test_gf2_rank_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n_rows, n_bits = (int(v) for v in rng.integers(1, 24, size=2))
        mat = (rng.uniform(size=(n_rows, n_bits)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
        if rng.uniform() < 0.3 and n_rows > 2:  # force dependent rows
            mat[-1] = mat[0] ^ mat[1]
        rows = [int("".join(map(str, row)), 2) for row in mat]
        assert gf2_rank(rows) == _dense_rank(mat)
    assert gf2_rank([]) == 0
    assert gf2_rank([0, 0]) == 0


def _sphere_complex(m, rng):
    """Proper faces of the (m+1)-simplex, in shuffled order with shuffled
    vertex labels; the differential adds one vertex.  Its cohomology is that
    of S^m."""
    n = m + 2
    full = (1 << n) - 1
    label = rng.permutation(n)

    def name(face):
        return "f%x" % sum(1 << int(label[v]) for v in range(n) if face >> v & 1)

    faces = [int(f) for f in rng.permutation(np.arange(1, full))]
    gens = [Generator(name(f), bin(f).count("1") - 1) for f in faces]
    counts = {(name(f), name(f | 1 << v)): 1 for f in faces for v in range(n)
              if not f >> v & 1 and f | 1 << v != full}
    return build_complex(gens, counts)


@pytest.mark.parametrize("m", range(3, 9))
def test_shuffled_simplex_boundary_has_sphere_cohomology(m):
    rng = np.random.default_rng(100 + m)
    cx = _sphere_complex(m, rng)
    assert cx.cohomology_dims() == expected_sphere_cohomology(m)
    assert verify_degree_zero_identity(cx)
    if m <= 5:
        assert _dense_cohomology(cx)[0] == expected_sphere_cohomology(m)


def test_cohomology_result_is_a_copy():
    cx = build_complex([Generator("p", 0)], {})
    cx.cohomology_dims()[0] = 7
    assert cx.cohomology_dims() == {0: 1}


# ---------------------------------------------------------------------------
# shared bit rows against the dense oracle; deterministic d^2 messages
# ---------------------------------------------------------------------------

def _dense_matrix(cx, k):
    """d_k as a 0/1 matrix: rows are the degree-k generators, columns the
    degree-(k+1) ones, both in generator order."""
    ids = [g.id for g in cx.generators if g.degree == k]
    targets = [g.id for g in cx.generators if g.degree == k + 1]
    mat = np.zeros((len(ids), len(targets)), dtype=np.uint8)
    for p, q in cx.differential:
        if p in ids:
            mat[ids.index(p), targets.index(q)] = 1
    return mat


def test_stored_rows_are_the_dense_differential():
    rng = np.random.default_rng(4)
    for size in [6] * 40 + [12] * 20:
        cx = _random_complex(rng, size)
        for k in cx.degrees():
            mat = _dense_matrix(cx, k)
            rows = cx._rows(k)
            bits = np.array([[row >> i & 1 for i in range(mat.shape[1])] for row in rows],
                            dtype=np.uint8).reshape(mat.shape)
            assert np.array_equal(bits, mat)
            assert all(row >> mat.shape[1] == 0 for row in rows)
            assert gf2_rank(rows) == _dense_rank(mat) == cx.differential_rank(k)


def _first_odd_paths(gens, differential):
    """The d^2 offender as the per-pair parity walk finds it: the first
    source in generator order with targets reached an odd number of times."""
    targets = {}
    for p, q in differential:
        targets.setdefault(p, []).append(q)
    for g in gens:
        parity = {}
        for q in targets.get(g.id, ()):
            for r in targets.get(q, ()):
                parity[r] = parity.get(r, 0) ^ 1
        odd = [r for r, bit in parity.items() if bit]
        if odd:
            return g.id, sorted(odd)
    return None


def test_flipped_entry_names_the_first_odd_source():
    rng = np.random.default_rng(5)
    flipped = 0
    for _ in range(200):
        cx = _random_complex(rng, 8)
        candidates = sorted((p.id, q.id) for p in cx.generators for q in cx.generators
                            if q.degree == p.degree + 1)
        if not candidates:
            continue
        entry = candidates[int(rng.integers(len(candidates)))]
        differential = set(cx.differential) ^ {entry}
        offender = _first_odd_paths(cx.generators, differential)
        if offender is None:
            FloerComplexZ2(cx.generators, differential)
            continue
        flipped += 1
        p, odd = offender
        with pytest.raises(DifferentialError) as info:
            build_complex(list(cx.generators), dict.fromkeys(differential, 1))
        assert str(info.value) == (
            f"d^2 != 0: generator {p} reaches {odd} an odd number of times")
    assert flipped >= 40


_SIX_SOURCES = textwrap.dedent("""
    from slaglab.errors import DifferentialError
    from slaglab.floer import FloerComplexZ2, Generator, build_complex

    gens = [Generator(f"{kind}{i}", degree)
            for degree, kind in enumerate(("src", "mid", "top")) for i in range(6)]
    cases = [
        lambda: build_complex(gens, {**{(f"src{i}", f"mid{i}"): 1 for i in range(6)},
                                     **{(f"mid{i}", f"top{i}"): 1 for i in range(6)}}),
        lambda: FloerComplexZ2(gens, [(f"src{i}", f"ghost{i}") for i in range(6)]),
        lambda: build_complex(gens, {(f"src{i}", f"ghost{i}"): 1 for i in range(6)}),
        lambda: build_complex(gens, {(f"src{i}", f"top{i}"): 1 for i in range(6)}),
    ]
    for case in cases:
        try:
            case()
        except DifferentialError as exc:
            print(exc)
""")


def test_differential_errors_do_not_depend_on_the_hash_seed():
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run([sys.executable, "-c", _SIX_SOURCES], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "d^2 != 0: generator src0 reaches ['top0'] an odd number of times",
        "unknown generator in entry (src0, ghost0)",
        "unknown generator in entry (src0, ghost0)",
        "entry (src0, top0) connects degrees 0 -> 2; "
        "the differential must raise degree by exactly 1",
    ]


# ---------------------------------------------------------------------------
# the serializer against json.dumps
# ---------------------------------------------------------------------------

def _oracle_json(cx):
    doc = {
        "generators": [
            {"id": g.id, "degree": g.degree, "fL": g.f_l, "fLp": g.f_lp}
            for g in cx.generators
        ],
        "differential": sorted([p, q] for p, q in cx.differential),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


_AWKWARD_IDS = ["caf\u00e9", "\u65e5\u672c", "\U0001f600", 'say "hi"', "back\\slash",
                "ctl\x00\x1f\n\t\x7f", "", "/"]


def _squares(ids, potentials=(0.0, 0.0)):
    """Cancelling squares a -> b1, b2 -> c, one per group of four ids."""
    gens, counts = [], {}
    for i in range(0, len(ids) - 3, 4):
        a, b1, b2, c = ids[i:i + 4]
        gens += [Generator(a, 0, *potentials), Generator(b1, 1, *potentials),
                 Generator(b2, 1, *potentials), Generator(c, 2, *potentials)]
        counts.update({(a, b1): 1, (a, b2): 1, (b1, c): 1, (b2, c): 1})
    return gens, counts


def test_serializer_matches_json_dumps_on_awkward_ids():
    cx = build_complex(*_squares(_AWKWARD_IDS))
    text = complex_to_json(cx)
    assert text == _oracle_json(cx)
    assert complex_to_json(complex_from_json(text)) == text


@pytest.mark.parametrize("value", [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                                   1.7976931348623157e308, 0.1, 1e16, 1e-7,
                                   math.nan, math.inf, -math.inf,
                                   0, 1, -3, 10 ** 20, True, np.float64(0.25)])
def test_serializer_matches_json_dumps_on_scalars(value):
    gens = [Generator("a", 0, value, 1), Generator("b", 1, 0, value)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cx = build_complex(gens, {("a", "b"): 1})
    assert complex_to_json(cx) == _oracle_json(cx)


def test_serializer_matches_json_dumps_on_empty_and_non_string_ids():
    for cx in (build_complex([], {}), build_complex([Generator("p", 0)], {})):
        assert complex_to_json(cx) == _oracle_json(cx)
    assert complex_to_json(build_complex([], {})) == (
        '{\n  "differential": [],\n  "generators": []\n}')
    # 1 == True and 2.5 == 2.5: the entry keeps its own id objects
    cx = FloerComplexZ2([Generator(1, 0), Generator(2.5, 1), Generator(None, 2)],
                        [(True, 2.5)])
    assert complex_to_json(cx) == _oracle_json(cx)
    cx = FloerComplexZ2([Generator(("t", 1), 0), Generator("u", 1)], [(("t", 1), "u")])
    assert complex_to_json(cx) == _oracle_json(cx)


_ids = st.text(max_size=6)
_potentials = st.floats()  # the reader turns every potential into a float


@st.composite
def _valid_complexes(draw):
    """A complex with d^2 = 0: candidate entries between adjacent degrees are
    kept, in drawn order, only while every two-step path still cancels."""
    ids = draw(st.lists(_ids, unique=True, max_size=10))
    gens = [Generator(gid, draw(st.integers(-2, 3)), draw(_potentials), draw(_potentials))
            for gid in ids]
    candidates = [(p.id, q.id) for p in gens for q in gens if q.degree == p.degree + 1]
    keep = draw(st.lists(st.booleans(), min_size=len(candidates),
                         max_size=len(candidates)))
    differential = set()
    for entry, wanted in zip(candidates, keep):
        if wanted and _first_odd_paths(gens, differential | {entry}) is None:
            differential.add(entry)
    return gens, dict.fromkeys(differential, 1)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_valid_complexes())
def test_serializer_round_trip_matches_json_dumps(drawn):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cx = build_complex(*drawn)
        text = complex_to_json(cx)
        assert text == _oracle_json(cx)
        back = complex_from_json(text)
    assert complex_to_json(back) == text
    assert back.cohomology_dims() == cx.cohomology_dims()
