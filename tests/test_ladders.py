"""Ladder combinatorics: membership, validation, interiors, profiles,
chamfering and width descent."""

import json
import random
import time
import tracemalloc
from itertools import combinations

import pytest

import ladderdet
from ladderdet.ideals import minors_in_ladder
from ladderdet.ladders import (
    AntidiagonalProfile,
    ChamferError,
    Ladder,
    LadderError,
    LevelData,
    ProfileError,
    antidiagonal_profile,
    chamfer,
    diagonal_rows,
    height,
    random_valid_ladder,
    reduce_to_unmixed,
    size_vector,
    span_size,
    total_width,
    unchamfer,
    uncovered_cells,
    unmix_distance,
    validate,
)
from ladderdet.poly import InstanceTooLarge, Minor, time_limit

def staircase10():
    ladder, t = ladderdet.load_fixture("staircase10")
    return ladder, t


def closure_holds(cells):
    cells = set(cells)
    for (i, j) in cells:
        for (a, b) in cells:
            if i <= a and j >= b:
                if any((u, v) not in cells for u in range(i, a + 1) for v in range(b, j + 1)):
                    return False
    return True


def test_staircase10_validates_with_expected_corners():
    L, t = staircase10()
    report = validate(L, t)
    assert report.valid and report.u == 3 and report.v == 4
    assert all(c.ok for c in report.checks)


def test_full_matrix_any_t():
    L = Ladder.full(4, 5)
    for t in (1, 2, 3, 4):
        assert validate(L, (t,)).valid


def test_nondegeneracy_example():
    # 4x4 with two lower corners: (2,3) passes, (2,5) has no 5-minor.
    L = Ladder((4, 4), ((1, 4),), ((2, 1), (4, 2)))
    assert validate(L, (2, 3)).valid
    report = validate(L, (2, 5))
    assert not report.valid
    assert not report.checks[2].ok or not report.checks[0].ok


def test_membership_closure_property():
    rng = random.Random(1)
    for _ in range(25):
        L, _ = random_valid_ladder(rng, 7, mixed=True)
        assert closure_holds(L.cells)


def test_staircase10_membership_details():
    L, _ = staircase10()
    # column 1 occupied on rows 1..6, column 2 likewise (from the corner lists)
    col1 = sorted(i for i, j in L.cells if j == 1)
    col2 = sorted(i for i, j in L.cells if j == 2)
    assert col1 == [1, 2, 3, 4, 5, 6]
    assert col2 == [1, 2, 3, 4, 5, 6]
    assert (1, 10) not in L.cells and (10, 1) not in L.cells
    assert (8, 10) in L.cells and (10, 8) in L.cells


def test_subladder_examples():
    L3 = Ladder.full(3, 3)
    assert L3.subladder(1).cells == L3.cells

    L, _ = staircase10()
    sub1 = L.subladder(1)
    assert sub1.cells == {(i, j) for i in (1, 2, 3) for j in (1, 2)}
    sub2 = L.subladder(2)
    assert sub2.cells == {(i, j) for (i, j) in L.cells if i <= 6}


def test_band_examples():
    L23 = Ladder.full(2, 3)
    assert L23.band("cols", 1, 2).cells == {(i, j) for i in (1, 2) for j in (1, 2)}
    assert L23.band("cols", 2, 3).cells == {(i, j) for i in (1, 2) for j in (2, 3)}

    L, _ = staircase10()
    band = L.band("cols", 1, 2)
    assert band.cells == {(i, j) for i in range(1, 7) for j in (1, 2)}

    empty = Ladder.full(2, 2).band("rows", 1, 2).band("cols", 1, 2)
    assert not empty.is_empty
    gap = Ladder((3, 3), ((1, 1),), ((1, 1),))  # single top-left cell
    assert gap.band("cols", 2, 3).is_empty


def _random_corner_ladder(rng):
    """A ladder from random corner lists: anything the constructor accepts,
    valid for some t or not."""
    while True:
        k, l = rng.randint(1, 7), rng.randint(1, 7)
        upper = sorted((rng.randint(1, k), rng.randint(1, l)) for _ in range(rng.randint(1, 3)))
        lower = sorted((rng.randint(1, k), rng.randint(1, l)) for _ in range(rng.randint(1, 4)))
        try:
            return Ladder((k, l), upper, lower)
        except LadderError:
            continue


def test_contains_minor_matches_a_scan_of_the_block():
    # Blocks of any rows and columns, some reaching one past the grid; half
    # of them have their NE cell on the ladder.
    rng = random.Random(23)
    inside = 0
    for n in range(3000):
        L = _random_corner_ladder(rng)
        k, l = L.shape
        if n % 2 and L.cells:
            i, j = rng.choice(sorted(L.cells))
        else:
            i, j = rng.randint(1, k + 1), rng.randint(1, l + 1)
        size = rng.randint(1, min(k + 2 - i, j, 4))
        rows = (i,) + tuple(sorted(rng.sample(range(i + 1, k + 2), size - 1)))
        cols = tuple(sorted(rng.sample(range(1, j), size - 1))) + (j,)
        m = Minor(rows, cols)
        cells = L.cells
        expected = all(cell in cells for cell in m.cells())
        assert L.contains_minor(m) == expected, (L, m)
        inside += expected
    assert 500 < inside < 1500  # blocks both inside and not


def _band_reference(cells, axis, lo, hi):
    at = 1 if axis == "cols" else 0
    return {cell for cell in cells if lo <= cell[at] <= hi}


def test_subregions_cut_by_corners_have_the_filtered_cells():
    rng = random.Random(9)
    valid = 0
    for _ in range(400):
        L = _random_corner_ladder(rng)
        k, l = L.shape
        valid += any(validate(L, t).valid for t in (1, 2))
        for j, (d, c) in enumerate(L.lower, start=1):
            expected = {(i, a) for i, a in L.cells if i <= d and a >= c}
            sub = L.subladder(j)
            assert sub.cells == expected and sub.is_empty == (not expected)
        for axis, limit in (("cols", l), ("rows", k)):
            for lo in range(1, limit + 1):
                for hi in range(lo, limit + 1):
                    band = L.band(axis, lo, hi)
                    expected = _band_reference(L.cells, axis, lo, hi)
                    assert band.cells == expected and band.is_empty == (not expected)
                    axis2 = rng.choice(("cols", "rows"))
                    lo2 = rng.randint(1, l if axis2 == "cols" else k)
                    hi2 = rng.randint(lo2, l if axis2 == "cols" else k)
                    twice = band.band(axis2, lo2, hi2)
                    expected = _band_reference(expected, axis2, lo2, hi2)
                    assert twice.cells == expected and twice.is_empty == (not expected)
    assert 0 < valid < 400  # both valid and invalid ladders were drawn


def _max_square_dp(L):
    """Reference for `max_square_in`: the side of the largest square of
    cells ending at each cell, by dynamic programming over the grid."""
    k, l = L.shape
    cells = L.cells
    size, best = {}, 0
    for i in range(1, k + 1):
        for j in range(1, l + 1):
            if (i, j) in cells:
                size[i, j] = 1 + min(size.get((i - 1, j), 0), size.get((i, j - 1), 0),
                                     size.get((i - 1, j - 1), 0))
                best = max(best, size[i, j])
    return best


def _minors_with_all_cells_in(L, t):
    """Reference for `minors_in_ladder`: every t-minor on the occupied rows
    and columns whose cells all lie in L."""
    cells = L.cells
    rows = sorted({i for i, _ in cells})
    cols = sorted({j for _, j in cells})
    return [Minor(r, c) for r in combinations(rows, t) for c in combinations(cols, t)
            if all((i, j) in cells for i in r for j in c)]


def test_corner_arithmetic_matches_cell_enumeration():
    rng = random.Random(10)
    regions = partial = 0
    for _ in range(800):
        L = _random_corner_ladder(rng)
        k, l = L.shape
        bands = []
        for axis, limit in (("rows", k), ("cols", l)):
            lo = rng.randint(1, limit)
            bands.append(L.band(axis, lo, rng.randint(lo, limit)))
        subladders = [L.subladder(j) for j in range(1, len(L.lower) + 1)]
        for R in [L, *subladders, *bands]:
            regions += 1
            assert R.max_square_in() == _max_square_dp(R)
            t = tuple(rng.randint(1, 4) for _ in R.lower)
            minors = minors_in_ladder(R, t)
            by_corner = {(m.rows, m.cols): m for j, tj in enumerate(t, start=1)
                         for m in _minors_with_all_cells_in(R.subladder(j), tj)}
            assert minors == [by_corner[key] for key in sorted(by_corner)]
            covered = {cell for m in minors for cell in m.cells()}
            uncovered = list(uncovered_cells(R, t))
            assert uncovered == sorted(R.cells - covered)
            partial += bool(covered) and bool(uncovered)
            for region in [R, *(R.subladder(j) for j in range(1, len(R.lower) + 1))]:
                size = rng.randint(1, 4)
                assert minors_in_ladder(region, size) == _minors_with_all_cells_in(region, size)
    assert regions > 3000 and partial > 50  # some regions are only partly covered


def _cells_of(spans):
    """The cells of the rows `spans`."""
    return {(i, j) for i, (lo, hi) in enumerate(spans, start=1) for j in range(lo, hi + 1)}


def _scan_of_corners(L, t=None):
    """Reference for `cells`, `contains` and `interior_spans(t)`: every grid
    cell SW of some upper corner and NE of some lower corner and, given t,
    NE of some lower corner shifted by t_j - 1."""
    k, l = L.shape
    shifted = [(d - tj + 1, c + tj - 1) for (d, c), tj in zip(L.lower, t or ())]
    return {(i, j) for i in range(1, k + 1) for j in range(1, l + 1)
            if any(i >= b and j <= a for b, a in L.upper)
            and any(i <= d and j >= c for d, c in L.lower)
            and (t is None or any(i <= d and j >= c for d, c in shifted))}


def test_cells_and_contains_match_a_scan_of_the_corners():
    rng = random.Random(14)
    pinned = Ladder((7, 7), ((1, 3), (5, 7)), ((2, 1), (7, 4)))  # rows 3-4 are empty
    assert {i for i, _ in pinned.cells} == {1, 2, 5, 6, 7}
    seen = dict.fromkeys(("shared row or column", "empty row", "corner leaves grid", "1x1"), 0)
    for n in range(3000):
        L = pinned if n == 0 else Ladder.full(1, 1) if n == 1 else _random_corner_ladder(rng)
        k, l = L.shape
        cells = _scan_of_corners(L)
        assert L.cells == cells
        assert not cells or L.columns == (min(j for _, j in cells), max(j for _, j in cells))
        assert all(L.contains(i, j) == ((i, j) in cells)
                   for i in range(-1, k + 3) for j in range(-1, l + 3))  # also off the grid
        t = tuple(rng.randint(1, 4) for _ in L.lower)
        assert _cells_of(L.interior_spans(t)) == _scan_of_corners(L, t)
        lower = L.lower
        seen["shared row or column"] += any(p[0] == q[0] or p[1] == q[1]
                                            for p, q in zip(lower, lower[1:]))
        seen["empty row"] += len({i for i, _ in L.cells}) < k
        seen["corner leaves grid"] += any(d - tj + 1 < 1 or c + tj - 1 > l
                                          for (d, c), tj in zip(lower, t))
        seen["1x1"] += L.shape == (1, 1)
    assert all(count > 20 for count in seen.values()), seen


def test_diagonal_rows_match_the_cells_on_each_antidiagonal():
    rng = random.Random(24)
    for _ in range(400):
        L = _random_corner_ladder(rng)
        k, l = L.shape
        axis, limit = rng.choice((("rows", k), ("cols", l)))
        lo = rng.randint(1, limit)
        regions = [L, L.band(axis, lo, rng.randint(lo, limit)),
                   *(L.subladder(j) for j in range(1, len(L.lower) + 1))]
        t = tuple(rng.randint(1, 4) for _ in L.lower)
        pairs = [(R.spans, R.cells) for R in regions]
        pairs.append((L.interior_spans(t), _scan_of_corners(L, t)))
        for spans, cells in pairs:
            for r in range(1, k + l + 2):
                first, last = diagonal_rows(spans, r)
                assert list(range(first, last + 1)) == sorted(i for i, j in cells if i + j == r)


def test_interior_examples():
    L3 = Ladder.full(3, 3)
    assert L3.interior_spans((2,)) == ((2, 3), (2, 3), (4, 3))
    assert L3.interior_spans((1,)) == L3.spans == ((1, 3),) * 3
    L23 = Ladder.full(2, 3)
    assert L23.interior_spans((2,)) == ((2, 3), (4, 3))


def test_interior_is_union_of_subladder_interiors():
    rng = random.Random(2)
    for _ in range(20):
        L, t = random_valid_ladder(rng, 8, mixed=True)
        union = set()
        for j, tj in enumerate(t, start=1):
            sub = L.subladder(j)
            union |= _cells_of(sub.interior_spans((tj,) * len(sub.lower)))
        assert _cells_of(L.interior_spans(t)) == union


def test_height_examples():
    assert height(Ladder.full(3, 3), (2,)) == 4
    assert height(Ladder.full(2, 3), (2,)) == 2
    L, _ = staircase10()
    assert height(L, (1, 1, 1, 1)) == len(L.cells)


def test_height_formula_on_full_matrices():
    for k in range(2, 6):
        for l in range(k, 6):
            L = Ladder.full(k, l)
            for t in range(1, k + 1):
                assert height(L, (t,)) == (k - t + 1) * (l - t + 1)


def a_levels(prof):
    """The antidiagonal levels of a profile, in order."""
    return tuple(ld.r for ld in prof.levels)


def counts(prof):
    """The counts of a profile's witness levels, in order."""
    return tuple(ld.count for ld in prof.witness)


def test_profile_3x3():
    prof = antidiagonal_profile(Ladder.full(3, 3), (2,))
    assert a_levels(prof) == (3, 4, 5)
    assert tuple(ld.gamma for ld in prof.levels) == (2, 3, 2)
    assert counts(prof) == (1, 2, 1)
    assert [str(m) for m in prof.witness_factors] == ["[12|12]", "[123|123]", "[23|23]"]
    assert sum(counts(prof)) == 4 == prof.interior_size


def test_profile_2x2():
    prof = antidiagonal_profile(Ladder.full(2, 2), (2,))
    assert a_levels(prof) == (3,)
    assert [str(m) for m in prof.witness_factors] == ["[12|12]"]
    assert counts(prof) == (1,)

    prof1 = antidiagonal_profile(Ladder.full(2, 2), (1,))
    assert a_levels(prof1) == (2, 3, 4)
    assert sum(counts(prof1)) == 4


def test_profile_counts_match_interior_randomized():
    rng = random.Random(3)
    for _ in range(40):
        L, t = random_valid_ladder(rng, 8, mixed=True)
        prof = antidiagonal_profile(L, t)  # raises if the counts disagree
        assert sum(counts(prof)) == height(L, t)
        for ld in prof.levels:
            cells = L.subladder(ld.p).cells
            assert all(cell in cells for cell in ld.minor.cells())


def _scan_rows(spans, r):
    """The rows whose span holds the cell of antidiagonal r, by a scan."""
    return [i for i, (lo, hi) in enumerate(spans, start=1) if lo <= r - i <= hi]


def _scan_profile(L, t):
    """Reference profile: each level scans the rows of the interior, of the
    sub-interiors and of the subladder L_p."""
    t = size_vector(t, len(L.lower))
    interior = L.interior_spans(t)
    subladders = [L.subladder(j) for j in range(1, len(t) + 1)]
    sub_interiors = [s.interior_spans(tj) for s, tj in zip(subladders, t)]
    levels = []
    for r in range(2, sum(L.shape) + 1):
        hits = _scan_rows(interior, r)
        if not hits:
            continue
        w = hits[-1]
        p = max(j for j, s in enumerate(sub_interiors, start=1) if s[w - 1][0] <= r - w <= s[w - 1][1])
        in_sub = _scan_rows(subladders[p - 1].spans, r)
        a, b = in_sub[0], in_sub[-1]
        if not (subladders[p - 1].contains(a, r - a) and subladders[p - 1].contains(b, r - b)):
            raise ProfileError(f"level {r}: antidiagonal square leaves its subladder")
        levels.append(LevelData(r, w, p, a, b, b - a + 1, b - a + 2 - t[p - 1]))
    witness = tuple(ld for ld in levels if ld.count >= 0)
    total, size = sum(ld.count for ld in witness), span_size(interior)
    if total != size:
        raise ProfileError(f"count identity failed: sum of counts {total} != interior size {size}")
    return AntidiagonalProfile(tuple(levels), witness, size)


def _outcome(f, *args):
    try:
        return f(*args)
    except ProfileError as exc:
        return str(exc)


def test_profile_read_off_the_corners_matches_a_row_scan():
    # Corner ladders with sizes up to 4, some with a shifted corner past the
    # grid, and valid mixed ladders.
    rng = random.Random(27)
    for n in range(2400):
        if n % 2:
            L = _random_corner_ladder(rng)
            t = tuple(rng.randint(1, 4) for _ in L.lower)
        else:
            L, t = random_valid_ladder(rng, 8, mixed=True)
        assert _outcome(antidiagonal_profile, L, t) == _outcome(_scan_profile, L, t), (L, t)


def test_profile_of_a_600x600_ladder_honours_time_limit():
    # Each of the 1,199 squares Y_r is placed by two cell tests (corner
    # lemma), each level reads its rows off two bisections of the spans,
    # and the budget is checked once per level: the whole profile takes
    # about 0.05 s on a 2-CPU machine, spans included.
    L = Ladder.full(600, 600)
    start = time.monotonic()
    try:
        with time_limit(1):
            antidiagonal_profile(L, (2,))
    except InstanceTooLarge:
        pass
    assert time.monotonic() - start < 3


def test_profile_levels_build_their_square_on_demand():
    # A level keeps its rows a..b; Y_r takes the columns r - b..r - a.
    assert "minor" not in LevelData.__slots__
    rng = random.Random(26)
    for _ in range(30):
        L, t = random_valid_ladder(rng, 7, mixed=True)
        for ld in antidiagonal_profile(L, t).levels:
            m = ld.minor
            assert m.size == ld.gamma
            assert m.antidiagonal_cells() == [(i, ld.r - i) for i in range(ld.a, ld.b + 1)]
            assert L.subladder(ld.p).contains_minor(m)


def test_profile_of_a_600x600_ladder_holds_no_minors():
    # With a Minor per level, whose row and column tuples hold up to 600
    # ints each, the profile allocated about 19 MB at its peak; without,
    # under 0.5 MB (tracemalloc).
    L = Ladder.full(600, 600)
    L.spans
    tracemalloc.start()
    try:
        antidiagonal_profile(L, (2,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_total_width_example():
    assert total_width((2, 3, 1, 2)) == 6
    assert unmix_distance((2, 3, 1, 2)) == 4


def test_chamfer_example_3x3():
    L3 = Ladder.full(3, 3)
    out, out_t = chamfer(L3, (2,), 1)
    assert out.upper == ((1, 3),) and out.lower == ((2, 2),)
    assert out_t == (1,)
    assert out.cells == {(1, 2), (1, 3), (2, 2), (2, 3)}
    back, back_t = unchamfer(out, out_t, 1)
    assert back == L3 and back_t == (2,)


def test_chamfer_errors():
    L3 = Ladder.full(3, 3)
    with pytest.raises(ChamferError):
        chamfer(L3, (1,), 1)  # the only corner cannot be dropped
    with pytest.raises(ChamferError):
        chamfer(L3, (2,), 5)


def test_chamfer_drops_a_corner_of_size_one_only_when_the_rest_stays_valid():
    # t_1 = 1: the corner goes with its summand.  The last corner covers
    # every cell on its own in the first ladder, but not in the second.
    L, t = Ladder.from_json('{"shape": [4, 3], "upper": [[1, 3]], "lower": [[2, 1], [4, 3]], '
                            '"t": [1, 1]}')
    out, out_t = chamfer(L, t, 1)
    assert json.loads(out.to_json(out_t)) == {"shape": [4, 3], "upper": [[1, 3]],
                                              "lower": [[4, 3]], "t": [1]}
    L, t = Ladder.from_json('{"shape": [2, 4], "upper": [[1, 2], [2, 4]], '
                            '"lower": [[1, 1], [2, 4]], "t": [1, 1]}')
    assert validate(L, t).valid
    with pytest.raises(ChamferError, match="yields an invalid ladder"):
        chamfer(L, t, 1)


def test_reduce_to_unmixed_contract():
    L3 = Ladder.full(3, 3)
    red = reduce_to_unmixed(L3, (2,))
    assert red.moves == () and red.start_t == (2,)

    out, out_t = chamfer(L3, (2,), 1)
    red2 = reduce_to_unmixed(out, out_t)
    assert red2.moves == () and len(set(red2.start_t)) == 1

    L, t = staircase10()
    red3 = reduce_to_unmixed(L, t)
    # Each unchamfer at a minimal corner lowers the distance by exactly one.
    assert 0 < len(red3.moves) == unmix_distance(t) <= total_width(t)
    assert len(set(red3.start_t)) == 1
    replayed, rt = red3.replay()
    assert replayed == L and rt == t


def test_v2_ladder_single_move():
    L = Ladder((4, 4), ((1, 4),), ((2, 1), (4, 2)))
    assert validate(L, (1, 2)).valid
    red = reduce_to_unmixed(L, (1, 2))
    assert len(red.moves) == 1 and red.start_t == (2, 2)


def test_json_roundtrip_and_render():
    L, t = staircase10()
    text = L.to_json(t)
    L2, t2 = Ladder.from_json(text)
    assert L2 == L and t2 == t
    art = Ladder.full(2, 3).render()
    assert art == "###\n###"
    block = Ladder((3, 3), ((1, 3),), ((2, 2),))
    assert block.render() == ".##\n.##\n..."


def test_render_honours_time_limit():
    # Rendering a 5000 x 5000 ladder takes about 0.04 s on a 2-CPU machine,
    # with its spans already read; the budget is checked once per row.
    L = Ladder.full(5000, 5000)
    assert span_size(L.spans) == 5000 * 5000
    start = time.monotonic()
    with pytest.raises(InstanceTooLarge):
        with time_limit(0.001):
            L.render()
    assert time.monotonic() - start < 0.5


def test_size_vector_accepted_forms():
    assert size_vector(2, 3) == (2, 2, 2)
    assert size_vector([2], 3) == (2, 2, 2)
    assert size_vector((2,), 1) == (2,)
    assert size_vector([2, 3, 1], 3) == (2, 3, 1)


@pytest.mark.parametrize("t", [
    0, -1, True, 2.5, "2", "a", None, {2: 1}, [], [0], [2.5], [True], ["x"], [2, "x"],
    [[1]], [2, None], [2, 3], [2, 3, 1, 2, 2],
], ids=repr)
def test_size_vector_rejects(t):
    with pytest.raises(LadderError):
        size_vector(t, 4)


STAIRCASE_SUB = {"shape": [4, 4], "upper": [[1, 4]], "lower": [[2, 1], [4, 2]]}


def test_from_json_reads_t_through_size_vector():
    L, t = Ladder.from_json(json.dumps({**STAIRCASE_SUB, "t": [2]}))
    assert L.lower == ((2, 1), (4, 2)) and t == (2, 2)
    assert Ladder.from_json(json.dumps({**STAIRCASE_SUB, "t": 3}))[1] == (3, 3)
    assert Ladder.from_json(json.dumps({**STAIRCASE_SUB, "t": None}))[1] is None
    assert Ladder.from_json(json.dumps(STAIRCASE_SUB))[1] is None


@pytest.mark.parametrize("text", [
    "{not json", "5", "[]", '"ladder"', "null",
    *(json.dumps({k: v for k, v in STAIRCASE_SUB.items() if k != drop})
      for drop in ("shape", "upper", "lower")),
    json.dumps({**STAIRCASE_SUB, "shape": 4}),
    json.dumps({**STAIRCASE_SUB, "shape": [4, 4, 4]}),
    json.dumps({**STAIRCASE_SUB, "shape": [4, 4.5]}),
    json.dumps({**STAIRCASE_SUB, "shape": ["4", 4]}),
    json.dumps({**STAIRCASE_SUB, "shape": [0, 4]}),
    json.dumps({**STAIRCASE_SUB, "upper": [1, 4]}),
    json.dumps({**STAIRCASE_SUB, "upper": "x"}),
    json.dumps({**STAIRCASE_SUB, "lower": [[2, 1], [4]]}),
    json.dumps({**STAIRCASE_SUB, "lower": [[2, 1], [4, True]]}),
    json.dumps({**STAIRCASE_SUB, "lower": [[2, 1], [5, 2]]}),
    *(json.dumps({**STAIRCASE_SUB, "t": t})
      for t in (0, [], [2.5], "a", [2, "x"], [[1]], [2, 3, 1], [2, 0], False)),
], ids=repr)
def test_from_json_rejects(text):
    with pytest.raises(LadderError):
        Ladder.from_json(text)


def test_embed():
    block = Ladder((3, 3), ((1, 3),), ((2, 2),))
    moved = block.embed((4, 5), 1, 2)
    assert moved.shape == (4, 5)
    assert moved.cells == {(i + 1, j + 2) for i, j in block.cells}
    assert moved.embed((3, 3), -1, -2).cells == block.cells


def test_validate_reports_nonspanning():
    block = Ladder((3, 3), ((1, 3),), ((2, 2),))
    report = validate(block, (1,))
    assert report.valid               # assumptions (1)-(3) hold
    assert not report.checks[3].ok    # (4) fails and is reported


def test_validate_prints_only_the_failures_of_check_3():
    # No degenerate corner gap, but L_1 has no room for t_1: the detail is
    # that failure alone.
    L, t = Ladder.from_obj({"shape": [3, 3], "upper": [[2, 3]], "lower": [[1, 1], [3, 2]],
                            "t": [1, 1]})
    check = validate(L, t).checks[2]
    assert (check.ok, check.detail) == (False, "no t_j-minor fits in L_j for j=[1]")
    # Both failures, joined by "; ".
    check = validate(Ladder((3, 3), ((1, 3),), ((2, 1), (3, 2))), (1, 3)).checks[2]
    assert (check.ok, check.detail) == (
        False, "degenerate corner gaps at j=[1]; no t_j-minor fits in L_j for j=[2]")
    check = validate(Ladder((3, 3), ((1, 3),), ((1, 1), (3, 2))), (1, 1)).checks[2]
    assert (check.ok, check.detail) == (True, "summands pairwise incomparable")


# Valid ladders on which the chamfer descent finds no legal unchamfer at a
# minimal-size corner.  Both are disconnected and have a corner with t_j = 1.
# A mend either makes `validate` refuse them or makes the descent reach an
# unmixed ladder; either way these tests then pass and must lose the mark.
@pytest.mark.xfail(strict=True, raises=ChamferError,
                   reason="reduce_to_unmixed rejects some ladders that validate accepts")
@pytest.mark.parametrize("spec", [
    {"shape": [7, 7], "upper": [[1, 3], [5, 7]], "lower": [[2, 1], [7, 4]], "t": [2, 1]},
    {"shape": [3, 4], "upper": [[1, 1], [2, 4]], "lower": [[1, 1], [3, 3]], "t": [1, 2]},
], ids=["7x7", "3x4-five-cells"])
def test_valid_ladders_reduce_to_unmixed(spec):
    L, t = Ladder.from_obj(spec)
    if validate(L, t).valid:
        assert reduce_to_unmixed(L, t).replay() == (L, t)


def test_bad_corner_lists_rejected():
    with pytest.raises(LadderError):
        Ladder((3, 3), ((1, 3), (2, 3)), ((3, 1),))  # repeated upper column
    with pytest.raises(LadderError):
        Ladder((3, 3), ((1, 3),), ((3, 1), (3, 1)))  # coinciding lower corners
    with pytest.raises(LadderError):
        Ladder((3, 3), ((1, 4),), ((3, 1),))  # corner outside the grid


def test_unchamfer_out_of_grid_errors():
    with pytest.raises(ChamferError):
        unchamfer(Ladder.full(2, 2), (2,), 1)  # corner would leave the grid
