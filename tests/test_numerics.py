import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrlab import numerics
from mrlab.encoding import parse_f64s, parse_f64s_rows
from mrlab.numerics import exact_sums, partial_sum, sum_partials, sum_vectors_reduce


def test_partials_total_to_the_exact_column_sums():
    rng = np.random.default_rng(7)
    block = rng.normal(size=(60, 3)) * np.exp(rng.uniform(-5, 5, size=(60, 1)))
    key, value = partial_sum(b"k", block)
    assert key == b"k"
    assert sum_partials([value]).tolist() == [math.fsum(column) for column in block.T.tolist()]
    parts = [partial_sum(b"k", part)[1] for part in np.array_split(block, 5)]
    [(key, total)] = sum_vectors_reduce(b"k", parts)
    assert key == b"k"
    assert parse_f64s(total).tolist() == sum_partials(parts).tolist()
    assert sum_partials(parts).tolist() == sum_partials([value]).tolist()


def test_partial_sum_rejects_an_empty_block():
    with pytest.raises(ValueError):
        partial_sum(b"k", np.empty((0, 2)))


def test_only_numerics_sums_partials():
    # Every summing job goes through partial_sum and sum_partials.
    package = Path(numerics.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py")) if path.name != "numerics.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "fsum" in line
    ]
    assert offenders == []


# ------------------------------------------------------------- exactness

def exact_column_sums(block) -> list:
    return [sum(map(Fraction, column), Fraction(0)) for column in np.asarray(block).T.tolist()]


# Below 2**960 every term takes the extraction path at the sizes drawn here.
_TERMS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-(2.0**960), max_value=2.0**960),
    st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-1130, 900)),
)


@st.composite
def wide_blocks(draw, max_rows=40):
    n = draw(st.integers(1, max_rows))
    w = draw(st.integers(1, 4))
    block = np.array(draw(st.lists(_TERMS, min_size=n * w, max_size=n * w))).reshape(n, w)
    block[:, draw(st.lists(st.booleans(), min_size=w, max_size=w))] = 0.0  # zero columns
    return block


@given(wide_blocks(), st.data())
@settings(max_examples=150, deadline=None)
def test_expansion_rows_add_up_to_the_exact_column_sums(block, data):
    ids, sums = exact_sums(block)
    assert ids.tolist() == [0] and sums.shape[0] == 1 and sums.shape[2] == block.shape[1]
    assert exact_column_sums(sums[0]) == exact_column_sums(block)
    groups = np.array(data.draw(st.lists(st.integers(0, 5), min_size=len(block), max_size=len(block))))
    ids, sums = exact_sums(block, groups)
    assert ids.tolist() == sorted(set(groups.tolist()))
    for g, rows in zip(ids.tolist(), sums):
        assert exact_column_sums(rows) == exact_column_sums(block[groups == g])


@given(wide_blocks(max_rows=60), st.data())
@settings(max_examples=100, deadline=None)
def test_sum_partials_over_any_split_is_fsum_of_the_whole_column(block, data):
    cuts = sorted(data.draw(st.lists(st.integers(1, len(block)), max_size=6)))
    parts = [partial_sum(b"k", part)[1] for part in np.split(block, cuts) if len(part)]
    assert sum_partials(parts).tobytes() == np.array([math.fsum(c) for c in block.T.tolist()]).tobytes()


def test_the_expansion_does_not_write_to_the_block():
    block = np.asfortranarray(np.random.default_rng(3).normal(size=(50, 3)))
    before = block.copy()
    exact_sums(block)
    exact_sums(block, np.arange(50) % 4)
    assert np.array_equal(block, before)


def fsum_outcome(fn):
    try:
        return ("ok", np.asarray(fn()).tobytes())
    except (ValueError, OverflowError) as err:
        return (type(err).__name__, str(err))


@pytest.mark.parametrize("column, splits", [
    ([1.0, math.inf, 2.0], (1, 2, 3)),
    ([-math.inf, 1.0, -math.inf], (1, 2, 3)),
    ([1.0, math.nan, 2.0], (1, 2, 3)),
    ([math.inf, 3.0, -math.inf], (1, 2, 3)),
    ([1e308, 1e308], (1, 2)),
    ([1e308, -1e308, 1e308], (1, 2, 3)),
    ([1.7e308, 1.0, -1.7e308, 2.0**-1074], (1,)),  # rounded per split beyond one
    ([2.0**1022, 2.0**1022, -(2.0**1023)], (1,)),
], ids=["inf", "neg-inf", "nan", "inf-minus-inf", "overflow", "near-overflow",
        "near-overflow-cancels", "intermediate-overflow"])
def test_non_finite_and_near_overflow_columns_follow_fsum(column, splits):
    # Such a column is summed by math.fsum in each mapper. The exact column
    # rides beside it and must stay exact.
    other = [0.1 * (i + 1) for i in range(len(column))]
    block = np.column_stack([other, column])
    expected = fsum_outcome(lambda: [math.fsum(other), math.fsum(column)])
    for count in splits:
        got = fsum_outcome(lambda: sum_partials([partial_sum(b"k", part)[1]
                                                 for part in np.array_split(block, count)]))
        assert got == expected, count


def test_a_near_overflow_group_leaves_the_other_groups_exact():
    block = np.array([[1e308], [1e308], [0.1], [0.2], [0.3]])
    groups = np.array([1, 1, 0, 0, 0])
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        exact_sums(block, groups)
    ids, sums = exact_sums(block[1:], groups[1:])
    assert ids.tolist() == [0, 1]
    assert sums[1].sum(axis=0).tolist() == [1e308]
    assert exact_column_sums(sums[0]) == exact_column_sums(block[2:])


def test_segments_longer_than_the_pass_cap_stay_exact(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_ROWS", 4)
    rng = np.random.default_rng(5)
    block = rng.normal(size=(23, 2)) * np.exp(rng.uniform(-30, 30, size=(23, 2)))
    groups = rng.integers(0, 3, size=23)
    ids, sums = exact_sums(block, groups)
    for g, rows in zip(ids.tolist(), sums):
        assert exact_column_sums(rows) == exact_column_sums(block[groups == g])
    assert exact_column_sums(exact_sums(block)[1][0]) == exact_column_sums(block)


def test_a_long_split_terminates_with_the_exact_sum():
    n = numerics._MAX_ROWS + 3
    rng = np.random.default_rng(9)
    column = rng.normal(size=n) * np.exp(rng.uniform(-300, 300, size=n))
    ids, sums = exact_sums(column[:, None])
    assert sums.shape[0] == 1 and sums.shape[1] < 200
    assert math.fsum(sums[0, :, 0].tolist()) == math.fsum(column.tolist())


def test_a_partial_is_its_expansion_rows():
    block = np.array([[1.0, 2.0**-60], [2.0**60, 3.0]])
    [rows] = exact_sums(block)[1]
    assert np.array_equal(parse_f64s_rows([partial_sum(b"k", block)[1]]), rows)
