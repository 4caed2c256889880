import math
from pathlib import Path

import numpy as np
import pytest

from mrlab import numerics
from mrlab.encoding import parse_f64s
from mrlab.numerics import partial_sum, sum_partials, sum_vectors_reduce


def test_partials_total_to_the_exact_column_sums():
    rng = np.random.default_rng(7)
    block = rng.normal(size=(60, 3)) * np.exp(rng.uniform(-5, 5, size=(60, 1)))
    key, value = partial_sum(b"k", block)
    assert key == b"k"
    assert sum_partials([value]).tolist() == [math.fsum(column) for column in block.T.tolist()]
    parts = [partial_sum(b"k", part).value for part in np.array_split(block, 5)]
    [(key, total)] = sum_vectors_reduce(b"k", parts)
    assert key == b"k"
    assert parse_f64s(total).tolist() == sum_partials(parts).tolist()
    np.testing.assert_allclose(sum_partials(parts), sum_partials([value]), rtol=1e-12)


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
