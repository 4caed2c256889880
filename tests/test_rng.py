from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mrlab import rng


u64 = st.integers(0, 2**64 - 1)


GAMMA = 0x9E3779B97F4A7C15


def test_splitmix64_known_values():
    # golden values from the reference splitmix64 sequence seeded at 0:
    # the stream advances its state by the golden-ratio increment, so
    # output t equals the finalizer applied to t * increment
    assert rng.splitmix64(0) == 0xE220A8397B1DCDAF
    assert rng.splitmix64(GAMMA) == 0x6E789E6AA1B965F4


@given(u64, st.integers(0, 2**63))
def test_record_uniform_in_unit_interval(seed, index):
    u = rng.record_uniform(seed, index)
    assert 0.0 <= u < 1.0


@given(u64, st.integers(0, 10_000), st.integers(1, 300))
def test_vectorized_uniforms_match_scalar(seed, start, count):
    vec = rng.record_uniforms(seed, start, count)
    scalar = np.array([rng.record_uniform(seed, start + i) for i in range(count)])
    np.testing.assert_array_equal(vec, scalar)


def test_record_uniforms_are_roughly_uniform():
    u = rng.record_uniforms(123, 0, 200_000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(np.mean(u < 0.25) - 0.25) < 0.005


def test_only_the_reservoir_sampler_draws_from_numpy_random():
    # Every other draw is a counter-based uniform keyed by its coordinates.
    package = Path(rng.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py")) if path.name != "sampling.py"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if "np.random" in line or "default_rng" in line
    ]
    assert offenders == []
