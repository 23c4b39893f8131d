"""The vectorised CSV line formatter against Python's own '%.17g', value by value."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blochrate._csvrows import blocks
from blochrate.cli import _fig3_subsets

EXAMPLES = settings(derandomize=True, max_examples=200, deadline=None)
# the bit patterns of the doubles in [1e-7, 1e18], which hold the numpy path
IN_RANGE = st.integers(*np.array([1e-7, 1e18]).view(np.int64).tolist())


def assert_formats_like_python(values) -> None:
    x = np.asarray(values, dtype=float)
    got = "".join(blocks([x], 16))
    want = "".join("%.17g\n" % v for v in x.tolist())
    assert got == want


@EXAMPLES
@given(st.lists(st.floats() | st.floats(-1e18, 1e18), min_size=1, max_size=64))
def test_floats_format_like_python(values):
    # st.floats() draws NaN, infinities, subnormals and zeros of both signs
    assert_formats_like_python(values)


@EXAMPLES
@given(st.lists(st.integers(0, 2 ** 64 - 1) | IN_RANGE | IN_RANGE.map(lambda b: b | 1 << 63),
                min_size=1, max_size=64))
def test_bit_patterns_format_like_python(patterns):
    assert_formats_like_python(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_powers_of_ten_and_their_neighbours_format_like_python():
    # the decades bound the exponent estimate; 1e-6 itself is just below 10^-6
    powers = np.array([10.0 ** k for k in range(-7, 19)])
    edges = np.concatenate([powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf)])
    assert_formats_like_python(np.concatenate([edges, -edges]))


def test_exact_ties_round_to_even():
    # x = k·2^(e-17) with k odd puts x·10^(16-e) half-way between two 17-digit
    # integers; '%.17g' rounds such a tie to the even one
    ties = []
    for e in range(-6, 16):
        step = math.ldexp(1.0, e - 17)
        k = math.ceil(10.0 ** e / step) | 1
        ties += [(k + 2 * j) * step for j in range(4)]
    assert_formats_like_python(np.concatenate([ties, np.negative(ties)]))


def test_integer_column_formats_like_python():
    # fig3's rows: the trajectory counts are a float column, which '%.17g'
    # writes as '%d' does every integral double below 1e17; 99999999999999984
    # is the largest of them
    n_traj = np.array([*_fig3_subsets(10000), 2 ** 53, 10 ** 16, 99999999999999984.0])
    values = np.sqrt(n_traj) / 3.0
    got = "".join(blocks([n_traj, values, -values, "sde", "%7"], 4))
    want = "".join("%d,%.17g,%.17g,sde,%%7\n" % row for row in zip(n_traj, values, -values))
    assert got == want
