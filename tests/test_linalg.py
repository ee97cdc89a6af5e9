import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmpn.linalg import (LinalgError, SingularMatrixError, basic_solution,
                          eigenvalues, invert, left_null_vectors, mat_mul,
                          spectral_radius_of)


def square(n, rng, scale=5.0):
    return [[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)]


# ------------------------------------------------------------------- invert

def test_invert_identity():
    inv, cond = invert([[1.0, 0.0], [0.0, 1.0]])
    assert inv == [[1.0, 0.0], [0.0, 1.0]]
    assert cond == pytest.approx(1.0)


def test_invert_fixture():
    # V of the two-stage demographic model at its defaults
    v = [[0.27, 0.0], [-0.25, 0.12]]
    inv, cond = invert(v)
    expect = np.linalg.inv(np.array(v))
    assert np.allclose(np.array(inv), expect, rtol=1e-12)
    assert cond >= 1.0


def test_invert_singular():
    with pytest.raises(SingularMatrixError):
        invert([[1.0, 1.0], [1.0, 1.0]])


def test_mat_mul():
    a = [[1.0, 2.0], [3.0, 4.0]]
    b = [[0.0, 1.0], [1.0, 0.0]]
    assert mat_mul(a, b) == [[2.0, 1.0], [4.0, 3.0]]


def dense_mat_mul(a, b):
    out = [[0.0] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            s = 0.0
            for t, v in enumerate(row):
                s += v * b[t][j]
            out[i][j] = s
    return out


@pytest.mark.parametrize("seed", range(20))
def test_mat_mul_skipping_zeros_is_bit_equal_to_the_dense_loop(seed):
    rng = random.Random(seed)
    entries = [0.0, -0.0, 1.0, -1.0, 1e-300, -2.5e300]

    def draw(n, m):
        return [[rng.choice(entries) if rng.random() < 0.5 else rng.uniform(-3, 3)
                 for _ in range(m)] for _ in range(n)]

    n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
    a, b = draw(n, k), draw(k, m)
    got, want = mat_mul(a, b), dense_mat_mul(a, b)
    assert [[v.hex() for v in row] for row in got] == [[v.hex() for v in row] for row in want]


def test_mat_mul_keeps_zero_times_inf():
    for inf in (math.inf, -math.inf):
        out = mat_mul([[0.0, 1.0], [-0.0, 0.0]], [[inf, 1.0], [2.0, 3.0]])
        assert math.isnan(out[0][0]) and math.isnan(out[1][0])
        assert out[0][1] == 3.0 and out[1][1] == 0.0
    assert math.isnan(mat_mul([[0.0]], [[math.nan]])[0][0])


# ----------------------------------------------------------- basic_solution

def test_basic_solution_full_rank():
    x, rank, pivots = basic_solution([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert x == pytest.approx([1.0, 2.0])
    assert rank == 2 and list(pivots) == [0, 1]


def test_basic_solution_underdetermined_prefers_first_columns():
    # one equation, two unknowns: the earlier-declared column carries it
    x, rank, pivots = basic_solution([[1.0, 1.0]], [2.0])
    assert x == pytest.approx([2.0, 0.0])
    assert rank == 1 and list(pivots) == [0]


def test_basic_solution_skips_zero_column():
    x, rank, pivots = basic_solution([[0.0, 1.0], [0.0, 0.0]], [3.0, 0.0])
    assert x == pytest.approx([0.0, 3.0])
    assert rank == 1 and list(pivots) == [1]


def test_left_null_vectors_give_one_vector_per_conserved_total():
    # two patches, each of whose recovered wane back into its susceptible:
    # rows and columns S1, R1, S2, R2, so S1 + R1 and S2 + R2 are conserved
    w = 0.5
    a = [[0.0, w, 0.0, 0.0], [0.0, -w, 0.0, 0.0],
         [0.0, 0.0, 0.0, w], [0.0, 0.0, 0.0, -w]]
    assert list(left_null_vectors(a)) == [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]
    # scaled so that the entry of largest magnitude is 1, whatever its sign
    assert list(left_null_vectors([[1.0], [2.0]])) == [[1.0, -0.5]]
    assert list(left_null_vectors([[1.0, 0.0], [0.0, 1.0]])) == []


@st.composite
def systems(draw):
    """(a, b): an nrow x ncol matrix, square or not, of full rank or not, and
    a finite right-hand side. A rank-deficient matrix is a sum of `rank`
    outer products of small integer vectors, so its rank is exact in floats;
    columns of zeros and repeated rows come with it."""
    nrow = draw(st.integers(1, 5))
    ncol = draw(st.integers(1, 5))
    small = st.integers(-3, 3).map(float)
    if draw(st.booleans()):
        rank = draw(st.integers(0, min(nrow, ncol)))
        us = [draw(st.lists(small, min_size=nrow, max_size=nrow)) for _ in range(rank)]
        vs = [draw(st.lists(small, min_size=ncol, max_size=ncol)) for _ in range(rank)]
        a = [[sum(u[i] * v[j] for u, v in zip(us, vs)) + 0.0 for j in range(ncol)]
             for i in range(nrow)]
    else:
        entry = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
        a = [draw(st.lists(entry, min_size=ncol, max_size=ncol)) for _ in range(nrow)]
    b = draw(st.lists(st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
                      min_size=nrow, max_size=nrow))
    return a, b


@given(systems())
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_basic_solution_pivots_do_not_depend_on_the_right_hand_side(system):
    # compute_dfe takes the rank test and the first Newton step from one
    # call with the step's right-hand side: that holds only if the rank and
    # the pivots come from the matrix alone, and if the call leaves its
    # inputs as they were, so that its x is the x a separate solve gives
    a, b = system
    a_before, b_before = [row[:] for row in a], b[:]
    _, rank0, pivots0 = basic_solution(a, [0.0] * len(a))
    x, rank, pivots = basic_solution(a, b)
    assert (rank, list(pivots)) == (rank0, list(pivots0))
    assert a == a_before and b == b_before
    x_alone, _, _ = basic_solution([row[:] for row in a_before], b_before[:])
    assert [v.hex() for v in x] == [v.hex() for v in x_alone]


# -------------------------------------------------------------- eigenvalues

def test_eigenvalues_diagonal():
    eigs = eigenvalues([[2.0, 0.0], [0.0, -3.0]])
    assert sorted(z.real for z in eigs) == pytest.approx([-3.0, 2.0])
    assert all(z.imag == pytest.approx(0.0, abs=1e-12) for z in eigs)


def test_eigenvalues_refuse_a_non_finite_entry():
    with pytest.raises(LinalgError, match="non-finite entry"):
        eigenvalues([[math.nan]])


def test_eigenvalues_offdiagonal_fixture():
    # K of a host-vector loop: eigenvalues +-sqrt(4*9) = +-6
    eigs = eigenvalues([[0.0, 4.0], [9.0, 0.0]])
    assert sorted(z.real for z in eigs) == pytest.approx([-6.0, 6.0])


def test_eigenvalues_complex_pair():
    eigs = eigenvalues([[0.0, -1.0], [1.0, 0.0]])
    assert sorted(z.imag for z in eigs) == pytest.approx([-1.0, 1.0])
    assert all(abs(z.real) < 1e-12 for z in eigs)


def test_eigenvalues_defective_jordan_block():
    eigs = eigenvalues([[1.0, 1.0], [0.0, 1.0]])
    assert [z.real for z in eigs] == pytest.approx([1.0, 1.0])


@given(st.integers(min_value=1, max_value=8), st.integers())
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
def test_eigenvalues_match_numpy(n, seed):
    rng = random.Random(seed)
    a = square(n, rng)
    ours = sorted(eigenvalues(a), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    ref = sorted(np.linalg.eigvals(np.array(a)),
                 key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    scale = max(1.0, max(abs(z) for z in ref))
    for z, w in zip(ours, ref):
        assert abs(z - complex(w)) <= 1e-8 * scale


def test_eigenvalues_nonneg_matrix_perron_root_real():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 6)
        a = [[rng.uniform(0, 4) for _ in range(n)] for _ in range(n)]
        radius, dominant, eigs, tie = spectral_radius_of(a)
        assert abs(dominant.imag) <= 1e-9 * (1 + radius)
        assert dominant.real >= -1e-12


# ---------------------------------------------------------- spectral radius

def test_tuple_rows_give_the_bits_of_list_rows():
    # ngm_r0 returns its matrices as tuples of tuples, which a sweep hands
    # to eigenvalues
    a = [[0.27, 0.0, 1.5], [-0.25, 0.12, 0.0], [0.5, -0.3, 0.9]]
    t = tuple(map(tuple, a))
    assert eigenvalues(t) == eigenvalues(a)
    assert invert(t) == invert(a)
    assert basic_solution(t, (1.0, 2.0, 3.0)) == basic_solution(a, [1.0, 2.0, 3.0])


def test_spectral_radius_fixture():
    radius, dominant, eigs, tie = spectral_radius_of([[0.0, 4.0], [9.0, 0.0]])
    assert radius == pytest.approx(6.0, rel=1e-12)
    assert dominant.real == pytest.approx(6.0, rel=1e-12)
    # +6 and -6 share the spectral circle; dominant picks the Perron root
    assert tie is True


def test_spectral_radius_host_vector_scale():
    radius, _, _, _ = spectral_radius_of([[0.0, 0.04], [0.6666666666666666, 0.0]])
    assert radius == pytest.approx(0.16329931618554522, rel=1e-12)


def test_spectral_radius_tie_flagged():
    radius, dominant, eigs, tie = spectral_radius_of([[1.0, 0.0], [0.0, -1.0]])
    assert radius == pytest.approx(1.0)
    assert tie is True
    assert dominant.real == pytest.approx(1.0)  # max by (real, imag)


def test_spectral_radius_conjugate_pair_not_a_tie():
    # a complex conjugate pair shares one modulus; that is one "value"
    _, _, _, tie = spectral_radius_of([[0.0, -1.0], [1.0, 0.0]])
    assert tie is False
