import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmpn.linalg import (SingularMatrixError, basic_solution, eigenvalues,
                          invert, mat_mul, spectral_radius_of)


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


# -------------------------------------------------------------- eigenvalues

def test_eigenvalues_diagonal():
    eigs = eigenvalues([[2.0, 0.0], [0.0, -3.0]])
    assert sorted(z.real for z in eigs) == pytest.approx([-3.0, 2.0])
    assert all(z.imag == pytest.approx(0.0, abs=1e-12) for z in eigs)


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
@settings(max_examples=80, deadline=None)
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
