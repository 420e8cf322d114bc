"""Property tests of the inference map from the laws the paper implies.

Clouds are Dirichlet samples with n in 3..6 outcomes and m in n..24
points, so their affine hull fills the distribution hyperplane and the
gauge-fixed measurement is canonical.  Examples are derandomized and no
example database is kept, so runs are repeatable and leave no files in
the working tree.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from ddi import ProbabilityCloud, ddi_on_ball, random_ic_quasi_measurement

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# Even without a database, hypothesis caches the constants of local
# modules under its home directory when it collects these tests (by
# default ./.hypothesis); keep that cache out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "ddi-hypothesis")


@st.composite
def dirichlet_points(draw):
    n = draw(st.integers(3, 6))
    m = draw(st.integers(n, 24))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return np.random.default_rng(seed).dirichlet(np.ones(n), m)


def assert_same_result(expected, actual):
    assert actual.volume_sq == pytest.approx(expected.volume_sq, rel=1e-10)
    np.testing.assert_allclose(actual.measurement.matrix, expected.measurement.matrix,
                               rtol=0.0, atol=1e-7)


@PROPERTY
@given(data=st.data())
def test_row_permutation_leaves_the_result_unchanged(data):
    points = data.draw(dirichlet_points())
    order = data.draw(st.permutations(range(len(points))))
    assert_same_result(ddi_on_ball(ProbabilityCloud(points)),
                       ddi_on_ball(ProbabilityCloud(points[list(order)])))


@PROPERTY
@given(data=st.data())
def test_row_duplication_leaves_the_result_unchanged(data):
    points = data.draw(dirichlet_points())
    extra = data.draw(st.lists(st.integers(0, len(points) - 1),
                               min_size=1, max_size=len(points)))
    assert_same_result(ddi_on_ball(ProbabilityCloud(points)),
                       ddi_on_ball(ProbabilityCloud(np.vstack([points, points[extra]]))))


@PROPERTY
@given(data=st.data())
def test_composition_scales_the_volume_by_the_gram_determinant(data):
    # volume_sq(DDI(A P)) = det(A^T A) volume_sq(DDI(P)) for an IC quasi-measurement A
    points = data.draw(dirichlet_points())
    n = points.shape[1]
    a = random_ic_quasi_measurement(data.draw(st.integers(n, n + 3)), n,
                                    data.draw(st.integers(0, 2 ** 16))).matrix
    direct = ddi_on_ball(ProbabilityCloud(points)).volume_sq
    composed = ddi_on_ball(ProbabilityCloud(points @ a.T)).volume_sq
    assert composed == pytest.approx(np.linalg.det(a.T @ a) * direct, rel=1e-8)
