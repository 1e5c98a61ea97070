import threading

import numpy as np
import pytest

from elemsparse import DenseMatrix, experiment


@pytest.fixture
def toy() -> DenseMatrix:
    # rank-one workhorse: ||X||_F = 5, sum|X| = 7, hybrid p = [69/175, 106/175, 0, 0]
    return DenseMatrix(np.array([[3.0, 4.0], [0.0, 0.0]]))


@pytest.fixture
def single_cell() -> DenseMatrix:
    return DenseMatrix(np.array([[2.5]]))


@pytest.fixture
def solves(monkeypatch) -> list:
    # each trial solve this process runs appends whether it ran on the calling
    # thread with no Python thread started since set-up; a run on one worker
    # leaves [True] * its trial count, and a forked child's solves are not seen
    caller, threads, solve = threading.get_ident(), threading.active_count(), experiment._spectral_norm
    seen = []

    def recorded(a):
        seen.append(threading.get_ident() == caller and threading.active_count() == threads)
        return solve(a)

    monkeypatch.setattr(experiment, "_spectral_norm", recorded)
    return seen
