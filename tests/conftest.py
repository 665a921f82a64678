import numpy as np
import pytest


@pytest.fixture
def write_matrix():
    """Write entries to a matrix file: a header line ``n``, then the rows in ``%.17g``."""
    def write(path, entries):
        np.savetxt(path, entries, fmt="%.17g", header=str(len(entries)), comments="")
        return path
    return write
