import pytest

from ttstar_toda import solve_global


@pytest.fixture(scope="session")
def sol_031():
    """Shared global solution at gamma = (0.3, 0.1), the workhorse test point."""
    return solve_global((0.3, 0.1), 0.01)
