"""Shared test fixtures and the acceptance-criteria terminal report."""
import multiprocessing

import numpy as np
import pytest

# Verdicts recorded by the acceptance suite, printed one line per criterion
# at the end of the test session.
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def _record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (passed, detail)


@pytest.fixture(scope="session")
def criterion_report():
    """Callable (number, passed, detail) -> None feeding the final report."""
    return _record_criterion


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail any test after which a multiprocessing child, such as a pool
    worker that was never joined, is still running; the child is stopped."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join()
    assert not children, f"child processes outlived the test: {children}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {verdict} - {detail}")


def path_matrix(blocks):
    """The (n, n_steps + 1) matrix of simulate_paths' time-major blocks, each
    block copied before the next is requested (later blocks overwrite it)."""
    return np.concatenate([block.copy() for block in blocks]).T


class StubRng:
    """Deterministic stand-in for a numpy Generator: returns queued values.

    standard_normal consumes one queued value per sample; uniform does the
    same (the queued value is returned as-is, ignoring the bounds).
    """

    def __init__(self, values):
        self._values = list(values)

    def _take(self, size):
        if size is None:
            return self._values.pop(0)
        return np.array([self._values.pop(0) for _ in range(int(size))])

    def standard_normal(self, size=None):
        return self._take(size)

    def uniform(self, low=-1.0, high=1.0, size=None):
        return self._take(size)


@pytest.fixture
def stub_rng():
    """Factory for queued-value RNG stubs: stub_rng([v0, v1, ...])."""
    return StubRng
