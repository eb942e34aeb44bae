"""Shared test fixtures and the acceptance-criteria terminal report."""
import glob
import math
import os
import signal

import numpy as np
import pytest

from suvsim import derive_stream
from suvsim.dynamics import _unnormalized_heun, _workspace

# Verdicts recorded by the acceptance suite, printed one line per criterion
# at the end of the test session.
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def _record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (passed, detail)


@pytest.fixture(scope="session")
def criterion_report():
    """Callable (number, passed, detail) -> None feeding the final report."""
    return _record_criterion


def child_pids():
    """Pids of this process's child processes, zombies included, as the
    kernel lists them per thread in /proc/<pid>/task/<tid>/children: the
    workers the engine forks, which multiprocessing does not track, as well
    as multiprocessing's and subprocess's children."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path, encoding="ascii") as fh:
            pids += map(int, fh.read().split())
    return pids


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail any test after which a child process, such as a worker that was
    never reaped, is still there; the child is killed and reaped."""
    yield
    children = child_pids()
    for pid in children:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
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


def lane_draws(seed, index, n_steps, steady=None):
    """Trajectory ``index``'s draws under ``seed``, replayed from lane
    index % 16 of the stream of group index // 16, which draws all 16
    lanes in every call: its steady-state value (``steady`` "normal" or
    "uniform"; None draws none, as Wiener-driven schemes do) and its
    ``n_steps`` per-step standard normals."""
    rng, lane = derive_stream(seed, index // 16), index % 16
    value = None
    if steady == "uniform":
        value = rng.uniform(-1.0, 1.0, 16)[lane]
    elif steady == "normal":
        value = rng.standard_normal(16)[lane]
    return value, rng.standard_normal((n_steps, 16))[:, lane]


def overflow_steps(cfg, indices):
    """Replay of an unnormalized run under a frozen OU field: {index: step}
    for each trajectory of ``indices`` whose amplitudes overflow alone
    within cfg.n_steps, at that step. A trajectory's field is its lane's
    steady draw, and the kernel acts elementwise, so the rows step
    together, each with the bits of a run of its own."""
    n, p = len(indices), cfg.params
    xi = np.array([lane_draws(cfg.seed, i, 0, "normal")[0] for i in indices])
    s = np.array([np.full(n, math.sqrt(cfg.z0)), np.full(n, math.sqrt(1.0 - cfg.z0))])
    ws, steps = _workspace(n), np.zeros(n, dtype=int)
    for k in range(1, cfg.n_steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            s = _unnormalized_heun(s, xi, cfg.dt, p.J, p.G, np.empty((2, n)), ws)
        steps[(steps == 0) & ~np.isfinite(s).all(axis=0)] = k
        if steps.all():
            break
    return {i: int(k) for i, k in zip(indices, steps) if k}


def first_overflow(steps, indices):
    """``trajectory i, step k``, the error of one chunk of ``indices``: its
    earliest overflow step in ``steps``, at the lowest index failing then."""
    k, i = min((steps[i], i) for i in indices if i in steps)
    return f"trajectory {i}, step {k}"


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
