"""Check that tier-1's physics tests kill a list of physics mutants.

    python3 scripts/mutcheck.py

Each mutant is one source replacement that writes a derivation error into
the package: a wrong coefficient, a wrong sign, a wrong law, a wrong
observable, a wrong reduction or a wrong fit. For each, the
script copies src/, tests/ and pyproject.toml into a temporary directory,
applies the replacement there (its text must occur exactly once), and runs
tier-1 with ``-x`` and without the five tests that pin each kernel bit for
bit to a copy of its own expression: an error written into both copies
passes those pins, so only a physics test can catch it. Test files run
cheapest first, so a killed mutant stops early. The unmutated copy runs
first and must pass, and pytest must collect every pin in it: pytest
ignores an unknown ``--deselect`` id, so a renamed pin would otherwise
run, and could kill mutants, unnoticed.

Prints one line per mutant, ``killed`` with the test that caught it, or
``SURVIVED``, then the mutants that are listed but not run, with the
reason. Exits 0 when every mutant is killed, 1 when one survives, and 2
when the unmutated copy fails or does not collect a pin (named on stderr)
or a run cannot complete. Not part of tier-1: with every mutant killed it
takes a few minutes on two cores.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, file under src/suvsim, text, replacement)
MUTANTS = [
    ("doubled Ito conversion drift", "dynamics.py",
     "c = 0.25 * deff * deff\n", "c = 0.5 * deff * deff\n"),
    ("halved SSE diffusion coefficient", "dynamics.py",
     "c = 2.0 * math.sqrt(gamma)", "c = 1.0 * math.sqrt(gamma)"),
    ("flipped sign of the colored z-track's J term", "dynamics.py",
     "np.multiply(J, t, out=t)\n    np.add(t, gx, out=t)",
     "np.multiply(-J, t, out=t)\n    np.add(t, gx, out=t)"),
    ("halved z-scalar-white diffusion", "dynamics.py",
     "np.multiply(2.0 * deff, z, out=g)", "np.multiply(1.0 * deff, z, out=g)"),
    ("first-order Heun corrector (the rate at the start, twice)", "dynamics.py",
     "rate(p, gx, J, out, ws)", "rate(s, gx, J, out, ws)"),
    ("OU decay exp(-2 dt / tau)", "noise.py",
     "decay = math.exp(-dt / tau)", "decay = math.exp(-2.0 * dt / tau)"),
    ("SBM diffusion (1 - xi^2) / (2 tau)", "noise.py",
     "np.multiply(s, ratio, out=s)", "np.multiply(s, 0.5 * ratio, out=s)"),
    ("SBM steady law uniform on [0, 1]", "noise.py",
     "rng.uniform(-1.0, 1.0, n)", "rng.uniform(0.0, 1.0, n)"),
    ("effective diffusion without its factor 2", "master.py",
     "math.sqrt(2.0 * G * G * tau * second_moment)", "math.sqrt(G * G * tau * second_moment)"),
    ("halved SSE drift", "dynamics.py",
     "np.multiply(-gamma, v, out=v)", "np.multiply(-0.5 * gamma, v, out=v)"),
    ("white-strat predictor without its noise term", "dynamics.py",
     "    np.multiply(g, dw, out=u)\n    np.add(p, u, out=p)\n", ""),
    ("z-scalar-colored without its clip", "dynamics.py",
     "np.add(z, out, out=out)\n    return np.clip(out, 0.0, 1.0, out=out)",
     "np.add(z, out, out=out)\n    return out"),
    ("OU innovation sqrt(1 - decay)", "noise.py",
     "math.sqrt(1.0 - decay * decay)", "math.sqrt(1.0 - decay)"),
    ("SBM without its clamp", "noise.py",
     "return np.clip(out, -1.0, 1.0, out=out)", "return out"),
    ("SBM second moment 1/2", "master.py",
     "NoiseKind.SBM: 1.0 / 3.0}", "NoiseKind.SBM: 0.5}"),
    ("GKSL reference rate Deff^2 instead of Deff^2 / 2", "master.py",
     "np.exp(-0.5 * Deff * Deff * rel)", "np.exp(-Deff * Deff * rel)"),
    ("stderr without its 1 / sqrt(n)", "engine.py",
     "return np.sqrt(var / n)", "return np.sqrt(var)"),
    ("amplitude qv on b instead of a", "engine.py",
     "def _amplitude_a(s, out):\n    return s[0]", "def _amplitude_a(s, out):\n    return s[1]"),
    ("scalar qv of z instead of sqrt(z)", "engine.py",
     "return np.sqrt(z, out=out)", "return z"),
    ("scalar offdiag sqrt(z) (1 - z), without its second sqrt", "engine.py",
     "    np.sqrt(t, out=t)\n", ""),
    ("collapse to |0> at z >= 1/2", "observables.py",
     "z >= 1.0 - eps_collapse", "z >= 0.5"),
    ("no compensation in the fold", "observables.py",
     "        self._comp += np.where(big, (self._acc - t) + x, (x - t) + self._acc)\n", ""),
    ("decay-rate fit with its lags left uncentred", "experiments.py",
     "dx = x - x.mean()", "dx = x"),
]

# Mutants no test can see, with the reason; listed, not run.
UNSEEN = [
    ("flipped sign of the OU innovation",
     "the normal law is symmetric, so every path has the law of the unmutated one"),
]

# The tests that pin a kernel to a copy of its own arithmetic.
PINS = [
    "tests/test_dynamics.py::test_suv_step_matches_two_stage_heun_arithmetic",
    "tests/test_dynamics.py::test_sse_step_matches_euler_maruyama_arithmetic",
    "tests/test_dynamics.py::test_white_steps_match_their_kernels",
    "tests/test_dynamics.py::test_kernels_match_allocating_expressions_bit_for_bit",
    "tests/test_noise.py::test_field_updates_match_allocating_expressions_bit_for_bit",
]

# Every tier-1 test file, cheapest first.
TEST_FILES = [
    "tests/test_master.py",
    "tests/test_observables.py",
    "tests/test_dynamics.py",
    "tests/test_noise.py",
    "tests/test_harness.py",
    "tests/test_engine.py",
    "tests/test_acceptance.py",
]

RUN_TIMEOUT_S = 900


def copy_tree(dest: str) -> None:
    """Copy the package, its tests and the pytest configuration to dest."""
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), dest)


def mutate(tree: str, filename: str, text: str, replacement: str) -> None:
    path = os.path.join(tree, "src", "suvsim", filename)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    count = source.count(text)
    if count != 1:
        print(f"mutant text occurs {count} times in {filename}: {text!r}", file=sys.stderr)
        sys.exit(2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source.replace(text, replacement))


def run_pytest(tree: str, *args: str) -> subprocess.CompletedProcess | None:
    """Run pytest over TEST_FILES in ``tree`` with its own package; None on
    a timeout."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args, *TEST_FILES]
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    try:
        return subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None


def uncollected_pins(tree: str) -> list[str] | None:
    """The PINS that pytest does not collect in ``tree``, or None when the
    collection fails."""
    done = run_pytest(tree, "--collect-only")
    if done is None or done.returncode != 0:
        return None
    collected = {line.split("[")[0] for line in done.stdout.splitlines()}
    return [pin for pin in PINS if pin not in collected]


def run_tests(tree: str) -> tuple[int, str]:
    """Tier-1 minus the pins in ``tree``, stopping at the first failure:
    pytest's exit code and the first failing test (empty if none)."""
    done = run_pytest(tree, "-x", *(f"--deselect={test}" for test in PINS))
    if done is None:
        return -1, ""
    failed = [line.split(" ")[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode, failed[0] if failed else ""


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python3 scripts/mutcheck.py", file=sys.stderr)
        return 2
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="mutcheck-") as tmp:
        base = os.path.join(tmp, "base")
        copy_tree(base)
        missing = uncollected_pins(base)
        if missing is None:
            print("pytest cannot collect the unmutated copy's tests", file=sys.stderr)
            return 2
        for pin in missing:
            print(f"pin not collected in the unmutated copy: {pin}", file=sys.stderr)
        if missing:
            return 2
        code, failed = run_tests(base)
        if code != 0:
            print(f"the unmutated copy fails (pytest exit {code}): {failed}", file=sys.stderr)
            return 2
        for i, (name, filename, text, replacement) in enumerate(MUTANTS):
            tree = os.path.join(tmp, f"mutant{i}")
            copy_tree(tree)
            mutate(tree, filename, text, replacement)
            code, failed = run_tests(tree)
            if code == 0:
                survivors += 1
                print(f"SURVIVED  {name}")
            elif code == 1:
                print(f"killed    {name}, by {failed}")
            else:
                print(f"run did not complete (pytest exit {code}): {name}", file=sys.stderr)
                return 2
            shutil.rmtree(tree)
    for name, reason in UNSEEN:
        print(f"not run   {name}: {reason}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
