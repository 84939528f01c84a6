import random
import sys

import pytest

import boardpile.diffusion as diffusion


class FireAudit:
    """Re-checks two structural facts on every firing step: chip conservation,
    and invariance of the step under adding a constant to every stack.  A
    violation raises immediately and is also tallied."""

    def __init__(self, seed: int = 0x0D1FF):
        self.calls = 0
        self.violations = 0
        self._rng = random.Random(seed)

    def wrap(self, step):
        """Audited version of step(*args, stacks), which fires `stacks`."""

        def audited(*args):
            *context, stacks = args
            result = step(*args)
            self.calls += 1
            if sum(result) != sum(stacks):
                self.violations += 1
                raise AssertionError(
                    f"chip conservation violated: {sum(stacks)} chips in, {sum(result)} out"
                )
            k = self._rng.randint(-5, 5)
            if step(*context, tuple(s + k for s in stacks)) != tuple(r + k for r in result):
                self.violations += 1
                raise AssertionError(f"shift equivariance violated for offset {k}")
            return result

        return audited


_audit = FireAudit()

# The raw firing steps are diffusion's functions named _fire_*, one per
# kernel: _fire_raw is the edge loop, behind fire() and a sparse trajectory's
# full steps; _fire_delta fires a sparse trajectory's later steps as a
# correction of the step two back; _fire_masks fires a dense trajectory by
# neighbour masks; _fire_rank, the K_n step by rank, is behind fire() on K_n
# and every K_n trajectory; and _fire_blocks, the same step on a sorted
# multiset, is behind fire_complete(), the unlabelled scan and
# check_fire_reflect().  The audit finds them by that name and wraps each in
# place, so every firing step the suite takes goes through it, and a
# trajectory step is exactly one call of one of them.
_originals = {
    name: step for name, step in vars(diffusion).items() if name.startswith("_fire_") and callable(step)
}


def pytest_sessionstart(session):
    for name, step in _originals.items():
        setattr(diffusion, name, _audit.wrap(step))


def pytest_sessionfinish(session, exitstatus):
    for name, step in _originals.items():
        setattr(diffusion, name, step)
    print(
        f"\nfire audit: {_audit.calls} calls checked, {_audit.violations} violations"
        f" (steps {', '.join(sorted(_originals))})"
    )
    if _audit.violations:
        session.exitstatus = 1


@pytest.fixture
def fire_audit():
    """The session-wide audit."""
    return _audit


@pytest.fixture(autouse=True)
def digit_limit_kept():
    """Fail any test that leaves the int->str digit limit other than it found it:
    the CLI lifts the limit while it runs and must restore it on every exit."""
    limit = sys.get_int_max_str_digits()
    yield
    left = sys.get_int_max_str_digits()
    if left != limit:
        sys.set_int_max_str_digits(limit)
        pytest.fail(f"int->str digit limit left at {left}, found at {limit}")
