"""Shared fixtures, and the golden drift line of the test summary."""

import platform

import numpy as np
import pytest

GOLDEN_DRIFT = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def golden_drift(pytestconfig) -> dict:
    """The largest float difference the golden reports accepted (``drift``) and where it was (``where``)."""
    return pytestconfig.stash.setdefault(GOLDEN_DRIFT, {"drift": 0.0, "where": None})


def pytest_terminal_summary(terminalreporter, config):
    """One summary line with the golden drift, so each run's log shows it for its numpy and Python."""
    drift = config.stash.get(GOLDEN_DRIFT, None)
    if drift is None:
        return
    versions = f"numpy {np.__version__}, Python {platform.python_version()}"
    if drift["where"] is None:
        terminalreporter.write_line(f"golden drift: every float matched its golden exactly ({versions})")
    else:
        terminalreporter.write_line(f"golden drift: largest {drift['drift']:.3g} (bound 1e-10) at {drift['where']} "
                                    f"({versions})")


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap attributes of a module in call counters for the rest of the test.

    ``count_calls(np.fft, "fft", "ifft")`` returns a dict from name to the
    number of calls so far; reset it with ``dict.update``.
    """

    def install(owner, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        return calls

    return install
