"""Shared fixtures."""

import pytest


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
