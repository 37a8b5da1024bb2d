"""Test-only fault injection, used to prove the gradient checks have teeth.

A hook is set in-process with `set_injected_bug`; no command-line flag or
environment variable reaches it.
"""

BUG_NAMES = ("kpff-w", "kpff-x", "adam-bias")

_injected = None


def set_injected_bug(name):
    global _injected
    if name is not None and name not in BUG_NAMES:
        raise ValueError(f"unknown bug hook {name!r}; known: {BUG_NAMES}")
    _injected = name


def injected_bug():
    return _injected
