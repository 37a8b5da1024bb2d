"""Test-only fault injection, used to prove the gradient checks have teeth.

The CLI accepts --inject-bug only when KPFF_TEST_HOOKS=1 is set in the
environment (`hooks_enabled`). `set_injected_bug` does not check it: a hook
set in-process is honored whatever the environment.
"""

import os

BUG_NAMES = ("kpff-w", "kpff-x", "adam-bias")

_injected = None


def hooks_enabled() -> bool:
    return os.environ.get("KPFF_TEST_HOOKS") == "1"


def set_injected_bug(name):
    global _injected
    if name is not None and name not in BUG_NAMES:
        raise ValueError(f"unknown bug hook {name!r}; known: {BUG_NAMES}")
    _injected = name


def injected_bug():
    return _injected
