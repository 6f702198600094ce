"""The containment kernels, bound once at import.

The compiled extension (``votelace._ckernels``) is used when it imports,
the pure-Python ``votelace._pykernels`` otherwise.  Set ``VOTELACE_BACKEND``
to ``python`` or ``c`` to force a backend; any other value, or ``c`` without
the extension, raises ``ValueError`` on import.  There is no runtime switch:
the four kernels below are the chosen backend's own functions.
"""

import os

from votelace import _pykernels

try:
    from votelace import _ckernels
except ImportError:
    _ckernels = None

_BACKENDS = {"python": _pykernels, "c": _ckernels}
_active = os.environ.get("VOTELACE_BACKEND") or ("python" if _ckernels is None else "c")
_impl = _BACKENDS.get(_active)
if _impl is None:
    built = ", ".join(name for name, module in _BACKENDS.items() if module is not None)
    raise ValueError(f"unknown kernel backend {_active!r}; have {built}")

contains_pattern = _impl.contains_pattern
strong_contains = _impl.strong_contains
contains_configuration = _impl.contains_configuration
fits_axis = _impl.fits_axis


def active_backend():
    return _active
