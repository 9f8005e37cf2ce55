"""Pluggable numerical kernels: one registry, one active backend.

Every hot primitive in :mod:`repro.autograd` and :mod:`repro.graph`
dispatches through :func:`active_backend`, an instance of a registered
:class:`~repro.kernels.base.KernelBackend`.  ``numpy`` is the pinned
reference implementation (bit-identical to the pre-extraction inline
code) and the only built-in backend; :func:`register_kernel_backend` adds
others, e.g. an instrumented subclass that counts every primitive.

Selection mirrors the blocked-threshold knob, in priority order:

1. a per-process programmatic override (:func:`set_kernel_backend`, used
   by ``ExecutionSpec.kernel_backend`` for the duration of a sweep);
2. the ``REPRO_KERNEL_BACKEND`` environment variable (memoised per raw
   string — resolution runs on every dispatched primitive);
3. the built-in default, ``numpy``.

Unknown names raise :class:`~repro.exceptions.ConfigurationError` listing
the registered backends; the CLI surfaces that as an exit-2 usage error.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Type

from repro.exceptions import ConfigurationError
from repro.kernels.base import KernelBackend
from repro.kernels.numpy_backend import NumpyBackend

__all__ = [
    "DEFAULT_KERNEL_BACKEND",
    "KERNEL_BACKEND_ENV",
    "KernelBackend",
    "NumpyBackend",
    "active_backend",
    "available_kernel_backends",
    "kernel_backend_name",
    "register_kernel_backend",
    "set_kernel_backend",
]

#: Name resolved when neither the override nor the environment selects one.
DEFAULT_KERNEL_BACKEND = "numpy"

#: Environment variable naming the backend to dispatch through.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

_REGISTRY: Dict[str, Type[KernelBackend]] = {}

_NAME_OVERRIDE: Optional[str] = None

#: Memo of the last environment parse: ``(raw_env_string, validated_name)``.
#: Keyed by the raw string so an environment change is still picked up;
#: :func:`set_kernel_backend` and registration invalidate it outright.
_NAME_CACHE: Optional[Tuple[Optional[str], str]] = None

#: One lazily-built instance per backend name (backends are stateless or
#: internally synchronised, so a singleton per process is safe to share).
_INSTANCES: Dict[str, KernelBackend] = {}


def register_kernel_backend(cls: Type[KernelBackend]) -> Type[KernelBackend]:
    """Register a backend class under ``cls.name`` (decorator-friendly)."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ConfigurationError(
            f"kernel backend {cls!r} must define a non-abstract 'name'"
        )
    global _NAME_CACHE
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    _NAME_CACHE = None
    return cls


def available_kernel_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def _validate_name(name: str, *, source: str) -> str:
    if name not in _REGISTRY:
        registered = ", ".join(available_kernel_backends())
        raise ConfigurationError(
            f"unknown kernel backend {name!r} from {source}; "
            f"registered backends: {registered}"
        )
    return name


def kernel_backend_name() -> str:
    """The name of the backend primitives dispatch through right now.

    Resolution order: :func:`set_kernel_backend` override, the
    ``REPRO_KERNEL_BACKEND`` environment variable, then
    :data:`DEFAULT_KERNEL_BACKEND`.  The environment parse is memoised per
    raw string — this runs on the hot path of every primitive.
    """
    global _NAME_CACHE
    if _NAME_OVERRIDE is not None:
        return _NAME_OVERRIDE
    raw = os.environ.get(KERNEL_BACKEND_ENV)
    cached = _NAME_CACHE
    if cached is not None and cached[0] == raw:
        return cached[1]
    if raw is None:
        name = DEFAULT_KERNEL_BACKEND
    else:
        name = _validate_name(raw.strip(), source=KERNEL_BACKEND_ENV)
    _NAME_CACHE = (raw, name)
    return name


def set_kernel_backend(name: Optional[str]) -> Optional[str]:
    """Install (or with ``None`` clear) the per-process backend override.

    Returns the previous override so callers can restore it::

        previous = set_kernel_backend("numpy")
        try:
            ...
        finally:
            set_kernel_backend(previous)
    """
    global _NAME_OVERRIDE, _NAME_CACHE
    previous = _NAME_OVERRIDE
    if name is not None:
        name = _validate_name(name, source="set_kernel_backend")
    _NAME_OVERRIDE = name
    _NAME_CACHE = None
    return previous


def active_backend() -> KernelBackend:
    """The live backend instance for the currently-resolved name."""
    name = kernel_backend_name()
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _REGISTRY[name]()
        _INSTANCES[name] = instance
    return instance


register_kernel_backend(NumpyBackend)
