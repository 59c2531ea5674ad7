"""Registry of concrete :class:`SystemModel` plugins.

All dispatch goes through :func:`get_system`; nothing outside a
system's home module constructs a concrete system class directly.
Instances are singletons — system models are immutable descriptions, so
one shared instance per name is safe and keeps derived objects
(rooflines, transforms) cheap to re-request.
"""

from __future__ import annotations

__all__ = ["register_system", "get_system", "available_systems"]

_REGISTRY: dict[str, type] = {}
_INSTANCES: dict[str, object] = {}


def register_system(cls):
    """Class decorator registering a concrete system under ``cls.name``."""
    from repro.systems.base import SystemModel

    if not (isinstance(cls, type) and issubclass(cls, SystemModel)):
        raise TypeError(f"register_system expects a SystemModel subclass, got {cls!r}")
    name = getattr(cls, "name", "")
    if not name:
        raise ValueError(f"{cls.__name__} must declare a non-empty registry name")
    if name in _REGISTRY and _REGISTRY[name] is not cls:
        raise ValueError(f"system name {name!r} is already registered")
    _REGISTRY[name] = cls
    return cls


def get_system(name: str):
    """Resolve a registered system by name to its shared instance."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(f"unknown system {name!r}; registered: {known}") from None
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = cls()
        _INSTANCES[name] = instance
    return instance


def available_systems() -> tuple[str, ...]:
    """Sorted names of every registered system."""
    return tuple(sorted(_REGISTRY))
