"""A tiny named-factory registry shared by the pluggable engine layers.

Two registries use it today: the ASSSP oracle engines
(:mod:`repro.assp.engines`, the paper's §4 black box) and the top-level
negative-weight SSSP engines (:mod:`repro.core.engines`).  Both need the
same three things — registration by name, creation with keyword
arguments, and a helpful error listing the known names — so the logic
lives here once instead of as two hand-rolled dicts.

Factories are callables returning a fresh engine instance; a class is a
factory.  Registration order is preserved (``names()`` sorts for display
and error messages, ``__iter__`` yields registration order, which the
differential harness uses so the reference engine comes first).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from ..resilience.errors import InputValidationError

Factory = Callable[..., Any]


class Registry:
    """Named factories with a uniform lookup error."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: dict[str, Factory] = {}

    def register(self, name: str, factory: Factory | None = None
                 ) -> Factory | Callable[[Factory], Factory]:
        """Register ``factory`` under ``name``.

        Usable directly (``reg.register("exact", ExactAssp)``) or as a
        decorator (``@reg.register("exact")``).  Re-registering a name is
        an error — engines are module-level singletons, a silent
        overwrite would hide an import-order bug.
        """
        def add(fn: Factory) -> Factory:
            if name in self._factories:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered")
            self._factories[name] = fn
            return fn

        if factory is not None:
            return add(factory)
        return add

    def names(self) -> list[str]:
        """All registered names, sorted for display."""
        return sorted(self._factories)

    def create(self, name: str, **kwargs: Any) -> Any:
        """Instantiate the engine registered under ``name``; an unknown
        name, unhashable ones such as a list included, raises
        :class:`~repro.resilience.errors.InputValidationError` (a
        ``ValueError``)."""
        try:
            factory = self._factories[name]
        except (KeyError, TypeError):
            raise InputValidationError(
                f"unknown {self.kind} {name!r}; choose from "
                f"{self.names()}") from None
        return factory(**kwargs)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self._factories)

    def __len__(self) -> int:
        return len(self._factories)


__all__ = ["Registry"]
