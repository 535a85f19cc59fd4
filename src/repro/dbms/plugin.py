"""Plugin infrastructure.

The paper's implementation strategy (Section II-B) attaches self-management
through Hyrise's plugin mechanism: plugins get direct access to database
internals without the self-management code being compiled into the core.
:class:`PluginHost` reproduces that contract — plugins are attached at
runtime, receive the :class:`~repro.dbms.database.Database` object itself
(full internal access, no indirection layer), and can be detached leaving
the database untouched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.errors import PluginError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.dbms.database import Database


class Plugin(ABC):
    """Base class for database plugins."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Unique plugin name."""

    @abstractmethod
    def on_attach(self, database: "Database") -> None:
        """Called when the plugin is loaded into a running database."""

    def on_detach(self) -> None:
        """Called when the plugin is unloaded. Default: nothing to clean up."""

    def on_tick(self, now_ms: float) -> None:
        """Called periodically by the simulation loop. Default: no-op."""


class PluginHost:
    """Loads and unloads plugins at database runtime."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._plugins: dict[str, Plugin] = {}

    def attach(self, plugin: Plugin) -> None:
        if plugin.name in self._plugins:
            raise PluginError(f"plugin {plugin.name!r} already attached")
        plugin.on_attach(self._database)
        self._plugins[plugin.name] = plugin

    def detach(self, name: str) -> None:
        plugin = self._plugins.pop(name, None)
        if plugin is None:
            raise PluginError(f"plugin {name!r} is not attached")
        plugin.on_detach()

    def is_attached(self, name: str) -> bool:
        return name in self._plugins

    def plugin(self, name: str) -> Plugin:
        try:
            return self._plugins[name]
        except KeyError:
            raise PluginError(f"plugin {name!r} is not attached") from None

    def tick(self, now_ms: float) -> None:
        for plugin in list(self._plugins.values()):
            plugin.on_tick(now_ms)
