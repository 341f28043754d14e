"""Timing wrappers installed from outside the program, for the traced run.

Each target is a function (or a class method) named by module and
attribute.  Installing a target replaces the function everywhere a module
of the package refers to it, so calls made through ``from x import f``
are timed as well as calls through ``x.f``.  A span stack gives every
call its self time: its duration minus the time of the timed calls it
made.  ``Tracer.installed`` restores every replaced attribute on exit.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "observed")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.observed: dict[str, int] = {}


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter):
        self.package = package
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        # One child-time accumulator per open span.
        self._stack: list[float] = []

    def wrap(self, name: str, fn, observe=None):
        """A timed stand-in for ``fn``.

        ``observe(result)`` returns counts that are summed into ``Stat.observed``.
        """
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = self.clock

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.calls += 1
                stat.self_s += elapsed - stack.pop()
                stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                for key, count in observe(result).items():
                    stat.observed[key] = stat.observed.get(key, 0) + count
            return result

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def installed(self, targets):
        """Install ``(module, attribute, name[, observe])`` targets for the block.

        ``attribute`` may be ``Class.method``.
        """
        replaced = []
        try:
            for module_name, attribute, name, *observe in targets:
                owner = sys.modules[module_name]
                *path, attr = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                timed = self.wrap(name, original, *observe)
                sites = [(owner, attr)] if path else self._references(original)
                for site, site_attr in sites:
                    replaced.append((site, site_attr, original))
                    setattr(site, site_attr, timed)
            yield self
        finally:
            for site, site_attr, original in reversed(replaced):
                setattr(site, site_attr, original)

    def _references(self, fn):
        prefix = self.package + "."
        return [
            (module, attr)
            for module_name, module in list(sys.modules.items())
            if module_name == self.package or module_name.startswith(prefix)
            for attr, value in list(vars(module).items())
            if value is fn
        ]
