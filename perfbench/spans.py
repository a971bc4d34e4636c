"""Layer spans and stack samples, recorded from outside the program.

`Tracer` wraps named forge functions for the duration of a traced run.  A
function imported by name into other modules (`from .linalg import
rank_mod_p`) is patched in every forge module that holds it, so calls made
through the caller's binding are counted too.  A name that no longer exists
is reported as absent.

`Sampler` reads the main thread's stack at a fixed interval and charges each
sample to the innermost frame that belongs to a forge module, which gives
per-module self shares without wrapping hot constructors such as `Scalar`.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time


class SpanStat:
    __slots__ = ("calls", "total_s", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    """Wraps `(module, qualname)` targets of a package; undone by `remove`.

    `counters` maps a counter name to `(span name, reader)`; the reader gets
    each return value of that span's function and returns a number to add.
    """

    def __init__(self, package: str, targets, counters=None):
        self.package = package
        self.targets = list(targets)
        self.counters = dict(counters or {})
        self.stats: dict[str, SpanStat] = {}
        self.counts = {name: 0 for name in self.counters}
        self.absent: list[str] = []
        self._undo: list = []
        self._stack: list[float] = []

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or
                                         n.startswith(self.package + "."))]
        for module, qualname in self.targets:
            name = "%s.%s" % (module, qualname)
            owner = sys.modules.get("%s.%s" % (self.package, module))
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            target = vars(owner).get(attr) if owner is not None else None
            if isinstance(target, type):
                owner, attr = target, "__init__"
                target = vars(owner).get(attr)
            if target is None:
                self.absent.append(name)
                continue
            wrapped = self._wrap(name, target)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
            else:
                # every module that bound the function at import
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            self._patch(mod, key, wrapped)
        return self

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, wrapped):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, target):
        stat = self.stats[name] = SpanStat()
        stack = self._stack
        clock = time.perf_counter
        readers = [(c, reader) for c, (span, reader) in self.counters.items()
                   if span == name]
        counts = self.counts

        @functools.wraps(target)
        def span(*args, **kwargs):
            stack.append(0.0)
            stat.active += 1
            t0 = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if not stat.active:  # recursion is counted once
                    stat.total_s += dt
            for counter, reader in readers:
                counts[counter] += reader(result)
            return result

        return span


class Sampler:
    """Samples the calling thread's stack every `interval` seconds."""

    def __init__(self, package_dir: str, interval: float = 0.002):
        self.package_dir = os.path.realpath(package_dir)
        self.interval = interval
        self.samples = 0
        self.by_module: dict[str, int] = {}
        self._files: dict[str, str | None] = {}
        self._stop = threading.Event()
        self._thread = None
        self._target = threading.get_ident()

    def _module_of(self, filename: str):
        if filename not in self._files:
            path = os.path.realpath(filename)
            inside = os.path.dirname(path) == self.package_dir
            self._files[filename] = (os.path.splitext(os.path.basename(path))[0]
                                     if inside else None)
        return self._files[filename]

    def _run(self):
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            module = None
            while frame is not None and module is None:
                module = self._module_of(frame.f_code.co_filename)
                frame = frame.f_back
            self.samples += 1
            if module is not None:
                self.by_module[module] = self.by_module.get(module, 0) + 1

    def start(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self):
        self._stop.set()
        self._thread.join()
