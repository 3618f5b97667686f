"""In-memory span recording around the package's public functions.

`Tracer.install` rebinds every public function defined in a chaospip
module, at every module attribute that binds it, to a wrapper that records
one span per call: name, start, end, parent span and run id, plus a work
count for the functions listed in COUNTS. Rebinding every attribute
matters because `cli` imports `process_stream`, `read_pnm` and friends by
name, and `keystream.seed` calls the module-global `skip`. Spans stay in
memory; the worker writes them out once the run is over.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Work done per call, read from the call's arguments.
COUNTS = {
    "keystream.take_bytes": lambda args, kwargs: args[1] if len(args) > 1 else kwargs["count"],
    "keystream.skip": lambda args, kwargs: args[1] if len(args) > 1 else kwargs["count"],
    "cipher.transform_plane": lambda args, kwargs: len(args[0] if args else kwargs["data"]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id, count]
        self.run_id = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.run_id,
                    count(args, kwargs) if count else 0]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return traced

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "chaospip" or n.startswith("chaospip.")]
        wrapped = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("chaospip.")):
                    continue
                if obj not in wrapped:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrapped[obj] = self.wrap(f"{layer}.{obj.__name__}", obj)
                setattr(module, attr, wrapped[obj])
