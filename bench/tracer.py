"""Outside-in tracing: spans around the program's public functions.

The tracer patches functions from outside the program.  A module that did
`from .spectra import char_poly` holds its own binding, so patching only
the defining module would miss its calls; `install` therefore replaces the
function in every module namespace that bound it.  Methods are wrapped on
the class, which every caller reaches through attribute lookup.

Each call records one span [name, start, end, parent index, input id, info]
on a stack, so a span's self time is its duration minus that of its direct
children.  Spans stay in memory until `write` is called at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.input_id = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                if info is not None:
                    rec[5] = info(args, None, exc)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if info is not None:
                rec[5] = info(args, result, None)
            return result

        return wrapper

    def install(self, targets, package: str) -> None:
        """Wrap each target (span name, module, attribute path, info).

        info, when given, is called as info(args, result, exception) and its
        return value is stored on the span.
        """
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        for name, module, path, info in targets:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, info)
            if outer:
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """One JSON line per span; info values that are not JSON become null."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, input_id, info) in enumerate(self.spans):
                if not isinstance(info, (bool, int, float, str, type(None))):
                    info = None
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "input": input_id,
                            "info": info,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def summarize(spans):
    """Per span name: calls, total seconds and self seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, list] = {}
    for idx, (name, start, end, _, _, _) in enumerate(spans):
        rec = out.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += end - start
        rec[2] += end - start - child_time[idx]
    return out
