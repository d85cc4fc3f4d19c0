"""Spans around every call into impbox's layers, recorded from outside.

``Tracer.install`` wraps the public functions and public methods of each
layer's modules and rebinds every alias of them across ``impbox.*``
(modules import names directly: ``docio`` binds ``from_functions``,
``convert`` binds ``lower_prob``/``upper_prob``).  The program's own
files are not touched.

Self time is computed as spans close: a span's self time is its
duration minus the time covered by spans of other layers nested in it.
A span nested directly in a span of the same layer is merged into its
parent, so ``pbox.upper_prob`` calling ``pbox.lower_prob`` counts once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

#: layer name -> modules whose functions belong to it
LAYERS = {
    "cli": ("impbox.cli",),
    "docio": ("impbox.docio",),
    "space": ("impbox.space",),
    "capacity": ("impbox.capacity",),
    "randomset": ("impbox.randomset",),
    "possibility": ("impbox.possibility",),
    "interval": ("impbox.interval",),
    "pbox": ("impbox.pbox",),
    "convert": ("impbox.convert",),
    "credal": ("impbox.credal", "impbox._simplex"),
}

#: spans kept in memory for the span log; counts and times cover all
SPAN_CAP = 100_000

_METHODS = ("__init__", "__post_init__", "__call__")


class Tracer:
    def __init__(self):
        self.request = -1
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: inclusive time per function name
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        #: items yielded per generator function name
        self.yields: Counter[str] = Counter()
        self.bytes_in = 0
        self.bytes_out = 0
        self.lps_solved = 0
        self.lps_distinct = 0
        self._lp_keys: set = set()
        self._stack: list[list] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        self._span_request = array("i")
        self.spans_dropped = 0
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "docio.parse": self._on_parse,
            "docio.serialize": self._on_serialize,
            "credal.lower_envelope": self._on_lower_envelope,
            "credal.upper_envelope": self._on_upper_envelope,
        }

    # -- requests -----------------------------------------------------

    def start_request(self, request_id: int) -> None:
        self.request = request_id
        self._lp_keys.clear()

    # -- spans --------------------------------------------------------

    def _enter(self, layer: str, name: str) -> None:
        index = -1
        if len(self._span_start) < SPAN_CAP:
            index = len(self._span_start)
            name_id = self._name_ids.get(name)
            if name_id is None:
                name_id = self._name_ids[name] = len(self._names)
                self._names.append(name)
            self._span_name.append(name_id)
            self._span_parent.append(self._stack[-1][4] if self._stack else -1)
            self._span_request.append(self.request)
            self._span_end.append(0.0)
        else:
            self.spans_dropped += 1
        start = perf_counter()
        if index >= 0:
            self._span_start.append(start)
        # layer, name, start, time covered by other layers, span index
        self._stack.append([layer, name, start, 0.0, index])

    def _exit(self) -> None:
        end = perf_counter()
        layer, name, start, foreign, index = self._stack.pop()
        if index >= 0:
            self._span_end[index] = end
        duration = end - start
        self.inclusive_s[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent[0] == layer:
            parent[3] += foreign
        else:
            self.self_s[layer] += duration - foreign
            if parent is not None:
                parent[3] += duration

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                tracer.calls[layer] += 1
                inner = fn(*args, **kwargs)
                while True:
                    tracer._enter(layer, name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.yields[name] += 1
                    yield item

            return generator

        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def call(*args, **kwargs):
            tracer.calls[layer] += 1
            tracer._enter(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if hook is not None:
                hook(args, result)
            return result

        return call

    # -- counters taken at layer boundaries ------------------------------

    def _on_parse(self, args, result) -> None:
        self.bytes_in += len(args[0].encode())

    def _on_serialize(self, args, result) -> None:
        self.bytes_out += len(result.encode())

    def _count_lp(self, poly, mask: int) -> None:
        # lower(A) and upper(A^c) are the same LP; the empty and full
        # events both solve the bare feasibility LP.
        full = (1 << poly.space.size) - 1
        key = (id(poly), -1 if mask in (0, full) else mask)
        self.lps_solved += 1
        if key not in self._lp_keys:
            self._lp_keys.add(key)
            self.lps_distinct += 1

    def _on_lower_envelope(self, args, result) -> None:
        poly, event = args
        self._count_lp(poly, event.mask)

    def _on_upper_envelope(self, args, result) -> None:
        poly, event = args
        self._count_lp(poly, event.mask ^ ((1 << poly.space.size) - 1))

    # -- installing the wrappers --------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import click

        wrappers = {}
        for layer, module_names in LAYERS.items():
            for module_name in module_names:
                module = importlib.import_module(module_name)
                short = module_name.removeprefix("impbox.")
                for attr, obj in list(vars(module).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(obj, click.Command):
                        wrapped = self._wrap(layer, f"{short}.{attr}", obj.callback)
                        self._set(obj, "callback", wrapped)
                    elif getattr(obj, "__module__", None) != module_name:
                        continue
                    elif inspect.isfunction(obj):
                        wrappers[obj] = self._wrap(layer, f"{short}.{attr}", obj)
                    elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                        self._wrap_methods(layer, f"{short}.{attr}", obj, module)
        for module_name, module in list(sys.modules.items()):
            if module_name != "impbox" and not module_name.startswith("impbox."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(module, attr, wrappers[obj])

    def _wrap_methods(self, layer: str, prefix: str, cls, module) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _METHODS:
                continue
            binder = type(member) if isinstance(member, (classmethod, staticmethod)) else None
            fn = member.__func__ if binder else member
            # dataclass-generated methods are compiled from strings
            if not inspect.isfunction(fn) or fn.__code__.co_filename != module.__file__:
                continue
            wrapped = self._wrap(layer, f"{prefix}.{attr}", fn)
            self._set(cls, attr, binder(wrapped) if binder else wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """Tab-separated: index, name, start, end, parent index, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(
                f"# first {len(self._span_start)} spans; "
                f"{self.spans_dropped} later ones not kept\n"
            )
            out.write("span\tname\tstart\tend\tparent\trequest\n")
            for i in range(len(self._span_start)):
                out.write(
                    f"{i}\t{self._names[self._span_name[i]]}\t"
                    f"{self._span_start[i]:.9f}\t{self._span_end[i]:.9f}\t"
                    f"{self._span_parent[i]}\t{self._span_request[i]}\n"
                )
