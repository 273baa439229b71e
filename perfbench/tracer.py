"""In-memory span tracer that wraps binauralkit's public functions from outside.

Each traced function is replaced, in every binauralkit module namespace
that binds it, by a wrapper recording a span (id, parent id, name, start,
end) plus a few counts taken where the work happens. The library source
is never touched: wrapping happens at the module attribute each caller
looks the function up by, e.g. ``binaural.nearest`` for the HRIR lookup
inside the renderer, and ``uninstall`` restores the originals.

This module imports only the standard library, so loading it into a CLI
process does not shift ``-X importtime`` figures onto it.
"""

from __future__ import annotations

import builtins
import importlib
import importlib.util
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

# span name -> (module, attribute) holding the original function object.
# A target that cannot be resolved (its module or attribute renamed,
# removed or moved) fails the traced run, so a change that moves a layer
# has to update this table instead of reporting zero calls for it.
TRACED = {
    "ambisonic.encode": ("binauralkit.ambisonic", "encode"),
    "visualmap.pixel_to_direction": ("binauralkit.visualmap", "pixel_to_direction"),
    "hrir.load_pack": ("binauralkit.hrir", "load_pack"),
    "hrir.nearest": ("binauralkit.hrir", "nearest"),
    "binaural.default_speaker_array": ("binauralkit.binaural", "default_speaker_array"),
    "binaural.render_ambisonic_hrir": ("binauralkit.binaural", "render_ambisonic_hrir"),
    "binaural.fft_convolve": ("binauralkit.binaural", "fft_convolve"),
    "binaural.write_binaural_wav": ("binauralkit.binaural", "write_binaural_wav"),
    "binaural.read_binaural_wav": ("binauralkit.binaural", "read_binaural_wav"),
    "kernels.sum_contributions": ("binauralkit._kernels", "sum_contributions"),
    "kernels.phase_mean_abs": ("binauralkit._kernels", "phase_mean_abs"),
    "kernels.overlap_add": ("binauralkit._kernels", "overlap_add"),
    "scenegen.gen_dataset": ("binauralkit.scenegen", "gen_dataset"),
    "scenegen.sample_scene": ("binauralkit.scenegen", "sample_scene"),
    "scenegen.synth_pseudo_pair": ("binauralkit.scenegen", "synth_pseudo_pair"),
    "wavio.write_wav": ("binauralkit.wavio", "write_wav"),
    "wavio.read_wav": ("binauralkit.wavio", "read_wav"),
    "metrics.evaluate": ("binauralkit.metrics", "evaluate"),
    "metrics.hilbert": ("binauralkit.metrics", "hilbert"),
    "spectral.stft": ("binauralkit.spectral", "stft"),
    "spectral.mono_and_diff": ("binauralkit.spectral", "mono_and_diff"),
    "spectral.oracle_mask": ("binauralkit.spectral", "oracle_mask"),
    "spectral.apply_mask": ("binauralkit.spectral", "apply_mask"),
    "spectral.istft": ("binauralkit.spectral", "istft"),
}

# Functions a user calls once per process; reported per set-up, not per op.
SETUP_SPANS = ("hrir.load_pack", "binaural.default_speaker_array")

# Frames `evaluate` needs per call if every stream were transformed once:
# gt l, gt r, pred l, pred r, gt l-r, pred l-r.
STREAMS_PER_EVALUATE = 6


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    extra: dict = field(default_factory=dict)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _evaluate_extra(args, kwargs, result):
    gt = _arg(args, kwargs, 0, "gt")
    cfg = kwargs.get("cfg", args[4] if len(args) > 4 else None)
    hop = cfg.hop if cfg is not None else sys.modules["binauralkit.spectral"].DEFAULT_STFT.hop
    return {
        "windows": result.windows,
        "useful_frames": STREAMS_PER_EVALUATE * (1 + gt.n_samples // hop),
    }


# span name -> extra(args, kwargs, result) -> dict of counts for that call
EXTRAS = {
    "binaural.fft_convolve": lambda a, k, r: {"samples": len(_arg(a, k, 0, "x"))},
    "hrir.nearest": lambda a, k, r: {
        "key": (
            id(_arg(a, k, 0, "pack")),
            _arg(a, k, 1, "direction").azimuth,
            _arg(a, k, 1, "direction").elevation,
        )
    },
    "ambisonic.encode": lambda a, k, r: {
        "key": (_arg(a, k, 1, "direction").azimuth, _arg(a, k, 1, "direction").elevation)
    },
    "binaural.render_ambisonic_hrir": lambda a, k, r: {
        "key": (id(_arg(a, k, 1, "arr")), id(_arg(a, k, 2, "pack")))
    },
    "scenegen.synth_pseudo_pair": lambda a, k, r: {
        "sources": len(_arg(a, k, 0, "spec").sources)
    },
    "wavio.write_wav": lambda a, k, r: {"bytes": _file_size(_arg(a, k, 0, "path"))},
    "wavio.read_wav": lambda a, k, r: {"bytes": _file_size(_arg(a, k, 0, "path"))},
    "metrics.evaluate": _evaluate_extra,
    "spectral.stft": lambda a, k, r: {"frames": r.bins.shape[1]},
}


class MissingTarget(RuntimeError):
    """A TRACED function could not be found where the table says it lives."""


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "binauralkit" or name.startswith("binauralkit."))
    ]


class Tracer:
    """Collects spans from wrapped library functions while `active` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._stack: list[int] = []
        self._next_id = 0
        self._resolved: set[str] = set()
        self._pending: list[str] = []  # targets whose module is loaded but lacks them
        self._originals: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        self._wrappers: dict[int, object] = {}  # id of a wrapper -> its original
        self._import = None
        self._module_count = 0

    def _wrap(self, name, fn):
        extra_fn = EXTRAS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            span = Span(sid, parent, name, start, end)
            if extra_fn is not None:
                span.extra = extra_fn(args, kwargs, result)
            self.spans.append(span)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, hook_imports: bool = False) -> None:
        """Wrap every binding of each traced function in binauralkit's modules.

        Every target module must exist. Without `hook_imports` they are all
        imported now and every target must resolve, else MissingTarget.
        With it, nothing is imported: modules are wrapped as they load, and
        `missing` names the targets a loaded module lacks.
        """
        for mod_name, attr in TRACED.values():
            if importlib.util.find_spec(mod_name) is None:
                raise MissingTarget(f"no module {mod_name} for traced {mod_name}.{attr}; update TRACED")
            if not hook_imports:
                importlib.import_module(mod_name)
        self._patch_loaded()
        if self.missing and not hook_imports:
            raise MissingTarget(f"traced functions not found: {self.missing}; update TRACED")
        if hook_imports:
            self._import = builtins.__import__
            builtins.__import__ = self._importing

    @property
    def missing(self) -> list[str]:
        """"module.attr" of each target whose module is loaded but lacks it."""
        return sorted("{}.{}".format(*TRACED[name]) for name in self._pending)

    def _importing(self, *args, **kwargs):
        module = self._import(*args, **kwargs)
        # a module may still be running its body: retry its targets later
        if len(sys.modules) != self._module_count or self._pending:
            self._patch_loaded()
        return module

    def _patch_loaded(self) -> None:
        """Resolve the targets of loaded modules and rebind every binding of them."""
        self._module_count = len(sys.modules)
        self._pending = []
        for name, (mod_name, attr) in TRACED.items():
            module = sys.modules.get(mod_name)
            if name in self._resolved or module is None:
                continue
            fn = getattr(module, attr, None)
            if id(fn) in self._wrappers:  # the same function under another name
                self._resolved.add(name)
                continue
            if not callable(fn):
                self._pending.append(name)
                continue
            wrapper = self._wrap(name, fn)
            self._originals[id(fn)] = (fn, wrapper)
            self._wrappers[id(wrapper)] = fn
            self._resolved.add(name)
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                pair = self._originals.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, attr, pair[1])

    def uninstall(self) -> None:
        """Put every original back, also where a module bound a wrapper."""
        if self._import is not None:
            builtins.__import__ = self._import
            self._import = None
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                fn = self._wrappers.get(id(value))
                if fn is not None and self._originals[id(fn)][1] is value:
                    setattr(module, attr, fn)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children[s.id]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = (s.end - s.start) - covered
    return out


def renumber(span_lists: list[list[Span]]) -> list[Span]:
    """Merge span lists recorded by separate processes into one id space.

    Distinct-keys are prefixed with the list's index, since object ids are
    only unique within one process.
    """
    merged, offset = [], 0
    for index, spans in enumerate(span_lists):
        top = -1
        for s in spans:
            extra = dict(s.extra, key=(index, *s.extra["key"])) if "key" in s.extra else s.extra
            merged.append(
                Span(
                    s.id + offset,
                    None if s.parent is None else s.parent + offset,
                    s.name,
                    s.start,
                    s.end,
                    extra,
                )
            )
            top = max(top, s.id)
        offset += top + 1
    return merged


def _has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def _distinct_ratio(spans: list[Span]) -> float:
    return len({s.extra["key"] for s in spans}) / len(spans) if spans else 0.0


def layer_metrics(op_spans: list[Span], n_ops: int, setup_spans: list[Span]) -> dict:
    """Per-layer metrics: counts per traced op, set-up functions per set-up.

    Returns {metric name: (value, unit)} for every traced function, whether
    or not it ran.
    """
    out = {}
    for phase_spans, per, unit_per, names in (
        (op_spans, max(n_ops, 1), "op", [n for n in TRACED if n not in SETUP_SPANS]),
        (setup_spans, 1, "setup", list(SETUP_SPANS)),
    ):
        selfs = self_times(phase_spans)
        for name in names:
            mine = [s for s in phase_spans if s.name == name]
            out[f"{name}.calls"] = (len(mine) / per, f"1/{unit_per}")
            out[f"{name}.self_s"] = (sum(selfs[s.id] for s in mine) / per, f"s/{unit_per}")

    by_name = defaultdict(list)
    for s in op_spans:
        by_name[s.name].append(s)
    per = max(n_ops, 1)

    def total(name, key):
        return sum(s.extra[key] for s in by_name[name])

    out["binaural.fft_convolve.samples"] = (total("binaural.fft_convolve", "samples") / per, "samples/op")
    out["hrir.nearest.distinct_ratio"] = (_distinct_ratio(by_name["hrir.nearest"]), "ratio")
    out["ambisonic.encode.distinct_ratio"] = (_distinct_ratio(by_name["ambisonic.encode"]), "ratio")
    out["binaural.render_ambisonic_hrir.distinct_ratio"] = (
        _distinct_ratio(by_name["binaural.render_ambisonic_hrir"]),
        "ratio",
    )
    pairs = by_name["scenegen.synth_pseudo_pair"]
    out["scenegen.sources_per_scene"] = (
        total("scenegen.synth_pseudo_pair", "sources") / len(pairs) if pairs else 0.0,
        "sources/scene",
    )
    out["wavio.write_wav.bytes"] = (total("wavio.write_wav", "bytes") / per, "B/op")
    out["wavio.read_wav.bytes"] = (total("wavio.read_wav", "bytes") / per, "B/op")
    out["metrics.evaluate.windows"] = (total("metrics.evaluate", "windows") / per, "windows/op")
    out["spectral.stft.frames"] = (total("spectral.stft", "frames") / per, "frames/op")

    by_id = {s.id: s for s in op_spans}
    inside = sum(
        s.extra["frames"]
        for s in by_name["spectral.stft"]
        if _has_ancestor(s, by_id, "metrics.evaluate")
    )
    useful = total("metrics.evaluate", "useful_frames")
    out["spectral.stft.useful_frame_ratio"] = (useful / inside if inside else 0.0, "ratio")
    return out


def spans_to_json(spans: list[Span]) -> list:
    return [[s.id, s.parent, s.name, s.start, s.end, s.extra] for s in spans]


def spans_from_json(rows: list) -> list[Span]:
    spans = []
    for sid, parent, name, start, end, extra in rows:
        if "key" in extra:
            extra = dict(extra, key=tuple(extra["key"]))
        spans.append(Span(sid, parent, name, start, end, extra))
    return spans
