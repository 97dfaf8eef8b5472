"""Layer spans recorded from outside the package.

A `Tracer` wraps public functions and methods of `sepsim`. A "span" target
records one span per call: name, start, end, parent and the id of the
benchmark item the call belongs to. Calls to hot "leaf" targets (oracle
evaluation, snapshots, single nosupermax updates) are aggregated into call
counts and times instead of being kept one by one, so a traced pass holds
thousands of span records, not millions. Both kinds charge their duration to
the enclosing span, so every layer's self time is its duration minus the time
its child spans cover. A "count" target is only counted; its time stays with
its caller.

Functions imported by name into other modules (``from .functionals import
evaluate``) are rebound in every ``sepsim`` module whose namespace holds the
original object, so no call escapes the wrapper.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (defining module, attribute, span name, kind). A span name of None takes
# the name from the call's first argument (verify_trace).
TARGETS = [
    ("sepsim.scenario", "parse_scenario", "scenario.parse", "span"),
    ("sepsim.scenario", "audit_scenario", "scenario.audit", "span"),
    ("sepsim.scenario", "Scenario.canonical", "scenario.canonical", "count"),
    ("sepsim.trace", "run_scenario", "trace.encode", "span"),
    ("sepsim.trace", "Trace.render", "trace.render", "span"),
    ("sepsim.trace", "parse_trace", "trace.parse", "span"),
    ("sepsim.verify", "verify_trace", None, "span"),
    ("sepsim.anticomplete", "run_anticomplete", "anticomplete.run", "span"),
    ("sepsim.anticomplete", "verify_anticomplete", "anticomplete.verify", "span"),
    ("sepsim.trace", "run_upclosure_pipeline", "upclosure.pipeline", "span"),
    ("sepsim.upclosure", "recover_m_next", "upclosure.recover", "span"),
    ("sepsim.upclosure", "decode_block", "upclosure.decode_block", "leaf"),
    ("sepsim.upclosure", "WttAgreementTable.__init__", "upclosure.agreement_table", "span"),
    ("sepsim.upclosure", "WttAgreementTable.agree_prefix", "upclosure.agreement_table", "leaf"),
    ("sepsim.upclosure", "audit_hypotheses", "upclosure.audit", "span"),
    ("sepsim.twodegrees", "run_twodegrees", "twodegrees.run", "span"),
    ("sepsim.twodegrees", "verify_twodegrees", "twodegrees.verify", "span"),
    ("sepsim.twodegrees", "decode_c_from_b", "twodegrees.decode", "leaf"),
    ("sepsim.twodegrees", "decode_b_from_c", "twodegrees.decode", "leaf"),
    ("sepsim.functionals", "evaluate", "functionals.evaluate", "leaf"),
    ("sepsim.functionals", "wtt_apply", "functionals.wtt_apply", "leaf"),
    ("sepsim.enumcore", "StageSet.snapshot", "enumcore.snapshot", "leaf"),
    ("sepsim.enumcore", "is_separator", "enumcore.is_separator", "span"),
    ("sepsim.nosupermax", "run_nosupermax", "nosupermax.run", "span"),
    ("sepsim.nosupermax", "verify_nosupermax", "nosupermax.verify", "span"),
    ("sepsim.nosupermax", "apply_speedup", "nosupermax.speedup", "span"),
    ("sepsim.nosupermax", "boundary_update", "nosupermax.boundary_update", "leaf"),
    ("sepsim.nosupermax", "x_update", "nosupermax.x_update", "leaf"),
    ("sepsim.nosupermax", "AttemptRun.step", "nosupermax.step", "count"),
    ("sepsim.nosupermax", "trigger_prefix", "nosupermax.trigger_prefix", "count"),
]

# Every module that imports a traced function by name; imported before the
# wrappers are bound so that no later import captures an original.
PACKAGE_MODULES = (
    "sepsim.anticomplete",
    "sepsim.cli",
    "sepsim.corpus",
    "sepsim.enumcore",
    "sepsim.functionals",
    "sepsim.nosupermax",
    "sepsim.scenario",
    "sepsim.trace",
    "sepsim.twodegrees",
    "sepsim.upclosure",
    "sepsim.verify",
)


def _verify_span_name(parsed, *_args, **_kwargs):
    return f"verify.{parsed.construction}"


class Tracer:
    """Spans and per-layer totals for one traced run.

    Install with `bind()`, remove with `unbind()`; `item` names the benchmark
    item that subsequent spans belong to.
    """

    def __init__(self):
        self.item = None
        self.spans: list[tuple] = []  # (item, id, parent, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.rebound: dict[str, int] = {}
        self._stack: list[list] = []  # [child seconds, id of nearest kept span]
        self._next_id = 0
        self._undo: list[tuple] = []

    def reset(self):
        """Start a new pass: clear the per-layer totals, keep the spans."""
        self.self_s.clear()
        self.calls.clear()

    # -- wrappers

    def _wrap(self, fn, name, kind):
        calls = self.calls
        if kind == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

        perf = time.perf_counter
        stack = self._stack
        namer = _verify_span_name if name is None else None
        keep = kind == "span"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = namer(*args, **kwargs) if namer else name
            parent = stack[-1][1] if stack else None
            if keep:
                self._next_id += 1
                span_id = self._next_id
            else:
                span_id = parent
            frame = [0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][0] += dur
                self.self_s[label] += dur - frame[0]
                self.calls[label] += 1
                if keep:
                    self.spans.append((self.item, span_id, parent, label, start, end))
            if label == "trace.render":
                self.calls["trace.bytes"] += len(result.encode())
            return result

        return traced

    def bind(self):
        """Wrap every target and rebind each module-level name that refers
        to it; raises if a target is missing."""
        for mod in PACKAGE_MODULES:
            __import__(mod)
        for module_name, attr, name, kind in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(orig, name, kind))
                self._undo.append((cls, meth, orig))
                self.rebound[attr] = 1
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(orig, name, kind)
            count = 0
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "sepsim" or mod_name.startswith("sepsim.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))
                        count += 1
            if count == 0:
                raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
            self.rebound[attr] = count

    def unbind(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def write_spans(self, path):
        """Write the kept spans as tab-separated lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("item\tid\tparent\tname\tstart\tend\n")
            for item, span_id, parent, name, start, end in self.spans:
                fh.write(
                    f"{item}\t{span_id}\t{'' if parent is None else parent}"
                    f"\t{name}\t{start:.9f}\t{end:.9f}\n"
                )
