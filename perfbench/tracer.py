"""Layer spans recorded from outside the program.

`install` replaces the module-level functions each layer calls with timing
wrappers, in every `selmerlab` namespace that binds them (for example `cli`
imports `tamagawa_exponent` and `selmer_phi` by name), so no program file
changes.  Spans are kept in memory with parent links and written out when
the traced pass ends; a layer's self time is its span time minus the time of
its child spans.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# spans whose individual durations are reported, not only their sums
PER_CALL_SPANS = ("cli.column",)


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, name, start, end, busy seconds)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def _new_id(self) -> int:
        sid = self._next_id
        self._next_id += 1
        return sid

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name, fn, on_result=None):
        """Time each call of fn as a span.

        `name` is a string, or a function of (args, parent span name) that
        returns the span name; a name of None leaves the call untimed.
        `on_result` sees every result, timed or not.
        """
        stack, spans = self._stack, self.spans
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent_id, parent_name = stack[-1] if stack else (-1, "")
            span = name_of(args, parent_name) if name_of else name
            if span is None:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result
            sid = self._new_id()
            stack.append((sid, span))
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append((sid, parent_id, span, t0, t1, t1 - t0))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Time a generator function as one span whose busy time is the sum of
        its activations; work done while it runs is its child."""
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            sid = self._new_id()
            parent_id = None
            start = end = perf_counter()
            busy = 0.0
            try:
                while True:
                    if parent_id is None:
                        parent_id = stack[-1][0] if stack else -1
                        start = perf_counter()
                    stack.append((sid, name))
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        busy += end - t0
                    yield item
            finally:
                spans.append((sid, -1 if parent_id is None else parent_id, name, start, end, busy))

        return traced

    def summary(self) -> dict:
        """Per span name: calls, busy seconds, and self seconds (busy minus children)."""
        child_busy: dict[int, float] = {}
        for _, parent, _, _, _, busy in self.spans:
            if parent >= 0:
                child_busy[parent] = child_busy.get(parent, 0.0) + busy
        calls: dict[str, int] = {}
        busy_s: dict[str, float] = {}
        self_s: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for sid, _, name, _, _, busy in self.spans:
            calls[name] = calls.get(name, 0) + 1
            busy_s[name] = busy_s.get(name, 0.0) + busy
            self_s[name] = self_s.get(name, 0.0) + busy - child_busy.get(sid, 0.0)
            if name in PER_CALL_SPANS:
                durations.setdefault(name, []).append(busy)
        return {
            "calls": calls,
            "busy_s": busy_s,
            "self_s": self_s,
            "durations": durations,
            "counts": dict(self.counts),
            "missing_hooks": self.missing,
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\tbusy_s\n")
            for sid, parent, name, t0, t1, busy in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\t{busy:.9f}\n")


def _rebind(original, replacement) -> None:
    """Point every selmerlab module attribute bound to `original` at `replacement`."""
    for modname, mod in list(sys.modules.items()):
        if modname != "selmerlab" and not modname.startswith("selmerlab."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on.

    A hook whose target no longer exists is listed in `tracer.missing` (the
    run reports it as a failed check) and its metrics read 0; the pass itself
    still runs.
    """
    import selmerlab  # noqa: F401  (loads every module whose namespaces are rebound)
    from selmerlab import cli, core_arith, curve_family, descent, local_analysis, statistics

    def hook(module, attr, name, generator=False, on_result=None):
        fn = getattr(module, attr, None)
        if fn is None:
            tracer.missing.append(f"{module.__name__}.{attr}")
            return
        if generator:
            _rebind(fn, tracer.wrap_generator(name, fn))
        else:
            _rebind(fn, tracer.wrap(name, fn, on_result))

    def hook_method(cls, attr, name=None, counter=None):
        fn = getattr(cls, attr, None)
        if fn is None:
            tracer.missing.append(f"{cls.__name__}.{attr}")
            return
        if name is not None:
            setattr(cls, attr, tracer.wrap(name, fn))
            return

        @functools.wraps(fn)
        def counted(self, *args, **kwargs):
            tracer.count(counter)
            return fn(self, *args, **kwargs)

        setattr(cls, attr, counted)

    def kept_classes(result):
        tracer.count("descent.classes_kept", len(result.classes))

    def tested_divisors(result):
        tracer.count("descent.divisors_tested", len(result))

    scan_max_p = getattr(descent, "_SCAN_MAX_P", 13)

    def local_image_name(args, parent):
        # The ledger's 2-adic factor calls the same image routine; that work
        # belongs to local_analysis.place_two, so it gets no span of its own.
        if parent == "local_analysis.place_two":
            return None
        v = args[2]
        if v == 2:
            return "descent.local_image.two"
        if v == descent.INF_PLACE:
            return "descent.local_image.inf"
        return "descent.local_image.odd_scan" if v <= scan_max_p else "descent.local_image.odd_structural"

    # command layer
    hook(cli, "write_records", "cli.format")
    hook(cli, "stream_records", "cli.sample_select", generator=True)
    hook(cli, "_column_records", "cli.column")
    # enumeration and sampling
    hook(curve_family, "enumerate_window", "curve_family.enumerate", generator=True)
    hook_method(curve_family.CurvePair, "__post_init__", counter="curve_family.pairs_built")
    # the product-formula ledger and its places
    hook(local_analysis, "tamagawa_exponent", "local_analysis.ledger")
    hook(local_analysis, "factor_at_two", "local_analysis.place_two")
    hook(local_analysis, "mult_factor", "local_analysis.place_mult")
    hook(local_analysis, "tamagawa_number", "local_analysis.place_tate")
    hook(local_analysis, "factor_at_infinity", "local_analysis.place_inf")
    # descent
    hook(descent, "selmer_phi", "descent.selmer_phi", on_result=kept_classes)
    hook(descent, "selmer_phihat", "descent.selmer_phihat", on_result=kept_classes)
    hook(descent, "_local_image_tags", local_image_name)
    hook(descent, "_real_solvable", "descent.local_image.inf")
    hook(descent, "signed_squarefree_divisors", None, on_result=tested_divisors)
    hook_method(descent.SelmerSet, "__post_init__", name="descent.selmer_set.validate")
    # arithmetic kernels
    hook(core_arith, "factor", "core_arith.factor")
    hook(core_arith, "squarefree_part", "core_arith.squarefree_part")
    # statistics
    hook(statistics, "g1", "statistics.g1g2")
    hook(statistics, "g2", "statistics.g1g2")
    hook(statistics, "family_scan", "statistics.family_scan")
    hook(statistics, "moment_report_from_scan", "statistics.moments")
