"""In-memory span tracer that wraps the public functions of each layer.

The tracer patches functions of the ``noncolliding`` modules from the
outside: a span records name, start, end, parent span and thread.  Nothing
in the package is edited; ``uninstall`` puts every original back, so
untraced passes run the unmodified code.

Self time is attributed by a sweep over span boundaries.  At each instant
the active spans with no active child are the leaves; the instant's wall
time is shared equally among them, and time with no active span is
``other``.  With one thread this is the usual "duration minus children";
with the command line's worker threads it splits wall time between the
threads that are busy, so the self times of all layers plus ``other`` add
up to the pass's wall time exactly.
"""

import sys
import threading
import time
import tracemalloc

import numpy as np

# span name -> the per-layer metric its self time lands in
SPAN_BUCKETS = {
    "cli.main": "cli.self_s",
    "distributions.call": "distributions.self_s",
    "distributions.block": "distributions.block_build_s",
    "fredholm.det_nystrom": "fredholm.self_s",
    "fredholm.det_ratio": "fredholm.self_s",
    "fredholm.assemble": "fredholm.self_s",
    "fredholm.lu": "fredholm.lu_s",
    "fredholm.rule": "fredholm.rule_s",
    "kernels.eval_block": "kernels.fill_s",
    "contours.build": "contours.build_s",
    "special.gamma": "special.gamma_s",
    "special.heat": "special.heat_s",
    "montecarlo.sample": "montecarlo.self_s",
    "montecarlo.eigvalsh": "montecarlo.eigvalsh_s",
    "discrete.call": "discrete.self_s",
}

CDF_FAMILY = {
    "cdf_piflat": "piflat", "cdf_loe_max": "loe", "cdf_bridge_allmax": "bridge-allmax",
    "cdf_bridge_runningmax": "bridge-runmax", "cdf_arithmetic_limit": "arith",
    "airy_fdd": "airy", "cdf_dyson_edge": "dyson-edge",
}
BLOCK_BUILDERS = ("piflat_block", "loe_block", "bridge_block", "runningmax_block",
                  "arith_block", "blpp_block", "airy_block", "dyson_edge_block")
SAMPLERS = ("sample_piflat", "sample_loe_max", "sample_blpp", "sample_bridge_topmax",
            "sample_dyson_max", "sample_arith_max")


def _draw_count(args, kwargs, result):
    return int(kwargs.get("samples", kwargs.get("paths", 1)))


class Span:
    __slots__ = ("sid", "name", "label", "t0", "t1", "parent", "thread", "family",
                 "size", "alloc_mb", "cross_thread")

    def as_record(self):
        return {"id": self.sid, "name": self.name, "label": self.label,
                "start": self.t0, "end": self.t1,
                "parent": None if self.parent is None else self.parent.sid,
                "thread": self.thread, "family": self.family, "size": self.size,
                "alloc_mb": self.alloc_mb}


class Tracer:
    """Records spans while installed; ``take()`` hands back and clears them."""

    def __init__(self):
        self.spans = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()
        self._patches = []

    # -- recording -----------------------------------------------------------

    def _stack(self):
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks[ident] = []
        return stack

    def wrap(self, name, label, fn, family=None, size=None, alloc=False):
        """Return ``fn`` wrapped in a span.

        ``family(args, kwargs)`` names the CDF family a span starts when no
        ancestor has one; ``size(args, kwargs, result)`` records a work
        count; ``alloc`` records the tracemalloc peak of the call.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span()
            span.name, span.label, span.size, span.alloc_mb = name, label, None, None
            span.thread = threading.get_ident()
            span.cross_thread = False
            if stack:
                span.parent = stack[-1]
            elif span.thread != tracer._main and tracer._stacks.get(tracer._main):
                # a worker thread of the command line's pool: its caller is
                # whatever the main thread is blocked in
                span.parent = tracer._stacks[tracer._main][-1]
                span.cross_thread = True
            else:
                span.parent = None
            inherited = span.parent.family if span.parent is not None else None
            span.family = inherited or (family(args, kwargs) if family else None)
            with tracer._lock:
                span.sid = tracer._next_id
                tracer._next_id += 1
            started_alloc = alloc and not tracemalloc.is_tracing()
            if started_alloc:
                tracemalloc.start()
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                if started_alloc:
                    span.alloc_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                with tracer._lock:
                    tracer.spans.append(span)
            if size is not None:
                span.size = size(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self):
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    # -- patching ------------------------------------------------------------

    def _patch_everywhere(self, module, attr, name, **options):
        """Wrap ``module.attr`` in every noncolliding module that binds it."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self.wrap(name, attr, original, **options)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "noncolliding" and not modname.startswith("noncolliding."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def install(self):
        from noncolliding import (cli, contours, discrete, distributions, fredholm,
                                  montecarlo, special)

        self._patch_everywhere(cli, "main", "cli.main")
        self._patch_everywhere(distributions, "evaluate_cdf", "distributions.call",
                               family=lambda a, k: a[0].family)
        for attr, fam in CDF_FAMILY.items():
            self._patch_everywhere(distributions, attr, "distributions.call",
                                   family=lambda a, k, fam=fam: fam)
        self._patch_everywhere(
            distributions, "cdf_blpp", "distributions.call",
            family=lambda a, k: "blpp-nw" if a[0].kind == "narrow_wedge" else "blpp-flat")
        for attr in BLOCK_BUILDERS:
            self._patch_everywhere(distributions, attr, "distributions.block")
        self._patch_everywhere(fredholm, "det_nystrom", "fredholm.det_nystrom")
        self._patch_everywhere(fredholm, "det_ratio", "fredholm.det_ratio")
        self._patch_everywhere(fredholm, "_assemble", "fredholm.assemble")
        self._patch_everywhere(fredholm, "_lu_det", "fredholm.lu")
        self._patch_everywhere(contours, "semi_infinite_rule", "fredholm.rule")
        self._patch_everywhere(contours, "make_contour", "contours.build",
                               size=lambda a, k, r: int(np.size(r.nodes)))
        self._patch_everywhere(contours, "adaptive_ray", "contours.build",
                               size=lambda a, k, r: int(np.size(r[0])))
        self._patch_everywhere(special, "complex_gamma", "special.gamma",
                               size=lambda a, k, r: int(np.size(a[0])))
        self._patch_everywhere(special, "heat_kernel", "special.heat")
        for attr in SAMPLERS:
            self._patch_everywhere(montecarlo, attr, "montecarlo.sample", alloc=True,
                                   size=_draw_count)
        self._patch_everywhere(discrete, "sample_geom_lpp", "discrete.call", alloc=True,
                               size=_draw_count)
        self._patch_everywhere(discrete, "transition_prob", "discrete.call")

        # every block kernel built while installed gets a traced eval_block
        original_post_init = fredholm.BlockKernel.__post_init__
        tracer = self

        def post_init(kernel):
            original_post_init(kernel)
            kernel.eval_block = tracer.wrap(
                "kernels.eval_block", kernel.label, kernel.eval_block,
                size=lambda a, k, r: len(a[2]) * len(a[3]))

        self._patches.append((fredholm.BlockKernel, "__post_init__", original_post_init))
        fredholm.BlockKernel.__post_init__ = post_init

        # the samplers reach LAPACK through the numpy namespace
        self._patches.append((np.linalg, "eigvalsh", np.linalg.eigvalsh))
        np.linalg.eigvalsh = self.wrap("montecarlo.eigvalsh", "eigvalsh", np.linalg.eigvalsh)

    def uninstall(self):
        for target, key, value in reversed(self._patches):
            setattr(target, key, value)
        self._patches = []


def self_times(spans, t_begin, t_end):
    """Wall-share self time per span id, and the time no span covered."""
    by_start = sorted(spans, key=lambda s: (s.t0, s.sid))
    by_end = sorted(spans, key=lambda s: (s.t1, -s.sid))
    own = {s.sid: 0.0 for s in spans}
    active, children, leaves = set(), {}, set()
    now, other = t_begin, 0.0

    def advance(t):
        """Share the time up to ``t`` among the current leaves."""
        nonlocal now, other
        if t <= now:
            return
        if leaves:
            share = (t - now) / len(leaves)
            for leaf in leaves:
                own[leaf.sid] += share
        else:
            other += t - now
        now = t

    i = j = 0
    while i < len(by_start) or j < len(by_end):
        starting = i < len(by_start) and (j >= len(by_end) or by_start[i].t0 <= by_end[j].t1)
        span = by_start[i] if starting else by_end[j]
        advance(span.t0 if starting else span.t1)
        parent = span.parent if span.parent is not None and span.parent in active else None
        if starting:
            i += 1
            active.add(span)
            leaves.add(span)
            if parent is not None:
                children[parent] = children.get(parent, 0) + 1
                leaves.discard(parent)
        else:
            j += 1
            active.discard(span)
            leaves.discard(span)
            if parent is not None:
                children[parent] -= 1
                if children[parent] == 0:
                    leaves.add(parent)
    advance(t_end)
    return own, other


FAMILIES = ("airy", "arith", "blpp-flat", "blpp-nw", "bridge-allmax", "bridge-runmax",
            "dyson-edge", "loe", "piflat")
SELF_BUCKETS = sorted(set(SPAN_BUCKETS.values()))


def layer_metrics(spans, t_begin, t_end):
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    own, other = self_times(spans, t_begin, t_end)
    m = {bucket: [0.0, "s"] for bucket in SELF_BUCKETS}
    for fam in FAMILIES:
        m["kernels.fill_s." + fam] = [0.0, "s"]
        m["contours.nodes." + fam] = [0, "count"]
    counts = dict.fromkeys(("blocks", "entries", "builds", "nodes", "dets", "assemblies",
                            "calls", "gamma_points", "eigvalsh"), 0)
    cli_wall = busy = 0.0
    draws = {name: [0, 0.0, 0.0] for name in SAMPLERS + ("sample_geom_lpp",)}
    for s in spans:
        m[SPAN_BUCKETS[s.name]][0] += own[s.sid]
        parent = s.parent.name if s.parent is not None else None
        if s.cross_thread:
            busy += s.t1 - s.t0
        if s.name == "kernels.eval_block":
            if s.family in FAMILIES:
                m["kernels.fill_s." + s.family][0] += own[s.sid]
            if parent != s.name:  # a conjugated kernel calls the kernel it wraps
                counts["blocks"] += 1
                counts["entries"] += s.size or 0
        elif s.name == "contours.build":
            counts["builds"] += 1
            counts["nodes"] += s.size or 0
            if s.family in FAMILIES:
                m["contours.nodes." + s.family][0] += s.size or 0
        elif s.name == "fredholm.det_nystrom":
            counts["dets"] += 1
        elif s.name == "fredholm.assemble":
            counts["assemblies"] += 1
        elif s.name == "distributions.call" and parent != s.name:
            counts["calls"] += 1
        elif s.name == "special.gamma":
            counts["gamma_points"] += s.size or 0
        elif s.name == "montecarlo.eigvalsh":
            counts["eigvalsh"] += 1
        elif s.name == "cli.main":
            cli_wall += s.t1 - s.t0
        if s.label in draws and s.name in ("montecarlo.sample", "discrete.call"):
            d = draws[s.label]
            d[0] += s.size or 0
            d[1] += s.t1 - s.t0
            d[2] = max(d[2], s.alloc_mb or 0.0)
    fill = m["kernels.fill_s"][0]
    m["kernels.blocks"] = [counts["blocks"], "count"]
    m["kernels.entries"] = [counts["entries"], "count"]
    m["kernels.ns_per_entry"] = [fill / counts["entries"] * 1e9 if counts["entries"] else 0.0,
                                 "ns"]
    m["contours.builds"] = [counts["builds"], "count"]
    m["contours.nodes"] = [counts["nodes"], "count"]
    m["fredholm.dets"] = [counts["dets"], "count"]
    m["fredholm.assemblies_per_det"] = [
        counts["assemblies"] / counts["dets"] if counts["dets"] else 0.0, "ratio"]
    m["fredholm.useful_assembly_ratio"] = [
        counts["dets"] / counts["assemblies"] if counts["assemblies"] else 0.0, "ratio"]
    m["cli.wall_s"] = [cli_wall, "s"]
    m["cli.eval_busy_s"] = [busy, "s"]
    m["cli.concurrency"] = [busy / cli_wall if cli_wall else 0.0, "ratio"]
    m["distributions.calls"] = [counts["calls"], "count"]
    m["special.gamma_points"] = [counts["gamma_points"], "count"]
    m["montecarlo.eigvalsh_calls"] = [counts["eigvalsh"], "count"]
    for name, (n, seconds, alloc) in draws.items():
        layer = "discrete" if name == "sample_geom_lpp" else "montecarlo"
        m["%s.%s.samples_per_s" % (layer, name)] = [n / seconds if seconds else 0.0, "1/s"]
        if layer == "montecarlo":
            m["%s.%s.peak_alloc_mb" % (layer, name)] = [alloc, "MB"]
    m["trace.other_s"] = [other, "s"]
    m["trace.wall_s"] = [t_end - t_begin, "s"]
    return {name: tuple(v) for name, v in sorted(m.items())}
