"""In-process span tracer for the betascope CLI pipeline.

The tracer replaces public functions of the betascope modules at the
attributes their callers resolve (``betascope.cli.build_lattice``,
``betascope.verify.truncated_field``, class attributes of
``WeightedPointMeasure`` and ``BetaProfile``) with wrappers that record one
span per call and counts at the same boundaries.  Nothing under ``src/``
changes; ``uninstall`` puts every original object back.

Spans are kept in memory as tuples ``(id, parent, name, start, end,
request)``, where ``request`` numbers the CLI command that caused them.  A
span's self time is its duration minus the union of the intervals its
child spans cover, so overlapping children from thread-pool workers are not
subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# Self-time metrics, one per span name, in the order they are reported.
SPAN_NAMES = (
    "operators.truncated_field",
    "operators.t_phi_star",
    "operators.t_phi_eps",
    "operators.m_tilde",
    "operators.k_r_chain",
    "operators.validate",
    "verify.main_lemma",
    "verify.t1_balls",
    "verify.cotlar",
    "verify.pointwise",
    "verify.jones_field",
    "verify.capacity",
    "measure.load",
    "measure.diameter",
    "measure.restrict",
    "measure.sup_density",
    "beta.profile",
    "beta.jones_integral",
    "beta.condition",
    "beta.profile_rows",
    "lattice.build",
    "lattice.audit",
    "corona.build",
    "corona.packing",
    "corona.density_audit",
    "util.pool",
    "util.dump",
)

# Counts; every one of them repeats exactly between runs of the same input.
COUNT_NAMES = (
    "operators.truncated_field_calls",
    "operators.t_phi_star_calls",
    "operators.t_phi_eps_calls",
    "operators.m_tilde_calls",
    "operators.k_r_chain_calls",
    "operators.validate_calls",
    "operators.kernel_terms",
    "measure.restrict_atoms",
    "measure.sup_density_calls",
    "measure.ball_queries",
    "beta.profiles",
    "beta.jones_integral_calls",
    "beta.beta2_calls",
    "lattice.cells",
    "lattice.depth",
    "corona.tops",
    "corona.triggered_density",
    "corona.triggered_flatness",
    "util.pool_items",
)

ROOT_PREFIX = "cli."


class Tracer:
    """Spans and counts for one or more CLI commands run in this process."""

    def __init__(self):
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches = []
        self.request = 0
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self):
        """Forget the spans and counts recorded so far."""
        self.spans = []
        self.counts = defaultdict(int)
        self._peaks = defaultdict(float)
        self._pool_cpu = 0.0        # summed thread CPU time of pool items
        self._pool_capacity = 0.0   # summed pool wall time x worker count
        self._cells_under_corona = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount=1):
        with self._lock:
            self.counts[name] += amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, self.request))

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _tally(self, name):
        """An after-call hook that counts one call as name."""
        return lambda args, kwargs, result: self.count(name)

    def _counted(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return counted

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr, name, after=None):
        self._patch(owner, attr, self._wrap(name, owner.__dict__[attr], after))

    def install(self) -> list:
        """Wrap the pipeline's public functions; uninstall() undoes it.

        Returns (owner, attribute, original) for every patched attribute.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        from betascope import beta, cli, corona, measure, operators, verify

        def operator(attr, terms):
            name = f"operators.{attr}"

            def after(args, kwargs, result):
                self.count(f"{name}_calls")
                self.count("operators.kernel_terms", terms(args))

            self._patch_span(verify, attr, name, after)

        # kernel terms: atoms of the measure times evaluation centres
        operator("truncated_field",
                 lambda a: a[1].size * len(np.atleast_2d(a[2])))
        operator("t_phi_eps", lambda a: a[1].size)
        operator("t_phi_star", lambda a: a[1].size)
        operator("k_r_chain", lambda a: a[0].measure.size)
        self._patch_span(verify, "m_tilde", "operators.m_tilde",
                         self._tally("operators.m_tilde_calls"))
        self._patch_span(operators, "validate_kernel", "operators.validate",
                         self._tally("operators.validate_calls"))

        for attr, name in (
            ("main_lemma_check", "verify.main_lemma"),
            ("t1_ball_check", "verify.t1_balls"),
            ("cotlar_check", "verify.cotlar"),
            ("pointwise_domination_check", "verify.pointwise"),
            ("capacity_lower_bound", "verify.capacity"),
            ("load_csv", "measure.load"),
            ("condition_check", "beta.condition"),
            ("beta_profile_rows", "beta.profile_rows"),
            ("packing_audit", "corona.packing"),
            ("tree_density_audit", "corona.density_audit"),
            ("dump_json", "util.dump"),
        ):
            self._patch_span(cli, attr, name)
        self._patch_span(verify, "jones_field", "verify.jones_field")
        self._patch_span(cli, "build_lattice", "lattice.build",
                         self._after_lattice)
        self._patch(cli, "check_lattice",
                    self._wrap("lattice.audit",
                               self._tracemalloc_audit(cli.check_lattice)))
        self._patch_span(cli, "build_corona", "corona.build",
                         self._after_corona)
        for module in (cli, verify):
            self._patch(module, "parallel_map",
                        self._wrap("util.pool",
                                   self._pool(module.parallel_map)))

        for module in (beta, corona, verify):
            self._patch_span(module, "jones_integral", "beta.jones_integral",
                             self._tally("beta.jones_integral_calls"))
        self._patch_span(beta.BetaProfile, "__init__", "beta.profile",
                         self._tally("beta.profiles"))
        self._patch(corona, "beta2", self._counted("beta.beta2_calls",
                                                   corona.beta2))

        wpm = measure.WeightedPointMeasure
        self._patch_span(wpm, "sup_density", "measure.sup_density",
                         self._tally("measure.sup_density_calls"))
        self._patch_span(wpm, "restrict_ball", "measure.restrict",
                         lambda a, k, r: self.count("measure.restrict_atoms",
                                                    r.size))
        self._patch(wpm, "ball_indices",
                    self._counted("measure.ball_queries", wpm.ball_indices))
        self._patch(wpm, "diameter", self._diameter(wpm.__dict__["diameter"]))
        return list(self._patches)

    def uninstall(self):
        """Restore every patched attribute, newest first, and check it."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(
                    f"could not restore {owner.__name__}.{attr}")

    # -- special wrappers ---------------------------------------------------

    def _after_lattice(self, args, kwargs, lattice):
        self.count("lattice.cells", len(lattice.cells))
        with self._lock:
            self.counts["lattice.depth"] = max(self.counts["lattice.depth"],
                                               lattice.max_depth)

    def _after_corona(self, args, kwargs, corona):
        self.count("corona.tops", len(corona.tops))
        reasons = list(corona.triggered.values())
        self.count("corona.triggered_density", reasons.count("density"))
        self.count("corona.triggered_flatness", reasons.count("flatness"))
        self._cells_under_corona += len(corona.lattice.cells)

    def _tracemalloc_audit(self, check_lattice):
        """tracemalloc runs only for the duration of the lattice audit."""

        def audited(*args, **kwargs):
            tracemalloc.start()
            try:
                return check_lattice(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self._peaks["lattice.audit_peak_mb"] = max(
                    self._peaks["lattice.audit_peak_mb"], peak / 2**20)

        return functools.wraps(check_lattice)(audited)

    def _pool(self, parallel_map):
        """Count pool items and their thread CPU time; parent items to
        the pool span."""
        tracer = self

        def pooled(fn, items, threads=1):
            items = list(items)
            pool_span = tracer._stack()[-1]
            tracer.count("util.pool_items", len(items))
            cpu = []

            def item(x):
                stack = tracer._stack()
                saved = stack[:]
                stack[:] = [pool_span]
                start = time.thread_time()
                try:
                    return fn(x)
                finally:
                    cpu.append(time.thread_time() - start)
                    stack[:] = saved

            start = time.perf_counter()
            try:
                return parallel_map(item, items, threads)
            finally:
                elapsed = time.perf_counter() - start
                workers = max(1, min(int(threads), len(items)))
                with tracer._lock:
                    tracer._pool_cpu += sum(cpu)
                    tracer._pool_capacity += elapsed * workers

        return functools.wraps(parallel_map)(pooled)

    def _diameter(self, prop):
        """Span the computing access only; later accesses read a cache."""
        tracer = self

        def fget(obj):
            if getattr(obj, "_diameter", None) is None:
                return tracer.span("measure.diameter", prop.fget, obj)
            return prop.fget(obj)

        return property(fget, doc=prop.__doc__)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name; root cli.* spans pool as cli.self."""
        children = defaultdict(list)
        for sid, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        totals = defaultdict(float)
        for sid, _, name, start, end, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            key = "cli.self" if name.startswith(ROOT_PREFIX) else name
            totals[key] += (end - start) - covered
        return totals

    def metrics(self) -> dict:
        """Per-layer values: <span>_s self times, counts and ratios."""
        totals = self.self_times()
        out = {f"{name}_s": totals.get(name, 0.0) for name in SPAN_NAMES}
        out["cli.self_s"] = totals.get("cli.self", 0.0)
        out.update({name: self.counts.get(name, 0) for name in COUNT_NAMES})
        out["lattice.audit_peak_mb"] = self._peaks["lattice.audit_peak_mb"]
        out["corona.tops_per_cell"] = (
            self.counts["corona.tops"] / self._cells_under_corona
            if self._cells_under_corona else 0.0)
        out["util.pool_busy"] = (self._pool_cpu / self._pool_capacity
                                 if self._pool_capacity else 0.0)
        return out
