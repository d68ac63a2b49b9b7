"""Spans and counters recorded from outside `edslab`.

The tracer replaces module attributes at the place where each name is looked
up (`edslab.cli.solve_equality_nlp`, `edslab.kkt.linearize`, ...) with
wrappers that record a span: name, lookup site, start, end and the index of
the enclosing span.  Oracle calls are counted, not spanned, through a
counting copy of each bundle's `StageOracles`.  Nothing under `src/` is
modified; `Tracer.uninstall` restores every attribute.

`summarize` turns the spans into per-module self times and the per-layer
metrics of the benchmark.
"""
from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from time import perf_counter

# (module attribute is looked up in, attribute names).  Names imported into
# `cli` and `certify` are wrapped there, because that is where those modules
# resolve them; `report` and `diff` functions are called as module attributes.
WRAP_SITES = (
    ("cli", ("run", "load_config", "solve_equality_nlp", "build_report",
             "run_experiments", "fit_decay", "decay_contrast")),
    ("report", ("base_solution_rows", "profile_rows", "fit_rows", "write_csv", "plot_decay")),
    ("eds", ("solve_equality_nlp",)),
    ("kkt", ("linearize", "kkt_residual")),
    ("certify", ("linearize", "assemble_jacobian", "assemble_hessian", "assemble_mixed_hessian",
                 "licq_modulus", "sosc_modulus", "mixed_hessian_norm",
                 "scan_uniform_controllability", "scan_uniform_observability",
                 "max_block_norm")),
    ("diff", ("gradient", "jacobian", "partial_jacobian", "hessian_block", "hessian_via_gradient")),
)

# Modules whose self times are reported; `problem` is reached only through
# oracle calls, which are counted rather than spanned.
MODULES = ("cli", "models", "kkt", "diff", "certify", "eds", "report")


def _module_name(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Records spans as lists `[name, site, start, end, parent]`; `parent`
    is the index of the enclosing span or -1.  Single-threaded: the
    benchmark runs edslab with one worker."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.newton_iters = 0
        self.profiles: list = []
        self._stack: list = []
        self._undo: list = []

    def _span(self, fn, site: str, on_return=None):
        name = f"{_module_name(fn)}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, site, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _counting_oracles(self, build_model):
        counts = self.counts

        def counted(key, fn):
            def call(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return call

        @functools.wraps(build_model)
        def build_counted(name, params=None):
            bundle = build_model(name, params)
            orc = bundle.problem.oracles
            wrapped = {
                f.name: counted(f"problem.{f.name}_calls", getattr(orc, f.name))
                for f in dataclasses.fields(orc)
                if getattr(orc, f.name) is not None
            }
            problem = dataclasses.replace(bundle.problem, oracles=dataclasses.replace(orc, **wrapped))
            return dataclasses.replace(bundle, problem=problem)

        return build_counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import edslab.certify
        import edslab.cli
        import edslab.diff
        import edslab.eds
        import edslab.kkt
        import edslab.report

        modules = {
            "cli": edslab.cli,
            "report": edslab.report,
            "eds": edslab.eds,
            "kkt": edslab.kkt,
            "certify": edslab.certify,
            "diff": edslab.diff,
        }
        hooks = {
            "solve_equality_nlp": self._add_iterations,
            "run_experiments": self.profiles.extend,
        }
        for site, attrs in WRAP_SITES:
            owner = modules[site]
            for attr in attrs:
                self._set(owner, attr, self._span(getattr(owner, attr), site, hooks.get(attr)))
        counted = self._counting_oracles(edslab.cli.build_model)
        self._set(edslab.cli, "build_model", self._span(counted, "cli"))

    def _add_iterations(self, result):
        self.newton_iters += result.iterations

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark's parent process, on plain lists)


def self_times(spans) -> list:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans, counts: dict, newton_iters: int, profiles_converged: list) -> dict:
    """Per-layer metrics (unitless numbers keyed by metric name) from one
    traced `edslab run`."""
    selfs = self_times(spans)

    def total(pred, use_self=False):
        return sum(
            (selfs[k] if use_self else end - start)
            for k, (name, site, start, end, _) in enumerate(spans)
            if pred(name, site)
        )

    def calls(pred):
        return sum(1 for name, site, *_ in spans if pred(name, site))

    def named(*names):
        return lambda name, site: name in names

    module_self = Counter()
    for k, span in enumerate(spans):
        module_self[span[0].split(".", 1)[0]] += selfs[k]
    # a finite-difference call entered from outside the diff module
    top_fd_spans = {
        k for k, (name, _, _, _, parent) in enumerate(spans)
        if name.startswith("diff.") and (parent < 0 or not spans[parent][0].startswith("diff."))
    }
    experiments_s = total(named("eds.run_experiments"))
    n_profiles = len(profiles_converged)
    residual_calls = calls(named("kkt.kkt_residual"))
    metrics = {
        "cli.load_config_s": total(named("cli.load_config")),
        "models.build_s": total(named("models.build_model")),
        "problem.dynamics_calls": counts.get("problem.dynamics_calls", 0),
        "problem.dynamics_jac_calls": counts.get("problem.dynamics_jac_calls", 0),
        "diff.fd_s": sum(spans[k][3] - spans[k][2] for k in top_fd_spans),
        "diff.fd_calls": len(top_fd_spans),
        "kkt.base_solve_s": total(lambda name, site: name == "kkt.solve_equality_nlp" and site == "cli"),
        "kkt.newton_iters": newton_iters,
        "kkt.linearize_s": total(named("kkt.linearize")),
        "kkt.linearize_calls": calls(named("kkt.linearize")),
        "kkt.residual_s": total(named("kkt.kkt_residual")),
        "kkt.residual_calls": residual_calls,
        "kkt.solve_self_s": total(named("kkt.solve_equality_nlp"), use_self=True),
        "kkt.step_accept_ratio": newton_iters / residual_calls if residual_calls else 0.0,
        "certify.report_s": total(named("certify.build_report")),
        "certify.licq_s": total(named("certify.licq_modulus")),
        "certify.sosc_s": total(named("certify.sosc_modulus")),
        "certify.mixed_norm_s": total(named("certify.mixed_hessian_norm")),
        "certify.gramian_s": total(
            named("certify.scan_uniform_controllability", "certify.scan_uniform_observability")
        ),
        "eds.experiments_s": experiments_s,
        "eds.profiles": n_profiles,
        "eds.converged_frac": sum(profiles_converged) / n_profiles if n_profiles else 0.0,
        "eds.s_per_profile": experiments_s / n_profiles if n_profiles else 0.0,
        "eds.fit_s": total(named("eds.fit_decay")),
        "report.write_s": total(lambda name, site: name.startswith("report.")),
    }
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self.get(module, 0.0)
    return metrics
