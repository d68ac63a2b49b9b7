"""Artifact emission: full-precision CSV tables and a hand-rolled SVG
semilog decay plot.

CSV headers are versioned through SCHEMAS and asserted by golden tests;
floats are written with 17 significant digits so downstream fits reproduce
exactly.  The SVG uses only line, circle, and text primitives and is a pure
function of its inputs, so identical inputs give identical bytes.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError

SCHEMAS = {
    "base_solution.csv": "case,stage,variable,index,value",
    "profiles.csv": "case,stage,j,replicate,s",
    "fit.csv": "case,mode,upsilon,rho,r2",
    "certificates.csv": "case,key,value",
}
SCHEMA_VERSION = "1"


def fmt(x) -> str:
    """17 significant digits; "inf", "-inf" and "nan" as they are."""
    return format(float(x), ".17g")


def base_solution_rows(case: str, traj):
    """Rows of every multiplier, then every state, then every control; the
    stage-ordered vector is formatted once and the rows read its spans."""
    text = [format(v, ".17g") for v in traj.vector.tolist()]
    dims, off = traj.dims, traj.dims.w_offsets
    spans = [("lam", -1, 0, dims.n_0)]
    spans += [("lam", i, off[i + 1] + dims.n_z, dims.n_x) for i in range(dims.N)]
    spans += [("x", i, off[i + 1], dims.n_x) for i in range(dims.N + 1)]
    spans += [("u", i, off[i + 1] + dims.n_x, dims.n_u) for i in range(dims.N)]
    return [(case, str(i), var, str(k), text[a + k]) for var, i, a, n in spans for k in range(n)]


def profile_rows(case: str, profiles):
    """One row per stage of each profile."""
    rows = []
    for prof in profiles:
        j, rep = str(prof.stage), str(prof.replicate)
        rows.extend((case, str(i), j, rep, fmt(s)) for i, s in zip(prof.stage_range(), prof.s.tolist()))
    return rows


def fit_rows(case: str, fit):
    # one row per case; `mode` names the one kind of fit, the envelope
    return [(case, "envelope", fmt(fit.upsilon), fmt(fit.rho), fmt(fit.r2))]


def write_csv(path, name: str, rows):
    header = SCHEMAS[name]
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG decay plot

_W, _H = 720, 430
_ML, _MR, _MT, _MB = 62, 16, 18, 42


def _xmap(i, lo, hi):
    span = max(hi - lo, 1e-12)
    return _ML + (i - lo) / span * (_W - _ML - _MR)


def _ymap(ylog, lo, hi):
    span = max(hi - lo, 1e-12)
    return _MT + (hi - ylog) / span * (_H - _MT - _MB)


def _f3(v) -> str:
    return format(v, ".3f")


def plot_decay(profiles, fit) -> str:
    """Semilog plot of normalized stage deviations with the fitted envelope
    overlaid and a vertical marker at each perturbed stage.  Deterministic
    output for fixed input."""
    profiles = [p for p in profiles if p.converged]
    if not profiles:
        raise ConfigurationError("no converged profiles to plot")
    n_stages = profiles[0].n_stages
    N = n_stages - 2
    xs_lo, xs_hi = -1.0, float(N)
    pt_i, y_vals = [], []
    for prof in profiles:
        stages, s = prof.above_floor()
        pt_i += stages
        y_vals += [math.log10(si / prof.magnitude) for si in s]
    if not y_vals:
        raise ConfigurationError("profiles contain no entries above the noise floor")
    y_lo = math.floor(min(y_vals) - 0.2)
    y_hi = math.ceil(max(max(y_vals), math.log10(fit.upsilon)) + 0.2)
    stages_marked = sorted({prof.stage for prof in profiles})

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    out.append(f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>')
    # axes
    x0, x1 = _xmap(xs_lo, xs_lo, xs_hi), _xmap(xs_hi, xs_lo, xs_hi)
    y0, y1 = _ymap(y_lo, y_lo, y_hi), _ymap(y_hi, y_lo, y_hi)
    out.append(
        f'<line x1="{_f3(x0)}" y1="{_f3(y0)}" x2="{_f3(x1)}" y2="{_f3(y0)}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_f3(x0)}" y1="{_f3(y0)}" x2="{_f3(x0)}" y2="{_f3(y1)}" stroke="black" stroke-width="1"/>'
    )
    # x ticks every 10 stages
    tick = 10 if N >= 20 else max(1, N // 4)
    i = 0
    while i <= N:
        px = _xmap(i, xs_lo, xs_hi)
        out.append(
            f'<line x1="{_f3(px)}" y1="{_f3(y0)}" x2="{_f3(px)}" y2="{_f3(y0 + 4)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_f3(px)}" y="{_f3(y0 + 18)}" font-size="11" text-anchor="middle">{i}</text>'
        )
        i += tick
    out.append(
        f'<text x="{_f3((x0 + x1) / 2)}" y="{_f3(_H - 8)}" font-size="12" text-anchor="middle">stage</text>'
    )
    # y ticks at integer decades
    for d in range(int(y_lo), int(y_hi) + 1):
        py = _ymap(d, y_lo, y_hi)
        out.append(
            f'<line x1="{_f3(x0 - 4)}" y1="{_f3(py)}" x2="{_f3(x0)}" y2="{_f3(py)}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_f3(x0 - 8)}" y="{_f3(py + 4)}" font-size="11" text-anchor="end">1e{d}</text>'
        )
    out.append(
        f'<text x="14" y="{_f3((y0 + y1) / 2)}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {_f3((y0 + y1) / 2)})">deviation / perturbation</text>'
    )
    # perturbed-stage markers
    for j in stages_marked:
        px = _xmap(j, xs_lo, xs_hi)
        out.append(
            f'<line x1="{_f3(px)}" y1="{_f3(y0)}" x2="{_f3(px)}" y2="{_f3(y1)}" '
            f'stroke="#888888" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    # envelope per perturbed stage; numpy's elementwise arithmetic rounds
    # as Python's does, so the coordinates are those of a per-point loop
    stage = np.arange(-1, N + 1)
    env_x = _xmap(stage, xs_lo, xs_hi).tolist()
    for j in stages_marked:
        if fit.rho > 0:
            ylog = np.maximum(math.log10(fit.upsilon) + np.abs(stage - j) * math.log10(fit.rho), y_lo)
        else:
            ylog = np.full(stage.size, y_lo)
        coords = " ".join("%.3f,%.3f" % xy for xy in zip(env_x, _ymap(ylog, y_lo, y_hi).tolist()))
        out.append(f'<polyline points="{coords}" fill="none" stroke="#d62728" stroke-width="1.5"/>')
    # data points
    px = _xmap(np.array(pt_i, dtype=float), xs_lo, xs_hi).tolist()
    py = _ymap(np.array(y_vals), y_lo, y_hi).tolist()
    out.extend('<circle cx="%.3f" cy="%.3f" r="3" fill="#1f77b4"/>' % xy for xy in zip(px, py))
    out.append("</svg>")
    return "\n".join(out) + "\n"
