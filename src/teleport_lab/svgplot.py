"""Minimal deterministic SVG charts for sweep results.

Output is byte-stable for identical input: fixed canvas geometry, fixed
float formatting, no timestamps.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from .harness import ResultRow, aggregate_by_hops

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 40, 48
TICK_TARGET = 5  # about this many ticks per axis
ERROR_BAR_STDERRS = 2.0  # error bars span this many standard errors each way


@dataclass
class Series:
    name: str
    points: list  # (x, y, yerr)
    band: list | None = None  # (x, ylow, yhigh)
    color: str = PALETTE[0]
    dashed: bool = False


def _fmt(x: float) -> str:
    return format(float(x), ".2f")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / TICK_TARGET
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = step * round(lo / step)
    if first < lo - 1e-12:
        first += step
    ticks = []
    t = first
    while t <= hi + 1e-12:
        ticks.append(round(t, 12))
        t += step
    return ticks


class _Canvas:
    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def x(self, v: float) -> float:
        frac = (v - self.x0) / (self.x1 - self.x0)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def y(self, v: float) -> float:
        frac = (v - self.y0) / (self.y1 - self.y0)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)


def render_chart(series: Sequence[Series], title: str, xlabel: str, ylabel: str) -> str:
    xs = [p[0] for s in series for p in s.points]
    ys = [p[1] + p[2] for s in series for p in s.points]
    ys += [p[1] - p[2] for s in series for p in s.points]
    for s in series:
        for x, lo_v, hi_v in s.band or []:
            xs.append(x)
            ys.extend((lo_v, hi_v))
    x_range = (min(xs), max(xs)) if xs else (0.0, 1.0)
    if x_range[0] == x_range[1]:
        x_range = (x_range[0] - 0.5, x_range[1] + 0.5)
    y_range = (min(ys), max(ys)) if ys else (0.0, 1.0)
    pad = 0.05 * (y_range[1] - y_range[0] or 1.0)
    y_range = (y_range[0] - pad, y_range[1] + pad)
    c = _Canvas(x_range, y_range)

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
           f'viewBox="0 0 {WIDTH} {HEIGHT}">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
           f'font-size="15">{title}</text>']

    # axes
    ax_y = HEIGHT - MARGIN_B
    out.append(f'<line x1="{MARGIN_L}" y1="{ax_y}" x2="{WIDTH - MARGIN_R}" y2="{ax_y}" '
               'stroke="black" stroke-width="1"/>')
    out.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{ax_y}" '
               'stroke="black" stroke-width="1"/>')
    for t in _nice_ticks(*x_range):
        px = c.x(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{ax_y}" x2="{_fmt(px)}" y2="{ax_y + 5}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{_fmt(px)}" y="{ax_y + 18}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="11">{t:g}</text>')
    for t in _nice_ticks(*y_range):
        py = c.y(t)
        out.append(f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" '
                   'stroke="black" stroke-width="1"/>')
        out.append(f'<text x="{MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11">{t:g}</text>')
    out.append(f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 12}" '
               f'text-anchor="middle" font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="18" y="{(MARGIN_T + ax_y) // 2}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 18 {(MARGIN_T + ax_y) // 2})">{ylabel}</text>')

    for s in series:
        if s.band:
            upper = [(c.x(x), c.y(hi)) for x, _, hi in s.band]
            lower = [(c.x(x), c.y(lo)) for x, lo, _ in reversed(s.band)]
            path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in upper + lower)
            out.append(f'<polygon points="{path}" fill="{s.color}" fill-opacity="0.15" '
                       'stroke="none"/>')
    for s in series:
        if not s.points:
            continue
        pts = " ".join(f"{_fmt(c.x(x))},{_fmt(c.y(y))}" for x, y, _ in s.points)
        dash = ' stroke-dasharray="7,4"' if s.dashed else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                   f'stroke-width="1.8"{dash}/>')
        for x, y, err in s.points:
            px = c.x(x)
            out.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(c.y(y))}" r="2.6" fill="{s.color}"/>')
            if err > 0:
                y_lo, y_hi = c.y(y - err), c.y(y + err)
                out.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y_lo)}" x2="{_fmt(px)}" '
                           f'y2="{_fmt(y_hi)}" stroke="{s.color}" stroke-width="1.2"/>')
                for yy in (y_lo, y_hi):
                    out.append(f'<line x1="{_fmt(px - 3)}" y1="{_fmt(yy)}" x2="{_fmt(px + 3)}" '
                               f'y2="{_fmt(yy)}" stroke="{s.color}" stroke-width="1.2"/>')

    legend_y = MARGIN_T + 6
    for i, s in enumerate(series):
        y = legend_y + 16 * i
        out.append(f'<line x1="{WIDTH - MARGIN_R - 150}" y1="{y}" x2="{WIDTH - MARGIN_R - 122}" '
                   f'y2="{y}" stroke="{s.color}" stroke-width="2"/>')
        out.append(f'<text x="{WIDTH - MARGIN_R - 116}" y="{y + 4}" font-family="sans-serif" '
                   f'font-size="12">{s.name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _filter(rows, **criteria):
    out = []
    for r in rows:
        if all(getattr(r, k) == v for k, v in criteria.items()):
            out.append(r)
    return out


def plot_results(rows: Sequence[ResultRow], out_dir: str) -> list[str]:
    """Fig-style charts: per-mode protocol comparison and cross-mode summary.

    Error bars are ``ERROR_BAR_STDERRS`` times the standard error of the sampled
    values at each hop count.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []
    qrem_flags = sorted({r.qrem for r in rows})
    modes = sorted({r.mode for r in rows})
    protocols_present = sorted({r.protocol for r in rows})
    for metric in ("negativity", "fidelity"):
        for qrem in qrem_flags:
            for mode in modes:
                series = []
                for i, protocol in enumerate(protocols_present):
                    agg = aggregate_by_hops(_filter(rows, mode=mode, qrem=qrem,
                                                    protocol=protocol), metric)
                    if not agg:
                        continue
                    series.append(Series(
                        name=protocol,
                        points=[(a.hops, a.mean, ERROR_BAR_STDERRS * a.stderr) for a in agg],
                        color=PALETTE[i % len(PALETTE)]))
                if not any(s.points for s in series):
                    continue
                name = f"{metric}_{mode}_qrem-{qrem}.svg"
                _write(os.path.join(out_dir, name),
                       render_chart(series, f"{metric} vs hops ({mode}, QREM {qrem})",
                                    "hops", metric))
                written.append(name)
            # cross-mode comparison with min-max band over weighting protocols
            series = []
            for i, mode in enumerate(modes):
                agg_all = aggregate_by_hops(_filter(rows, mode=mode, qrem=qrem), metric)
                if not agg_all:
                    continue
                series.append(Series(
                    name=mode,
                    points=[(a.hops, a.mean, ERROR_BAR_STDERRS * a.stderr) for a in agg_all],
                    band=[(a.hops, a.low, a.high) for a in agg_all],
                    color=PALETTE[i % len(PALETTE)],
                    dashed=True))
            if any(s.points for s in series):
                name = f"{metric}_modes_qrem-{qrem}.svg"
                _write(os.path.join(out_dir, name),
                       render_chart(series, f"{metric} vs hops by mode (QREM {qrem})",
                                    "hops", metric))
                written.append(name)
    return written


def plot_decay(delays_us: Sequence[float], negativities: Sequence[float], path: str):
    series = [Series(name="negativity",
                     points=[(t, v, 0.0) for t, v in zip(delays_us, negativities)])]
    _write(path, render_chart(series, "pair negativity vs idle delay",
                              "delay (us)", "negativity"))


def _write(path: str, content: str):
    with open(path, "w") as fh:
        fh.write(content)
