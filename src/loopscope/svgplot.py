"""Dependency-free SVG line charts for deliberation trajectories.

All output is plain-text XML built with fixed float formatting, so a given
input always produces byte-identical documents.
"""

from __future__ import annotations

import numpy as np

WIDTH = 640
HEIGHT = 400
MARGIN_L = 56
MARGIN_R = 16
MARGIN_T = 24
MARGIN_B = 44

OPTION_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
VARIANT_COLORS = {
    "Base": "#1f77b4",
    "Easy": "#2ca02c",
    "NoCorrect": "#d62728",
}
FALLBACK_COLORS = ["#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f"]


def _escape(text: str) -> str:
    """xml.sax.saxutils.escape's three replacements, "&" first, without
    importing xml.sax, which loads urllib, http.client and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{float(x):.3f}"


def _x_map(step: float, k: int) -> float:
    span = WIDTH - MARGIN_L - MARGIN_R
    if k == 1:
        return MARGIN_L + span / 2
    return MARGIN_L + (step - 1) / (k - 1) * span


def _y_map(value: float, y_max: float) -> float:
    span = HEIGHT - MARGIN_T - MARGIN_B
    return HEIGHT - MARGIN_B - (value / y_max) * span


def _polyline_points(ys, k: int, y_max: float) -> str:
    return " ".join(f"{_fmt(_x_map(i + 1, k))},{_fmt(_y_map(y, y_max))}"
                    for i, y in enumerate(ys))


def _band_points(upper, lower, k: int, y_max: float) -> str:
    """Closed polygon: upper edge left-to-right, lower edge right-to-left."""
    fwd = [f"{_fmt(_x_map(i + 1, k))},{_fmt(_y_map(y, y_max))}"
           for i, y in enumerate(upper)]
    back = [f"{_fmt(_x_map(i + 1, k))},{_fmt(_y_map(y, y_max))}"
            for i, y in reversed(list(enumerate(lower)))]
    return " ".join(fwd + back)


def _document(body: list, title: str) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<title>{_escape(title)}</title>',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _axes(y_max: float, y_label: str, k: int) -> list:
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
    parts = [
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="#000000"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="#000000"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        y = _y_map(frac * y_max, y_max)
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(y + 4)}" font-size="11" '
            f'text-anchor="end">{_fmt(frac * y_max)}</text>')
    for step in sorted({1, max(1, k // 2), k}):
        x = _x_map(step, k)
        parts.append(
            f'<text x="{_fmt(x)}" y="{HEIGHT - MARGIN_B + 16}" font-size="11" '
            f'text-anchor="middle">{step}</text>')
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" '
        f'y="{HEIGHT - 8}" font-size="12" text-anchor="middle">'
        'recurrence step</text>')
    parts.append(
        f'<text x="14" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" '
        f'font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {(MARGIN_T + HEIGHT - MARGIN_B) // 2})">'
        f'{_escape(y_label)}</text>')
    return parts


def emit_trajectory_plot(trajectory, extra_trajectories=(), title: str = "") -> str:
    """Per-step belief in each of the 4 options for one deliberation.

    One polyline per option; the correct option is drawn thicker and marked in
    its legend label. When `extra_trajectories` holds sibling trajectories of
    the same item under other option orderings (mapped back to a common
    ordering by the caller), a min-max band per option is shaded behind the
    mean line.
    """
    if trajectory.k < 2:
        raise ValueError("trajectory plot needs K >= 2 steps")
    k = trajectory.k
    probs = np.asarray(trajectory.option_probs, dtype=np.float64)
    siblings = [np.asarray(t.option_probs, dtype=np.float64)
                for t in extra_trajectories]
    for s in siblings:
        if s.shape != probs.shape:
            raise ValueError("sibling trajectory shape mismatch")
    y_max = 1.0
    body = _axes(y_max, "option probability", k)
    for opt in range(4):
        color = OPTION_COLORS[opt]
        if siblings:
            stack = np.stack([probs[:, opt]] + [s[:, opt] for s in siblings])
            body.append(
                f'<polygon class="band" fill="{color}" fill-opacity="0.15" '
                f'stroke="none" points="'
                f'{_band_points(stack.max(axis=0), stack.min(axis=0), k, y_max)}"/>')
    for opt in range(4):
        color = OPTION_COLORS[opt]
        is_correct = trajectory.correct_index == opt
        width = 3 if is_correct else 1.5
        dash = '' if is_correct else ' stroke-dasharray="none"'
        label = trajectory.options[opt] if trajectory.options else f"option {opt}"
        if is_correct:
            label += " (correct)"
        body.append(
            f'<polyline class="option" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash} '
            f'points="{_polyline_points(probs[:, opt], k, y_max)}"/>')
        lx = WIDTH - MARGIN_R - 150
        ly = MARGIN_T + 16 * (opt + 1)
        body.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="{width}"/>')
        body.append(
            f'<text x="{lx + 26}" y="{ly}" font-size="11">{_escape(label)}</text>')
    return _document(body, title or f"beliefs for {trajectory.item_id}")


def emit_entropy_plot(curves: dict, title: str = "",
                      y_label: str = "entropy (nats)") -> str:
    """Per-variant mean entropy across recurrence steps with CI bands.

    `curves` maps variant name -> (mean, lower, upper), three equal-length
    sequences indexed by step. All variants must share one curve length.
    """
    if not curves:
        raise ValueError("at least one variant curve required")
    lengths = set()
    parsed = {}
    for name, (mean, lower, upper) in sorted(curves.items()):
        mean = np.asarray(mean, dtype=np.float64)
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        if not (mean.shape == lower.shape == upper.shape) or mean.ndim != 1:
            raise ValueError(f"curve arrays for {name!r} must share one length")
        if np.any(upper < lower):
            raise ValueError(f"upper CI edge below lower for {name!r}")
        lengths.add(mean.size)
        parsed[name] = (mean, lower, upper)
    if len(lengths) != 1:
        raise ValueError(f"curve-length mismatch across variants: {sorted(lengths)}")
    k = lengths.pop()
    if k < 1:
        raise ValueError("empty curves")
    y_max = max(1e-9, max(float(u.max()) for _, _, u in parsed.values()) * 1.05)
    body = _axes(y_max, y_label, k)
    fallback = iter(FALLBACK_COLORS)
    for i, (name, (mean, lower, upper)) in enumerate(sorted(parsed.items())):
        color = VARIANT_COLORS.get(name) or next(fallback)
        body.append(
            f'<polygon class="band" fill="{color}" fill-opacity="0.2" '
            f'stroke="none" points="{_band_points(upper, lower, k, y_max)}"/>')
        body.append(
            f'<polyline class="mean" fill="none" stroke="{color}" '
            f'stroke-width="2" points="{_polyline_points(mean, k, y_max)}"/>')
        lx = WIDTH - MARGIN_R - 130
        ly = MARGIN_T + 16 * (i + 1)
        body.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 20}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>')
        body.append(
            f'<text class="legend" x="{lx + 26}" y="{ly}" font-size="11">'
            f'{_escape(name)}</text>')
    return _document(body, title or "entropy by variant")
