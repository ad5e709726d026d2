"""Run reports: versioned JSON schema plus dependency-free SVG bar charts."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .groupstats import roi_mean
from .matrixio import write_json

REPORT_SCHEMA_VERSION = 1

REQUIRED_KEYS = {"schema_version", "stages", "scores", "contrasts"}


def validate_report(doc: dict) -> list[str]:
    problems = []
    missing = REQUIRED_KEYS - doc.keys()
    if missing:
        problems.append(f"missing keys: {sorted(missing)}")
    if doc.get("schema_version") != REPORT_SCHEMA_VERSION:
        problems.append(f"schema_version {doc.get('schema_version')} != {REPORT_SCHEMA_VERSION}")
    return problems


def write_report(path: str | Path, doc: dict) -> None:
    """Write ``doc`` with the schema version; raises ValueError, writing nothing, if it is invalid."""
    doc = {"schema_version": REPORT_SCHEMA_VERSION, **doc}
    problems = validate_report(doc)
    if problems:
        raise ValueError(f"report {path}: " + "; ".join(problems))
    write_json(path, doc)


def bar_chart_svg(
    labels: list[str], values: list[float], title: str = "", width: int = 640, height: int = 360
) -> str:
    """Minimal SVG bar chart: one bar per label, zero line, value captions."""
    values = [float(v) for v in values]
    vmax = max(max(values, default=0.0), 0.0)
    vmin = min(min(values, default=0.0), 0.0)
    span = (vmax - vmin) or 1.0
    margin = 50
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    zero_y = margin + plot_h * vmax / span
    n = max(len(values), 1)
    bar_w = plot_w / n * 0.7
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{zero_y:.1f}" x2="{width - margin}" y2="{zero_y:.1f}" stroke="black"/>',
    ]
    for i, (lab, v) in enumerate(zip(labels, values)):
        x = margin + plot_w * (i + 0.15) / n
        h = abs(v) / span * plot_h
        y = zero_y - h if v >= 0 else zero_y
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" height="{h:.1f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{height - margin / 2:.1f}" '
            f'text-anchor="middle" font-size="11">{lab}</text>'
        )
        cap_y = y - 4 if v >= 0 else y + h + 12
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{cap_y:.1f}" text-anchor="middle" '
            f'font-size="10">{v:.4g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def summarize_scores(r_mean: np.ndarray, rois: dict[str, list[int]] | None = None) -> dict:
    out = {
        "mean_r": float(np.mean(r_mean)),
        "max_r": float(np.max(r_mean)),
        "n_targets": int(len(r_mean)),
    }
    if rois:
        out["roi_mean_r"] = {name: roi_mean(r_mean, idx) for name, idx in rois.items()}
    return out
