"""Run reports: report.json's one writer and stage timer, plus dependency-free SVG bar charts.

``write_report`` lays out every report.json, ``score --report``'s and
``run``'s. Its seconds per stage, which ``timed`` measures, go under
``stages.timings_seconds``, so everything else in a report is
byte-identical across reruns. ``validate_report`` is the readers' check of
that layout.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
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


@contextmanager
def timed(timings: dict[str, float], stage: str) -> Iterator[None]:
    """Set ``timings[stage]`` to the seconds the ``with`` block takes."""
    start = time.perf_counter()
    yield
    timings[stage] = time.perf_counter() - start


def write_report(path: str | Path, timings: dict[str, float], r_mean: np.ndarray,
                 rois: dict[str, list[int]], levels: dict[str, float] | None = None,
                 contrasts: dict | None = None, group: dict | None = None,
                 config_snapshot: str | None = None) -> None:
    """Write report.json: ``timings`` under ``stages``, the summary of the per-target
    scores ``r_mean`` with each ROI's mean and any ``levels``' mean scores, and
    ``contrasts`` (default none); ``group`` and ``config_snapshot`` only if given."""
    scores = {"mean_r": float(np.mean(r_mean)), "max_r": float(np.max(r_mean)),
              "n_targets": int(len(r_mean))}
    if rois:
        scores["roi_mean_r"] = {name: roi_mean(r_mean, idx) for name, idx in rois.items()}
    if levels is not None:
        scores["per_level_mean_r"] = levels
    doc = {"schema_version": REPORT_SCHEMA_VERSION, "stages": {"timings_seconds": timings},
           "scores": scores, "contrasts": {} if contrasts is None else contrasts}
    if group is not None:
        doc["group"] = group
    if config_snapshot is not None:
        doc["config_snapshot"] = config_snapshot
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

