"""ASCII rendering of figure-shaped results (bars and stacked bars)."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


def ascii_bar_chart(
    items: Sequence[Tuple[str, float]],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bar chart: one (label, value) bar per row."""
    if not items:
        return "(no data)"
    peak = max(abs(value) for _, value in items) or 1.0
    label_width = max(len(label) for label, _ in items)
    lines = []
    for label, value in items:
        bar = "#" * max(int(round(abs(value) / peak * width)), 0)
        lines.append(
            f"{label.rjust(label_width)} | {bar} {value:.2f}{unit}"
        )
    return "\n".join(lines)


def ascii_stacked_bars(
    labels: Sequence[str],
    components: Dict[str, List[float]],
    width: int = 60,
) -> str:
    """Stacked horizontal bars (CPI stacks): one glyph per component."""
    glyphs = "#@*+x%o="
    names = list(components)
    totals = [
        sum(components[name][i] for name in names) for i in range(len(labels))
    ]
    peak = max(totals) if totals else 1.0
    label_width = max(len(label) for label in labels) if labels else 1
    lines = []
    for i, label in enumerate(labels):
        bar = ""
        for j, name in enumerate(names):
            value = components[name][i]
            bar += glyphs[j % len(glyphs)] * max(
                int(round(value / peak * width)), 0
            )
        lines.append(f"{label.rjust(label_width)} | {bar} ({totals[i]:.2f})")
    legend = "  ".join(
        f"{glyphs[j % len(glyphs)]}={name}" for j, name in enumerate(names)
    )
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
