"""Paper-style table rendering for benchmark output.

Formats results the way Figure 3 presents them: one row per metric, one
column per configuration, plus a ratio column so the "who wins, by how
much" shape is immediately visible.
"""

from __future__ import annotations

import os

from repro.bench.experiment import FIGURE3_ROWS, TPCCExperimentResult
from repro.obs.export import JsonDict


def format_value(value: float) -> str:
    """Compact numeric formatting (counts as ints, rates to 2 decimals)."""
    if value == int(value) and abs(value) >= 1:
        return f"{int(value):,}"
    return f"{value:,.2f}"


def render_table(
    title: str,
    rows: list[tuple[str, float, float]],
    col_a: str,
    col_b: str,
) -> str:
    """Render a two-configuration comparison table with a ratio column."""
    header = f"{'metric':<24} {col_a:>18} {col_b:>18} {'B/A':>8}"
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for label, a, b in rows:
        ratio = b / a if a else float("inf") if b else 1.0
        lines.append(
            f"{label:<24} {format_value(a):>18} {format_value(b):>18} {ratio:>7.2f}x"
        )
    lines.append("=" * len(header))
    return "\n".join(lines)


def figure3_table(
    traditional: TPCCExperimentResult, regions: TPCCExperimentResult
) -> str:
    """Render the full Figure 3 comparison from two experiment results."""
    rows = [
        (label, traditional.row(key), regions.row(key)) for label, key, __, __ in FIGURE3_ROWS
    ]
    return render_table(
        "Figure 3 - traditional vs multi-region data placement (simulated)",
        rows,
        traditional.config.name,
        regions.config.name,
    )


def figure3_metrics_doc(
    traditional: TPCCExperimentResult, regions: TPCCExperimentResult
) -> JsonDict:
    """The ``repro.obs/v1`` document carrying the same numbers as the table.

    Every value in the ``figure3`` sections equals the corresponding
    :func:`figure3_table` cell; each ``registry`` section is that cell's
    measured window (per-region keys under ``region.<name>.``).
    """
    from repro.obs.export import metrics_doc

    return metrics_doc(
        "fig3",
        {
            traditional.config.name: traditional.metrics(),
            regions.config.name: regions.metrics(),
        },
    )


def _flatten(tree: JsonDict, prefix: str = "") -> dict[str, float]:
    """Dotted-key view of a (possibly nested) numeric section."""
    flat: dict[str, float] = {}
    for key in sorted(tree):
        value = tree[key]
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def render_metrics_doc(doc: JsonDict) -> str:
    """Paper-style tables from a validated ``repro.obs/v1`` document.

    Two configs with ``figure3`` sections render as the Figure 3
    comparison (including the ratio column); every other section renders
    as a key/value block — same data, human view.
    """
    configs: dict[str, JsonDict] = doc["configs"]
    parts: list[str] = []
    fig3_names = [name for name in configs if "figure3" in configs[name]]
    compared = len(fig3_names) == 2
    if compared:
        a, b = fig3_names
        rows = [
            (label, configs[a]["figure3"][key], configs[b]["figure3"][key])
            for label, key, __, __ in FIGURE3_ROWS
            if key in configs[a]["figure3"] and key in configs[b]["figure3"]
        ]
        parts.append(
            render_table(f"{doc['command']} - {a} vs {b}", rows, a, b)
        )
    for name, sections in configs.items():
        for section in sorted(sections):
            if section == "figure3" and compared:
                continue
            flat = _flatten(sections[section])
            if flat:
                parts.append(render_single(f"{name} / {section}", flat))
    return "\n\n".join(parts)


def render_single(title: str, values: dict[str, float]) -> str:
    """Render one configuration's stats as a key/value block."""
    width = max(len(k) for k in values) if values else 0
    lines = [title, "-" * max(len(title), width + 20)]
    for key in values:
        lines.append(f"{key:<{width}}  {format_value(values[key])}")
    return "\n".join(lines)


def render_series(title: str, header: list[str], rows: list[list[object]]) -> str:
    """Render a parameter-sweep table (one row per sweep point)."""
    widths = [
        max(len(str(header[i])), max((len(format_cell(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    lines = [title, "=" * (sum(widths) + 2 * len(widths))]
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("-" * (sum(widths) + 2 * len(widths)))
    for row in rows:
        lines.append("  ".join(format_cell(c).ljust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(lines)


def format_cell(value: object) -> str:
    """Format one sweep-table cell."""
    if isinstance(value, float):
        return format_value(value)
    return str(value)


def save_report(name: str, text: str, directory: str | None = None) -> str:
    """Persist a rendered report under ``benchmarks/results/`` (or $REPRO_RESULTS_DIR).

    Also echoes the report to stdout so ``pytest -s`` shows it inline.
    Returns the path written.
    """
    directory = directory or os.environ.get("REPRO_RESULTS_DIR", "benchmarks/results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print()
    print(text)
    return path
