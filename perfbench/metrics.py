"""Every metric the benchmark reports.

BENCHMARK.json lists the same names, units and directions.  It has no
room for what each per-layer metric should move, so README.md records
that.
"""

from spans import LAYERS, SERIES_OPS

# name, unit, better, bound (share of the parent's median a change may lose)
# Every timing is normalised by the reference loop of hostref.py, which
# takes out the host's slow phases (see README.md).  Each bound is at
# least three times the spread (IQR over median) of ten seeds' runs.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_norm_s", "s", "lower", 0.15),
    ("cpu_norm_s", "s", "lower", 0.15),
    ("job_p50_norm_ms", "ms", "lower", 0.2),
    ("job_tail_norm_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# name, unit, better; counts of fixed work are "higher" and should not move
PER_LAYER = [
    (layer + suffix, unit, "lower")
    for layer in LAYERS
    for suffix, unit in ((".calls", "count"), (".self_s", "s"), (".errors", "count"))
] + [
    ("identities.checks", "count", "higher"),
    ("identities.points", "count", "higher"),
    ("identities.exact_det.self_s", "s", "lower"),
    ("triangles.row.calls", "count", "lower"),
    ("triangles.row.self_s", "s", "lower"),
    ("triangles.row.entries_copied", "count", "lower"),
    ("triangles.row.repeat_ratio", "ratio", "lower"),
    ("triangles.egf_row.self_s", "s", "lower"),
    ("triangles.classical.self_s", "s", "lower"),
    ("series.max_order", "order", "higher"),
] + [("series.%s.self_s" % op, "s", "lower") for op in SERIES_OPS] + [
    ("riordan.inverse.self_s", "s", "lower"),
    ("cli.bytes_out", "B", "higher"),
    ("enumeration.structures", "count", "higher"),
    ("enumeration.listed", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

UNITS = {m[0]: m[1] for m in END_TO_END + PER_LAYER}
BETTER = {m[0]: m[2] for m in END_TO_END + PER_LAYER}
BOUNDS = {m[0]: m[3] for m in END_TO_END}


def measured_per_child(name):
    """Times are medians over a run's traced lists; counts come from its first list."""
    return name.endswith("self_s") or name == "trace.overhead_ratio"
