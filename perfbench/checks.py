"""Output checks on the files a workload writes.

Each check returns a list of problems; an empty list means it passed. The
results CSV is parsed here rather than with the package's own reader, so
a fault in the program's CSV code cannot hide itself.
"""
from __future__ import annotations

from math import sqrt

CSV_COLUMNS = ["mode", "protocol", "hops", "path", "trial", "qrem", "configuration",
               "negativity", "fidelity", "shots", "seed"]
QREM_LABELS = {"on": ("on",), "off": ("off",), "both": ("off", "on")}


def parse_results(text: str) -> list[dict]:
    """Rows of a results CSV as dicts; raises ValueError on a malformed file."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("results CSV lacks its version comment and header")
    if lines[1].split(",") != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {lines[1]!r}")
    rows = []
    for line_no, line in enumerate(lines[2:], start=3):
        parts = line.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"line {line_no}: {len(parts)} fields")
        row = dict(zip(CSV_COLUMNS, parts))
        row["hops"] = int(row["hops"])
        row["trial"] = int(row["trial"])
        row["negativity"] = float(row["negativity"]) if row["negativity"] else None
        rows.append(row)
    return rows


def cell_key(mode: str, protocol: str, hops: int, path: str, trial: int) -> tuple:
    return (mode, protocol, hops, path, trial)


def expected_row_labels(mode: str, hops: int, qrem: str) -> set:
    """(qrem, configuration) labels of one cell's rows."""
    if mode != "postselect":
        configs = ("",)
    elif hops == 1:
        configs = ("00", "10")  # with one hop the X parity is always 0
    else:
        configs = ("00", "01", "10", "11")
    return {(flag, config) for flag in QREM_LABELS[qrem] for config in configs}


def missing_cells(rows: list[dict], planned: list[dict], qrem: str) -> tuple[int, list]:
    """(planned cells without their full set of rows, problems with rows outside the plan).

    `planned` holds one dict per cell with the keys mode, protocol, hops,
    path, trial and seed.
    """
    found: dict[tuple, set] = {}
    seeds: dict[tuple, set] = {}
    for row in rows:
        key = cell_key(row["mode"], row["protocol"], row["hops"], row["path"], row["trial"])
        found.setdefault(key, set()).add((row["qrem"], row["configuration"]))
        seeds.setdefault(key, set()).add(row["seed"])
    missing = 0
    planned_keys = set()
    for cell in planned:
        key = cell_key(cell["mode"], cell["protocol"], cell["hops"], cell["path"], cell["trial"])
        planned_keys.add(key)
        if (found.get(key) != expected_row_labels(cell["mode"], cell["hops"], qrem)
                or seeds.get(key) != {str(cell["seed"])}):
            missing += 1
    extra = sorted(set(found) - planned_keys)
    problems = [f"{len(extra)} cell(s) outside the plan, first {extra[0]}"] if extra else []
    return missing, problems


def _slope(points) -> tuple[float, float] | None:
    """(least-squares slope, its standard error) of (x, y) points, if defined."""
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    sxx = sum((x - mean_x) ** 2 for x, _ in points)
    if n < 3 or sxx == 0:
        return None
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sxx
    residual = sum((y - mean_y - slope * (x - mean_x)) ** 2 for x, y in points)
    return slope, sqrt(residual / (n - 2) / sxx)


def negativity_rises(rows: list[dict]) -> list[str]:
    """Groups whose negativity rises with the hop count.

    The least-squares slope of negativity against hops may be positive by
    at most one standard error of that slope. It is tested over the whole
    sweep and for each (mode, protocol, qrem) group that spans at least
    three hop counts; groups pool paths, trials and post-selected
    configurations. Each hop count uses its own paths, so with only two
    hop counts (as at hops 17 and 19) a group's change lies within the
    path-to-path spread and only the whole-sweep slope is tested.
    """
    groups: dict[tuple, list] = {}
    for row in rows:
        if row["negativity"] is not None:
            point = (row["hops"], row["negativity"])
            groups.setdefault(("all",), []).append(point)
            groups.setdefault((row["mode"], row["protocol"], row["qrem"]), []).append(point)
    problems = []
    for key, points in sorted(groups.items()):
        fit = _slope(points)
        if fit is None or (key != ("all",) and len({x for x, _ in points}) < 3):
            continue
        slope, stderr = fit
        if slope > stderr:
            problems.append(f"{'/'.join(key)}: negativity rises by {slope:.4g} per hop "
                            f"(standard error {stderr:.4g})")
    return problems
