"""Statistics and /proc readers shared by perfbench/run.py and its tests."""

import math
import os

TAIL_QUANTILES = (0.99, 0.999, 0.9999, 0.99999)


def percentile(values, q):
    """Nearest-rank percentile of `values` (any order), q in (0, 1]."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def beyond(values, threshold):
    """Number of samples strictly above `threshold`."""
    return sum(1 for v in values if v > threshold)


def tail(values, min_beyond=10):
    """The highest of TAIL_QUANTILES that still has at least `min_beyond`
    samples above it, as (quantile, value, samples beyond); None when even
    the 99th percentile is unsupported."""
    best = None
    for q in TAIL_QUANTILES:
        value = percentile(values, q)
        count = beyond(values, value)
        if count >= min_beyond:
            best = (q, value, count)
    return best


def read_cpu_seconds(pid, proc="/proc"):
    """utime + stime of a process from /proc/<pid>/stat, in seconds."""
    with open(os.path.join(proc, str(pid), "stat")) as f:
        text = f.read()
    # The command name may hold spaces and parentheses: split after the
    # last ')'. Fields from there start at field 3 (state).
    fields = text[text.rindex(")") + 2:].split()
    utime, stime = int(fields[11]), int(fields[12])
    return (utime + stime) / os.sysconf("SC_CLK_TCK")


def read_vmhwm_mb(pid, proc="/proc"):
    """Peak resident set (VmHWM) of a process, in MB."""
    with open(os.path.join(proc, str(pid), "status")) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError("no VmHWM line")


def read_cpu_times(path="/proc/stat"):
    """(steal, total) jiffies of the aggregate 'cpu' line of /proc/stat."""
    with open(path) as f:
        for line in f:
            if line.startswith("cpu "):
                fields = [int(x) for x in line.split()[1:]]
                # user nice system idle iowait irq softirq steal [guest...]
                # guest time is already counted in user/nice.
                total = sum(fields[:8])
                steal = fields[7] if len(fields) > 7 else 0
                return steal, total
    raise ValueError("no aggregate cpu line")


def steal_frac(before, after):
    steal = after[0] - before[0]
    total = after[1] - before[1]
    return steal / total if total > 0 else 0.0


def parse_records(path):
    """Loadgen records: (header, list of (conn, user, sent, done, status)).
    Header: start, measure_from, measure_to (ns), k."""
    with open(path) as f:
        head = f.readline().split()
        header = {"start": int(head[1]), "from": int(head[2]),
                  "to": int(head[3]), "k": int(head[4])}
        rows = []
        for line in f:
            p = line.split(" ", 5)
            rows.append((int(p[0]), int(p[1]), int(p[2]), int(p[3]), int(p[4])))
    return header, rows
