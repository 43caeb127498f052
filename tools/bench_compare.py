#!/usr/bin/env python3
"""Bench-regression gate: compare bench --json reports against baselines.

Every bench binary writes a JSON report (``--json path``) containing its
check() verdicts and its value() recordings.  The committed baselines live
in ``bench/baselines/``; CI reruns every bench and feeds the fresh reports
to this script, which fails the build when

  * a report present in the baselines is missing from the current run,
  * any check's ``ok`` verdict differs from the baseline (a regression if
    it flipped to false; a stale baseline if it flipped to true -- both
    need a human: fix the code or refresh the baseline),
  * a baseline check or value is absent from the current run,
  * a recorded value deviates from the baseline beyond tolerance.

``table_wall_seconds`` is explicitly ignored: timings are machine-dependent
and must never gate.  Checks or values present only in the current run are
reported as warnings (new coverage is fine; it gates once committed to the
baselines).

Reports are matched by their embedded ``name`` field, not by filename, so
the two directories may use different naming schemes.

After the gate verdict the script prints the host each side ran on (the
``host`` block of the reports: cores, compiler, build type; baselines
older than that block read "unrecorded") and an **informational** wall-time
trend: per report, baseline vs current ``table_wall_seconds`` and every
``phases`` entry with the relative delta.  The trend never affects the exit
status (timings are machine-dependent); ``--trend-report PATH`` additionally
writes it to a file so CI can upload it as an artifact and perf PRs can
attribute their wins table by table.

Usage:
  bench_compare.py BASELINE_DIR CURRENT_DIR [--rel-tol X] [--abs-tol Y]
                   [--trend-report PATH]
  bench_compare.py --self-test BASELINE_DIR

``--self-test`` perturbs a copy of the baselines (one flipped check, one
shifted value) and asserts the comparison detects both -- proof the gate
actually fails on an injected regression.

Exit status: 0 clean, 1 regression detected, 2 usage/IO error.
"""

import argparse
import copy
import glob
import json
import os
import sys
import tempfile

REL_TOL = 1e-6
ABS_TOL = 1e-9


def validate_report(path, record):
    """Reject malformed reports with an error naming the file and the gap.

    A hand-edited baseline missing its ``checks`` or ``values`` table (or
    carrying the wrong shape) must fail the gate with a clear message and
    exit 2, not die in a KeyError traceback halfway through compare().
    """
    if not isinstance(record, dict):
        raise IOError("%s: report is not a JSON object" % path)
    name = record.get("name")
    if not isinstance(name, str) or not name:
        raise IOError("%s has no \"name\" field" % path)
    for table in ("checks", "values"):
        if table not in record:
            raise IOError(
                "%s (report %r): missing %r table" % (path, name, table))
    if not isinstance(record["checks"], list):
        raise IOError(
            "%s (report %r): \"checks\" must be an array" % (path, name))
    for i, check in enumerate(record["checks"]):
        if (not isinstance(check, dict)
                or not isinstance(check.get("what"), str)
                or not isinstance(check.get("ok"), bool)):
            raise IOError(
                "%s (report %r): checks[%d] needs a string \"what\" and a "
                "boolean \"ok\"" % (path, name, i))
    if (not isinstance(record["values"], dict)
            or any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in record["values"].values())):
        raise IOError(
            "%s (report %r): \"values\" must map names to numbers"
            % (path, name))
    return name


def load_reports(directory, reports_only=False):
    """Map embedded report name -> parsed JSON for every report in a dir.

    With ``reports_only`` (the baseline dir), any non-.json file is an
    error: a stray file there is almost always a report that silently
    stopped gating (a typo'd extension, an editor backup), so fail loudly
    with exit 2 instead of pretending the baseline set is complete.  The
    current-run dir stays permissive -- CI writes its trend report there.
    """
    reports = {}
    if reports_only:
        strays = sorted(
            entry for entry in os.listdir(directory)
            if os.path.isfile(os.path.join(directory, entry))
            and not entry.endswith(".json"))
        if strays:
            raise IOError(
                "baseline dir %s contains non-JSON file(s): %s -- only "
                "bench --json reports may live there (did a report lose "
                "its .json extension?)" % (directory, ", ".join(strays)))
    paths = sorted(glob.glob(os.path.join(directory, "*.json")))
    if not paths:
        raise IOError("no .json reports in %s" % directory)
    for path in paths:
        try:
            with open(path) as f:
                record = json.load(f)
        except ValueError as e:
            raise IOError("%s: not valid JSON (%s)" % (path, e))
        name = validate_report(path, record)
        if name in reports:
            raise IOError("duplicate report name %r in %s" % (name, directory))
        reports[name] = record
    return reports


def values_close(baseline, current, rel_tol, abs_tol):
    return abs(current - baseline) <= max(abs_tol, rel_tol * abs(baseline))


def compare(baselines, currents, rel_tol=REL_TOL, abs_tol=ABS_TOL, out=sys.stdout):
    """Return (failures, warnings) as lists of human-readable strings."""
    failures, warnings = [], []
    for name, base in sorted(baselines.items()):
        cur = currents.get(name)
        if cur is None:
            failures.append("%s: report missing from current run" % name)
            continue
        base_checks = {c["what"]: c["ok"] for c in base.get("checks", [])}
        cur_checks = {c["what"]: c["ok"] for c in cur.get("checks", [])}
        for what, ok in sorted(base_checks.items()):
            if what not in cur_checks:
                failures.append("%s: check dropped: %r" % (name, what))
            elif cur_checks[what] != ok:
                failures.append(
                    "%s: check %r flipped %s -> %s"
                    % (name, what, ok, cur_checks[what]))
        for what in sorted(set(cur_checks) - set(base_checks)):
            warnings.append("%s: new check not in baseline: %r" % (name, what))
        base_values = base.get("values", {})
        cur_values = cur.get("values", {})
        for key, v in sorted(base_values.items()):
            if key not in cur_values:
                failures.append("%s: value dropped: %r" % (name, key))
            elif not values_close(v, cur_values[key], rel_tol, abs_tol):
                failures.append(
                    "%s: value %r deviated: baseline %.12g, current %.12g"
                    % (name, key, v, cur_values[key]))
        for key in sorted(set(cur_values) - set(base_values)):
            warnings.append("%s: new value not in baseline: %r" % (name, key))
        # table_wall_seconds deliberately not compared: timings never gate.
    for name in sorted(set(currents) - set(baselines)):
        warnings.append("%s: new report not in baselines" % name)
    for w in warnings:
        print("WARN  %s" % w, file=out)
    for f in failures:
        print("FAIL  %s" % f, file=out)
    if not failures:
        print("bench gate: %d reports match the baselines" % len(baselines),
              file=out)
    return failures, warnings


def _fmt_seconds_delta(baseline, current):
    if baseline is None and current is None:
        return "n/a"
    if baseline is None:
        return "n/a -> %.3fs" % current
    if current is None:
        return "%.3fs -> n/a" % baseline
    if baseline > 0:
        return "%.3fs -> %.3fs (%+.1f%%)" % (
            baseline, current, 100.0 * (current - baseline) / baseline)
    return "%.3fs -> %.3fs" % (baseline, current)


def _hosts(reports):
    """The distinct host blocks of a report set, formatted; never gates."""
    seen = set()
    for record in reports.values():
        host = record.get("host")
        if isinstance(host, dict):
            seen.add("nproc=%s compiler=%s build_type=%s" % (
                host.get("nproc"), host.get("compiler"),
                host.get("build_type")))
        else:
            seen.add("unrecorded")
    return "; ".join(sorted(seen))


def host_lines(baselines, currents):
    """Which hosts the two report sets came from (informational)."""
    return ["host (informational, never gates):",
            "  baseline: %s" % _hosts(baselines),
            "  current:  %s" % _hosts(currents)]


def trend_lines(baselines, currents):
    """Informational wall-time trend, baseline vs current.  Never gates."""
    lines = ["wall-time trend (informational, never gates):"]
    for name in sorted(set(baselines) | set(currents)):
        base = baselines.get(name) or {}
        cur = currents.get(name) or {}
        lines.append("  %-38s %s" % (
            name, _fmt_seconds_delta(base.get("table_wall_seconds"),
                                     cur.get("table_wall_seconds"))))
        base_phases = base.get("phases", {})
        cur_phases = cur.get("phases", {})
        for phase in sorted(set(base_phases) | set(cur_phases)):
            lines.append("    %-36s %s" % (
                phase, _fmt_seconds_delta(base_phases.get(phase),
                                          cur_phases.get(phase))))
    return lines


def self_test(baseline_dir):
    """Perturb a copy of the baselines; the gate must catch every injection."""
    baselines = load_reports(baseline_dir, reports_only=True)
    donor_check = next(
        (n for n, r in sorted(baselines.items()) if r.get("checks")), None)
    donor_value = next(
        (n for n, r in sorted(baselines.items()) if r.get("values")), None)
    if donor_check is None or donor_value is None:
        print("self-test: baselines carry no checks or no values", file=sys.stderr)
        return 1
    perturbed = copy.deepcopy(baselines)
    flipped = perturbed[donor_check]["checks"][0]
    flipped["ok"] = not flipped["ok"]
    key = sorted(perturbed[donor_value]["values"])[0]
    perturbed[donor_value]["values"][key] += 1.0
    with tempfile.TemporaryFile(mode="w+") as sink:
        failures, _ = compare(baselines, perturbed, out=sink)
    want = {
        "%s: check %r flipped" % (donor_check, flipped["what"]),
        "%s: value %r deviated" % (donor_value, key),
    }
    missed = [w for w in want if not any(f.startswith(w) for f in failures)]
    if missed:
        print("self-test FAILED: gate missed injected regressions:",
              file=sys.stderr)
        for m in missed:
            print("  " + m, file=sys.stderr)
        return 1
    # And an unperturbed comparison must pass.
    with tempfile.TemporaryFile(mode="w+") as sink:
        clean_failures, _ = compare(baselines, baselines, out=sink)
    if clean_failures:
        print("self-test FAILED: identical reports flagged as regressions",
              file=sys.stderr)
        return 1
    # The trend is purely informational: a doubled wall time must appear in
    # the trend lines yet produce zero failures.
    slowed = copy.deepcopy(baselines)
    slowed[donor_check]["table_wall_seconds"] = (
        2.0 * baselines[donor_check].get("table_wall_seconds", 1.0) + 1.0)
    with tempfile.TemporaryFile(mode="w+") as sink:
        slow_failures, _ = compare(baselines, slowed, out=sink)
    trend = trend_lines(baselines, slowed)
    if slow_failures:
        print("self-test FAILED: wall-time change gated the build",
              file=sys.stderr)
        return 1
    if len(trend) <= len(baselines) or "->" not in "".join(trend):
        print("self-test FAILED: trend report missing wall-time deltas",
              file=sys.stderr)
        return 1
    # Same contract for per-table phase timers: a shifted phase must show up
    # as an indented trend line with a delta, and still never gate.
    donor_phase = next(
        (n for n, r in sorted(baselines.items()) if r.get("phases")), None)
    if donor_phase is None:
        print("self-test: baselines carry no phase timers", file=sys.stderr)
        return 1
    shifted = copy.deepcopy(baselines)
    phase = sorted(shifted[donor_phase]["phases"])[0]
    shifted[donor_phase]["phases"][phase] = (
        2.0 * baselines[donor_phase]["phases"][phase] + 1.0)
    with tempfile.TemporaryFile(mode="w+") as sink:
        phase_failures, _ = compare(baselines, shifted, out=sink)
    if phase_failures:
        print("self-test FAILED: phase-timer change gated the build",
              file=sys.stderr)
        return 1
    phase_line = next((l for l in trend_lines(baselines, shifted)
                       if l.startswith("    ") and l.lstrip().startswith(phase)
                       and "->" in l), None)
    if phase_line is None:
        print("self-test FAILED: trend report missing the shifted phase "
              "timer %r" % phase, file=sys.stderr)
        return 1
    print("self-test OK: gate detects flipped checks and deviated values; "
          "wall-time and phase trends stay informational")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline_dir")
    parser.add_argument("current_dir", nargs="?")
    parser.add_argument("--rel-tol", type=float, default=REL_TOL)
    parser.add_argument("--abs-tol", type=float, default=ABS_TOL)
    parser.add_argument("--self-test", action="store_true",
                        help="inject regressions into a copy of the baselines "
                             "and assert the gate catches them")
    parser.add_argument("--trend-report", metavar="PATH",
                        help="also write the informational wall-time trend "
                             "to this file (for CI artifact upload)")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test(args.baseline_dir)
        if not args.current_dir:
            parser.error("CURRENT_DIR is required unless --self-test")
        baselines = load_reports(args.baseline_dir, reports_only=True)
        currents = load_reports(args.current_dir)
        failures, _ = compare(baselines, currents,
                              rel_tol=args.rel_tol, abs_tol=args.abs_tol)
        trend = host_lines(baselines, currents) + trend_lines(baselines,
                                                              currents)
        print("\n".join(trend))
        if args.trend_report:
            with open(args.trend_report, "w") as f:
                f.write("\n".join(trend) + "\n")
        return 1 if failures else 0
    except IOError as e:
        print("bench_compare: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
