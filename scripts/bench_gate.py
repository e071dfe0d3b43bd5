#!/usr/bin/env python3
"""Bench-report gate: validate a freshly produced bench report (BENCH_fig14.json,
BENCH_fig15.json, ...) against its checked-in baseline in examples/.

The gate does NOT compare absolute timings (CI machines are noisy); it checks
the *structure and correctness signals* of the report:

  * schema is exactly ``smc-bench-report/v1`` (both files);
  * every correctness check passed (``all_checks_passed`` and each
    ``checks[].passed``) — these are the scan/Q1/Q6 parity oracles, so a
    failure here means the parallel engine returned wrong answers;
  * every check *name* present in the baseline is also present in the fresh
    report — a silently dropped parity check must fail the gate;
  * every series has at least one row, and the fresh report covers at least
    the baseline's series names;
  * the figure's required counters are non-zero — for query reports
    (fig14) that is ``pins_taken`` / ``blocks_scanned`` /
    ``morsels_dispatched`` (zero means the epoch machinery / morsel engine
    never did work); for the coordinator soak (fig15) it is ``pins_taken``
    / ``passes_planned`` / ``passes_completed``;
  * fig15 reports must additionally carry the ``slo_p999``,
    ``backpressure_deferred`` and ``post_quiesce_verify`` checks by name
    (passing, via the rule above) and a non-zero ``passes_deferred``
    counter — a soak in which the SLO back-pressure loop never engaged
    proves nothing about back-pressure;
  * fig16 (server load) reports must carry the saturation-free latency
    oracles (``slo_p999_ingest``/``slo_p999_query``/``saturation_free``),
    the tenancy oracles (``no_dropped_tenants``/``drain_verify``), a
    non-zero ``requests_completed`` counter, and a ``shard_requests``
    series in which **every** shard's request counter is non-zero — an
    idle shard means the key-hash router never spread the load — and
    the ``ingest_ring_wait_p50_below_exec_p50`` oracle (the request path
    is exec-bound, or the run says why the host could not show it);
  * fig16 reports must additionally carry the scraped tail-latency
    attribution: the ``attribution_scraped`` oracle, an ``attribution``
    series with one row per op class (ingest and query), and the eight
    ``attr_<class>_<part>`` histograms (total / ring-wait / exec /
    reply-wake per class) each in the full summary shape — with each class's
    ``slow_requests`` row consistent with its total histogram's sample
    count, so the breakdown can't silently describe a different set of
    requests than it counted;
  * fig17 (persistence) reports must carry the ``recover_verify``,
    ``torn_page_rejected`` and ``spill_faults_counted`` oracles by name
    (cold recovery bit-exact, torn/corrupted snapshots rejected with a
    named page, larger-than-memory scans through the spill store exact),
    and non-zero ``snapshot_pages`` / ``recovered_objects`` /
    ``blocks_spilled`` / ``blocks_faulted_in`` counters — a run that
    never spilled or never faulted a page back in proves nothing about
    the larger-than-memory path;
  * fig18 (contended allocator) reports must carry the ``alloc_parity``
    and ``post_churn_verify`` oracles by name, non-zero ``allocs_total`` /
    ``remote_frees_drained`` counters (the MPSC remote-free queues must
    have carried load), and every ``alloc_churn`` row must clear an
    absolute allocs/sec floor — a run at zero throughput never ran;
  * if the report carries tracer counters, it may not claim an empty trace
    (``trace_events`` = 0) while also reporting dropped ring events — that
    combination means the tracer recorded work and the exporter lost all of
    it, so the "empty" trace is a lie.

Exit status: 0 = gate passed, 1 = gate failed, 2 = usage/IO error.

``--self-test`` exercises the gate against doctored copies of the baseline
(drop a parity check, flip a ``passed`` flag, zero a counter, ...) and fails
if any doctored report slips through. CI runs the self-test first so a broken
gate cannot silently pass broken reports.
"""

import argparse
import copy
import json
import sys

SCHEMA = "smc-bench-report/v1"
REQUIRED_COUNTERS = ("pins_taken", "blocks_scanned", "morsels_dispatched")
FIG15_COUNTERS = ("pins_taken", "passes_planned", "passes_completed")
FIG15_CHECKS = ("slo_p999", "backpressure_deferred", "post_quiesce_verify")
FIG16_COUNTERS = ("pins_taken", "blocks_scanned", "morsels_dispatched",
                  "requests_completed")
FIG16_CHECKS = ("slo_p999_ingest", "slo_p999_query", "saturation_free",
                "shard_requests_nonzero", "no_dropped_tenants",
                "drain_verify", "attribution_scraped",
                "ingest_ring_wait_p50_below_exec_p50")
FIG16_ATTR_CLASSES = ("ingest", "query")
FIG16_ATTR_PARTS = ("total_ns", "ring_wait_ns", "exec_ns", "reply_wake_ns")
SUMMARY_FIELDS = ("count", "sum_ns", "min_ns", "max_ns", "mean_ns",
                  "p50_ns", "p95_ns", "p99_ns")
FIG17_COUNTERS = ("pins_taken", "snapshot_pages", "recovered_objects",
                  "blocks_spilled", "blocks_faulted_in")
FIG17_CHECKS = ("recover_verify", "torn_page_rejected",
                "spill_faults_counted")
FIG18_COUNTERS = ("allocs_total", "remote_frees_drained")
FIG18_CHECKS = ("alloc_parity", "post_churn_verify")
# Absolute floor on every alloc_churn row's allocs/sec. Deliberately far
# below any real machine (a single serialized core measures ~25k/s): the
# floor rejects zeroed or garbage rows, not slow hardware.
FIG18_MIN_ALLOCS_PER_SEC = 1000


def required_counters(report):
    """The non-zero counters this figure must produce."""
    if report.get("figure") == "fig15":
        return FIG15_COUNTERS
    if report.get("figure") == "fig16":
        return FIG16_COUNTERS
    if report.get("figure") == "fig17":
        return FIG17_COUNTERS
    if report.get("figure") == "fig18":
        return FIG18_COUNTERS
    return REQUIRED_COUNTERS


def fail(msg):
    raise GateError(msg)


class GateError(Exception):
    """A gate violation (exit status 1)."""


def check_report(fresh, baseline):
    """Raises GateError on the first violation; returns a summary dict."""
    for label, rep in (("fresh", fresh), ("baseline", baseline)):
        if not isinstance(rep, dict):
            fail(f"{label} report is not a JSON object")
        if rep.get("schema") != SCHEMA:
            fail(f"{label} report schema is {rep.get('schema')!r}, want {SCHEMA!r}")

    # --- correctness checks -------------------------------------------------
    checks = fresh.get("checks")
    if not isinstance(checks, list) or not checks:
        fail("fresh report has no 'checks' — parity oracles did not run")
    failed = [c.get("name", "<unnamed>") for c in checks if not c.get("passed")]
    if failed:
        fail(f"parity checks failed: {', '.join(failed)}")
    if fresh.get("all_checks_passed") is not True:
        fail("'all_checks_passed' is not true despite individual checks passing "
             "(report is internally inconsistent)")

    # --- no check silently dropped -----------------------------------------
    fresh_names = {c.get("name") for c in checks}
    base_names = {c.get("name") for c in baseline.get("checks", [])}
    missing = sorted(n for n in base_names - fresh_names if n)
    if missing:
        fail(f"checks present in baseline but missing from fresh report: "
             f"{', '.join(missing)} — a parity oracle was dropped")

    # --- series coverage ----------------------------------------------------
    series = fresh.get("series")
    if not isinstance(series, list) or not series:
        fail("fresh report has no 'series'")
    for s in series:
        if not s.get("rows"):
            fail(f"series {s.get('name')!r} has no rows")
    fresh_series = {s.get("name") for s in series}
    base_series = {s.get("name") for s in baseline.get("series", [])}
    missing_series = sorted(n for n in base_series - fresh_series if n)
    if missing_series:
        fail(f"series present in baseline but missing from fresh report: "
             f"{', '.join(missing_series)}")

    # --- required counters --------------------------------------------------
    counters = fresh.get("counters", {})
    required = required_counters(fresh)
    for name in required:
        value = counters.get(name)
        if not isinstance(value, (int, float)) or value <= 0:
            fail(f"counter {name!r} is {value!r} — the machinery this "
                 f"figure measures did no work")

    # --- fig15 coordinator soak rules ----------------------------------------
    # The soak is only evidence if its three load-bearing oracles ran (SLO
    # held, back-pressure engaged, post-quiesce reconcile exact) and the
    # back-pressure path actually deferred work at least once.
    if fresh.get("figure") == "fig15":
        missing_fig15 = sorted(n for n in FIG15_CHECKS if n not in fresh_names)
        if missing_fig15:
            fail(f"fig15 report is missing required checks: "
                 f"{', '.join(missing_fig15)}")
        deferred = counters.get("passes_deferred")
        if not isinstance(deferred, (int, float)) or deferred <= 0:
            fail(f"counter 'passes_deferred' is {deferred!r} — the SLO "
                 f"back-pressure loop never engaged during the soak")

    # --- fig16 server-load rules ---------------------------------------------
    # A load run is only evidence if its latency oracles ran saturation-free,
    # no tenant stopped answering, the embedded server drained verified, and
    # the key-hash router actually spread work: every shard's request counter
    # in the per-shard series must be non-zero.
    if fresh.get("figure") == "fig16":
        missing_fig16 = sorted(n for n in FIG16_CHECKS if n not in fresh_names)
        if missing_fig16:
            fail(f"fig16 report is missing required checks: "
                 f"{', '.join(missing_fig16)}")
        shard_rows = None
        for s in series:
            if s.get("name") == "shard_requests":
                shard_rows = s.get("rows") or []
        if shard_rows is None:
            fail("fig16 report has no 'shard_requests' series")
        for row in shard_rows:
            if (len(row) < 2 or not isinstance(row[1], (int, float))
                    or row[1] <= 0):
                fail(f"shard_requests row {row!r} shows an idle shard — "
                     f"every shard must have served requests")
        # Tail-latency attribution: the scraped per-op-class breakdown must
        # be present in full summary shape, and each class's slow-request
        # count must agree with its total histogram's sample count.
        attr_rows = None
        for s in series:
            if s.get("name") == "attribution":
                attr_rows = s.get("rows") or []
        if attr_rows is None:
            fail("fig16 report has no 'attribution' series — the scrape "
                 "breakdown was dropped")
        slow_by_class = {}
        for row in attr_rows:
            if len(row) >= 2 and isinstance(row[0], str):
                slow_by_class[row[0]] = row[1]
        hists = fresh.get("histograms", {})
        for cls in FIG16_ATTR_CLASSES:
            if cls not in slow_by_class:
                fail(f"attribution series has no {cls!r} row")
            for part in FIG16_ATTR_PARTS:
                name = f"attr_{cls}_{part}"
                h = hists.get(name)
                if not isinstance(h, dict):
                    fail(f"fig16 report is missing attribution histogram "
                         f"{name!r}")
                for field in SUMMARY_FIELDS:
                    v = h.get(field)
                    if not isinstance(v, (int, float)) or isinstance(v, bool):
                        fail(f"attribution histogram {name!r} field "
                             f"{field!r} is {v!r}, want a number")
            total_count = hists[f"attr_{cls}_total_ns"].get("count")
            if slow_by_class[cls] != total_count:
                fail(f"attribution row says {slow_by_class[cls]!r} slow "
                     f"{cls} request(s) but attr_{cls}_total_ns counted "
                     f"{total_count!r} — the breakdown describes a "
                     f"different set of requests than it counted")

    # --- fig17 persistence rules ---------------------------------------------
    # A persistence run is only evidence if all three of its load-bearing
    # oracles ran: cold recovery reproduced the model bit-exact, every torn
    # or corrupted snapshot was rejected with a named error (never loaded),
    # and the budget-constrained phase actually spilled and faulted pages
    # while keeping scans exact. The counter rule above already rejects runs
    # where blocks_spilled / blocks_faulted_in are zero.
    if fresh.get("figure") == "fig17":
        missing_fig17 = sorted(n for n in FIG17_CHECKS if n not in fresh_names)
        if missing_fig17:
            fail(f"fig17 report is missing required checks: "
                 f"{', '.join(missing_fig17)}")

    # --- fig18 contended-allocator rules --------------------------------------
    # A churn run is only evidence if its two oracles ran (exact alloc/free
    # parity, post-churn verify) and the remote-free protocol actually
    # carried load: the counter rule above already rejects runs where
    # remote_frees_drained (MPSC return queues) is zero. On top of that,
    # every alloc_churn row must clear an absolute throughput floor — a run
    # at zero allocs/sec never ran.
    if fresh.get("figure") == "fig18":
        missing_fig18 = sorted(n for n in FIG18_CHECKS if n not in fresh_names)
        if missing_fig18:
            fail(f"fig18 report is missing required checks: "
                 f"{', '.join(missing_fig18)}")
        churn_rows = None
        for s in series:
            if s.get("name") == "alloc_churn":
                churn_rows = s.get("rows") or []
        if churn_rows is None:
            fail("fig18 report has no 'alloc_churn' series")
        for row in churn_rows:  # (threads, allocs_per_sec, p50_ns, p99_ns)
            rate = row[1] if len(row) > 1 else None
            if (not isinstance(rate, (int, float))
                    or rate < FIG18_MIN_ALLOCS_PER_SEC):
                fail(f"alloc_churn row {row!r} is below the "
                     f"{FIG18_MIN_ALLOCS_PER_SEC} allocs/sec floor — that "
                     f"run never really ran")

    # --- tracer honesty ------------------------------------------------------
    # Only meaningful when the run traced (SMC_TRACE_OUT set): an exported
    # trace with zero events alongside non-zero ring drops means the tracer
    # was live but every event was lost — the report must not pass that off
    # as a clean empty trace.
    events = counters.get("trace_events")
    dropped = counters.get("trace_events_dropped")
    if (isinstance(events, (int, float)) and events == 0
            and isinstance(dropped, (int, float)) and dropped > 0):
        fail(f"report claims an empty trace (trace_events=0) but the rings "
             f"dropped {dropped} event(s) — the trace silently lost "
             f"everything it recorded")

    return {
        "checks": len(checks),
        "series": sorted(n for n in fresh_series if n),
        "counters": {n: counters[n] for n in required},
    }


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def run_gate(fresh_path, baseline_path):
    fresh = load(fresh_path)
    baseline = load(baseline_path)
    try:
        summary = check_report(fresh, baseline)
    except GateError as e:
        print(f"bench_gate: FAIL: {e}", file=sys.stderr)
        return 1
    print(f"bench_gate: PASS — {summary['checks']} checks green, "
          f"series {summary['series']}, counters {summary['counters']}")
    return 0


# --- self-test ---------------------------------------------------------------

def doctored_reports(base):
    """Yields (description, doctored_fresh_report) pairs, each of which the
    gate MUST reject when compared against the clean baseline."""
    d = copy.deepcopy(base)
    dropped = d["checks"][-1]["name"]
    d["checks"] = d["checks"][:-1]
    yield f"dropped check {dropped}", d

    d = copy.deepcopy(base)
    d["checks"][0]["passed"] = False
    yield "flipped checks[0].passed to false", d

    d = copy.deepcopy(base)
    d["all_checks_passed"] = False
    yield "all_checks_passed = false", d

    required = required_counters(base)
    d = copy.deepcopy(base)
    d["counters"][required[-1]] = 0
    yield f"{required[-1]} = 0", d

    d = copy.deepcopy(base)
    del d["counters"][required[1]]
    yield f"{required[1]} counter removed", d

    if "pins_taken" in base.get("counters", {}):
        # fig18 measures the allocator below the epoch layer, so it carries
        # no pin counter; every other figure must.
        d = copy.deepcopy(base)
        d["counters"]["pins_taken"] = 0
        yield "pins_taken = 0", d

    if base.get("figure") == "fig15":
        # Coordinator-soak-specific rules: the gate must reject a soak whose
        # back-pressure loop never engaged or whose load-bearing oracles
        # were silently dropped or failed.
        d = copy.deepcopy(base)
        d["counters"]["passes_deferred"] = 0
        yield "fig15: passes_deferred = 0 (back-pressure never engaged)", d

        d = copy.deepcopy(base)
        d["checks"] = [c for c in d["checks"]
                       if c["name"] != "post_quiesce_verify"]
        yield "fig15: post_quiesce_verify oracle dropped", d

        d = copy.deepcopy(base)
        for c in d["checks"]:
            if c["name"] == "slo_p999":
                c["passed"] = False
        yield "fig15: slo_p999 flipped to failed", d

        d = copy.deepcopy(base)
        d["counters"]["passes_completed"] = 0
        yield "fig15: passes_completed = 0 (coordinator never ran)", d

    if base.get("figure") == "fig16":
        # Server-load-specific rules: an idle shard, a dropped tenancy
        # oracle, a saturated run passed off as clean, or a run that drove
        # no load at all must each be rejected.
        d = copy.deepcopy(base)
        for s in d["series"]:
            if s["name"] == "shard_requests":
                s["rows"][0][1] = 0
        yield "fig16: shard 0 served zero requests", d

        d = copy.deepcopy(base)
        d["checks"] = [c for c in d["checks"]
                       if c["name"] != "no_dropped_tenants"]
        yield "fig16: no_dropped_tenants oracle dropped", d

        d = copy.deepcopy(base)
        for c in d["checks"]:
            if c["name"] == "saturation_free":
                c["passed"] = False
        yield "fig16: saturation_free flipped to failed", d

        d = copy.deepcopy(base)
        d["counters"]["requests_completed"] = 0
        yield "fig16: requests_completed = 0 (no load was driven)", d

        d = copy.deepcopy(base)
        d["series"] = [s for s in d["series"]
                       if s["name"] != "shard_requests"]
        yield "fig16: shard_requests series removed", d

        # Attribution rules: a dropped histogram, a gutted summary, a
        # breakdown that disagrees with its own sample count, and a
        # missing breakdown series must each be rejected.
        d = copy.deepcopy(base)
        del d["histograms"]["attr_query_total_ns"]
        yield "fig16: attr_query_total_ns histogram removed", d

        d = copy.deepcopy(base)
        del d["histograms"]["attr_ingest_ring_wait_ns"]["p99_ns"]
        yield "fig16: attribution summary missing p99_ns", d

        d = copy.deepcopy(base)
        d["histograms"]["attr_ingest_total_ns"]["count"] += 1
        yield "fig16: slow_requests disagrees with total histogram count", d

        d = copy.deepcopy(base)
        del d["histograms"]["attr_ingest_reply_wake_ns"]
        yield "fig16: attr_ingest_reply_wake_ns histogram removed", d

        d = copy.deepcopy(base)
        d["checks"] = [c for c in d["checks"]
                       if c["name"] != "ingest_ring_wait_p50_below_exec_p50"]
        yield "fig16: ingest_ring_wait_p50_below_exec_p50 oracle dropped", d

        d = copy.deepcopy(base)
        d["series"] = [s for s in d["series"] if s["name"] != "attribution"]
        yield "fig16: attribution series removed", d

        d = copy.deepcopy(base)
        d["checks"] = [c for c in d["checks"]
                       if c["name"] != "attribution_scraped"]
        yield "fig16: attribution_scraped oracle dropped", d

    if base.get("figure") == "fig17":
        # Persistence-specific rules: a run that never spilled, never
        # faulted a page back in, silently dropped the torn-write oracle,
        # or whose recovery parity failed must each be rejected.
        d = copy.deepcopy(base)
        d["counters"]["blocks_spilled"] = 0
        yield "fig17: blocks_spilled = 0 (nothing was ever evicted)", d

        d = copy.deepcopy(base)
        d["counters"]["blocks_faulted_in"] = 0
        yield "fig17: blocks_faulted_in = 0 (spilled pages never read back)", d

        d = copy.deepcopy(base)
        d["checks"] = [c for c in d["checks"]
                       if c["name"] != "torn_page_rejected"]
        yield "fig17: torn_page_rejected oracle dropped", d

        d = copy.deepcopy(base)
        for c in d["checks"]:
            if c["name"] == "recover_verify":
                c["passed"] = False
        yield "fig17: recover_verify flipped to failed", d

        d = copy.deepcopy(base)
        d["counters"]["recovered_objects"] = 0
        yield "fig17: recovered_objects = 0 (recovery loaded nothing)", d

    if base.get("figure") == "fig18":
        # Contended-allocator-specific rules: a run whose remote-free queues
        # never drained, whose verify failed, or whose throughput collapsed
        # to zero must each be rejected.
        d = copy.deepcopy(base)
        d["counters"]["remote_frees_drained"] = 0
        yield "fig18: remote_frees_drained = 0 (return queues never ran)", d

        d = copy.deepcopy(base)
        for c in d["checks"]:
            if c["name"] == "post_churn_verify":
                c["passed"] = False
        yield "fig18: post_churn_verify flipped to failed", d

        d = copy.deepcopy(base)
        for s in d["series"]:
            if s["name"] == "alloc_churn":
                s["rows"][0][1] = 0
        yield "fig18: alloc_churn row at zero allocs/sec", d

        d = copy.deepcopy(base)
        d["series"] = [s for s in d["series"]
                       if s["name"] != "alloc_churn"]
        yield "fig18: alloc_churn series removed", d

    d = copy.deepcopy(base)
    d["counters"]["trace_events"] = 0
    d["counters"]["trace_events_dropped"] = 17
    yield "empty trace despite dropped ring events", d

    d = copy.deepcopy(base)
    d["series"][0]["rows"] = []
    yield "series rows emptied", d

    d = copy.deepcopy(base)
    d["series"] = []
    yield "series removed entirely", d

    d = copy.deepcopy(base)
    d["schema"] = "smc-bench-report/v0"
    yield "wrong schema version", d

    d = copy.deepcopy(base)
    d["checks"] = []
    d["all_checks_passed"] = True
    yield "no checks at all but all_checks_passed true", d


def self_test(baseline_path):
    base = load(baseline_path)

    # The clean baseline must pass against itself.
    try:
        check_report(copy.deepcopy(base), base)
    except GateError as e:
        print(f"bench_gate self-test: clean baseline rejected: {e}",
              file=sys.stderr)
        return 1
    print("bench_gate self-test: clean baseline accepted")

    bad = 0
    for desc, doctored in doctored_reports(base):
        try:
            check_report(doctored, base)
        except GateError as e:
            print(f"bench_gate self-test: correctly rejected [{desc}]: {e}")
        else:
            print(f"bench_gate self-test: FAILED to reject [{desc}]",
                  file=sys.stderr)
            bad += 1
    if bad:
        print(f"bench_gate self-test: {bad} doctored report(s) slipped through",
              file=sys.stderr)
        return 1
    print("bench_gate self-test: all doctored reports rejected")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fresh", default="BENCH_fig14.json",
                    help="freshly generated report (default: BENCH_fig14.json)")
    ap.add_argument("--baseline", default="examples/BENCH_fig14.json",
                    help="checked-in baseline report "
                         "(default: examples/BENCH_fig14.json)")
    ap.add_argument("--self-test", action="store_true",
                    help="verify the gate rejects doctored reports, then exit")
    args = ap.parse_args()
    if args.self_test:
        sys.exit(self_test(args.baseline))
    sys.exit(run_gate(args.fresh, args.baseline))


if __name__ == "__main__":
    main()
