"""Run the cycres CLI in this fresh process and record its timings.

    python3 perfbench/launch.py READY_FILE TRACE_FILE RUN_ID [CLI ARGS...]

Imports ``cycres`` from the ``src`` directory of the checkout that holds
this file and takes the ``time.perf_counter()`` reading ``ready`` right
after the import.  It then measures the pace of the core it runs on (see
below), takes the reading ``start``, runs ``cycres.cli.main(CLI ARGS)`` and
exits with its code.  Without CLI ARGS it exits after the pace burst: a
set-up probe.  The readings and paces are written to READY_FILE as JSON
when the process ends.  TRACE_FILE ``-`` runs untraced; any other path
installs the span tracer of ``tracing.py`` at ``start`` and writes the
spans there at the end, under RUN_ID.  perf_counter is the system-wide
monotonic clock on Linux, so the parent can compare these readings with
its own.

Pace.  The speed of a shared core drifts, by up to 1.7x over seconds to
minutes, with whatever else the host runs.  ``probe`` is a fixed piece of
interpreter work (tuple keys into a small dict, as the program does) that
takes REF_PROBE_S at the reference speed; pace = REF_PROBE_S / its measured
time.  ``setup_pace`` is the median over a burst of PACE_BURST probes right
after the import; ``run_pace`` is the mean over probes run from a SIGALRM
timer every PACE_PERIOD_S while the CLI runs, in the same process, so they
see the same core at the same moments.  A time multiplied by the pace of
its interval is that time at the reference speed.  The timer probes cost
about 0.4% of the run; the probe is the benchmark's own code, so a change
to cycres moves the measured time and not the pace.
"""

import json
import os
import signal
import statistics
import sys
import time

REF_PROBE_S = 0.0004
PACE_BURST = 25
PACE_PERIOD_S = 0.1


def probe(n=1500):
    d = {}
    for i in range(n):
        k = (i & 63, (i >> 6) & 7)
        d[k] = d.get(k, 0) + i
    return len(d)


def timed_probe():
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def main():
    ready_path, trace_path, run_id, *cli_args = sys.argv[1:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import cycres
    from cycres import cli

    ready = time.perf_counter()
    if not os.path.abspath(cycres.__file__).startswith(src + os.sep):
        print(f"error: cycres imported from {cycres.__file__}, not {src}", file=sys.stderr)
        return 2
    setup_pace = REF_PROBE_S / statistics.median(timed_probe() for _ in range(PACE_BURST))
    # a CLI that raises still leaves a record, so its run counts as failed
    record = {"ready": ready, "setup_pace": setup_pace,
              "start": ready, "run_pace": setup_pace, "pace_samples": 0}
    try:
        if not cli_args:
            return 0
        tracer = None
        if trace_path != "-":
            import tracing

            tracer = tracing.Tracer(run_id)
            tracer.install(cycres)
        samples = []
        signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(timed_probe()))
        record["start"] = start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PACE_PERIOD_S, PACE_PERIOD_S)
        try:
            code = cli.main(cli_args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            if samples:
                record["run_pace"] = statistics.fmean(REF_PROBE_S / t for t in samples)
                record["pace_samples"] = len(samples)
        if tracer is not None:
            tracer.dump(trace_path, start, time.perf_counter())
        return code
    finally:
        with open(ready_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
