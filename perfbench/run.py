"""Time-to-verdict benchmark for qpbcalc.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports qpbcalc from ./src. Every
suite run happens in a fresh child process (perfbench/child.py), one at
a time, and every report is checked against the frozen table in
perfbench/expected.json. See perfbench/README.md for the workloads and
metrics.

With --trace 0 the run first times set-ups (spawn, import and
build_example) SETUP_SAMPLES times, then runs the workload
again and again until the next iteration would end after --seconds, and
reports medians. Each child's times are scaled by the host speed that a
fixed pure-Python probe measures (see probe.py). The probe runs between
one child and the next, and every PROBE_EVERY_S while a child runs, with
the child stopped (SIGSTOP) for the probe and its time not counted.
With --trace 1 it runs one untraced and one traced iteration and
reports the per-layer figures. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import select
import signal
import statistics
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))

# workload -> (bundle, suite) per child process
WORKLOADS = {
    "podles-graded": (("podles", "graded"),),
    "podles-prolong": (("podles", "prolong"),),
    "small-bundles": (("u1_q", "all"), ("torus", "all"),
                      ("classical_t2", "all"), ("crossed_demo", "all")),
}
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# set-up samples taken before the first full iteration
SETUP_SAMPLES = 5
# children still running this long after the start are killed
RUN_LIMIT_S = 170.0
# report fields that must equal the frozen table; duration is ignored
FIELDS = ("status", "checks", "truncation", "witnesses", "notes")
# probe.probe() time at the reference host speed, with no child running:
# 2-core x86-64 VM shared with other tenants, Python 3.11
PROBE_REF_S = 0.06
# seconds a child runs between two probes
PROBE_EVERY_S = 1.0


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def score(expected, got):
    """(attempted, failed) for one process's reports.

    One operation is one expected report. It fails when it is missing or
    differs in a FIELDS entry. A report the table does not expect counts
    as one more failed operation."""
    delivered = {}
    for rep in got:
        delivered.setdefault((rep.get("suite"), rep.get("example")),
                             []).append(rep)
    failed = 0
    for want in expected:
        bucket = delivered.get((want["suite"], want["example"]))
        rep = bucket.pop(0) if bucket else None
        if rep is None or any(rep.get(f) != want[f] for f in FIELDS):
            failed += 1
    extra = sum(len(b) for b in delivered.values())
    return len(expected) + extra, failed + extra


class Child:
    """One finished child process.

    wall_s and setup_s leave out the time the child spent stopped for
    probes. speed is PROBE_REF_S over the mean time of the probes taken
    just before, during and just after the child: above 1 when the host
    runs faster than the reference."""

    def __init__(self, wall_s, rss_mb, exit_code, payload, setup_s, speed):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.exit_code = exit_code
        self.payload = payload
        self.setup_s = setup_s
        self.speed = speed


class Iteration:
    """One pass over a workload's processes, or over their set-ups.

    wall_s and setup_s are scaled to the reference host speed; raw_wall_s
    and raw_setup_s are as measured. elapsed_s is the pass's own wall
    time, probes included."""

    def __init__(self):
        self.wall_s = 0.0
        self.setup_s = 0.0
        self.raw_wall_s = 0.0
        self.raw_setup_s = 0.0
        self.elapsed_s = 0.0
        self.speeds = []
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.complete = True
        self.traces = []


class Prober:
    """probe.probe() run in a helper process, one call per call.

    The probe's large dict stays out of this process: a child spawned
    from here starts with this process's peak RSS as its ru_maxrss."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __call__(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


class Runner:
    """Spawns child processes one at a time and scores their reports.

    A child still running at kill_at (CLOCK_MONOTONIC) is killed, so that
    the whole run ends in bounded time."""

    def __init__(self, src, env, expected, kill_at, probe):
        self.src = src
        self.env = env
        self.expected = expected
        self.kill_at = kill_at
        self.probe = probe
        self.last_probe = None

    def spawn(self, bundle, suite, mode=""):
        """Run child.py to completion; time it from spawn to exit.

        Every PROBE_EVERY_S of the child's run, stop it, run the probe and
        let it go on. The probe after one child is the probe before the
        next. Past kill_at, return at once with no result and nothing
        run."""
        if _now() >= self.kill_at:
            return Child(0.0, 0.0, None, None, None, 1.0)
        if self.last_probe is None:
            self.probe()
            self.last_probe = self.probe()
        probes = [self.last_probe]
        argv = [sys.executable, os.path.join(HERE, "child.py"), self.src,
                bundle, suite] + ([mode] if mode else [])
        r, w = os.pipe()
        try:
            t0 = _now()
            pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=[
                (os.POSIX_SPAWN_DUP2, w, 1), (os.POSIX_SPAWN_CLOSE, r)])
        except BaseException:
            os.close(r)
            raise
        finally:
            os.close(w)
        chunks = []
        pauses = []  # (stopped at, resumed at), CLOCK_MONOTONIC
        next_probe = t0 + PROBE_EVERY_S
        reaped = None
        try:
            while True:
                now = _now()
                if now >= next_probe and reaped is None:
                    os.kill(pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(pid, os.WUNTRACED)
                    if os.WIFSTOPPED(status):
                        stopped = _now()
                        probes.append(self.probe())
                        os.kill(pid, signal.SIGCONT)
                        now = _now()
                        pauses.append((stopped, now))
                        next_probe = now + PROBE_EVERY_S
                    else:
                        reaped = status, usage
                left = self.kill_at - now
                if left <= 0:
                    print(f"perfbench: killed {bundle}:{suite} at the run's "
                          f"time limit", file=sys.stderr)
                    if reaped is None:
                        os.kill(pid, signal.SIGKILL)
                    break
                wait = left if reaped else min(left, next_probe - now)
                if select.select([r], [], [], max(0.0, wait))[0]:
                    data = os.read(r, 1 << 16)
                    if not data:
                        break
                    chunks.append(data)
        except BaseException:
            if reaped is None:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(r)
            if reaped is None:
                _, status, usage = os.wait4(pid, 0)
                reaped = status, usage
        status, usage = reaped
        t1 = _now()
        self.last_probe = self.probe()
        probes.append(self.last_probe)
        exit_code = os.waitstatus_to_exitcode(status)
        payload = None
        lines = b"".join(chunks).decode(errors="replace").strip().splitlines()
        if exit_code == 0 and lines:
            try:
                payload = json.loads(lines[-1])
            except json.JSONDecodeError:
                pass
        paused = sum(b - a for a, b in pauses)
        setup_s = None
        if payload:
            done = payload["setup_done"]
            setup_s = done - t0 - sum(b - a for a, b in pauses if b <= done)
        return Child(t1 - t0 - paused, usage.ru_maxrss / 1024, exit_code,
                     payload, setup_s,
                     PROBE_REF_S / statistics.fmean(probes))

    def iteration(self, procs, mode=""):
        it = Iteration()
        t0 = _now()
        for bundle, suite in procs:
            child = self.spawn(bundle, suite, mode)
            if child.payload is None:
                it.complete = False
                why = ("was not run: the run's time limit had passed"
                       if child.exit_code is None else
                       f"exited with code {child.exit_code} and no result")
                print(f"perfbench: {bundle}:{suite} {why}", file=sys.stderr)
            else:
                it.setup_s += child.setup_s * child.speed
                it.raw_setup_s += child.setup_s
            it.elapsed_s = _now() - t0
            it.speeds.append(child.speed)
            if mode == "--setup-only":
                continue
            it.wall_s += child.wall_s * child.speed
            it.raw_wall_s += child.wall_s
            it.rss_mb = max(it.rss_mb, child.rss_mb)
            reports = child.payload["reports"] if child.payload else []
            attempted, failed = score(self.expected[f"{bundle}:{suite}"],
                                      reports)
            it.attempted += attempted
            it.failed += failed
            if child.payload and "trace" in child.payload:
                it.traces.append(child.payload["trace"])
        return it


def child_env(seed):
    """The caller's environment with the settings that change the work
    or the set-up cost pinned: the hash seed, no rewrite budget, and
    bytecode caching on, as for an installed package."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    env.pop("QPBCALC_REDUCE_BUDGET", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _fmt(values):
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


def measure(args, runner):
    """Run the workload; return its iterations and metrics."""
    rng = random.Random(args.seed)

    def order():
        procs = list(WORKLOADS[args.workload])
        rng.shuffle(procs)
        return procs

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds:g} "
          f"python={sys.version.split()[0]} nproc={os.cpu_count()}")
    # compile the package's bytecode before anything is timed
    runner.iteration(order()[:1], "--setup-only")

    iterations = []
    if args.trace:
        iterations.append(runner.iteration(order()))
        iterations.append(runner.iteration(order(), "--trace"))
        base, traced = iterations
        print(f"  untraced wall {base.raw_wall_s:.4f} s, traced wall "
              f"{traced.raw_wall_s:.4f} s (scaled to reference speed: "
              f"{base.wall_s:.4f} s and {traced.wall_s:.4f} s)")
        merged = tracer.merge(traced.traces)
        values = tracer.layer_metrics(merged, traced.wall_s - base.wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in tracer.per_layer_spec()}
        for key, size in sorted(merged["memos"].items()):
            if key not in tracer.MEMOS:
                print(f"  undeclared memo {key} size {size}")
    else:
        deadline = _now() + args.seconds
        setups = []
        while len(setups) < SETUP_SAMPLES:
            it = runner.iteration(order(), "--setup-only")
            iterations.append(it)
            setups.append(it)
            if not it.complete:
                break
        walls = []
        while True:
            it = runner.iteration(order())
            iterations.append(it)
            walls.append(it)
            setups.append(it)
            if not it.complete or _now() + it.elapsed_s > deadline:
                break
        values = {"wall_s": statistics.median(it.wall_s for it in walls),
                  "setup_s": statistics.median(it.setup_s for it in setups),
                  "peak_rss_mb": max(it.rss_mb for it in iterations)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        speeds = [v for it in iterations for v in it.speeds]
        print(f"  host speed per child: median {statistics.median(speeds):.4g}"
              f", range {min(speeds):.4g} to {max(speeds):.4g} (1 = the "
              f"reference, where the probe takes {PROBE_REF_S} s)")
        for name, its in (("wall_s", walls), ("setup_s", setups)):
            raw = [getattr(it, "raw_" + name) for it in its]
            scaled = [getattr(it, name) for it in its]
            print(f"  {name} per sample {_fmt(scaled)} ({len(its)} "
                  f"samples); as measured {_fmt(raw)}, "
                  f"median {statistics.median(raw):.6g} s")
    return iterations, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = _now()
    # let finally blocks kill and reap a running child on SIGTERM
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qpbcalc", "__init__.py")):
        print("perfbench: no src/qpbcalc here; run from the root of a "
              "qpbcalc checkout", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    prober = Prober()
    try:
        runner = Runner(src, child_env(args.seed), expected,
                        start + RUN_LIMIT_S, prober)
        iterations, metrics = measure(args, runner)
    finally:
        prober.close()

    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    correct = (failed == 0 and attempted > 0
               and all(it.complete for it in iterations))
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'verdict_mismatch_rate':40s} "
          f"{failed / max(attempted, 1):>14.6g} ratio "
          f"({failed} of {attempted} reports)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
