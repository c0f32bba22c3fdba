#!/usr/bin/env python3
"""Repository benchmark: sledged end to end, and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run builds sledged and the
benchmark's own load generator (perfbench/pbench.cpp) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs reuse
that build.

Each run starts sledged as a child process (2 workers, 1 listener shard,
every other key at its default, port 0), drives one workload from a single
client thread over at most 4 keep-alive connections, checks every response
body, reconciles the client's status counts with the server's /admin/stats
counters, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics: direct timings of each layer's public functions (pbench layers),
the server's phase histograms and counters, kernel counters of the server
process from /proc, and the traced-minus-untraced difference of every
end-to-end metric (both windows run in the same invocation, each on its own
server). perfbench/README.md lists what each metric measures.
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
APPS = ["ekf", "gocr", "cifar10", "resize", "lpd"]
ALL_MODULES = ["ping"] + APPS + ["spin"]
SETUPS = 5  # server start-ups per run; setup_s is their median
POST_SCRAPES = 15  # back-to-back GET /admin/stats after the window
SERVER_KEYS = {"port": 0, "workers": 2, "num_listeners": 1}

# Connection groups: (name, connections, arrivals per second (0 = closed
# loop), module mix weights). The first group is the latency class.
WORKLOADS = {
    "ping_open": {
        "groups": [("ping", 3, 2000.0, {"ping": 1})],
        "scrape_period_s": 1.0,
        "long": "ping",
    },
    "apps_closed": {
        "groups": [("apps", 4, 0.0, {a: 1 for a in APPS})],
        "scrape_period_s": 0.0,
        "long": "lpd",
    },
    "mixed_preempt": {
        "groups": [("short", 2, 300.0, {"ping": 4, "ekf": 1}),
                   ("long", 2, 20.0, {"spin": 1})],
        "scrape_period_s": 0.0,
        "long": "spin",
    },
}

# Metric name -> unit. BENCHMARK.json lists the same; selftest.py checks
# that each run reports exactly these.
END_TO_END = {
    "setup_s": "s", "throughput_rps": "1/s", "cpu_us_per_req": "us",
    "rss_mb": "MiB",
}
# End-to-end figures that moved too much with the shared host's load to be
# bounded (see README.md): reported with the per-layer metrics, under these
# names.
UNBOUNDED = {"latency_p50_ms": "client.latency_p50_ms",
             "long_p50_ms": "client.long_p50_ms",
             "latency_p99_ms": "client.latency_p99_ms",
             "scrape_p50_ms": "stats.scrape_p50_ms"}
PER_LAYER = {
    "http.parse_us": "us", "http.serialize_us": "us",
    "listener.accepted": "count",
    "ledger.outside_p50_us": "us", "ledger.outside_p99_us": "us",
    "admission.check_ns": "ns", "admission.shed": "count",
    "admission.shed_deadline": "count",
    "dispatcher.push_fetch_ns": "ns", "dispatcher.queue_wait_p50_us": "us",
    "dispatcher.queue_wait_p99_us": "us", "dispatcher.steals_per_req": "count",
    "sandbox.create_us.cold": "us", "sandbox.create_us.pooled": "us",
    "sandbox.create_us.snapshot": "us", "sandbox.startup_p50_us": "us",
    "resource_pool.hit_rate": "ratio", "proc.minflt_per_req": "count",
    "worker.run_inline_us.ping": "us", "worker.dispatches_per_req": "count",
    "worker.preemptions_per_req": "count",
    "worker.response_write_p50_us": "us", "proc.vcsw_per_req": "count",
    "proc.nvcsw_per_req": "count", "engine.exec_cpu_p50_us": "us",
    "stats.rss_b_per_req": "B", "stats.json_bytes": "B",
    "host.steal_share": "ratio", "client.late_p99_us": "us",
}
PER_LAYER.update({layer_name: "ms" for layer_name in UNBOUNDED.values()})
PER_LAYER.update({"engine.exec_us." + m: "us" for m in APPS + ["spin"]})
PER_LAYER.update({"trace_overhead." + n: u for n, u in END_TO_END.items()})
PER_LAYER.update({"trace_overhead." + n: "ms" for n in UNBOUNDED})


class BenchError(Exception):
    """A named failure: printed to stderr, and the run exits non-zero."""


def source_path(module):
    if module == "spin":
        return os.path.join(HERE, "spin.mc")
    return os.path.join(ROOT, "src", "apps", "wasm_src", module + ".mc")


def workload_modules(wl):
    names = []
    for _, _, _, mix in wl["groups"]:
        names += [m for m in mix if m not in names]
    return names


def mix_weights(wl):
    """Share of requests per module (closed loops: equal per connection)."""
    weights = {}
    for _, conns, rate, mix in wl["groups"]:
        group_weight = rate if rate > 0 else float(conns)
        total = sum(mix.values())
        for m, w in mix.items():
            weights[m] = weights.get(m, 0.0) + group_weight * w / total
    return weights


# ---------------------------------------------------------------- build


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(target), "perfbench")


def build():
    """Builds sledged and pbench; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("repository sources missing: run from the root of a "
                         "sledge checkout (src/CMakeLists.txt not found)")
    for tool in ("cmake", "cc"):
        if shutil.which(tool) is None:
            raise BenchError(tool + " not found on PATH")
    out = build_dir()
    # Compilers, including the AoT tier's, keep their temporary files inside
    # the build tree rather than the system's temporary directory.
    tmp = os.path.join(os.path.dirname(out), "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            rc = subprocess.call(["cmake", "-S", HERE, "-B", out,
                                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                                 stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                raise BenchError("cmake configure failed, see " + log_path)
        rc = subprocess.call(["cmake", "--build", out, "--target", "sledged",
                              "pbench", "-j", "4"],
                             stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        raise BenchError("build failed, see " + log_path)
    sledged = os.path.join(out, "sledge", "sledge", "sledged")
    pbench = os.path.join(out, "pbench")
    for path in (sledged, pbench):
        if not os.access(path, os.X_OK):
            raise BenchError("built binary missing: " + path)
    return sledged, pbench


# ---------------------------------------------------------------- /proc


def proc_counters(pid):
    """utime+stime (s), minor faults, VmRSS (bytes), context switches."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    tick = os.sysconf("SC_CLK_TCK")
    out = {"cpu_s": (int(fields[11]) + int(fields[12])) / tick,
           "minflt": int(fields[7]), "vcsw": 0, "nvcsw": 0, "rss_b": 0}
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmRSS:"):
                out["rss_b"] = int(line.split()[1]) * 1024
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "status")) as f:
                for line in f:
                    if line.startswith("voluntary_ctxt_switches:"):
                        out["vcsw"] += int(line.split()[1])
                    elif line.startswith("nonvoluntary_ctxt_switches:"):
                        out["nvcsw"] += int(line.split()[1])
        except FileNotFoundError:
            pass  # thread exited between listdir and open
    return out


def host_cpu():
    """(steal ticks, all ticks) from the aggregate line of /proc/stat."""
    with open("/proc/stat") as f:
        vals = [int(v) for v in f.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]: the
    # guest times are already inside user/nice.
    return vals[7], sum(vals[:8])


def steal_share(before, after):
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


# ---------------------------------------------------------------- server


def http_call(port, method, path, body=b"", timeout=30.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class Server:
    """One sledged child process serving the workload's modules."""

    def __init__(self, sledged, run_dir, index, modules):
        self.run_dir = run_dir
        self.modules = modules
        self.config = os.path.join(run_dir, "sledged.json")
        with open(self.config, "w") as f:
            json.dump(dict(SERVER_KEYS, modules=[
                {"name": m, "minicc": source_path(m)} for m in modules]), f)
        self.log_path = os.path.join(run_dir, "sledged.%d.log" % index)
        self.sledged = sledged
        self.proc = None
        self.port = 0

    def start(self, requests, expected, timeout=60.0):
        """Spawns sledged; returns seconds until every module answered 200."""
        for m in self.modules:
            if not os.path.isfile(source_path(m)):
                raise BenchError("module source missing: " + source_path(m))
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen([self.sledged, self.config],
                                         stdout=log, stderr=subprocess.STDOUT)
        while not self.port:
            if self.proc.poll() is not None:
                raise BenchError("sledged exited during set-up: " + self.log())
            if time.perf_counter() - t0 > timeout:
                raise BenchError("sledged did not print its 'sledged on' line")
            for line in self.log().splitlines():
                if line.startswith("sledged on 127.0.0.1:"):
                    self.port = int(line.split(":")[1].split()[0])
            time.sleep(0.002)
        for m in self.modules:
            status, body = http_call(self.port, "POST", "/" + m, requests[m])
            if status != 200 or body != expected[m]:
                raise BenchError("module %s answered %d (%d bytes) during "
                                 "set-up" % (m, status, len(body)))
        return time.perf_counter() - t0

    def log(self):
        with open(self.log_path, errors="replace") as f:
            return f.read()

    def stats(self):
        status, body = http_call(self.port, "GET", "/admin/stats")
        if status != 200:
            raise BenchError("GET /admin/stats answered %d" % status)
        return json.loads(body), len(body)

    def quiesced_stats(self):
        """Stats once every admitted request has been retired."""
        for _ in range(200):
            stats, size = self.stats()
            if stats["inflight"] == 0:
                return stats, size
            time.sleep(0.01)
        raise BenchError("server still has requests in flight after the run")

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ---------------------------------------------------------------- window


def module_deltas(s0, s1, module):
    a, b = s0["modules"][module], s1["modules"][module]
    return {k: b[k] - a[k]
            for k in ("requests", "failures", "kills", "shed", "shed_deadline")}


def reconcile(client, s0, s1):
    """Mismatches between client status counts and server counter deltas."""
    problems = []
    completed = 0
    for m, c in client["modules"].items():
        d = module_deltas(s0, s1, m)
        st = {int(k): v for k, v in c["status"].items()}
        expect = {
            "requests": st.get(200, 0) + st.get(500, 0) + st.get(504, 0)
            - d["shed_deadline"],
            "failures": st.get(500, 0),
            "kills": st.get(504, 0) - d["shed_deadline"],
            "shed": st.get(503, 0),
        }
        for key, want in expect.items():
            if d[key] != want:
                problems.append("%s: server %s delta %d, client implies %d"
                                % (m, key, d[key], want))
        if st.get(0, 0):
            problems.append("%s: %d requests got no response" % (m, st[0]))
        completed += st.get(200, 0)
    done = s1["totals"]["completed"] - s0["totals"]["completed"]
    if done != completed:
        problems.append("server completed delta %d, client saw %d 200s"
                        % (done, completed))
    return problems


def run_window(srv, pbench, wl, args, data_dir, traced):
    """Drives one measured window against a started server."""
    plan = {
        "port": srv.port, "seconds": args.seconds, "seed": args.seed,
        "data": data_dir, "scrape_period_s": wl["scrape_period_s"],
        "spans": os.path.join(srv.run_dir, "spans.csv") if traced else "",
        "groups": [{"name": n, "conns": c, "rate": r, "mix": mix}
                   for n, c, r, mix in wl["groups"]],
    }
    plan_path = os.path.join(srv.run_dir, "plan.json")
    with open(plan_path, "w") as f:
        json.dump(plan, f)
    s0, _ = srv.quiesced_stats()
    p0, h0 = proc_counters(srv.proc.pid), host_cpu()
    res = subprocess.run([pbench, "drive", plan_path], capture_output=True,
                         text=True, timeout=args.seconds + 60)
    if res.returncode != 0:
        raise BenchError("load generator failed: " + res.stderr.strip())
    client = json.loads(res.stdout.strip().splitlines()[-1])
    p1, h1 = proc_counters(srv.proc.pid), host_cpu()
    s1, s1_size = srv.quiesced_stats()
    problems = reconcile(client, s0, s1)
    res = subprocess.run([pbench, "scrape", str(srv.port), data_dir,
                          str(POST_SCRAPES)] + workload_modules(wl),
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise BenchError("stats read after the window failed: " + res.stderr.strip())
    scrape = json.loads(res.stdout.strip().splitlines()[-1])
    if scrape["wrong"]:
        problems.append("%d wrong responses to the requests between the "
                        "stats reads after the window" % scrape["wrong"])
    groups = list(client["groups"].values())
    primary = groups[0]
    ok = sum(g["ok"] for g in groups)
    # Every request of the run: traffic, in-window scrapes, and the checked
    # requests and reads after the window.
    attempted = (sum(g["attempted"] for g in groups)
                 + client["scrape"]["attempted"] + scrape["requests"]
                 + POST_SCRAPES)
    failed = (attempted - ok - client["scrape"]["ok"] - scrape["requests"]
              - POST_SCRAPES + scrape["wrong"])
    for name, c in list(client["modules"].items()) + [("admin_stats", client["scrape"])]:
        if c["bad_body"]:
            problems.append("%s: %d responses with a wrong body" % (name, c["bad_body"]))
    e2e = {
        "throughput_rps": sum(g["seg_rps"] for g in groups),
        "latency_p50_ms": primary["seg_p50_ms"],
        "latency_p99_ms": primary["lat_p99_ms"],
        "long_p50_ms": client["modules"][wl["long"]]["seg_p50_ms"],
        "cpu_us_per_req": (p1["cpu_s"] - p0["cpu_s"]) * 1e6 / max(ok, 1),
        "rss_mb": p1["rss_b"] / (1 << 20),
        "scrape_p50_ms": scrape["p50_ms"],
    }
    return {
        "e2e": e2e, "client": client, "s0": s0, "s1": s1, "s1_size": s1_size,
        "p0": p0, "p1": p1, "ok": ok, "attempted": attempted, "failed": failed,
        "problems": problems,
        "error_rate": failed / max(attempted, 1),
        "host_steal_share": steal_share(h0, h1),
        "late_p99_us": client["late_p99_us"],
    }


# ---------------------------------------------------------------- layers


def weighted_hist(stats, weights, hist, field):
    """Request-weighted mean of one percentile field across modules (us)."""
    total = sum(weights.values())
    return sum(w / total * stats["modules"][m][hist][field]
               for m, w in weights.items()) / 1e3


def layer_metrics(win, base, wl, layers, setup_traced, setup_untraced):
    s0, s1, p0, p1 = win["s0"], win["s1"], win["p0"], win["p1"]
    client = win["client"]
    weights = mix_weights(wl)
    reqs = max(win["ok"], 1)
    t0, t1 = s0["totals"], s1["totals"]
    delta = {k: t1[k] - t0[k] for k in t1}
    dispatches = (sum(w["dispatches"] for w in s1["workers"])
                  - sum(w["dispatches"] for w in s0["workers"]))

    def outside(q, field):
        # Client percentile minus the server's end_to_end percentile, per
        # module, request-weighted: time the server does not attribute yet.
        total = sum(weights.values())
        acc = 0.0
        for m, w in weights.items():
            server_us = s1["modules"][m]["end_to_end"][field] / 1e3
            acc += w / total * (client["modules"][m][q] * 1e3 - server_us)
        return acc

    pool = delta["pool_hits"] + delta["pool_misses"]
    m = dict(layers)
    m.update({
        "listener.accepted": delta["accepted"],
        "ledger.outside_p50_us": outside("lat_p50_ms", "p50_ns"),
        "ledger.outside_p99_us": outside("lat_p99_ms", "p99_ns"),
        "admission.shed": delta["shed"],
        "admission.shed_deadline": delta["shed_deadline"],
        "dispatcher.queue_wait_p50_us": weighted_hist(s1, weights, "queue_wait", "p50_ns"),
        "dispatcher.queue_wait_p99_us": weighted_hist(s1, weights, "queue_wait", "p99_ns"),
        "dispatcher.steals_per_req": delta["steals"] / reqs,
        "sandbox.startup_p50_us": weighted_hist(s1, weights, "startup", "p50_ns"),
        "resource_pool.hit_rate": delta["pool_hits"] / pool if pool else 0.0,
        "proc.minflt_per_req": (p1["minflt"] - p0["minflt"]) / reqs,
        "worker.dispatches_per_req": dispatches / reqs,
        "worker.preemptions_per_req": delta["preemptions"] / reqs,
        "worker.response_write_p50_us": weighted_hist(s1, weights, "response_write", "p50_ns"),
        "proc.vcsw_per_req": (p1["vcsw"] - p0["vcsw"]) / reqs,
        "proc.nvcsw_per_req": (p1["nvcsw"] - p0["nvcsw"]) / reqs,
        "engine.exec_cpu_p50_us": weighted_hist(s1, weights, "exec_cpu", "p50_ns"),
        "stats.rss_b_per_req": (p1["rss_b"] - p0["rss_b"]) / reqs,
        "stats.json_bytes": win["s1_size"],
        "host.steal_share": win["host_steal_share"],
        "client.late_p99_us": win["late_p99_us"],
    })
    m.update({layer_name: win["e2e"][n] for n, layer_name in UNBOUNDED.items()})
    traced = dict(win["e2e"], setup_s=setup_traced)
    untraced = dict(base["e2e"], setup_s=setup_untraced)
    for name in untraced:
        m["trace_overhead." + name] = traced[name] - untraced[name]
    return m


# ---------------------------------------------------------------- main


def prepare(pbench, data_dir, modules, corrupt):
    os.makedirs(data_dir, exist_ok=True)
    res = subprocess.run([pbench, "prepare", data_dir] +
                         ["%s=%s" % (m, source_path(m)) for m in modules],
                         capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        raise BenchError("computing expected outputs failed: " + res.stderr.strip())
    requests, expected = {}, {}
    for m in modules:
        with open(os.path.join(data_dir, m + ".req"), "rb") as f:
            requests[m] = f.read()
        with open(os.path.join(data_dir, m + ".resp"), "rb") as f:
            expected[m] = f.read()
    if corrupt:
        # Self-test hook: flip a byte of the expected body the load generator
        # checks against (set-up still checks the true body), so the run must
        # report the module's responses as wrong.
        body = bytearray(expected[corrupt])
        body[0] ^= 0xFF
        with open(os.path.join(data_dir, corrupt + ".resp"), "wb") as f:
            f.write(bytes(body))
    return requests, expected


def run(args):
    wl = WORKLOADS[args.workload]
    sledged, pbench = build()
    run_dir = os.path.join(os.path.dirname(build_dir()), "runs",
                           "%s-%d-%d" % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    data_dir = os.path.join(run_dir, "data")
    modules = workload_modules(wl)
    if args.corrupt_expected and args.corrupt_expected not in modules:
        raise BenchError("--corrupt-expected names a module the workload "
                         "does not serve")
    requests, expected = prepare(
        pbench, data_dir, ALL_MODULES if args.trace else modules,
        args.corrupt_expected)

    # SETUPS fresh servers; the last one (untraced) or the last two
    # (untraced, then traced) serve measured windows.
    setups, windows = [], []
    for i in range(SETUPS):
        srv = Server(sledged, run_dir, i, modules)
        try:
            setups.append(srv.start(requests, expected))
            if i == SETUPS - 1 or (args.trace and i == SETUPS - 2):
                windows.append(run_window(srv, pbench, wl, args, data_dir,
                                          traced=len(windows) == 1))
        finally:
            srv.stop()
    base = windows[0]
    # In a traced run the last start-up served the traced window, so it is
    # compared with the median of the others.
    untraced_setups = setups[:-1] if args.trace else setups
    metrics = {"setup_s": statistics.median(untraced_setups)}
    metrics.update(base["e2e"])
    report = {"e2e": metrics, "error_rate": base["error_rate"],
              "client": base["client"],
              "host.steal_share": base["host_steal_share"],
              "client.late_p99_us": base["late_p99_us"],
              "setups_s": setups, "problems": base["problems"]}
    result = base
    if args.trace:
        traced = windows[1]
        res = subprocess.run(
            [pbench, "layers", data_dir] +
            ["%s=%s" % (m, source_path(m)) for m in ALL_MODULES] + ["--"] +
            ["%s=%g" % (m, w) for m, w in mix_weights(wl).items()],
            capture_output=True, text=True, timeout=170)
        if res.returncode != 0:
            raise BenchError("layer probe failed: " + res.stderr.strip())
        layers = json.loads(res.stdout.strip().splitlines()[-1])
        metrics = layer_metrics(traced, base, wl, layers, setups[-1],
                                metrics["setup_s"])
        report["problems"] = base["problems"] + traced["problems"]
        report["traced_e2e"] = dict(traced["e2e"], setup_s=setups[-1])
        result = {"attempted": base["attempted"] + traced["attempted"],
                  "failed": base["failed"] + traced["failed"]}
    units = PER_LAYER if args.trace else END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(sorted(missing)))

    with open(os.path.join(run_dir, "report.json"), "w") as f:
        json.dump(dict(report, metrics=metrics), f, indent=1, sort_keys=True)
    for name in sorted(units):
        print("%-34s %14.4f %s" % (name, metrics[name], units[name]))
    if not args.trace:
        for name in UNBOUNDED:
            print("%-34s %14.4f ms" % (name, report["e2e"][name]))
    print("%-34s %14.6f ratio" % ("error_rate", report["error_rate"]))
    print("%-34s %14.4f ratio" % ("host.steal_share", report["host.steal_share"]))
    print("%-34s %14.1f us" % ("client.late_p99_us", report["client.late_p99_us"]))
    if args.trace:
        print("%-34s %14s %14s %14s" % ("end-to-end", "untraced", "traced",
                                         "overhead"))
        for name, value in sorted(report["e2e"].items()):
            t = report["traced_e2e"][name]
            print("%-34s %14.4f %14.4f %14.4f" % (name, value, t, t - value))
    for p in report["problems"]:
        print("CHECK FAILED: " + p)
    correct = not report["problems"] and result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0 if correct else 1


def on_sigterm(signum, frame):
    raise BenchError("terminated by signal %d" % signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", metavar="MODULE", default="",
                    help="self-test: flip a byte of MODULE's expected body")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    os.chdir(ROOT)
    # A terminated run still stops and reaps its servers and tools: the
    # exception unwinds through every Server.stop() and subprocess.run().
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        sys.exit(run(args))
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(2)
    except subprocess.TimeoutExpired as e:
        print("perfbench: timed out: " + " ".join(e.cmd), file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
