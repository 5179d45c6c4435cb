"""The three workloads. Each returns (end-to-end metrics, per-layer
metrics, Tally); which set is printed depends on --trace.

Untraced runs measure the end-to-end metrics with every telemetry output
off. Traced runs alternate traced and untraced requests, so the tracing
overhead is measured within one run, and derive the per-layer numbers
from the traced ones: span self time (spans.py), counters, and outside
A/B timings of public entry points.
"""

import collections
import json
import os
import random
import sys
import threading
import time

import gen_core
import gen_minic
import spans
from harness import (RUN, BenchError, Daemon, median, percentile, run_cli,
                     stats_phases, tool, write)

SETUP_REPEATS = 5     # setup_s is the median of this many full setups
REQUEST_LIMIT_S = 60  # a request without an answer by then has failed


class Tally:
    """Requests attempted and failed, with the reasons for failures."""

    def __init__(self):
        self.attempted, self.failed = 0, 0
        self.reasons = collections.Counter()
        self.lock = threading.Lock()

    def check(self, reason):
        """Counts one request; `reason` is None when it was answered
        correctly."""
        with self.lock:
            self.attempted += 1
            if reason:
                self.failed += 1
                self.reasons[reason] += 1
        return reason is None


def end_to_end(setups, latencies, elapsed_s, cpu_ms, rss_kb):
    if len(latencies) < 20:
        raise BenchError(f"only {len(latencies)} requests completed")
    p90, beyond = percentile(latencies, 90)
    return {
        "setup_s": median(setups),
        "throughput_rps": len(latencies) / elapsed_s,
        "latency_p50_ms": median(latencies),
        "latency_p90_ms": p90,
        "cpu_ms_per_req": cpu_ms / len(latencies),
        "peak_rss_mb": rss_kb / 1024,
    }, {"samples": len(latencies), "beyond_p90": beyond}


# ---------------------------------------------------------------------------
# Answer checks against the planted verdicts.


def mixy_warnings(diags):
    """Nonnull positions named by MIX401 warnings, from `diags` as the
    JSON payload or the structured response list renders them."""
    out = []
    for d in diags:
        if d.get("id") == "MIX401":
            parts = d["message"].split("'")
            out.append(parts[1] if len(parts) > 2 else d["message"])
    return out


def check_mixy(code, diags, expected):
    if code not in (0, 1):
        return f"exit {code}"
    got = mixy_warnings(diags)
    if len(got) != len(set(got)) or set(got) != expected:
        return "warning set differs from the planted answer"
    if code != (1 if expected else 0):
        return "exit code disagrees with the warnings"
    if any(d.get("severity") == "error" for d in diags):
        return "unexpected error diagnostic"
    return None


def check_sarif(payload, expected):
    results = json.loads(payload)["runs"][0]["results"]
    got = [r["message"]["text"].split("'")[1] for r in results
           if r.get("ruleId") == "MIX401"]
    if len(got) != len(results) or set(got) != expected or \
            len(got) != len(set(got)):
        return "SARIF results differ from the planted answer"
    return None


def check_core(code, diags, prog):
    errors = [(d["line"], d["column"]) for d in diags
              if d.get("severity") == "error"]
    if prog.accepted:
        return None if code == 0 and not errors else \
            "planted-accept program was rejected"
    if code == 1 and errors == [prog.error_at]:
        return None
    return "planted rejection not reported at its branch"


# ---------------------------------------------------------------------------
# Per-layer metrics shared by every workload. A layer a workload does not
# exercise reads 0.

COUNTERS = ("engine.fixpoint.rounds", "engine.worklist.reruns",
            "mixy.sym_block_runs", "mixy.typed_block_runs",
            "mixy.sym_cache_hits", "mixy.typed_cache_hits", "exec.paths",
            "exec.branches.concrete", "exec.terms.built",
            "exec.fallback.ast", "ir.lower.misses", "solver.queries",
            "solver.sat", "solver.unsat", "solver.unknown",
            "solver.inc.cached", "solver.inc.queries",
            "solver.inc.unsat_prefix", "solver.inc.fallbacks",
            "mix.sym_blocks_checked", "mix.paths_explored",
            "mix.paths_infeasible", "mix.exhaustiveness_checks", "sym.forks",
            "persist.funcs.total", "persist.funcs.dirty",
            "persist.block.hits", "persist.block.misses",
            "persist.solver.hits", "persist.solver.misses")


class Traced:
    """One traced, executed request: its layer self times and counters."""

    def __init__(self, events, phases, total_us, counters, source_bytes,
                 payload_bytes):
        self.self_us, covered = spans.self_times(events,
                                                 phases.get("solver", 0))
        self.total_us = max(total_us, 1)
        self.residual_us = total_us - covered
        self.counters = {k: counters.get(k, 0) for k in COUNTERS}
        self.source_bytes, self.payload_bytes = source_bytes, payload_bytes


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(records, counted, core):
    """Per-layer metrics from traced requests: self times are medians over
    `records`, counters are means over `counted` (the records whose inputs
    a seed fixes, so the counters repeat exactly)."""
    def self_ms(layer):
        return median([r.self_us[layer] / 1000 for r in records])

    def self_frac(*layers):
        return median([sum(r.self_us[l] for l in layers) / r.total_us
                       for r in records])

    c = {k: sum(r.counters[k] for r in counted) / len(counted)
         for k in COUNTERS}
    def mean_kb(attr):
        return sum(getattr(r, attr) for r in counted) / len(counted) / 1024

    parse = self_ms("parse")
    return {
        "cfront.parse_self_ms": 0.0 if core else parse,
        "cfront.source_kb": 0.0 if core else mean_kb("source_bytes"),
        "lang.parse_self_ms": parse if core else 0.0,
        "qual.typecheck_self_ms": 0.0 if core else self_ms("typecheck"),
        "qual.typecheck_self_frac": 0.0 if core else self_frac("typecheck"),
        "core.typecheck_self_ms": self_ms("typecheck") if core else 0.0,
        "engine.fixpoint_self_ms": self_ms("fixpoint"),
        "engine.fixpoint_rounds": c["engine.fixpoint.rounds"],
        "engine.worklist_reruns": c["engine.worklist.reruns"],
        "mixy.sym_block_runs": c["mixy.sym_block_runs"],
        "mixy.typed_block_runs": c["mixy.typed_block_runs"],
        "mixy.block_cache_hit_ratio": ratio(
            c["mixy.sym_cache_hits"] + c["mixy.typed_cache_hits"],
            c["mixy.sym_cache_hits"] + c["mixy.typed_cache_hits"] +
            c["mixy.sym_block_runs"] + c["mixy.typed_block_runs"]),
        "exec.block_self_ms": self_ms("exec"),
        "exec.block_self_frac": self_frac("exec"),
        "exec.paths": c["exec.paths"],
        "exec.branches.concrete": c["exec.branches.concrete"],
        "exec.terms.built": c["exec.terms.built"],
        "exec.fallback.ast": c["exec.fallback.ast"],
        "ir.lower.misses": c["ir.lower.misses"],
        "ir.lower_self_ms": self_ms("ir"),
        "solver.self_ms": self_ms("solver"),
        "solver.self_frac": self_frac("solver"),
        "solver.queries": c["solver.queries"],
        "solver.us_per_query": ratio(
            sum(r.self_us["solver"] for r in records),
            sum(r.counters["solver.queries"] for r in records)),
        "solver.sat": c["solver.sat"],
        "solver.unsat": c["solver.unsat"],
        "solver.unknown": c["solver.unknown"],
        "solver.inc.cached_ratio": ratio(
            c["solver.inc.cached"],
            c["solver.inc.cached"] + c["solver.inc.queries"]),
        "solver.inc.unsat_prefix": c["solver.inc.unsat_prefix"],
        "solver.inc.fallbacks": c["solver.inc.fallbacks"],
        "render.self_ms": self_ms("render"),
        "render.payload_kb": mean_kb("payload_bytes"),
        "mix.sym_blocks_checked": c["mix.sym_blocks_checked"],
        "mix.paths_explored": c["mix.paths_explored"],
        "mix.feasible_path_ratio": ratio(
            c["mix.paths_explored"] - c["mix.paths_infeasible"],
            c["mix.paths_explored"]),
        "mix.exhaustiveness_checks": c["mix.exhaustiveness_checks"],
        "sym.forks": c["sym.forks"],
        "persist.funcs.total": c["persist.funcs.total"],
        "persist.dirty_ratio": ratio(c["persist.funcs.dirty"],
                                     c["persist.funcs.total"]),
        "persist.block_hit_ratio": ratio(
            c["persist.block.hits"],
            c["persist.block.hits"] + c["persist.block.misses"]),
        "persist.solver_hit_ratio": ratio(
            c["persist.solver.hits"],
            c["persist.solver.hits"] + c["persist.solver.misses"]),
        "request.total_ms": median([r.total_us / 1000 for r in records]),
        "observe.span_residual_frac": median(
            [r.residual_us / r.total_us for r in records]),
    }


def zero_layers():
    """Layers only some workloads reach; the others report 0."""
    return dict.fromkeys((
        "qual.baseline_ms", "qual.variables", "qual.flow_edges",
        "persist.overhead_ms", "mixy.sym_block_runs_spread",
        "service.cache_hit_ratio", "service.dedup_hits", "service.queue_ms",
        "service.read_ms", "service.busy_rejects"), 0.0)


def overhead_frac(traced_ms, plain_ms):
    return median(traced_ms) / median(plain_ms) - 1 if plain_ms else 0.0


def read_json(path):
    with open(path) as f:
        return json.load(f)


def baseline_ab(path, tally, repeats):
    """`mixyc --baseline` (parse + points-to + qualifier inference only)
    on one input: median total us and the qualifier graph size."""
    metrics_path = os.path.join(RUN, "baseline-metrics.json")
    totals, counters = [], {}
    for _ in range(repeats):
        r = run_cli([tool("mixyc"), "--baseline", "--format=json", "--stats",
                     f"--metrics={metrics_path}", path], REQUEST_LIMIT_S)
        tally.check(None if r.code in (0, 1) else f"baseline exit {r.code}")
        totals.append(stats_phases(r.stderr)[1])
        counters = read_json(metrics_path)["counters"]
    return (median(totals) / 1000, counters.get("qual.variables", 0),
            counters.get("qual.flow_edges", 0))


# ---------------------------------------------------------------------------
# Closed-loop CLI workloads: one fresh process per request.


class CliCase:
    def __init__(self, path, argv, check, source_bytes):
        self.path, self.argv, self.check = path, argv, check
        self.source_bytes = source_bytes


def symbolic_pool(seed):
    cases = []
    for i in range(4):
        prog = gen_minic.symbolic_program(seed * 100 + i)
        path = os.path.join(RUN, f"symbolic{i}.c")
        src = prog.source()
        write(path, src)
        expected = prog.expected()
        cases.append(CliCase(
            path, [tool("mixyc"), "--format=json", path],
            lambda code, diags, e=expected: check_mixy(code, diags, e),
            len(src)))
    return cases


def core_pool(seed):
    cases = []
    for i in range(8):
        # Half the pool plants a rejection, so every seed mixes the two.
        prog = gen_core.program(seed * 100 + i, blocks=300,
                                reject=i % 2 == 1)
        path = os.path.join(RUN, f"core{i}.mix")
        write(path, prog.source)
        argv = [tool("mixcheck"), "--format=json"]
        for v in prog.variables:
            argv += ["--var", f"{v}:int"]
        cases.append(CliCase(
            path, argv + [path],
            lambda code, diags, p=prog: check_core(code, diags, p),
            len(prog.source)))
    return cases


def run_case(case, argv, tally):
    r = run_cli(argv, REQUEST_LIMIT_S)
    if r.code is None:
        tally.check("no answer within the time limit")
        return r, False
    try:
        diags = json.loads(r.stdout)
    except ValueError:
        tally.check(f"exit {r.code} without a JSON document")
        return r, False
    return r, tally.check(case.check(r.code, diags))


def cli_workload(make_pool, core, seed, seconds, trace):
    tally = Tally()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        pool = make_pool(seed)
        for case in pool:  # priming: the cold first analysis of each input
            run_case(case, case.argv, tally)
        setups.append(time.perf_counter() - t0)

    trace_path = os.path.join(RUN, "trace.json")
    metrics_path = os.path.join(RUN, "metrics.json")
    latencies, plain_ms, traced_ms, records = [], [], [], []
    first_pass, block_runs = [], collections.defaultdict(set)
    cpu_ms, rss_kb, i = 0.0, 0, 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        case = pool[i % len(pool)]
        # Traced runs alternate whole passes over the pool, traced first,
        # so both halves see the same inputs.
        traced = trace and (i // len(pool)) % 2 == 0
        argv = case.argv
        if traced:
            argv = argv[:-1] + ["--stats", f"--trace={trace_path}",
                                f"--metrics={metrics_path}", case.path]
        r, ok = run_case(case, argv, tally)
        latencies.append(r.wall_ms)
        cpu_ms += r.cpu_ms
        rss_kb = max(rss_kb, r.rss_kb)
        (traced_ms if traced else plain_ms).append(r.wall_ms)
        if traced and ok:
            phases, total = stats_phases(r.stderr)
            rec = Traced(read_json(trace_path)["traceEvents"], phases, total,
                         read_json(metrics_path)["counters"],
                         case.source_bytes, len(r.stdout))
            records.append(rec)
            if i < len(pool):
                first_pass.append(rec)
            block_runs[i % len(pool)].add(rec.counters["mixy.sym_block_runs"])
        i += 1
    elapsed = time.perf_counter() - t_start
    e2e, info = end_to_end(setups, latencies, elapsed, cpu_ms, rss_kb)
    if not trace:
        return e2e, info, tally
    if len(first_pass) < len(pool):
        raise BenchError("the traced pass over the inputs did not complete")
    layers = zero_layers()
    layers.update(layer_metrics(records, first_pass, core))
    layers["mixy.sym_block_runs_spread"] = max(
        max(v) - min(v) for v in block_runs.values())
    if not core:
        per_input = [baseline_ab(c.path, tally, 1) for c in pool]
        layers["qual.baseline_ms"] = median([b[0] for b in per_input])
        layers["qual.variables"] = median([b[1] for b in per_input])
        layers["qual.flow_edges"] = median([b[2] for b in per_input])
    layers["observe.telemetry_overhead_frac"] = overhead_frac(traced_ms,
                                                              plain_ms)
    return layers, info, tally


def mixy_symbolic(seed, seconds, trace):
    return cli_workload(symbolic_pool, False, seed, seconds, trace)


def core_check(seed, seconds, trace):
    return cli_workload(core_pool, True, seed, seconds, trace)


# ---------------------------------------------------------------------------
# mixy-daemon-edit: one mixyd, two closed-loop clients editing their own
# files.

# Per cycle of ten requests and client: four reads, then writes and
# renders alternating over the other six slots (seeded order). A render
# therefore always follows a write, so it renders a version nobody has
# rendered yet. Shares: 40% reads, 30% renders, 30% writes, so by latency
# the class boundaries sit at 40% and 70% of requests, clear of the 50th
# and 90th percentiles. Both percentiles fall on executions: a cache-hit
# read takes about 0.5 ms on a shared 4-vCPU VM and doubles when the host
# is busy, which no bound could absorb, so the read path is reported per
# layer (service.read_ms) instead.
CYCLE_READS, CYCLE_SLOW = 4, 6
CLIENTS = 2


def schedule(rng):
    slow = 0
    while True:
        slots = ["read"] * CYCLE_READS + ["slow"] * CYCLE_SLOW
        rng.shuffle(slots)
        for s in slots:
            if s == "slow":
                s = "write" if slow % 2 == 0 else "render"
                slow += 1
            yield s


class EditClient:
    """One simulated IDE: owns one file and edits it."""

    def __init__(self, daemon, seed, idx):
        self.prog = gen_minic.typed_program(seed * 100 + idx)
        self.path = os.path.join(RUN, f"client{idx}.c")
        self.source = self.prog.source()
        self.expected = self.prog.expected()
        write(self.path, self.source)
        self.rng = random.Random(seed * 100 + idx)
        self.rpc = daemon.connect(REQUEST_LIMIT_S)
        self.trace = False  # the trace flag of the current version's key

    def analyze(self, sarif=False, raw=False, **extra):
        params = {"version": 1, "tool": "mixy", "path": self.path,
                  "format": "sarif" if sarif else "json"}
        if sarif:
            params["explain"] = True
        if self.trace:
            params["trace"] = True
        params.update(extra)
        return self.rpc.call("analyze", params, raw)

    def check(self, reply, sarif):
        return check_reply(reply, sarif, self.expected)

    def edit(self, raw=False):
        """Edits one function, saves the file and reports it changed."""
        self.prog.edit(self.rng)
        self.source = self.prog.source()
        self.expected = self.prog.expected()
        write(self.path, self.source)
        reply, _ = self.rpc.call("fileChanged", {"path": self.path}, raw)
        return reply


def check_reply(reply, sarif, expected):
    if "error" in reply:
        return f"protocol error {reply['error'].get('code')}"
    res = reply["result"]
    if sarif:
        if res["exit"] != (1 if expected else 0):
            return f"exit {res['exit']}"
        return check_sarif(res["payload"], expected)
    return check_mixy(res["exit"], res.get("diagnostics", []), expected)


class Sample:
    """One request of the measured window. Replies stay raw bytes until
    the window ends: decoding and checking one inside it would hold the
    interpreter lock while the other client's reply waits."""

    def __init__(self, cls, ms, rpc_ms, raw, changed_raw, expected, traced,
                 source_bytes):
        self.cls, self.ms, self.rpc_ms = cls, ms, rpc_ms
        self.raw, self.changed_raw = raw, changed_raw
        self.expected, self.traced = expected, traced
        self.source_bytes = source_bytes
        self.result, self.error = {}, None

    def decode_and_check(self, tally):
        if self.changed_raw is not None and \
                "error" in json.loads(self.changed_raw):
            tally.check("fileChanged failed")
            return
        reply = json.loads(self.raw)
        self.result = reply.get("result", {})
        self.error = reply.get("error")
        tally.check(check_reply(reply, self.cls == "render", self.expected))


def daemon_setup(seed, tally):
    daemon = Daemon(["--jobs=2"])
    try:
        clients = [EditClient(daemon, seed, i) for i in range(CLIENTS)]
        for c in clients:  # priming: the cold first analysis of each file
            for sarif in (False, True):
                reply, _ = c.analyze(sarif)
                tally.check(c.check(reply, sarif))
    except Exception:
        daemon.kill()
        raise
    return daemon, clients


def client_loop(client, deadline, trace, tally, samples, stop):
    writes = 0
    for cls in schedule(client.rng):
        if time.perf_counter() >= deadline or stop.is_set():
            return
        t0 = time.perf_counter()
        changed = None
        try:
            if cls == "write":
                # Traced runs alternate traced and untraced versions; the
                # reads and the render of a version share its trace flag
                # (it is part of the response-cache key).
                client.trace = trace and writes % 2 == 0
                writes += 1
                changed = client.edit(raw=True)
            raw, rpc_ms = client.analyze(sarif=cls == "render", raw=True)
        except OSError as e:
            tally.check(f"{cls}: {e or type(e).__name__}")
            stop.set()
            return
        ms = (time.perf_counter() - t0) * 1000
        samples.append(Sample(cls, ms, rpc_ms, raw, changed, client.expected,
                              client.trace, len(client.source)))


def daemon_edit(seed, seconds, trace):
    tally = Tally()
    setups = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        daemon, clients = daemon_setup(seed, tally)
        setups.append(time.perf_counter() - t0)
        if rep + 1 < SETUP_REPEATS:
            for c in clients:
                c.rpc.close()
            daemon.shutdown()
    try:
        return measure_daemon(daemon, clients, seed, seconds, trace, setups,
                              tally)
    finally:
        for c in clients:
            c.rpc.close()
        daemon.shutdown()


def measure_daemon(daemon, clients, seed, seconds, trace, setups, tally):
    samples, stop = [], threading.Event()
    # The two clients are threads of this process. A reply that arrives
    # while the other thread runs Python code (generating an edit) waits
    # for the interpreter lock, by default up to 5 ms: more than a whole
    # cache-hit read. A short switch interval bounds that wait.
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    cpu0 = daemon.cpu_ms()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    threads = [threading.Thread(target=client_loop,
                                args=(c, deadline, trace, tally, samples,
                                      stop)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t_start
    sys.setswitchinterval(switch)
    cpu_ms = daemon.cpu_ms() - cpu0
    if stop.is_set():
        raise BenchError("a client lost its connection to mixyd")
    for s in samples:
        s.decode_and_check(tally)
    e2e, info = end_to_end(setups, [s.ms for s in samples], elapsed, cpu_ms,
                           daemon.peak_rss_kb())
    by_class = collections.defaultdict(list)
    for s in samples:
        by_class[s.cls].append(s.ms)
    info["class_p50_ms"] = {k: round(median(v), 3)
                            for k, v in sorted(by_class.items())}
    if not trace:
        return e2e, info, tally
    return daemon_layers(clients[0], seed, samples, tally), info, tally


def daemon_traced(samples, cls):
    return [Traced(s.result.get("spans", []), s.result.get("phases", {}),
                   s.result["total_us"], s.result.get("metrics", {}),
                   s.source_bytes, len(s.result.get("payload", "")))
            for s in samples
            if s.cls == cls and s.traced and not s.error and
            s.result.get("total_us")]


def daemon_layers(client, seed, samples, tally):
    writes = daemon_traced(samples, "write")
    renders = daemon_traced(samples, "render")
    if not writes or not renders:
        raise BenchError("no traced writes or renders completed")
    layers = zero_layers()
    layers.update(layer_metrics(writes, writes, False))
    layers["render.self_ms"] = median(
        [r.self_us["render"] / 1000 for r in renders])
    layers["render.payload_kb"] = sum(
        r.payload_bytes for r in renders) / len(renders) / 1024

    analyzed = [s for s in samples if not s.error]
    executed = [s for s in analyzed if s.result.get("total_us")]
    layers["service.cache_hit_ratio"] = ratio(
        sum(1 for s in analyzed if s.result.get("from_cache")), len(analyzed))
    layers["service.dedup_hits"] = sum(1 for s in analyzed
                                       if s.result.get("deduped"))
    layers["service.queue_ms"] = median(
        [s.rpc_ms - s.result["total_us"] / 1000 for s in executed])
    layers["service.read_ms"] = median([s.ms for s in samples
                                        if s.cls == "read"])
    layers["service.busy_rejects"] = sum(
        1 for s in samples if s.error and s.error.get("code") == -32001)
    writes_ms = [(s.ms, s.traced) for s in samples if s.cls == "write"]
    layers["observe.telemetry_overhead_frac"] = overhead_frac(
        [ms for ms, traced in writes_ms if traced],
        [ms for ms, traced in writes_ms if not traced])

    # Outside A/B probes, one client, nothing else in flight.
    client.trace = False
    layers["persist.overhead_ms"] = persist_overhead(client, tally, 5)
    # The qualifier graph of the client's first version, which the seed
    # fixes; the current one depends on how many edits the window ran.
    base = os.path.join(RUN, "baseline.c")
    write(base, gen_minic.typed_program(seed * 100).source())
    (layers["qual.baseline_ms"], layers["qual.variables"],
     layers["qual.flow_edges"]) = baseline_ab(base, tally, 3)
    layers["mixy.sym_block_runs_spread"] = block_run_spread(client, tally, 4)
    return layers


def persist_overhead(client, tally, probes):
    """The same edit analysed with the daemon's warm persist session on
    (mixyd) and off (mixyc without --cache-dir): median difference of the
    two server-side totals, in ms."""
    diffs = []
    for _ in range(probes):
        if "error" in client.edit():
            tally.check("fileChanged failed")
            continue
        reply, _ = client.analyze()
        if not tally.check(client.check(reply, False)):
            continue
        cli = run_cli([tool("mixyc"), "--format=json", "--stats",
                       client.path], REQUEST_LIMIT_S)
        if not tally.check(check_mixy(cli.code, json.loads(cli.stdout),
                                      client.expected)):
            continue
        diffs.append((reply["result"]["total_us"] -
                      stats_phases(cli.stderr)[1]) / 1000)
    return median(diffs)


def block_run_spread(client, tally, repeats):
    """Symbolic block runs over identical re-analyses of one source in
    the daemon (fileChanged drops the warm summaries in between; a
    distinct input name keeps the response cache out): max - min."""
    runs = []
    for i in range(repeats):
        client.rpc.call("fileChanged", {"path": client.path})
        reply, _ = client.analyze(input_name=f"probe{i}")
        if tally.check(client.check(reply, False)):
            runs.append(reply["result"].get("metrics", {}).get(
                "mixy.sym_block_runs", 0))
    return max(runs) - min(runs) if runs else 0


WORKLOADS = {
    "mixy-symbolic": mixy_symbolic,
    "mixy-daemon-edit": daemon_edit,
    "core-check": core_check,
}
