"""The traced run: the per-layer split of one workload.

It runs the real sosctl child once plainly (at -j 1, and at the default -j
for batch) and once with `--metrics=metrics.json`, then the in-process
replay (perfbench/tracer), which times every call into a library layer and
keeps its spans in `spans.tsv`. It checks that

- the replay writes byte for byte what the child writes;
- the layers' self times, with the tracer's own calibrated cost, add up to
  the traced wall time within RECONCILE_TOLERANCE;
- the child's exported counters equal the replay's own counts.

Every metric in PER_LAYER is reported on every workload; a layer the
workload never calls reports 0.
"""

import hashlib
import json
import os
import subprocess

import checks
import child

RECONCILE_TOLERANCE = 0.10

B, S, A = "batch", "serve", "all"
# name -> (unit, better, workload kind, end-to-end metric it should move)
PER_LAYER = {
    "specs.us_per_spec": ("us", "lower", B, "specs_per_s on batch-tiny"),
    "specs.share": ("ratio", "lower", B, "specs_per_s on batch-tiny"),
    "gen.us_per_spec": ("us", "lower", B, "specs_per_s on batch-wide, then batch-tiny"),
    "gen.words_per_spec": ("words", "lower", B, "specs_per_s on batch-wide, then batch-tiny"),
    "gen.share": ("ratio", "lower", B, "specs_per_s on batch-wide, then batch-tiny"),
    "instance.us_per_spec": ("us", "lower", B, "specs_per_s on batch-wide (@PATH)"),
    "instance.share": ("ratio", "lower", B, "specs_per_s on batch-wide (@PATH)"),
    "fast.us_per_spec": ("us", "lower", B, "specs_per_s on batch-wide"),
    "fast.words_per_spec": ("words", "lower", B, "specs_per_s on batch-wide"),
    "fast.blocks_per_spec": ("count", "lower", B, "specs_per_s on batch-wide"),
    "fast.iterations_per_spec": ("count", "lower", B, "specs_per_s on batch-wide"),
    "fast.skip_hits_per_spec": ("count", "higher", B, "specs_per_s on batch-wide"),
    "fast.share": ("ratio", "lower", B, "specs_per_s on batch-wide"),
    "schedule.us_per_spec": ("us", "lower", B, "specs_per_s on both batch workloads"),
    "schedule.words_per_spec": ("words", "lower", B, "specs_per_s on both batch workloads"),
    "schedule.share": ("ratio", "lower", B, "specs_per_s on both batch workloads"),
    "bounds.us_per_spec": ("us", "lower", B, "specs_per_s on batch-tiny"),
    "bounds.share": ("ratio", "lower", B, "specs_per_s on batch-tiny"),
    "format.us_per_spec": ("us", "lower", B, "specs_per_s on batch-tiny"),
    "format.share": ("ratio", "lower", B, "specs_per_s on batch-tiny"),
    "engine.us_per_spec": ("us", "lower", B, "specs_per_s on both batch workloads"),
    "engine.share": ("ratio", "lower", B, "specs_per_s on both batch workloads"),
    "engine.speedup_jN": ("ratio", "higher", B, "specs_per_s on both batch workloads"),
    "gc.minor_words_per_spec": ("words", "lower", B, "specs_per_s on both batch workloads"),
    "gc.minor_collections_per_kspec": ("count", "lower", B, "specs_per_s on both batch workloads"),
    "cli.residual_share": ("ratio", "lower", B, "specs_per_s on batch-tiny"),
    "cli.speedup_jN": ("ratio", "higher", B, "specs_per_s on batch-tiny"),
    "protocol.us_per_req": ("us", "lower", S, "submit_p50_ms"),
    "online.add_us": ("us", "lower", S, "query_p50_ms, query_p99_ms, req_per_s"),
    "online.solve_p50_ms": ("ms", "lower", S, "query_p50_ms, req_per_s"),
    "online.solve_p99_ms": ("ms", "lower", S, "query_p99_ms"),
    "online.blocks_per_query": ("count", "lower", S, "query_p50_ms, query_p99_ms"),
    "online.solves_full": ("count", "lower", S, "query_p50_ms, query_p99_ms, req_per_s"),
    "online.solves_extended": ("count", "higher", S, "query_p50_ms, query_p99_ms, req_per_s"),
    "online.solves_cached": ("count", "higher", S, "query_p50_ms, query_p99_ms, req_per_s"),
    "online.reuse_ratio": ("ratio", "higher", S, "query_p50_ms, query_p99_ms, req_per_s"),
    "journal.append_us": ("us", "lower", S, "submit_p50_ms"),
    "server.overhead_us_per_req": ("us", "lower", S, "submit_p50_ms, query_p50_ms"),
    "ipc.us_per_req": ("us", "lower", S, "req_per_s"),
    "trace.overhead_pct": ("%", "lower", A, "none (tracing is off in end-to-end runs)"),
    "trace.unattributed_share": ("ratio", "lower", A, "none (reconciliation residual)"),
    "host.nproc": ("count", "higher", A, "none (reads the *.speedup_jN rows)"),
}


class TraceError(Exception):
    pass


def md5(data):
    return hashlib.md5(data).hexdigest()


def tracer(bins, workdir, args):
    try:
        out = subprocess.run(
            [bins["tracer"], *args], cwd=workdir, capture_output=True, text=True, timeout=150
        )
    except subprocess.TimeoutExpired as e:
        raise TraceError(f"tracer {args[0]} timed out") from e
    if out.returncode != 0:
        raise TraceError(f"tracer {args[0]} failed: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def counters(workdir):
    with open(os.path.join(workdir, "metrics.json")) as f:
        return {c["name"]: c["value"] for c in json.load(f)["counters"]}


def expect(cond, msg, problems):
    if not cond:
        problems.append(msg)


def reconcile(t, layer_names, metrics, problems):
    """Self times plus the tracer's cost against the traced wall time."""
    wall = t["wall_traced_s"]
    attributed = sum(t["layers"][n]["self_s"] for n in layer_names) + t["tracer"]["tracer_s"]
    residual = (wall - attributed) / wall
    metrics["trace.unattributed_share"] = residual
    expect(abs(residual) <= RECONCILE_TOLERANCE,
           f"layer self times + tracer cost = {attributed:.4f} s, traced wall {wall:.4f} s "
           f"(off by {residual:+.1%}, tolerance {RECONCILE_TOLERANCE:.0%})", problems)


BATCH_LAYERS = ("specs", "gen", "instance", "fast", "schedule", "bounds", "format", "engine")
LIBRARY_LAYERS = ("specs", "gen", "instance", "fast", "schedule", "bounds", "engine")
SERVE_LAYERS = ("protocol", "online", "journal", "server")


def batch(w, bins, workdir):
    """Per-layer split of a batch workload. Returns (metrics, check, runs, problems)."""
    j1 = child.batch(bins["sosctl"], w.corpus, workdir, jobs=1)
    jn = child.batch(bins["sosctl"], w.corpus, workdir)
    tele = child.batch(bins["sosctl"], w.corpus, workdir, extra=["--metrics=metrics.json"])
    runs = [j1, jn, tele]
    c = checks.check_batch(j1.out.decode(), w.expected)
    problems = list(c.problems)
    for r in runs:
        expect(r.code == 0, f"sosctl batch exited {r.code}: {r.stderr.strip()[-500:]}", problems)
        expect(r.out == j1.out, "sosctl batch stdout differs between runs", problems)
    t = tracer(bins, workdir, ["batch", w.corpus])
    digest = md5(j1.out)
    for k in ("digest_j1", "digest_traced", "digest_jN"):
        expect(t[k] == digest, f"in-process replay ({k}) differs from sosctl stdout", problems)

    cnt = counters(workdir)
    expect(cnt["sos.fast.runs"] == c.ok, f"sos.fast.runs {cnt['sos.fast.runs']} != {c.ok} ok lines",
           problems)
    expect(cnt["sos.fast.iterations"] == t["iterations"],
           f"sos.fast.iterations {cnt['sos.fast.iterations']} != replay {t['iterations']}", problems)
    expect(cnt["sos.fast.blocks"] == t["blocks"] == c.blocks_sum,
           f"sos.fast.blocks {cnt['sos.fast.blocks']}, replay {t['blocks']}, "
           f"output {c.blocks_sum} disagree", problems)
    expect(cnt["sos.fast.iterations"] + cnt["sos.fast.skipped_steps"] == c.makespan_sum,
           "sos.fast.iterations + skipped_steps != sum of makespans", problems)

    n, wall, L = t["specs"], t["wall_traced_s"], t["layers"]
    m = {}
    for name in BATCH_LAYERS:
        m[f"{name}.us_per_spec"] = L[name]["self_s"] / n * 1e6
        m[f"{name}.share"] = L[name]["self_s"] / wall
    for name in ("gen", "fast", "schedule"):
        m[f"{name}.words_per_spec"] = L[name]["minor_words"] / n
    m["fast.blocks_per_spec"] = t["blocks"] / t["ok"]
    m["fast.iterations_per_spec"] = cnt["sos.fast.iterations"] / t["ok"]
    m["fast.skip_hits_per_spec"] = cnt["sos.fast.skip_hits"] / t["ok"]
    m["engine.speedup_jN"] = t["wall_j1_s"] / t["wall_jN_s"]
    m["gc.minor_words_per_spec"] = t["minor_words"] / n
    m["gc.minor_collections_per_kspec"] = t["minor_collections"] / n * 1000
    library = sum(L[name]["self_s"] for name in LIBRARY_LAYERS)
    m["cli.residual_share"] = 1 - library / j1.wall_s
    m["cli.speedup_jN"] = j1.wall_s / jn.wall_s
    m["trace.overhead_pct"] = (t["wall_traced_best_s"] / t["wall_j1_s"] - 1) * 100
    m["host.nproc"] = t["nproc"]
    reconcile(t, BATCH_LAYERS, m, problems)
    return m, c, runs, problems


def serve(w, bins, workdir):
    """Per-layer split of the serve workload. Returns (metrics, check, runs, problems)."""
    plain = child.serve(bins["sosctl"], w.requests, workdir)
    tele = child.serve(bins["sosctl"], w.requests, workdir, extra=["--metrics=metrics.json"])
    runs = [plain, tele]
    c = checks.check_serve(w.requests, plain.replies)
    problems = list(c.problems)
    for r in runs:
        expect(r.code == 0, f"sosctl serve exited {r.code}: {r.stderr.strip()[-500:]}", problems)
        expect(r.replies == plain.replies, "sosctl serve replies differ between runs", problems)
    t = tracer(bins, workdir, ["serve", w.corpus, str(child.SERVE_SHARDS)])
    digest = md5("".join(r + "\n" for r in plain.replies).encode())
    for k in ("digest_untraced", "digest_traced", "digest_server"):
        expect(t[k] == digest, f"in-process replay ({k}) differs from sosctl replies", problems)
    expect(t["server_exit"] == 0, f"in-process server exited {t['server_exit']}", problems)

    cnt = counters(workdir)
    expect(cnt["serve.requests"] == t["requests"],
           f"serve.requests {cnt['serve.requests']} != {t['requests']}", problems)
    for kind in ("full", "extended", "cached"):
        expect(cnt[f"serve.solve.{kind}"] == t[f"solves_{kind}"],
               f"serve.solve.{kind} {cnt[f'serve.solve.{kind}']} != Session.stats "
               f"{t[f'solves_{kind}']}", problems)

    n, q, L = t["requests"], t["queries"], t["layers"]
    m = {
        "protocol.us_per_req": L["protocol"]["self_s"] / n * 1e6,
        "online.add_us": t["online_add"]["add"]["self_s"] / t["online_add"]["add"]["calls"] * 1e6,
        "online.solve_p50_ms": t["solve_p50_s"] * 1e3,
        "online.solve_p99_ms": t["solve_p99_s"] * 1e3,
        "online.blocks_per_query": t["query_blocks"] / q,
        "online.solves_full": t["solves_full"],
        "online.solves_extended": t["solves_extended"],
        "online.solves_cached": t["solves_cached"],
        "online.reuse_ratio": (t["solves_extended"] + t["solves_cached"]) / q,
        "journal.append_us": L["journal"]["self_s"] / L["journal"]["calls"] * 1e6,
        "server.overhead_us_per_req": (
            t["server_wall_s"] - sum(L[k]["self_s"] for k in ("protocol", "online", "journal"))
        ) / n * 1e6,
        "ipc.us_per_req": (plain.wall_s - t["server_wall_s"]) / n * 1e6,
        "trace.overhead_pct": (t["wall_traced_best_s"] / t["wall_untraced_s"] - 1) * 100,
        "host.nproc": t["nproc"],
    }
    reconcile(t, SERVE_LAYERS, m, problems)
    return m, c, runs, problems


def run(w, bins, workdir):
    metrics, c, runs, problems = (batch if w.kind == "batch" else serve)(w, bins, workdir)
    return {name: metrics.get(name, 0) for name in PER_LAYER}, c, runs, problems
