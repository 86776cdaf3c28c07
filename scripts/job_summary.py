#!/usr/bin/env python3
"""Render BENCH_e6.json / BENCH_serve.json / coverage.json as GitHub
job-summary markdown.

CI appends the output to $GITHUB_STEP_SUMMARY so coverage, throughput, and
serving-soak trends are readable per run without downloading artifacts:

    python3 scripts/job_summary.py BENCH_e6.json BENCH_serve.json coverage.json >> "$GITHUB_STEP_SUMMARY"

Files that do not exist are skipped with a note (the bench and fuzz jobs
each produce only their own artifact). Unknown JSON shapes fail loudly —
a silently empty summary would hide a broken emitter.
"""
import json
import os
import sys


def bench_table(data):
    yield "### E6 throughput (backend × shards × placement)"
    cfg = data.get("config", {})
    yield ""
    yield (f"{cfg.get('procs', '?')} procs, {cfg.get('objects', '?')} objects, "
           f"{cfg.get('ops_per_proc', '?')} ops/proc")
    yield ""
    yield "| backend | shards | placement | ops | ops/sec | scale vs K=1 |"
    yield "|---|---|---|---|---|---|"
    regressions = []
    for row in data["results"]:
        # Rows predating the placement sweep carry neither key; rows
        # predating the scaling column carry no scaling_efficiency.
        placement = row.get("placement", "modulo")
        eff = row.get("scaling_efficiency")
        eff_cell = f"{eff:.2f}×" if eff is not None else "—"
        # A sharded row running below its own K=1 baseline is a scaling
        # regression worth flagging (single/threads rows use the column as
        # context only — they are not expected to track the sharded curve).
        if (eff is not None and row["backend"] == "sharded"
                and row["shards"] > 1 and eff < 1.0):
            eff_cell += " ⚠️"
            regressions.append(
                f"sharded K={row['shards']}/{placement} runs at {eff:.2f}× "
                f"the K=1 baseline")
        yield (f"| {row['backend']} | {row['shards']} | {placement} "
               f"| {row['ops']} | {row['ops_per_sec']:,.0f} | {eff_cell} |")
    if regressions:
        yield ""
        yield "**Scaling regressions:**"
        for r in regressions:
            yield f"- ⚠️ {r}"
    # Per-shard op-load distribution: how evenly each placement policy
    # spreads the scripted workload over the worlds.
    load_rows = [r for r in data["results"]
                 if len(r.get("shard_load", [])) > 1]
    if load_rows:
        yield ""
        yield "#### Per-shard op load"
        yield ""
        yield "| backend | shards | placement | load per shard | max/ideal |"
        yield "|---|---|---|---|---|"
        for row in load_rows:
            load = row["shard_load"]
            ideal = sum(load) / len(load) if load else 0
            ratio = (max(load) / ideal) if ideal else 0
            cells = " ".join(str(n) for n in load)
            yield (f"| {row['backend']} | {row['shards']} "
                   f"| {row.get('placement', 'modulo')} | {cells} "
                   f"| {ratio:.2f} |")
    yield ""


def serve_table(data):
    yield "### Serve load scenarios"
    cfg = data.get("config", {})
    yield ""
    yield (f"soak sized at {cfg.get('sessions', '?')} sessions × "
           f"{cfg.get('ops_per_session', '?')} ops")
    yield ""
    yield ("| scenario | admitted | completed | rejected | crashes | moves "
           "| load ratio | p50 | p99 | seconds | ops/s | check seconds "
           "| round ms, first ¼ | round ms, last ¼ |")
    yield "|---|---|---|---|---|---|---|---|---|---|---|---|---|---|"
    lost = []
    for row in data["results"]:
        st = row["stats"]
        completed = st["completed"]
        cell = str(completed)
        # admitted != completed means the front-end lost (or never finished)
        # admitted work — bench_serve exits nonzero on it, but flag it here
        # too so the summary is self-explaining even on a red run.
        if completed != st["admitted"]:
            cell += " ⚠️"
            lost.append(f"{row['scenario']}: {st['admitted']} admitted but "
                        f"{completed} completed")
        unit = st.get("latency_unit", "")
        # Serving speed and the certificate's cost, apart: only the soak
        # row times its certificate, and older artifacts time none.
        seconds = row["seconds"]
        rate = f"{completed / seconds:,.0f}" if seconds > 0 else "—"
        check = row.get("check_seconds")
        check_cell = f"{check:.3f}" if check is not None else "—"
        # Whether a round's cost grows with the history behind it: the
        # soak's median round over its first and last quarter of waves.
        first = row.get("round_ms_first_quarter")
        last = row.get("round_ms_last_quarter")
        first_cell = f"{first:.2f}" if first is not None else "—"
        last_cell = f"{last:.2f}" if last is not None else "—"
        yield (f"| {row['scenario']} | {st['admitted']} | {cell} "
               f"| {st.get('rejected', 0)} | {st['crashes']} "
               f"| {len(st.get('moves', []))} "
               f"| {st.get('load_ratio_window', 0):.2f} "
               f"| {st['p50']} {unit} | {st['p99']} {unit} "
               f"| {seconds:.3f} | {rate} | {check_cell} "
               f"| {first_cell} | {last_cell} |")
    if lost:
        yield ""
        yield "**Lost completions:**"
        for entry in lost:
            yield f"- ⚠️ {entry}"
    # The rebalancer's move log for the soak row — which objects left the
    # hot shard, and at what trigger ratio.
    for row in data["results"]:
        moves = row["stats"].get("moves", [])
        if row["scenario"] == "soak" and moves:
            yield ""
            yield (f"soak rebalance: {len(moves)} move(s), first at round "
                   f"{moves[0]['round']} (trigger ratio "
                   f"{moves[0]['ratio_before']:.2f}), final window ratio "
                   f"{row['stats'].get('load_ratio_window', 0):.2f}")
    yield ""


def coverage_table(data):
    yield "### Fuzz coverage"
    yield ""
    yield "| metric | value |"
    yield "|---|---|"
    yield f"| scenarios executed | {data['executed']} |"
    yield f"| distinct buckets | {data['distinct_buckets']} |"
    yield f"| steered | {data['steered']} |"
    yield f"| corpus size | {len(data['corpus'])} |"
    yield f"| base seed | {data['base_seed']} |"
    if "jobs" in data:
        yield f"| worker processes | {data['jobs']} |"
    # Multi-process campaigns (fuzz_main --jobs N): one row per forked
    # worker. A lost worker (died without reporting — signal, OOM) is a red
    # flag even when every surviving slice passed: its iterations never ran.
    workers = data.get("workers", [])
    if workers:
        lost = []
        yield ""
        yield "#### Campaign workers"
        yield ""
        yield ("| worker | slice | executed | replays | new buckets "
               "| status |")
        yield "|---|---|---|---|---|---|"
        for w in workers:
            first = w["first_iteration"]
            span = f"[{first}, {first + w['iterations']})"
            if w.get("lost"):
                status = "⚠️ LOST"
                lost.append(f"worker {w['worker']} ({span}) died without "
                            "reporting")
            elif w.get("failed"):
                status = "❌ failed"
            else:
                status = "ok"
            yield (f"| {w['worker']} | {span} | {w['executed']} "
                   f"| {w['replays']} | {w['new_buckets']} | {status} |")
        if lost:
            yield ""
            yield "**Lost workers:**"
            for entry in lost:
                yield f"- ⚠️ {entry}"
    timeline = data["new_bucket_timeline"]
    if timeline:
        # New-bucket rate per quarter of the campaign: is discovery drying up?
        executed = data["executed"]
        yield ""
        yield "| campaign quarter | new buckets |"
        yield "|---|---|"
        prev = 0
        for q in range(1, 5):
            cutoff = executed * q // 4
            count = sum(1 for done, _ in timeline if prev < done <= cutoff)
            yield f"| ≤ {cutoff} | {count} |"
            prev = cutoff
    # Per-model-axis slices (campaigns with mixed model pools): one table
    # per `by_<axis>` key — how many scenarios each value drove, how many
    # distinct buckets its slice reached, and when the last new one landed.
    # PCT should out-reach uniform, and relaxed visibility models should keep
    # reaching buckets (pending-store depths, drain placements) sc cannot.
    for key, rows in data.items():
        if not key.startswith("by_") or not rows:
            continue
        axis = key[len("by_"):]
        yield ""
        yield f"#### Coverage by {axis}"
        yield ""
        yield f"| {axis} | executed | distinct buckets | last new bucket at |"
        yield "|---|---|---|---|"
        for row in rows:
            timeline = row.get("new_bucket_timeline", [])
            last = timeline[-1][0] if timeline else "—"
            yield (f"| {row[axis]} | {row['executed']} "
                   f"| {row['distinct_buckets']} | {last} |")
    yield ""


RENDERERS = {
    "e6_backend_shards_sweep": bench_table,
    "serve_load": serve_table,
}


def render(path):
    with open(path) as f:
        data = json.load(f)
    if "distinct_buckets" in data:
        return coverage_table(data)
    renderer = RENDERERS.get(data.get("bench"))
    if renderer is None:
        raise SystemExit(f"job_summary: unrecognized JSON shape in {path}")
    return renderer(data)


def main(argv):
    if len(argv) < 2:
        raise SystemExit("usage: job_summary.py FILE.json...")
    for path in argv[1:]:
        if not os.path.exists(path):
            print(f"_{path} not produced by this run_")
            print()
            continue
        for line in render(path):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
