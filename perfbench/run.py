#!/usr/bin/env python3
"""End-to-end DCMESH benchmark: QD-step throughput, set-up time, memory,
accuracy against FP32 and per-layer attribution, on three decks.

Run from the repository root:

    python3 perfbench/run.py --workload pto40-small.fp32 --seed 1 --seconds 30 --trace 0

It builds `perfbench/` (a package of its own) with cargo, writes the
workload's deck from the seed, and runs every measurement in a fresh
child process of `dcmesh-perfbench`. `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer ones; the last line of stdout is
always one JSON object with `correct`, `attempted`, `failed`, `metrics`.
See perfbench/README.md for what each metric means and why.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Everything the benchmark writes lives under the build directory, inside
# the checkout it runs from.
WORK = os.path.join(".bench_build", "perfbench-work")

# Each seed draws the laser photon energy and amplitude uniformly from
# +-BAND around the deck values: the cost of a run stays the same, the
# trajectory changes.
PHOTON_EV, AMPLITUDE, BAND = 3.1, 0.25, 0.03

WORKLOADS = {
    # The laptop deck: cache-resident, dominated by the stencil
    # propagator, nine tiny GEMMs per step; no split planes, no
    # supervisor, no checkpoint I/O.
    "pto40-small.fp32": dict(
        mode="STANDARD", telemetry="off", supervised=False,
        mesh=12, norb=16, nocc=8, steps=120, per_md=500),
    # The pto40 structure at 16^3 mesh and 64 orbitals: the five
    # Psi-sized arrays a step streams (10 MiB) exceed per-core L2 and the
    # grid GEMMs run at k = 4096 >= 2*KC, so BF16x3 split packing
    # dominates the step.
    "pto40-mid.bf16x3": dict(
        mode="FLOAT_TO_BF16X3", telemetry="off", supervised=False,
        mesh=16, norb=64, nocc=32, steps=12, per_md=500),
    # The production shape of a fault-tolerant study: run_supervised at
    # BF16 with 50-step bursts, a checkpoint at every boundary, sampled
    # ABFT, a verify_bursts replay every third burst, TELEMETRY=events.
    "pto40-small.supervised-bf16": dict(
        mode="FLOAT_TO_BF16", telemetry="events", supervised=True,
        mesh=12, norb=16, nocc=8, steps=150, per_md=50),
}

SITES = ["nlp_project", "nlp_phase", "nlp_expand", "energy_kinetic", "energy_nonlocal",
         "energy_eexc", "remap_projection", "remap_weights", "shadow_update"]
GRID_SITES = ["nlp_project", "nlp_expand", "energy_kinetic", "remap_projection"]
LFD_LAYERS = ["propagate", "nonlocal", "energy", "remap", "shadow", "field"]


class Failed(Exception):
    """One attempted run failed; the message says how."""


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def deck_text(name, w, seed):
    rng = random.Random(f"{name}/{seed}")
    photon = PHOTON_EV * (1.0 + rng.uniform(-BAND, BAND))
    amplitude = AMPLITUDE * (1.0 + rng.uniform(-BAND, BAND))
    return (
        "system = pto40-small\n"
        f"label = {name}\n"
        f"mesh = {w['mesh']}\nnorb = {w['norb']}\nnocc = {w['nocc']}\n"
        f"total_qd_steps = {w['steps']}\nqd_steps_per_md = {w['per_md']}\n"
        f"laser_photon_ev = {photon!r}\nlaser_amplitude = {amplitude!r}\n"
    )


def build():
    """Builds the child binary; returns its path or exits non-zero."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(2)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "dcmesh-perfbench")


class Runner:
    """Spawns one child process per run and parses its JSON report."""

    def __init__(self, binary, deck_path, w):
        self.binary, self.deck_path, self.w = binary, deck_path, w
        self.serial = 0

    def child(self, command, mode=None, telemetry=None, supervised=None, trajectory=False):
        w = self.w
        mode = mode or w["mode"]
        supervised = w["supervised"] if supervised is None else supervised
        cmd = [self.binary, command, "--deck", self.deck_path, "--mode", mode,
               "--telemetry", telemetry or w["telemetry"]]
        ckdir = None
        if supervised:
            self.serial += 1
            ckdir = os.path.join(WORK, f"ck-{os.getpid()}-{self.serial}")
            shutil.rmtree(ckdir, ignore_errors=True)
            cmd += ["--supervised", "--ckdir", ckdir]
        if trajectory:
            cmd.append("--trajectory")
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        except subprocess.TimeoutExpired:
            raise Failed(f"{command} timed out")
        finally:
            if ckdir:
                shutil.rmtree(ckdir, ignore_errors=True)
        if p.returncode != 0:
            raise Failed(f"{command} exited {p.returncode}: {p.stderr.strip()[-400:]}")
        try:
            return json.loads(p.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            raise Failed(f"{command} printed no report")


def qd_rates(steps, reports):
    """QD steps per second of host wall time of each entry-point call,
    set-up included. Host noise only ever adds time, so the fastest run
    is the least disturbed one."""
    return [steps / r["entry_s"] for r in reports]


def entry_attempts(runner, seconds, min_attempts):
    """Untraced entry-point runs, one process each, until `seconds` have
    passed; each also times one set-up on its own. Returns
    (reports, failures); a report whose observables differ from the
    first one's counts as a failure (non-determinism)."""
    reports, failures = [], []
    deadline = time.monotonic() + seconds
    while len(reports) + len(failures) < min_attempts or time.monotonic() < deadline:
        try:
            r = runner.child("entry")
            if reports and r["digest"] != reports[0]["digest"]:
                raise Failed(f"entry digest {r['digest']} != first run's {reports[0]['digest']}")
            reports.append(r)
        except Failed as e:
            log(f"perfbench: attempt failed: {e}")
            failures.append(str(e))
    return reports, failures


def fingerprint():
    def read(path):
        try:
            with open(path) as f:
                return f.read().strip()
        except OSError:
            return None

    cpu = platform.processor() or "unknown"
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind, size = (read(os.path.join(base, idx, f)) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'d' if kind == 'Data' else 'i' if kind == 'Instruction' else ''}"] = size
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    rev = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        rev = p.stdout.strip() or rev
    return dict(cpu=cpu, nproc=os.cpu_count(), caches=caches, rustc=rustc, git=rev)


def cache_bytes(size):
    """'2048K' -> 2097152."""
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:].upper(), 1)
    return int(size.rstrip("KMGkmg")) * scale


def working_set(w, fp):
    psi = w["mesh"] ** 3 * w["norb"] * 8
    l2 = cache_bytes(fp["caches"].get("L2", "0"))
    l3 = cache_bytes(fp["caches"].get("L3", "0"))
    # Psi, Psi(0) and the propagator's three Psi-sized scratch arrays.
    step = 5 * psi
    where = ("cache-resident (fits L2)" if step <= l2 else
             "beyond L2, within L3" if step <= l3 else "beyond L3")
    return psi, step, l2, l3, where


def quantile(values, q):
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


def max_dev(run, ref, key):
    return max(abs(a - b) for a, b in zip(run[key], ref[key]))


def reference(runner, deck):
    """FP32 trajectory of this deck, keyed by the deck text (which holds
    the seed's draw); computed outside every timed region and cached."""
    key = hashlib.sha256(deck.encode()).hexdigest()[:16]
    path = os.path.join(WORK, f"ref-{key}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    ref = runner.child("entry", mode="STANDARD", telemetry="off", supervised=False,
                       trajectory=True)
    with open(path + ".tmp", "w") as f:
        json.dump(ref, f)
    os.replace(path + ".tmp", path)
    return ref


def end_to_end(runner, w, seconds):
    reports, failures = entry_attempts(runner, seconds, min_attempts=3)
    metrics, info = {}, {}
    if reports:
        rates = qd_rates(w["steps"], reports)
        metrics["qd_steps_per_s"] = (max(rates), "1/s")
        metrics["setup_s"] = (statistics.median(r["setup_s"] for r in reports), "s")
        metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in reports), "MB")
        info = dict(attempts=len(reports), rate_median=statistics.median(rates),
                    rate_min=min(rates))
    return metrics, len(reports) + len(failures), len(failures), info


def per_layer(runner, w, deck, seconds):
    """Alternates untraced entry runs and traced stepper runs; every
    stepper digest must equal the entry point's (the fidelity gate)."""
    try:
        ref = reference(runner, deck)
    except Failed as e:
        log(f"perfbench: FP32 reference failed: {e}")
        return {}, 1, 1, None, None
    entries, traces, failures = [], [], []
    deadline = time.monotonic() + seconds
    while not (entries and traces) or time.monotonic() < deadline:
        try:
            if len(entries) <= len(traces):
                r = runner.child("entry", trajectory=not entries)
                if entries and r["digest"] != entries[0]["digest"]:
                    raise Failed("entry digest differs between runs")
                entries.append(r)
            else:
                t = runner.child("trace")
                if t["digest"] != entries[0]["digest"]:
                    raise Failed(f"stepper digest {t['digest']} != entry point's "
                                 f"{entries[0]['digest']}: the traced stepper drifted "
                                 "from the run loop")
                if (t["rerun_bursts"], t["bursts"]) != (entries[0]["rerun_bursts"],
                                                       entries[0]["bursts"]):
                    raise Failed("stepper replayed or committed other bursts than "
                                 "run_supervised")
                traces.append(t)
        except Failed as e:
            log(f"perfbench: attempt failed: {e}")
            failures.append(str(e))
            if len(failures) > 3:
                break
    attempted = len(entries) + len(traces) + len(failures)
    if not (entries and traces):
        return {}, attempted, len(failures), None, None

    first = entries[0]
    steps = w["steps"]
    med = statistics.median
    m = {}
    put = lambda name, value, unit: m.__setitem__(name, (value, unit))

    def per_step(f):
        return med(f(t) for t in traces) / steps

    for layer in LFD_LAYERS:
        put(f"lfd.{layer}.self_s_per_step", per_step(lambda t: t["lfd"][f"{layer}.self_s"]), "s")
    t0 = traces[0]
    put("lfd.propagate.gpoint_updates_per_s",
        med(steps * t["propagate_updates_per_step"] / t["lfd"]["propagate.self_s"] for t in traces),
        "1/s")
    put("lfd.propagate.bytes_computed_per_step", t0["propagate_bytes_per_step"], "B")
    blas_total = 0.0
    for site in SITES:
        s0 = t0["sites"][site]
        wall = per_step(lambda t: t["sites"][site]["wall_s"])
        blas_total += wall
        put(f"blas.{site}.calls", s0["calls"], "count")
        put(f"blas.{site}.wall_s_per_step", wall, "s")
        put(f"blas.{site}.gflops",
            med(t["sites"][site]["flops"] / max(t["sites"][site]["wall_s"], 1e-12) / 1e9
                for t in traces),
            "GFLOP/s")
        put(f"blas.{site}.device_s_per_step", s0["device_s"] / steps, "s")
    put("blas.total.wall_s_per_step", blas_total, "s")
    put("blas.grid_sites.bf16x3_over_standard",
        sum(t0["sites"][s]["bf16x3_s_per_call"] for s in GRID_SITES)
        / sum(t0["sites"][s]["standard_s_per_call"] for s in GRID_SITES), "ratio")
    put("blas.pool_hit_ratio", t0["pool_hit_ratio"], "ratio")
    put("blas.abft_checks", t0["abft_checks"], "count")
    put("qxmd.initial_scf_s", med(t["initial_scf_s"] for t in traces), "s")
    put("qxmd.scf_refresh.s_per_call",
        med(t["scf_refresh_s"] / t["scf_refresh_calls"] for t in traces), "s")
    put("qxmd.md_step.s_per_call", med(t["md_step_s"] / t["md_step_calls"] for t in traces), "s")
    put("dcmesh.checkpoint.save_s_per_call",
        med(t["checkpoint_s"] / max(1, t["checkpoint_calls"]) for t in traces), "s")
    put("dcmesh.checkpoint.bytes", t0["checkpoint_bytes"], "B")
    put("supervisor.bursts", first["bursts"], "count")
    put("supervisor.rerun_bursts", first["rerun_bursts"], "count")
    put("supervisor.escalations", first["escalations"], "count")
    put("bursts_rerun_frac", first["rerun_bursts"] / max(1, first["bursts"]), "ratio")
    put("telemetry.events", first["telemetry_events"], "count")
    put("telemetry.dropped_events", first["telemetry_dropped"], "count")
    step_ms = [x for t in traces for x in t["step_ms"]]
    print(f"stepper: {len(traces)} traced runs, {len(step_ms)} QD steps timed; "
          f"{len(entries)} untraced runs")
    put("qd_step.p50_ms", quantile(step_ms, 0.50), "ms")
    put("qd_step.p99_ms", quantile(step_ms, 0.99), "ms")
    untraced = max(qd_rates(steps, entries))
    traced = max(steps / t["total_s"] for t in traces)
    put("trace.overhead_pct", 100.0 * (untraced / traced - 1.0), "%")
    put("unattributed_s_per_step", per_step(lambda t: t["run_s"] - t["attributed_s"]), "s")
    put("working_set.psi_bytes", t0["psi_bytes"], "B")
    for key, unit in (("nexc", "electrons"), ("ekin", "Ha"), ("javg", "au")):
        put(f"{key}_max_dev", max_dev(first, ref, key), unit)
    return m, attempted, len(failures), t0, ref


def accurate(w, metrics, ref):
    """FP32 must reproduce its own reference bit for bit. A low-precision
    trajectory must stay within each observable's own scale, the largest
    magnitude on the reference trajectory: that catches a blown-up or
    garbage run, while BF16's nexc error, up to ~15 % of that scale over
    the seed band, passes."""
    if ref is None:
        return True
    for key in ("nexc", "ekin", "javg"):
        dev = metrics[f"{key}_max_dev"][0]
        limit = 0.0 if w["mode"] == "STANDARD" else max(abs(x) for x in ref[key])
        if not dev <= limit:
            log(f"perfbench: {key} deviates from FP32 by {dev:g}, limit {limit:g}")
            return False
    return True


def gemm_table(trace, mode):
    lines = ["GEMM callsites at this deck's shapes (run mode %s):" % mode,
             "  site               op       m      n       k   GFLOP/call  run GFLOP/s"
             "  STANDARD ms  BF16x3 ms  x3/std"]
    for site in SITES:
        s = trace["sites"][site]
        if "m" not in s:
            lines.append(f"  {site:<18} (no calls)")
            continue
        flops = 8.0 * s["m"] * s["n"] * s["k"]
        lines.append(
            f"  {site:<18} {s['op']:<3} {s['m']:>6} {s['n']:>6} {s['k']:>7} {flops / 1e9:>11.4f}"
            f" {s['flops'] / s['wall_s'] / 1e9:>12.2f} {s['standard_s_per_call'] * 1e3:>12.4f}"
            f" {s['bf16x3_s_per_call'] * 1e3:>10.4f} {s['bf16x3_s_per_call'] / s['standard_s_per_call']:>7.2f}")
    lines.append("  BF16x3 runs three fused passes over cascaded split planes per k-block"
                 " (one for STANDARD): the pass-count prediction for x3/std is 3.0.")
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    w = WORKLOADS[args.workload]
    binary = build()
    os.makedirs(WORK, exist_ok=True)
    deck = deck_text(args.workload, w, args.seed)
    deck_path = os.path.join(WORK, f"deck-{os.getpid()}.in")
    with open(deck_path, "w") as f:
        f.write(deck)
    runner = Runner(binary, deck_path, w)

    fp = fingerprint()
    psi, step_ws, l2, l3, where = working_set(w, fp)
    print(f"machine: {fp['cpu']}, nproc {fp['nproc']}, caches "
          + ", ".join(f"{k} {v}" for k, v in fp["caches"].items())
          + f"; {fp['rustc']}; revision {fp['git']}")
    print(f"workload {args.workload} seed {args.seed}: mode {w['mode']}, "
          f"TELEMETRY={w['telemetry']}, {'run_supervised' if w['supervised'] else 'run_simulation'}, "
          f"mesh {w['mesh']}^3, {w['norb']} orbitals ({w['nocc']} occupied), "
          f"{w['steps']} QD steps, {w['per_md']} per MD burst")
    print(f"working set: Psi {psi / 2**20:.2f} MiB, ~5 Psi-sized arrays per step "
          f"{step_ws / 2**20:.2f} MiB vs L2 {l2 / 2**20:.2f} MiB, L3 {l3 / 2**20:.1f} MiB: {where}")
    print("deck:\n  " + deck.strip().replace("\n", "\n  "))

    try:
        if args.trace == 0:
            metrics, attempted, failed, info = end_to_end(runner, w, args.seconds)
            ref = None
            if info:
                print(f"entry point: {info['attempts']} runs, QD steps/s best "
                      f"{metrics['qd_steps_per_s'][0]:.2f}, median {info['rate_median']:.2f}, "
                      f"slowest {info['rate_min']:.2f}")
        else:
            metrics, attempted, failed, trace, ref = per_layer(runner, w, deck, args.seconds)
            if trace:
                print(gemm_table(trace, w["mode"]))
    finally:
        os.remove(deck_path)

    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>16.6g} {unit}")
    correct = failed == 0 and bool(metrics) and accurate(w, metrics, ref)
    result = {
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
