"""fedsvm benchmark: round throughput of the round engine on three
workloads, with per-layer timing measured from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload svm_c8 --seed 0 --seconds 36 --trace 0

``--workload all`` runs the three workloads in turn.

Each job is one fresh process (``perfbench/worker.py``) that calls the
``fedsvm`` command line (``run`` or ``compare``) on one config seed, the
same calls a user makes. Jobs run one at a time, with BLAS capped at one
thread. The benchmark seed picks the config seeds; the configs receive
nothing else from the benchmark.

``--trace 0`` runs untraced jobs only and reports the end-to-end
metrics. It runs every config seed once and then the first one again,
so every run checks that a rerun reproduces its outputs bit for bit,
and keeps cycling through the seeds while the next job, at the mean
length of the jobs so far, would end less than half a job past
``--seconds``; so a run measures ``--seconds`` on average. Each time
metric is taken per job and reported as the median over the run's jobs.

``--trace 1`` runs an untraced and a traced job on each config seed,
once. The traced job wraps the public functions of the layer modules
(``tracer.py``); its outputs must match the untraced job's apart from
the ``ms`` column. It reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (rounds) and ``metrics``. The full record,
with the environment, goes to ``perfbench/work/``. The exit code is 1
when an output check fails, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROUNDS_COLUMNS = ["seed", "round", "strategy", "loss", "accuracy", "f1", "mcc",
                  "lambda", "sv_counts", "ms"]
# Share of an svm_margin round spent in fit_ovo in the ROADMAP baseline table.
ROADMAP_FIT_OVO_SHARE = {"svm_c8": 88, "svm_c32": 97}
# Per mille, so the ten-rounds-beyond rule is exact integer arithmetic.
TAIL_PER_MILLE = (999, 990, 950, 900, 750, 500)


@dataclass
class Workload:
    config: str                     # shipped config the workload starts from
    seeds: int                      # distinct config seeds per benchmark seed
    overrides: dict = field(default_factory=dict)
    # Compare workloads: (label, overrides) per strategy; empty for `run`.
    strategies: tuple = ()


BASELINES = (
    ("fedavg", {"strategy": {"name": "fedavg"}}),
    ("fedadam", {"strategy": {"name": "fedadam"}}),
    ("fedams", {"strategy": {"name": "fedams"}}),
    ("fedaws", {"strategy": {"name": "fedaws"}}),
    ("fedprox", {"strategy": {"name": "fedavg"}, "client": {"variant": "prox"}}),
    ("moon", {"strategy": {"name": "fedavg"}, "client": {"variant": "moon"}}),
)

WORKLOADS = {
    # `fedsvm compare` traffic: client training dominates and the SVM
    # layer never runs, so an SVM change must leave it unchanged.
    "compare_baselines": Workload(
        config="configs/synthetic_fedavg.ini", seeds=6, strategies=BASELINES),
    # fit_ovo is most of a round; 28 pair problems of M = 16 per round,
    # so per-fit Python overhead shows here.
    "svm_c8": Workload(
        config="configs/synthetic_svm_margin.ini", seeds=4),
    # The ROADMAP's C = 32, d = 64 cell: M = 64 per pair problem, where the
    # O(M^3) cyclic sweep dominates. Twelve rounds keep a job short while
    # the penalty schedule still decays over the whole run (1.0 to 0.08).
    "svm_c32": Workload(
        config="configs/synthetic_svm_margin.ini", seeds=4,
        overrides={"run": {"clients_per_round": "32", "rounds": "12"},
                   "model": {"embedding_dim": "64"}}),
}

END_TO_END = (
    ("rounds_per_s", "1/s"), ("round_ms_p50", "ms"), ("round_ms_tail", "ms"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("final_accuracy", "ratio"),
    ("final_macro_f1", "ratio"),
)

# Per-layer metrics: time and calls per round of these spans, shares of
# in-round time, and solver counters.
TIMED_LAYERS = (
    "strategies.client_update", "model.loss_and_gradient",
    "strategies.moon_loss_and_gradient", "optim.sgd_step",
    "strategies.fedavg_aggregate", "strategies.fedopt_step",
    "strategies.fedaws_regularize", "svm.fit_ovo", "svm.sweep",
    "strategies.selective_aggregate", "strategies.spreadout_regularize",
    "svm.format_diagnostics", "metrics.confusion", "data.generate_synthetic",
)
COUNTED_LAYERS = (
    "model.loss_and_gradient", "model.flatten_params", "model.unflatten_params",
    "svm.fit_binary", "svm.sweep",
)
SHARES = ("strategies.client_update", "svm.fit_ovo", "svm.sweep", "svm.fit_python",
          "metrics.confusion")
PER_LAYER = (
    [(f"{name}.ms", "ms/round") for name in TIMED_LAYERS]
    + [(f"{name}.calls", "calls/round") for name in COUNTED_LAYERS]
    + [(f"{name}.share", "%") for name in SHARES]
    + [("svm.fit_python_ms", "ms/round"), ("svm.sweeps_per_fit", "sweeps/fit"),
       ("svm.pair_visits", "count/round"), ("svm.pair_updates", "count/round"),
       ("svm.update_ratio", "ratio"), ("svm.unconverged_fits", "count/round"),
       ("svm.sv_share", "ratio"), ("harness.self_ms", "ms/round"),
       ("trace.rounds_per_s", "1/s"), ("trace.overhead_ratio", "ratio")]
)


class BenchmarkError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_per_mille(n: int) -> int:
    """Highest listed percentile, in per mille, with at least ten of ``n``
    samples beyond it; the median when ``n`` is below 20."""
    for pm in TAIL_PER_MILLE:
        if n * (1000 - pm) >= 10 * 1000:
            return pm
    return 500


def percentile(values, pm: int) -> float:
    """Linearly interpolated percentile, ``pm`` in per mille."""
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pm / 1000
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# ---------------------------------------------------------------------------
# Jobs
# ---------------------------------------------------------------------------

def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def write_configs(workload: Workload, workdir: Path) -> list[Path]:
    """The workload's config files: the shipped config plus overrides, one
    file per compared strategy."""
    variants = workload.strategies or (("run", {}),)
    paths = []
    for label, extra in variants:
        parser = configparser.ConfigParser(interpolation=None)
        if not parser.read(ROOT / workload.config):
            raise BenchmarkError(f"missing config {workload.config}")
        for overrides in (workload.overrides, extra):
            for section, values in overrides.items():
                for key, value in values.items():
                    parser[section][key] = value
        path = workdir / f"{label}.ini"
        with open(path, "w") as fh:
            parser.write(fh)
        paths.append(path)
    return paths


@dataclass
class Job:
    seed: int
    traced: bool
    wall_s: float
    peak_rss_mb: float
    worker: dict
    out: Path


def run_job(workload: Workload, configs: list[Path], seed: int, traced: bool,
            jobdir: Path, deadline: float) -> Job:
    jobdir.mkdir(parents=True)
    command = "compare" if workload.strategies else "run"
    args = [sys.executable, str(HERE / "worker.py"), str(jobdir / "worker.json"),
            "1" if traced else "0", command, *map(str, configs),
            "--seed-override", str(seed), "--output-dir", str(jobdir / "out")]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time limit reached before the job list finished")
    with open(jobdir / "stdout.txt", "w") as out, open(jobdir / "stderr.txt", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=worker_env(), cwd=ROOT)
        killer = threading.Timer(remaining, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = jobdir / "worker.json"
    if proc.returncode not in (0, 2) or not result_path.exists():
        tail = (jobdir / "stderr.txt").read_text()[-2000:]
        raise BenchmarkError(f"job {jobdir.name} exited with {proc.returncode}:\n{tail}")
    worker = json.loads(result_path.read_text())
    # ru_maxrss is in KiB on Linux.
    return Job(seed, traced, wall, usage.ru_maxrss / 1024, worker, jobdir / "out")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

@dataclass
class JobOutput:
    round_ms: list[float]
    attempted: int
    completed: int
    digest: str
    final_accuracy: float | None
    final_macro_f1: float | None


def strategy_labels(workload: Workload, cfg: configparser.ConfigParser) -> list[str]:
    """The ``strategy`` column value of each experiment a job runs."""
    return [label for label, _ in workload.strategies] or [cfg.get("strategy", "name")]


def _read_csv(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        return header, [dict(zip(header, row)) for row in reader]


def check_job(workload: Workload, cfg: configparser.ConfigParser, job: Job,
              problems: list[str]) -> JobOutput:
    """Check one job's CSVs, appending each failed check to ``problems``,
    and return its round times and digest."""
    rounds = cfg.getint("run", "rounds")
    classes = cfg.getint("dataset", "classes")
    per_round = cfg.getint("run", "clients_per_round")
    svm = cfg.get("strategy", "name") == "svm_margin"
    labels = strategy_labels(workload, cfg)
    dirs = [(label, job.out / label) for label in labels] if workload.strategies \
        else [(labels[0], job.out)]
    where = f"job seed {job.seed}{' traced' if job.traced else ''}"

    digest = hashlib.sha256()
    round_ms: list[float] = []
    finals: list[tuple[float, float]] = []
    completed = 0
    for label, out in dirs:
        header, rows = _read_csv(out / "rounds.csv")
        if header != ROUNDS_COLUMNS:
            problems.append(f"{where}: {label}/rounds.csv header {header}")
            continue
        completed += len(rows)
        for i, row in enumerate(rows):
            digest.update(",".join(row[c] for c in ROUNDS_COLUMNS[:-1]).encode() + b"\n")
            round_ms.append(float(row["ms"]))
            try:
                bad = _row_problem(row, i, label, job.seed, rounds, classes, per_round,
                                   svm, cfg)
            except ValueError as err:
                bad = f"unparsable row {row}: {err}"
            if bad:
                problems.append(f"{where}: {label} round {i + 1}: {bad}")
        summary = (out / "summary.csv").read_bytes()
        digest.update(summary)
        if len(rows) == rounds:
            _, srows = _read_csv(out / "summary.csv")
            seed_rows = [r for r in srows if r["seed"] == str(job.seed)]
            last = rows[-1]
            if len(seed_rows) != 1 or seed_rows[0]["final_accuracy"] != last["accuracy"] \
                    or seed_rows[0]["final_f1"] != last["f1"]:
                problems.append(f"{where}: {label}/summary.csv disagrees with rounds.csv")
            finals.append((float(last["accuracy"]), float(last["f1"])))
    if workload.strategies:
        compare = job.out / "compare.csv"
        if compare.exists():
            digest.update(compare.read_bytes())
            _check_compare(compare, dirs, where, problems)
        elif job.worker["exit_code"] == 0:
            problems.append(f"{where}: compare.csv missing")

    attempted = rounds * len(dirs)
    if (completed < attempted) != (job.worker["exit_code"] == 2):
        problems.append(f"{where}: exit code {job.worker['exit_code']} with "
                        f"{completed} of {attempted} rounds completed")
    accuracy = f1 = None
    if finals and len(finals) == len(dirs):
        accuracy = statistics.fmean(a for a, _ in finals)
        f1 = statistics.fmean(f for _, f in finals)
        if accuracy <= 1.0 / classes:
            problems.append(f"{where}: final accuracy {accuracy:.4f} is no better than chance")
    return JobOutput(round_ms, attempted, completed, digest.hexdigest(), accuracy, f1)


def _row_problem(row, i, label, seed, rounds, classes, per_round, svm, cfg) -> str | None:
    if row["seed"] != str(seed) or row["round"] != str(i + 1) or row["strategy"] != label:
        return f"unexpected seed/round/strategy {row['seed']}/{row['round']}/{row['strategy']}"
    loss, acc, f1, mcc, ms = (float(row[c]) for c in ("loss", "accuracy", "f1", "mcc", "ms"))
    if not (math.isfinite(loss) and loss >= 0 and 0 <= acc <= 1 and 0 <= f1 <= 1
            and -1 <= mcc <= 1 and ms > 0):
        return f"value out of range: {row}"
    if not svm:
        return None if row["lambda"] == row["sv_counts"] == "" else "SVM columns set"
    initial = cfg.getfloat("strategy", "svm_penalty_initial")
    floor = cfg.getfloat("strategy", "svm_penalty_floor")
    expected = max(floor, initial * (1.0 - i / rounds))
    if not math.isclose(float(row["lambda"]), expected, rel_tol=1e-12):
        return f"lambda {row['lambda']} != schedule {expected!r}"
    counts = [int(c) for c in row["sv_counts"].split(";")]
    if len(counts) != classes or not all(1 <= c <= per_round for c in counts):
        return f"sv_counts {row['sv_counts']} outside [1, {per_round}] x {classes}"
    return None


def _check_compare(path: Path, dirs, where: str, problems: list[str]) -> None:
    _, rows = _read_csv(path)
    by_name = {r["strategy"]: r for r in rows}
    for label, out in dirs:
        _, srows = _read_csv(out / "summary.csv")
        mean = next((r for r in srows if r["seed"] == "mean"), None)
        row = by_name.get(label)
        if row is None or mean is None or row["accuracy_mean"] != mean["final_accuracy"] \
                or row["f1_mean"] != mean["final_f1"]:
            problems.append(f"{where}: compare.csv row {label} disagrees with its summary.csv")


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

PROBE = """
import json, platform, numpy
from fedsvm import cli
from fedsvm.svm import BACKEND_NAME
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "backend": BACKEND_NAME}))
"""


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git checkout. Git looks
    for no repository above the checkout and reads no user or system
    config."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def environment(seed: int, config_seeds: list[int]) -> dict:
    """Versions, thread caps and backend, from a probe process with the
    workers' environment; the probe also fills the bytecode cache."""
    probe = subprocess.run([sys.executable, "-c", PROBE], env=worker_env(), cwd=ROOT,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise BenchmarkError(f"cannot import fedsvm:\n{probe.stderr[-2000:]}")
    env = json.loads(probe.stdout.strip().splitlines()[-1])
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx"):
            source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    env.update({
        "git_sha": git_sha(), "source_sha256": source.hexdigest(),
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "svm_backend_env": os.environ.get("FEDSVM_SVM_BACKEND", "auto"),
        "seed": seed, "config_seeds": config_seeds,
    })
    return env


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(jobs: list[Job], outputs: list[JobOutput], seeds: int) -> tuple[dict, dict]:
    """Each figure is taken per job, and the run reports the median over its
    jobs, so that a job caught in a slow phase of the host moves it little.
    The tail percentile is the highest with ten rounds beyond it among the
    rounds of one job per config seed, so it is the same in every run of a
    workload; each job's figure is that percentile of its own rounds."""
    timed = [o.round_ms for o in outputs if o.round_ms]
    if not timed:
        raise BenchmarkError("no round completed")
    total = sum(map(len, timed))
    pm = tail_per_mille(seeds * outputs[0].attempted)
    # Every config seed or none: a mean over fewer seeds is not comparable.
    distinct = outputs[:seeds]
    complete = all(o.final_accuracy is not None for o in distinct)
    median = statistics.median
    values = {
        "rounds_per_s": median(len(ms) / (sum(ms) / 1e3) for ms in timed),
        "round_ms_p50": median(median(ms) for ms in timed),
        "round_ms_tail": median(percentile(ms, pm) for ms in timed),
        "setup_s": median(j.wall_s - sum(o.round_ms) / 1e3 for j, o in zip(jobs, outputs)),
        "peak_rss_mb": median(j.peak_rss_mb for j in jobs),
        "final_accuracy": statistics.fmean(o.final_accuracy for o in distinct)
        if complete else 0.0,
        "final_macro_f1": statistics.fmean(o.final_macro_f1 for o in distinct)
        if complete else 0.0,
    }
    per_job = f"median of {len(timed)} jobs, {total} rounds"
    notes = {"rounds_per_s": per_job, "round_ms_p50": per_job,
             "round_ms_tail": f"p{pm / 10:g} per job, {per_job}",
             "setup_s": f"median of {len(jobs)} jobs",
             "peak_rss_mb": f"median of {len(jobs)} jobs",
             "final_accuracy": f"mean over {len(distinct)} config seeds",
             "final_macro_f1": f"mean over {len(distinct)} config seeds"}
    return values, notes


def per_layer(traced: list[Job], traced_out: list[JobOutput],
              plain_out: list[JobOutput]) -> tuple[dict, dict]:
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, int] = {}
    for job in traced:
        for name, entry in job.worker["layers"].items():
            total = layers.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            for key in total:
                total[key] += entry[key]
        for name, count in job.worker["counters"].items():
            counters[name] = counters.get(name, 0) + count
    rounds = sum(o.completed for o in traced_out)
    if not rounds:
        raise BenchmarkError("no traced round completed")
    in_round_ms = sum(sum(o.round_ms) for o in traced_out)
    plain_ms = sum(sum(o.round_ms) for o in plain_out)
    plain_rounds = sum(o.completed for o in plain_out)

    def ms(name):
        return layers.get(name, {}).get("ms", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fit_python = ms("svm.fit_ovo") - ms("svm.sweep")
    values = {f"{n}.ms": ms(n) / rounds for n in TIMED_LAYERS}
    values.update({f"{n}.calls": calls(n) / rounds for n in COUNTED_LAYERS})
    share_ms = {n: ms(n) for n in SHARES}
    share_ms["svm.fit_python"] = fit_python
    values.update({f"{n}.share": 100 * share_ms[n] / in_round_ms for n in SHARES})
    harness_self = sum(e["self_ms"] for n, e in layers.items()
                       if n == "cli.main" or n.startswith("harness."))
    traced_rps = rounds / (in_round_ms / 1e3)
    values.update({
        "svm.fit_python_ms": fit_python / rounds,
        "svm.sweeps_per_fit": ratio(calls("svm.sweep"), calls("svm.fit_binary")),
        "svm.pair_visits": counters.get("svm.pair_visits", 0) / rounds,
        "svm.pair_updates": counters.get("svm.pair_updates", 0) / rounds,
        "svm.update_ratio": ratio(counters.get("svm.pair_updates", 0),
                                  counters.get("svm.pair_visits", 0)),
        "svm.unconverged_fits": counters.get("svm.unconverged_fits", 0) / rounds,
        "svm.sv_share": ratio(counters.get("svm.support_vectors", 0),
                              counters.get("svm.samples", 0)),
        "harness.self_ms": harness_self / rounds,
        "trace.rounds_per_s": traced_rps,
        "trace.overhead_ratio": (plain_rounds / (plain_ms / 1e3)) / traced_rps,
    })
    table = {name: {"calls_per_round": e["calls"] / rounds, "ms_per_round": e["ms"] / rounds,
                    "self_ms_per_round": e["self_ms"] / rounds,
                    "share_pct": 100 * e["ms"] / in_round_ms}
             for name, e in sorted(layers.items())}
    return values, table


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def benchmark(args, name: str) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "fedsvm").is_dir():
        raise BenchmarkError(f"no fedsvm sources under {ROOT / 'src'}")
    workload = WORKLOADS[name]
    config_seeds = [args.seed * 1000 + i for i in range(workload.seeds)]
    workdir = WORK / f"{name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(args.seed, config_seeds)
    configs = write_configs(workload, workdir)
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read(configs[0])

    # Untraced: every config seed once, then the first again, so a rerun is
    # always checked; more jobs in the same cycle while the next one would
    # end less than half a job past --seconds.
    # Traced: an untraced and a traced job per config seed, one pass, so
    # the per-round counts are exact.
    plan = [(s, t) for s in config_seeds for t in ((False, True) if args.trace else (False,))]
    minimum = len(plan) if args.trace else len(plan) + 1
    jobs: list[Job] = []
    measure_start = time.monotonic()
    while len(jobs) < minimum or not args.trace and (
            time.monotonic() - measure_start + statistics.fmean(j.wall_s for j in jobs) / 2
            < args.seconds):
        seed, traced = plan[len(jobs) % len(plan)]
        jobs.append(run_job(workload, configs, seed, traced,
                            workdir / f"job{len(jobs)}", deadline))

    problems: list[str] = []
    outputs = [check_job(workload, cfg, job, problems) for job in jobs]
    digests: dict[int, str] = {}
    for job, out in zip(jobs, outputs):
        if job.worker["backend"] != env["backend"]:
            problems.append(f"job seed {job.seed} loaded sweep backend "
                            f"{job.worker['backend']!r}, expected {env['backend']!r}")
        if digests.setdefault(job.seed, out.digest) != out.digest:
            kind = "traced run" if job.traced else "rerun"
            problems.append(f"seed {job.seed}: {kind} outputs differ from the first run")

    plain = [(j, o) for j, o in zip(jobs, outputs) if not j.traced]
    traced = [(j, o) for j, o in zip(jobs, outputs) if j.traced]
    metrics, notes = end_to_end([j for j, _ in plain], [o for _, o in plain],
                                len(config_seeds))
    unfinished = [j.seed for j, o in plain[:len(config_seeds)] if o.final_accuracy is None]
    if unfinished:
        problems.append(f"config seeds {unfinished} did not finish; final_accuracy and "
                        "final_macro_f1 are undefined")
    record = {"workload": name, "trace": args.trace,
              "environment": env, "seconds": args.seconds,
              "elapsed_s": time.monotonic() - measure_start,
              "jobs": [{"seed": j.seed, "traced": j.traced, "wall_s": j.wall_s,
                        "peak_rss_mb": j.peak_rss_mb, "rounds": o.completed,
                        "in_round_s": sum(o.round_ms) / 1e3, "digest": o.digest}
                       for j, o in zip(jobs, outputs)],
              "end_to_end": metrics, "notes": notes,
              "attempted": sum(o.attempted for o in outputs),
              "failed": sum(o.attempted - o.completed for o in outputs),
              "problems": problems}
    if args.trace:
        layer_values, table = per_layer([j for j, _ in traced], [o for _, o in traced],
                                        [o for _, o in plain])
        record["per_layer"] = layer_values
        record["layers"] = table
        ran_svm = sorted(name for name in table if name.startswith("svm."))
        if ran_svm and cfg.get("strategy", "name") != "svm_margin":
            problems.append(f"a baseline strategy ran SVM code: {ran_svm}")
        if name in ROADMAP_FIT_OVO_SHARE:
            notes["svm.fit_ovo.share"] = f"ROADMAP baseline: {ROADMAP_FIT_OVO_SHARE[name]} %"
        rounds = cfg.getint("run", "rounds")
        record["flatten_unflatten_per_round"] = {
            label: [counts.get(f"model.{fn}_params", 0) / rounds
                    for fn in ("flatten", "unflatten")]
            for label, counts in zip(strategy_labels(workload, cfg),
                                     traced[0][0].worker["calls_per_experiment"])}
    (WORK / f"{workdir.name}.json").write_text(json.dumps(record, indent=1))
    if not problems:
        shutil.rmtree(workdir)
    return record, problems


def report(record: dict) -> dict:
    """Print the human-readable report and return the metrics object."""
    env = record["environment"]
    print(f"workload {record['workload']}, trace {record['trace']}")
    caps = " ".join(f"{var}={value}" for var, value in env["blas_threads"].items())
    print(f"environment: python {env['python']}, numpy {env['numpy']}, {env['blas']}, {caps}, "
          f"nproc {env['nproc']}, sweep backend {env['backend']}, "
          f"git {env['git_sha'] or 'n/a'}, seeds {env['config_seeds']}")
    print(f"jobs {len(record['jobs'])}, measured {record['elapsed_s']:.1f} s")
    attempted, failed = record["attempted"], record["failed"]
    print(f"failed_rounds_share = {failed / attempted:.6g} ({failed} of {attempted} rounds)")
    if record["trace"]:
        names = PER_LAYER
        values = record["per_layer"]
        for name, row in record["layers"].items():
            print(f"  layer {name:<36} {row['calls_per_round']:>10.2f} calls/round "
                  f"{row['ms_per_round']:>9.3f} ms/round {row['self_ms_per_round']:>9.3f} self "
                  f"{row['share_pct']:>6.2f} %")
        counts = record["flatten_unflatten_per_round"]
        print("  flatten/unflatten calls per round: "
              + ", ".join(f"{label} {f:g}/{u:g}" for label, (f, u) in counts.items()))
    else:
        names = END_TO_END
        values = record["end_to_end"]
    metrics = {}
    for name, unit in names:
        note = record["notes"].get(name, "")
        print(f"{name} = {values[name]:.6g} {unit}{f'  ({note})' if note else ''}")
        metrics[name] = {"value": values[name], "unit": unit}
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        try:
            record, problems = benchmark(args, name)
        except BenchmarkError as err:
            print(f"benchmark error: {err}", file=sys.stderr)
            return 2
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in report(record).items()})
        correct = correct and not problems
        attempted += record["attempted"]
        failed += record["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
