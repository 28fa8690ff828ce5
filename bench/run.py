"""Benchmark of the ll-coarse command line and its layers.

    python3 bench/run.py --workload {verify,separate,walks} --seed N \
        --seconds S --trace {0,1}

Run it from the repository root.  With --trace 0 each pass of the
workload is a sequence of real ll-coarse invocations, one child process
at a time; passes repeat while --seconds allows and the end-to-end
metrics are medians over passes.  With --trace 1 it makes one
untraced pass, then makes the same calls in-process through each
layer's public functions, timed by spans kept here, and prints the
per-layer metrics.  Every output is checked against the frozen digests
in bench/digests.json.  The last stdout line is the JSON result.
bench/NOTES.md says why the workloads and metrics are what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# What the installed `ll-coarse` console script runs.
ENTRY = "import sys; sys.argv[0] = 'll-coarse'; from lamplighter.cli import main; sys.exit(main())"

WORKLOADS = ("verify", "separate", "walks")
SETUP_LAUNCHES = 9
CHILD_TIMEOUT_S = 150.0

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

VERIFY_IDS = (
    "1-metric-oracle",
    "2-group-laws",
    "3-line-well-formed",
    "4-stage-depth",
    "5-line-distortion",
    "6-line-separation",
    "7-quasi-line",
    "8-intervals-circles",
    "9-circle-family",
    "10-determinism-codec",
)

# Per-layer metric -> the (workload, end-to-end metric) pairs it should move.
SEP_WALL = [("separate", "wall_s")]
VERIFY_WALL = [("verify", "wall_s")]
WALKS_WALL = [("walks", "wall_s")]
LAYER_MOVES: dict[str, list[tuple[str, str]]] = {
    "coarse.ball.s": SEP_WALL,
    "coarse.ball.members": SEP_WALL + [("separate", "peak_rss_mb")],
    "coarse.path_in_ball.s": SEP_WALL,
    "coarse.path_in_ball.vertices": SEP_WALL,
    "coarse.components_after_removal.s": SEP_WALL,
    "coarse.components.count": SEP_WALL,
    "coarse.distance_to_path.s": SEP_WALL,
    "coarse.distance_to_path.calls": SEP_WALL,
    "coarse.separation_report.s": SEP_WALL,
    "coarse.distortion_profile.s": VERIFY_WALL,
    "coarse.circle_family_distortion.s": VERIFY_WALL,
    "coarse.circle_family_distortion.pair_scan_s": VERIFY_WALL,
    "walks.half_quasi_line.s": WALKS_WALL,
    "walks.half_quasi_line.vertices": WALKS_WALL,
    "walks.quasi_line.s": WALKS_WALL,
    "walks.quasi_line.vertices": WALKS_WALL,
    "walks.quasi_interval.s": WALKS_WALL + SEP_WALL,
    "walks.quasi_interval.vertices": WALKS_WALL + SEP_WALL,
    "walks.quasi_circle.s": WALKS_WALL + VERIFY_WALL + SEP_WALL,
    "walks.quasi_circle.vertices": WALKS_WALL + VERIFY_WALL + SEP_WALL,
    "group.encode_config.s": WALKS_WALL,
    "group.encode_config.calls": WALKS_WALL,
    "group.decode_config.s": WALKS_WALL,
    "group.decode_config.calls": WALKS_WALL,
    "group.bfs_ball.s": VERIFY_WALL,
    "group.word_distance.s": VERIFY_WALL,
    "group.word_distance.calls": VERIFY_WALL,
    "cli.walk.hits": WALKS_WALL,
    "cli.walk.prefix_hits": WALKS_WALL,
    "cli.walk.misses": WALKS_WALL,
    "cli.walk.corrupt": WALKS_WALL,
    "cli.walk.miss_s": WALKS_WALL,
    "cli.walk.hit_s": WALKS_WALL,
    **{f"verify.{check_id}.s": VERIFY_WALL for check_id in VERIFY_IDS},
    "trace.traced_total_s": [(w, "wall_s") for w in WORKLOADS],
    "trace.untraced_wall_s": [(w, "wall_s") for w in WORKLOADS],
}
# A name whose last part is `s` or ends in `_s` is a time; the rest are counts.
LAYER_UNITS = {
    name: "s" if re.search(r"(\.|_)s$", name) else "count" for name in LAYER_MOVES
}


# ---------------------------------------------------------------- inputs

class Query(NamedTuple):
    """One `ll-coarse separate` call."""

    kind: str
    n: int | None
    radius: int
    k: int
    probe: int


class WalkRequest(NamedTuple):
    """One `ll-coarse walk` call."""

    kind: str
    n: int | None
    steps: int | None


class Op(NamedTuple):
    key: str  # digest table key; equal keys must print equal bytes
    args: tuple[str, ...]


# kind, n, radius, K; the N and R shapes take their probe scales from a
# seeded shuffle of N_R_SCALES, and I and C probe at n
N_R_SCALES = (2, 3, 3, 4)
SEPARATE_SHAPES = (
    ("N", None, 22, 0),
    ("N", None, 22, 1),
    ("R", None, 22, 0),
    ("N", None, 24, 0),
    ("C", 4, 24, 0),
    ("I", 4, 24, 0),
)
# Grids are narrow so that every seed does about the same work: the
# run-to-run spread of a metric must stay well inside its bound.
WALK_N_LENGTHS = (395_000, 400_000, 405_000)
WALK_N_PREFIXES = (150_000, 200_000, 250_000)
WALK_FIXED = (("C", 6, None), ("I", 6, None), ("R", None, 4000), ("R", None, 8000))


def separate_queries(seed: int) -> list[Query]:
    rng = random.Random(seed)
    scales = iter(rng.sample(N_R_SCALES, len(N_R_SCALES)))
    queries = [
        Query(kind, n, radius, k, n if n is not None else next(scales))
        for kind, n, radius, k in SEPARATE_SHAPES
    ]
    rng.shuffle(queries)
    return queries


def walk_requests(seed: int) -> list[WalkRequest]:
    rng = random.Random(seed)
    length = rng.choice(WALK_N_LENGTHS)
    prefix = rng.choice(WALK_N_PREFIXES)
    # N: miss, exact hit, prefix hit; then each fixed walk: miss, hit
    requests = [WalkRequest("N", None, steps) for steps in (length, length, prefix)]
    for walk in WALK_FIXED:
        requests += [WalkRequest(*walk), WalkRequest(*walk)]
    return requests


def separate_op(q: Query) -> Op:
    args = ["separate", "--kind", q.kind, "--radius", str(q.radius), "--k", str(q.k),
            "--max-radius", str(q.radius), "--probe-n", str(q.probe)]
    if q.n is not None:
        args += ["--n", str(q.n)]
    label = q.kind + (str(q.n) if q.n is not None else "")
    return Op(f"separate {label} R{q.radius} K{q.k} P{q.probe}", tuple(args))


def walk_op(r: WalkRequest) -> Op:
    if r.n is not None:
        return Op(f"walk {r.kind} n{r.n}", ("walk", "--kind", r.kind, "--n", str(r.n)))
    return Op(f"walk {r.kind} {r.steps}", ("walk", "--kind", r.kind, "--steps", str(r.steps)))


VERIFY_OP = Op("verify all", ("verify", "--suite", "all"))


def workload_ops(workload: str, seed: int) -> list[Op]:
    if workload == "verify":
        return [VERIFY_OP]  # the suite has its own fixed seed
    if workload == "separate":
        return [separate_op(q) for q in separate_queries(seed)]
    return [walk_op(r) for r in walk_requests(seed)]


def all_ops() -> dict[str, Op]:
    """Every operation any seed can reach, by digest key."""
    ops = [VERIFY_OP]
    for kind, n, radius, k in SEPARATE_SHAPES:
        for probe in (n,) if n is not None else sorted(set(N_R_SCALES)):
            ops.append(separate_op(Query(kind, n, radius, k, probe)))
    for steps in WALK_N_LENGTHS + WALK_N_PREFIXES:
        ops.append(walk_op(WalkRequest("N", None, steps)))
    for walk in WALK_FIXED:
        ops.append(walk_op(WalkRequest(*walk)))
    return {op.key: op for op in ops}


# ---------------------------------------------------------------- outputs

_CHECK_SECONDS = re.compile(rb"\(\d+\.\ds\)")


def output_digest(key: str, data: bytes) -> str:
    """sha256 of an operation's stdout; verify lines lose their timing field."""
    if key == VERIFY_OP.key:
        data = _CHECK_SECONDS.sub(b"(-)", data)
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


# ---------------------------------------------------------------- children

class ChildRun(NamedTuple):
    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env(cache_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env["LL_COARSE_CACHE_DIR"] = str(cache_dir)
    return env


def run_child(args: tuple[str, ...], env: dict[str, str], workdir: Path) -> ChildRun:
    """Run one ll-coarse invocation to completion; usage from os.wait4."""
    err_path = workdir / "stderr"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *args], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, env=env, cwd=workdir)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            with proc.stdout:
                stdout = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            watchdog.cancel()
            if proc.returncode is None and proc.poll() is None:  # interrupted
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=stdout,
        stderr=err_path.read_bytes(),
    )


def check_op(op: Op, exit_code: int, stdout: bytes, digests: dict[str, str]) -> str | None:
    """None when the operation is correct, else the reason it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if output_digest(op.key, stdout) != digests.get(op.key):
        return "output digest mismatch"
    return None


class OpRun(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool


def run_pass(ops: list[Op], digests: dict[str, str], workdir: Path) -> list[OpRun]:
    """One pass of a workload in a fresh, empty cache directory."""
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    env = child_env(cache)
    runs = []
    for op in ops:
        run = run_child(op.args, env, workdir)
        reason = check_op(op, run.exit_code, run.stdout, digests)
        if reason is not None:
            print(f"FAILED {op.key}: {reason}: {run.stderr.decode(errors='replace')[-300:]}",
                  file=sys.stderr)
        runs.append(OpRun(run.wall_s, run.cpu_s, run.rss_mb, reason is None))
    shutil.rmtree(cache)
    return runs


def measure_setup(workdir: Path) -> float:
    """Median wall time of `ll-coarse --help`: interpreter start plus imports."""
    env = child_env(workdir / "no-cache")
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        run = run_child(("--help",), env, workdir)
        if run.exit_code != 0 or not run.stdout.startswith(b"Usage:"):
            raise RuntimeError(f"ll-coarse --help failed: {run.stderr.decode(errors='replace')}")
        if i:  # the first launch may still be writing bytecode caches
            times.append(run.wall_s)
    return statistics.median(times)


def run_passes(ops: list[Op], digests: dict[str, str], workdir: Path,
               seconds: float) -> list[list[OpRun]]:
    """Whole passes while another one fits in the time left; at least one."""
    passes: list[list[OpRun]] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, digests, workdir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def untraced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, int, int]:
    digests = load_digests()
    setup = measure_setup(workdir)
    passes = run_passes(workload_ops(workload, seed), digests, workdir, seconds)
    runs = [run for p in passes for run in p]
    failed = sum(not run.ok for run in runs)
    # per operation, the median over passes; a burst of contention on the
    # machine then costs one sample instead of a whole pass
    by_op = list(zip(*passes))
    print(f"# {len(passes)} passes, pass walls "
          + " ".join(f"{sum(run.wall_s for run in p):.3f}" for p in passes))
    values = {
        "setup_s": setup,
        "wall_s": sum(statistics.median(run.wall_s for run in op) for op in by_op),
        "cpu_s": sum(statistics.median(run.cpu_s for run in op) for op in by_op),
        "peak_rss_mb": max(run.rss_mb for run in runs),
        "ok_frac": (len(runs) - failed) / len(runs),
    }
    return values, len(runs), failed


# ---------------------------------------------------------------- traced run

class Spans:
    """Per-layer time and counts, recorded around public calls."""

    def __init__(self) -> None:
        self.values: dict[str, float] = dict.fromkeys(LAYER_UNITS, 0)

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def add(self, name: str, amount: float) -> None:
        if name not in self.values:
            raise KeyError(f"metric {name} is not declared")
        self.values[name] += amount


def _import_layers():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lamplighter

    if Path(lamplighter.__file__).resolve().parent != (SRC / "lamplighter").resolve():
        raise RuntimeError(f"imported lamplighter from {lamplighter.__file__}, not {SRC}")
    return lamplighter


def traced_separate(seed: int, digests: dict[str, str], spans: Spans) -> tuple[int, int]:
    ll = _import_layers()
    failed = 0
    queries = separate_queries(seed)
    for q in queries:
        spec = ll.PathSpec(q.kind, q.n)
        ps = ll.probes(q.probe)
        pa, pb = (ps.x_n, ps.y_n) if q.kind in ("I", "C") else (ps.a_n, ps.b_n)
        if q.kind == "I":
            with spans.span("walks.quasi_interval.s"):
                walk = ll.quasi_interval(q.n)
            spans.add("walks.quasi_interval.vertices", len(walk.vertices))
        elif q.kind == "C":
            with spans.span("walks.quasi_circle.s"):
                walk = ll.quasi_circle(q.n)
            spans.add("walks.quasi_circle.vertices", len(walk.vertices))
        with spans.span("coarse.ball.s"):
            b = ll.ball(ll.IDENTITY, q.radius)
        spans.add("coarse.ball.members", b.member_count)
        with spans.span("coarse.path_in_ball.s"):
            path = ll.path_in_ball(spec, b)
        spans.add("coarse.path_in_ball.vertices", len(path))
        with spans.span("coarse.components_after_removal.s"):
            comps = ll.components_after_removal(b, path)
        spans.add("coarse.components.count", len(comps))
        with spans.span("coarse.distance_to_path.s"):
            for p in (pa, pb):
                ll.distance_to_path(p, spec, cap=q.radius)
        spans.add("coarse.distance_to_path.calls", 2)
        # the report repeats the three layers above through private calls
        with spans.span("coarse.separation_report.s"):
            report = ll.separation_report(spec, q.k, q.radius, pa, pb, prebuilt_ball=b)
        text = json.dumps(report.to_dict(), indent=2) + "\n"
        op = separate_op(q)
        if check_op(op, 0, text.encode(), digests) is not None:
            failed += 1
            print(f"FAILED {op.key}: output digest mismatch", file=sys.stderr)
        del b, path, comps, report
    return len(queries), failed


def traced_verify(digests: dict[str, str], spans: Spans) -> tuple[int, int]:
    ll = _import_layers()
    from lamplighter.verify import check_ids, run_checks

    if tuple(check_ids()) != VERIFY_IDS:
        raise RuntimeError(f"verify check ids changed: {check_ids()}")
    lines = []
    passed = 0
    for check_id in VERIFY_IDS:
        with spans.span(f"verify.{check_id}.s"):
            (result,) = run_checks(check_id)
        lines.append(result.line())
        passed += result.passed
    if passed == len(VERIFY_IDS):
        lines.append(f"all {passed} checks passed")
    text = "".join(line + "\n" for line in lines)

    # check 1: the breadth-first oracle and the closed form over its members
    with spans.span("group.bfs_ball.s"):
        oracle = ll.bfs_ball(ll.IDENTITY, 8)
    with spans.span("group.word_distance.s"):
        for v in oracle:
            ll.word_distance(ll.IDENTITY, v)
    spans.add("group.word_distance.calls", len(oracle))
    # checks 5 and 7: line profiles at two index limits
    with spans.span("coarse.distortion_profile.s"):
        for kind in ("N", "R"):
            for limit in (2000, 4000):
                ll.distortion_profile(ll.PathSpec(kind), limit, 4)
    # check 9: the circle family, and the circle builds inside it
    for n in range(1, 6):
        with spans.span("walks.quasi_circle.s"):
            circle = ll.quasi_circle(n)
        spans.add("walks.quasi_circle.vertices", len(circle.vertices))
    with spans.span("coarse.circle_family_distortion.s"):
        ll.circle_family_distortion(range(1, 6), 4)
    spans.add("coarse.circle_family_distortion.pair_scan_s",
              spans.values["coarse.circle_family_distortion.s"]
              - spans.values["walks.quasi_circle.s"])

    failed = int(check_op(VERIFY_OP, 0, text.encode(), digests) is not None)
    if failed:
        print(f"FAILED {VERIFY_OP.key}: output digest mismatch", file=sys.stderr)
    return 1, failed


def _cache_outcome(cache: Path, r: WalkRequest) -> str:
    """What the cache directory holds for a request before it runs."""
    if r.n is not None:
        if any(cache.glob(f"{r.kind}-{r.n}-*.walk")):
            return "hit"
    elif (cache / f"{r.kind}-0-{r.steps}.walk").is_file():
        return "hit"
    if r.kind == "N":
        for path in cache.glob("N-0-*.walk"):
            if int(path.stem.split("-")[2]) > r.steps:
                return "prefix"
    return "miss"


def traced_walks(seed: int, digests: dict[str, str], spans: Spans, workdir: Path) -> tuple[int, int]:
    ll = _import_layers()
    from click.testing import CliRunner

    from lamplighter.cli import main

    constructors = {  # what `walk` builds on a miss, by kind
        "N": ("half_quasi_line", lambda r: ll.half_quasi_line(r.steps)),
        "R": ("quasi_line", lambda r: ll.quasi_line(r.steps // 4, r.steps - 2 * (r.steps // 4))),
        "I": ("quasi_interval", lambda r: ll.quasi_interval(r.n)),
        "C": ("quasi_circle", lambda r: ll.quasi_circle(r.n)),
    }
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    runner = CliRunner()
    requests = walk_requests(seed)
    failed = 0
    for r in requests:
        op = walk_op(r)
        outcome = _cache_outcome(cache, r)
        if outcome == "miss":
            name, build = constructors[r.kind]
            with spans.span(f"walks.{name}.s"):
                walk = build(r)
            spans.add(f"walks.{name}.vertices", len(walk.vertices))
            with spans.span("group.encode_config.s"):
                for v in walk.vertices:
                    ll.encode_config(v)
            spans.add("group.encode_config.calls", len(walk.vertices))
            del walk
        t0 = time.perf_counter()
        result = runner.invoke(main, list(op.args), env={"LL_COARSE_CACHE_DIR": str(cache)})
        took = time.perf_counter() - t0
        if b"corrupt cache entry" in result.stderr_bytes:
            spans.add("cli.walk.corrupt", 1)
            outcome = "miss"
        spans.add({"miss": "cli.walk.misses", "hit": "cli.walk.hits",
                   "prefix": "cli.walk.prefix_hits"}[outcome], 1)
        spans.add("cli.walk.miss_s" if outcome == "miss" else "cli.walk.hit_s", took)
        if outcome != "miss":
            vertex_lines = result.stdout_bytes.decode().splitlines()[1:-1]
            with spans.span("group.decode_config.s"):
                for line in vertex_lines:
                    ll.decode_config(line)
            spans.add("group.decode_config.calls", len(vertex_lines))
        if check_op(op, result.exit_code, result.stdout_bytes, digests) is not None:
            failed += 1
            print(f"FAILED {op.key} ({outcome}): exit {result.exit_code}", file=sys.stderr)
    shutil.rmtree(cache)
    return len(requests), failed


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, int, int]:
    digests = load_digests()
    baseline = run_pass(workload_ops(workload, seed), digests, workdir)
    baseline_wall = sum(run.wall_s for run in baseline)
    runs: list[tuple[Spans, float]] = []
    attempted = len(baseline)
    failed = sum(not run.ok for run in baseline)
    start = time.perf_counter()
    while True:
        spans = Spans()
        t0 = time.perf_counter()
        if workload == "verify":
            n, bad = traced_verify(digests, spans)
        elif workload == "separate":
            n, bad = traced_separate(seed, digests, spans)
        else:
            n, bad = traced_walks(seed, digests, spans, workdir)
        runs.append((spans, time.perf_counter() - t0))
        attempted += n
        failed += bad
        elapsed = time.perf_counter() - start
        if baseline_wall + elapsed + elapsed / len(runs) > seconds:
            break
    values = {
        name: statistics.median(spans.values[name] for spans, _ in runs)
        for name in LAYER_UNITS
    }
    values["trace.traced_total_s"] = statistics.median(total for _, total in runs)
    values["trace.untraced_wall_s"] = baseline_wall
    for name in LAYER_UNITS:
        targets = ", ".join(f"{w} {m}" for w, m in LAYER_MOVES[name])
        print(f"# {name} = {values[name]:.6f} {LAYER_UNITS[name]}  moves: {targets}")
    return values, attempted, failed


# ---------------------------------------------------------------- main

def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "lamplighter" / "cli.py").is_file():
        print(f"error: no lamplighter sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        measure = traced if args.trace else untraced
        values, attempted, failed = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    units = LAYER_UNITS if args.trace else E2E_UNITS
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
