"""Desk-scale verification suite.

Each check re-derives one claimed property from scratch (independent
oracle, exhaustive enumeration, or frozen construction identity) and
returns a pass/fail result with a one-line detail.  The suite is what
`ll-coarse verify` runs; the test suite asserts every check passes.

The checks share no state, so `run_checks` runs each selected check in
its own child made with `fork` (cheap, since the modules are already
loaded, and the child sees the check table as it stands), all at once.
A worker pickles its one result onto its own pipe and leaves with
`os._exit`.  The caller reads the pipes in table order, reaps every
child and returns the results; a worker that dies without reporting
fails its check.  A check is timed in CPU seconds of the process that
ran it, so its time is its own however many workers share the CPUs.
With one check, or without `os.fork`, nothing is forked.  Forking is
safe only in a single-threaded process, which is why `ll-coarse` keeps
numpy's OpenBLAS to one thread.
"""

from __future__ import annotations

import math
import os
import pickle
import random
import signal
import time
from dataclasses import dataclass
from typing import Callable

from .coarse import (
    PathSpec,
    _line_stages,
    ball,
    circle_family_distortion,
    distance_to_path,
    distortion_profile,
    path_in_ball,
    separation_report,
)
from .group import (
    EXCEEDS,
    IDENTITY,
    Configuration,
    bfs_ball,
    compose,
    decode_config,
    dyadic_views,
    encode_config,
    invert,
    word_distance,
)
from .walks import (
    VisitedVertices,
    half_quasi_line,
    probes,
    quasi_circle,
    quasi_interval,
    quasi_line,
    stage_config,
    stage_walk,
)

_SEED = 20260814

# id, name and the function that returns (passed, detail)
_Check = tuple[str, str, Callable[[], tuple[bool, str]]]


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.check_id}  {self.name}  ({self.seconds:.1f}s)  {self.detail}"


def _check_metric_oracle() -> tuple[bool, str]:
    oracle = bfs_ball(IDENTITY, 8)
    mismatches = sum(
        1 for v, d in oracle.items() if word_distance(IDENTITY, v) != d
    )
    return mismatches == 0, f"B(e,8): {len(oracle)} members, {mismatches} mismatches"


def _random_config(rng: random.Random) -> Configuration:
    lamps = rng.sample(range(-6, 7), rng.randint(0, 5))
    return Configuration(lamps, rng.randint(-6, 6))


def _check_group_laws() -> tuple[bool, str]:
    rng = random.Random(_SEED)
    trials = 10_000
    failures = 0
    for _ in range(trials):
        g, h, k = (_random_config(rng) for _ in range(3))
        ok = (
            compose(compose(g, h), k) == compose(g, compose(h, k))
            and compose(g, IDENTITY) == g
            and compose(IDENTITY, g) == g
            and compose(g, invert(g)) == IDENTITY
            and compose(invert(g), g) == IDENTITY
            and word_distance(h, k) == word_distance(compose(g, h), compose(g, k))
        )
        if not ok:
            failures += 1
    return failures == 0, f"{trials} random triples, {failures} failures"


def _check_line_well_formed() -> tuple[bool, str]:
    walk = half_quasi_line(100_000)
    ms = walk.milestones
    last_index = -1
    ordered = True
    stages = {}  # vertex index -> the stages whose milestone it is
    for n in range(4097):
        label = f"c{n}"
        if label not in ms:
            return False, f"milestone {label} missing"
        idx = ms[label]
        ordered = ordered and idx > last_index
        last_index = idx
        stages.setdefault(idx, []).append(n)
    # one pass over the replay: an exact visited set for distinctness,
    # and each milestone vertex against its stage as the stream passes it
    visited = VisitedVertices()
    count = fresh = matched = 0
    for idx, v in enumerate(walk.iter_vertices()):
        fresh += visited.add(v)
        count += 1
        for n in stages.get(idx, ()):
            if v == stage_config(n) and dyadic_views(v) == (n, 0):
                matched += 1
    distinct = fresh == count
    ok = distinct and ordered and matched == 4097
    return ok, (
        f"{count} vertices distinct={distinct}, "
        f"milestones c0..c4096 in order, {matched}/4097 equal stage configs"
    )


def _check_stage_depth() -> tuple[bool, str]:
    worst = math.inf
    near = []  # (vertex, distance from e) of the stages below 2**10
    lows = {}  # stage -> its min distance from e
    for n in range(4097):
        dists = [(v, word_distance(IDENTITY, v)) for v in stage_walk(n).iter_vertices()]
        if n < 1 << 10:
            near.append(dists)
        if n == 0:
            continue
        floor_log = n.bit_length() - 1
        low = lows[n] = min(d for _, d in dists)
        if low < floor_log:
            return False, f"stage {n}: min distance {low} < floor(log2)={floor_log}"
        worst = min(worst, low - floor_log)
    # a stage meets ball(e, r) once r >= low, so the line enumeration at
    # radius low must already hold it: one enumeration per distinct low,
    # since at one larger radius a stage enumerated too late would pass
    enumerated = {
        r: {s for stages in _line_stages(r).values() for s in stages[stages <= 4096].tolist()}
        for r in set(lows.values())
    }
    for n, low in lows.items():
        if n not in enumerated[low]:
            return False, f"stage {n}: min distance {low} but not in _line_stages({low})"
    # the enumeration against a brute replay of every stage below 2**(r+2)
    stable = True
    for r in range(1, 9):
        brute = {v for dists in near[:1 << (r + 2)] for v, d in dists if d <= r}
        stable = stable and path_in_ball(PathSpec("N"), ball(IDENTITY, r)) == brute
    return stable, (
        f"stages 1..4096 all >= floor(log2), min slack {int(worst)}; "
        f"path_in_ball stage-bound stable for r<=8: {stable}"
    )


def _check_line_distortion() -> tuple[bool, str]:
    p2 = distortion_profile(PathSpec("N"), 2000, 4)
    p4 = distortion_profile(PathSpec("N"), 4000, 4)
    monotone = all(a <= b for a, b in zip(p4.entries, p4.entries[1:]))
    ok = p2.entries == p4.entries and monotone
    return ok, f"D(0..4)={list(p4.entries)}, monotone={monotone}, 2000 vs 4000 equal={p2.entries == p4.entries}"


def _check_line_separation() -> tuple[bool, str]:
    parts = []
    for n in (2, 3, 4):
        ps = probes(n)
        radius = 5 * n + 2
        rep = separation_report(PathSpec("N"), 0, radius, ps.a_n, ps.b_n)
        da = rep.probes[0].distance_to_obstacle
        db = rep.probes[1].distance_to_obstacle
        ok = (
            rep.verdict == "separated-in-ball"
            and da is not None
            and db is not None
            and da >= n
            and db >= n
        )
        parts.append(f"n={n}@R{radius}:{rep.verdict},d=({da},{db})")
        if not ok:
            return False, " ".join(parts)
    return True, " ".join(parts)


def _check_quasi_line() -> tuple[bool, str]:
    walk = quasi_line(500, 2000)
    simple = walk.is_simple()
    p2 = distortion_profile(PathSpec("R"), 2000, 4)
    p4 = distortion_profile(PathSpec("R"), 4000, 4)
    ps = probes(2)
    rep = separation_report(PathSpec("R"), 0, 12, ps.a_n, ps.b_n)
    ok = simple and p2.entries == p4.entries and rep.verdict == "separated-in-ball"
    return ok, (
        f"simple={simple}, D(0..4)={list(p4.entries)} stable={p2.entries == p4.entries}, "
        f"separation@R12={rep.verdict}"
    )


def _check_intervals_circles() -> tuple[bool, str]:
    parts = []
    for n in (1, 2, 3):
        interval = quasi_interval(n)
        circle = quasi_circle(n)
        i1 = interval.milestones["I1_end"]
        i2 = interval.milestones["I2_end"]
        mirrored = interval.cursors[i2:] == [2 * n - c for c in interval.cursors[:i1 + 1]]
        final_ok = interval.end == Configuration(range(2 * n + 1), 2 * n)
        simple = interval.is_simple() and circle.closed and circle.is_simple()
        ps = probes(n)
        dx = distance_to_path(ps.x_n, PathSpec("I", n), cap=5 * n + 4)
        dy = distance_to_path(ps.y_n, PathSpec("I", n), cap=5 * n + 4)
        # the packed replay against a scan of the interval's own vertices
        brute = [min(word_distance(p, w) for w in interval.iter_vertices()) for p in (ps.x_n, ps.y_n)]
        dist_ok = (
            [dx, dy] == [d if d <= 5 * n + 4 else EXCEEDS for d in brute]
            and dx is not EXCEEDS and dy is not EXCEEDS and dx >= n and dy >= n
        )
        b = ball(IDENTITY, 5 * n + 4)
        rep_i = separation_report(PathSpec("I", n), 0, 5 * n + 4, ps.x_n, ps.y_n, prebuilt_ball=b)
        rep_c = separation_report(PathSpec("C", n), 0, 5 * n + 4, ps.x_n, ps.y_n, prebuilt_ball=b)
        sep_ok = (
            rep_i.verdict == "separated-in-ball"
            and rep_c.verdict == "separated-in-ball"
        )
        ok = mirrored and final_ok and simple and dist_ok and sep_ok
        parts.append(
            f"n={n}:simple={simple},mirror={mirrored},end={final_ok},"
            f"d=({dx},{dy}),I/C sep={sep_ok}"
        )
        if not ok:
            return False, " ".join(parts)
    return True, " ".join(parts)


def _check_circle_family() -> tuple[bool, str]:
    # the family maximum first moves while short counters still dominate
    # (M=4 is attained from scale 4 on), so stabilization is checked by
    # extending {1..4} to {1..5}; the {1..3} prefix must already agree
    # for every M <= 3
    fam5 = circle_family_distortion(range(1, 6), 4)

    def family_max(ns: list[int], m: int) -> int:
        return max(fam5.profiles[n].entries[m] for n in ns)

    h4 = [family_max([1, 2, 3, 4], m) for m in range(5)]
    h3 = [family_max([1, 2, 3], m) for m in range(5)]
    stable_45 = tuple(h4) == fam5.h
    stable_low = tuple(h3[:4]) == fam5.h[:4]
    ok = stable_45 and stable_low
    return ok, (
        f"h{{1..5}}={list(fam5.h)} == h{{1..4}}={h4}: {stable_45}; "
        f"h{{1..3}} M<=3 {h3[:4]} agrees: {stable_low}"
    )


def _check_cli_determinism() -> tuple[bool, str]:
    from click.testing import CliRunner

    from .cli import main

    oracle = bfs_ball(IDENTITY, 6)
    bad = sum(1 for v in oracle if decode_config(encode_config(v)) != v)
    runner = CliRunner()
    args = ["profile", "--kind", "N", "--index-limit", "500", "--m-max", "3", "--out", "-"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    cli_ok = (
        first.exit_code == 0
        and second.exit_code == 0
        and first.output == second.output
    )
    return bad == 0 and cli_ok, (
        f"codec round-trip on {len(oracle)} members: {bad} failures; "
        f"repeated profile runs byte-identical: {cli_ok}"
    )


_CHECKS: list[_Check] = [
    ("1-metric-oracle", "closed-form metric equals BFS on B(e,8)", _check_metric_oracle),
    ("2-group-laws", "group laws and metric left-invariance", _check_group_laws),
    ("3-line-well-formed", "half-quasi-line distinct with counter milestones", _check_line_well_formed),
    ("4-stage-depth", "stage depth lower bound and enumeration stability", _check_stage_depth),
    ("5-line-distortion", "half-quasi-line distortion finite and stable", _check_line_distortion),
    ("6-line-separation", "half-quasi-line separates its probe pairs", _check_line_separation),
    ("7-quasi-line", "quasi-line simple, stable profile, separating", _check_quasi_line),
    ("8-intervals-circles", "quasi-intervals and circles: shape and separation", _check_intervals_circles),
    ("9-circle-family", "circle family distortion stabilizes", _check_circle_family),
    ("10-determinism-codec", "codec round-trip and byte-identical CLI output", _check_cli_determinism),
]


def check_ids() -> list[str]:
    return [check_id for check_id, _, _ in _CHECKS]


def _run_check(check: _Check) -> CheckResult:
    check_id, name, fn = check
    t0 = time.process_time()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crashed check is a failed check
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(check_id, name, passed, detail, time.process_time() - t0)


def _fork_check(check: _Check, inherited: list[int]) -> tuple[int, int]:
    """Fork a worker that runs the check and pickles its result onto a
    pipe; return its pid and the pipe's read end.  inherited are the
    read ends of earlier workers, which the child closes."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child: whatever happens, it leaves through os._exit
        code = 1
        try:
            for fd in (read_fd, *inherited):
                os.close(fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run_check(check)))
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def run_checks(selection: str = "all") -> list[CheckResult]:
    """Run the verification suite, or a single check by id or prefix,
    each selected check in its own worker; results in table order."""
    selected = [check for check in _CHECKS
                if selection in ("all", check[0], check[0].split("-")[0])]
    if not selected:
        raise ValueError(f"no check matches {selection!r}")
    if len(selected) == 1 or not hasattr(os, "fork"):
        return [_run_check(check) for check in selected]
    children: list[tuple[int, int]] = []  # pid and read end per worker
    outputs: list[bytes] = []
    try:
        for check in selected:
            children.append(_fork_check(check, [fd for _, fd in children]))
        for _, fd in children:
            with open(fd, "rb", closefd=False) as pipe:
                outputs.append(pipe.read())
    finally:
        statuses = []
        for pid, fd in children:
            os.close(fd)
            if len(outputs) < len(children):  # interrupted: stop the workers
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    results = []
    for (check_id, name, _), data, status in zip(selected, outputs, statuses):
        try:
            results.append(pickle.loads(data))
        except (EOFError, pickle.UnpicklingError):  # the worker died before reporting
            code = os.waitstatus_to_exitcode(status)
            results.append(CheckResult(check_id, name, False,
                                       f"worker exited with code {code} before reporting", 0.0))
    return results
