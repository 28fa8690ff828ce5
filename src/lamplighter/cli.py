"""Command-line front door: walks, distances, balls, profiles,
separation reports, and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 resource-limit error.  All outputs are deterministic text; generated
walks are cached under content-addressed names (kind, n, steps) in
LL_COARSE_CACHE_DIR (default ~/.cache/ll-coarse).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import click

from .coarse import (
    DEFAULT_INDEX_CAP,
    DEFAULT_MEMBER_CAP,
    DEFAULT_RADIUS_CAP,
    PathSpec,
    ProbeInsideObstacleError,
    ProbeOutsideBallError,
    ResourceLimitError,
    ball,
    check_m_max,
    circle_family_distortion,
    distortion_profile,
    separation_report,
)
from .group import (
    CodecError,
    Configuration,
    decode_config,
    encode_config,
    encode_vertices,
    word_distance,
)
from .walks import Walk, half_quasi_line, probes, quasi_circle, quasi_interval, quasi_line


def _parse_config(text: str, flag: str) -> Configuration:
    try:
        return decode_config(text)
    except CodecError as exc:
        raise click.UsageError(f"{flag}: {exc}")


def _enforce_cap(value: int, default_cap: int, override: int | None, what: str, flag: str) -> None:
    cap = default_cap if override is None else override
    if value > cap:
        raise click.UsageError(
            f"{what} {value} exceeds the cap {cap}; raise it explicitly with {flag}"
        )


def _write_output(text: str, out: str) -> None:
    if out == "-":
        click.echo(text, nl=False)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {out}: {exc}")


def _resource_exit(exc: ResourceLimitError) -> None:
    click.echo(f"resource limit: {exc}", err=True)
    sys.exit(3)


# ---------------------------------------------------------------- walks

def _walk_text(walk: Walk) -> str:
    header = {"kind": walk.kind, "n": walk.n, "steps": walk.step_count}
    trailer = {"milestones": dict(walk.milestones)}
    return "\n".join([  # the empty last item ends the text in a newline without copying it
        json.dumps(header, separators=(",", ":")),
        *encode_vertices(walk.start, walk.cursors()),
        json.dumps(trailer, separators=(",", ":")),
        "",
    ])


def _cache_dir() -> Path:
    env = os.environ.get("LL_COARSE_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ll-coarse"


def _cache_name(kind: str, n: int | None, steps: int) -> str:
    return f"{kind}-{n if n is not None else 0}-{steps}.walk"


def _digest(text: str) -> str:
    import hashlib  # loads OpenSSL (about 3.5 MB); only the walk cache needs it

    return hashlib.sha256(text.encode()).hexdigest()


def _sidecar(path: Path) -> Path:
    """Where the sha256 of a cache entry's text is kept."""
    return path.with_name(path.name + ".sha256")


def _last_line(text: str) -> str:
    """The last line of a text that ends in a newline, without it."""
    return text[text.rfind("\n", 0, -1) + 1 : -1]


def _validate_walk_text(text: str, kind: str, n: int | None, steps: int) -> bool:
    # header + vertices + milestones, each line ending in a newline
    if not text.endswith("\n") or text.count("\n") != steps + 3:
        return False
    try:
        header = json.loads(text[: text.index("\n")])
        trailer = json.loads(_last_line(text))
    except json.JSONDecodeError:
        return False
    if header != {"kind": kind, "n": n, "steps": steps}:
        return False
    return isinstance(trailer, dict) and set(trailer) == {"milestones"}


def _read_entry(path: Path, kind: str, n: int | None, steps: int) -> str | None:
    """The text of a cache entry, or None when it does not match the
    digest in its sidecar (missing counts as a mismatch), the length or
    the header of the walk it is named for."""
    try:
        text = path.read_text()
        digest = _sidecar(path).read_text().strip()
    except (OSError, UnicodeDecodeError):
        return None
    if digest != _digest(text) or not _validate_walk_text(text, kind, n, steps):
        return None
    return text


def _cache_lookup_exact(kind: str, n: int | None, steps: int) -> str | None:
    exact = _cache_dir() / _cache_name(kind, n, steps)
    if exact.is_file():
        text = _read_entry(exact, kind, n, steps)
        if text is not None:
            return text
        click.echo(f"warning: corrupt cache entry {exact.name}, regenerating", err=True)
    return None


def _cache_lookup_prefix(kind: str, steps: int) -> str | None:
    """A longer cached half-quasi-line yields the requested prefix
    (trimmed header, vertices, and milestones): the walk is a
    prefix-stable sequence.  Only kind N is prefix-stable."""
    cache = _cache_dir()
    if kind != "N" or not cache.is_dir():
        return None
    candidates = []
    for path in cache.glob("N-0-*.walk"):
        try:
            cached_steps = int(path.stem.split("-")[2])
        except (IndexError, ValueError):
            continue
        if cached_steps > steps:
            candidates.append((cached_steps, path))
    for cached_steps, path in sorted(candidates):
        text = _read_entry(path, "N", None, cached_steps)
        if text is None:
            click.echo(f"warning: corrupt cache entry {path.name}, ignoring", err=True)
            continue
        lines = text.split("\n", steps + 2)  # header, steps + 1 vertices, the rest
        header = json.dumps({"kind": "N", "n": None, "steps": steps}, separators=(",", ":"))
        milestones = json.loads(_last_line(text))["milestones"]
        trimmed = {k: v for k, v in milestones.items() if v <= steps}
        trailer = json.dumps({"milestones": trimmed}, separators=(",", ":"))
        return "\n".join([header, *lines[1 : steps + 2], trailer, ""])
    return None


def _write_atomic(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    with os.fdopen(fd, "w") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _cache_store(kind: str, n: int | None, steps: int, text: str) -> None:
    """Store a walk after its digest sidecar, so that a walk is never in
    place without its digest."""
    path = _cache_dir() / _cache_name(kind, n, steps)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(_sidecar(path), _digest(text) + "\n")
        _write_atomic(path, text)
    except OSError as exc:
        click.echo(f"warning: cache store failed: {exc}", err=True)


def _build_walk(kind: str, n: int | None, steps: int | None) -> Walk:
    if kind == "N":
        return half_quasi_line(steps)
    if kind == "R":
        neg = steps // 4
        return quasi_line(neg, steps - 2 * neg)
    if kind == "I":
        return quasi_interval(n)
    return quasi_circle(n)


# ---------------------------------------------------------------- commands

@click.group()
def main() -> None:
    """Lamplighter word metric, explicit walks, and ball-local
    separation evidence."""


@main.command()
@click.option("--kind", type=click.Choice(["N", "R", "I", "C"]), required=True)
@click.option("--n", type=int, default=None, help="Scale for kinds I and C.")
@click.option("--steps", type=int, default=None, help="Step count for kinds N and R.")
@click.option("--out", default="-", help="Output path, - for stdout.")
@click.option("--no-cache", is_flag=True, help="Bypass the walk cache.")
def walk(kind: str, n: int | None, steps: int | None, out: str, no_cache: bool) -> None:
    """Generate a walk file: header, one vertex per line, milestones."""
    if kind in ("N", "R"):
        if steps is None or steps < 1:
            raise click.UsageError(f"kind {kind} needs --steps >= 1")
        if n is not None:
            raise click.UsageError(f"kind {kind} takes no --n")
    else:
        if n is None or n < 1:
            raise click.UsageError(f"kind {kind} needs --n >= 1")
        if steps is not None:
            raise click.UsageError(f"kind {kind} has intrinsic length; drop --steps")
    if kind in ("I", "C"):
        built = _build_walk(kind, n, None)
        steps = built.step_count
        walk_n = n
    else:
        built = None
        walk_n = None
    text = None if no_cache else _cache_lookup_exact(kind, walk_n, steps)
    if text is None:
        if not no_cache:
            text = _cache_lookup_prefix(kind, steps)
        if text is None:
            text = _walk_text(built if built is not None else _build_walk(kind, None, steps))
        if not no_cache:
            _cache_store(kind, walk_n, steps, text)
    _write_output(text, out)


@main.command()
@click.option("--from", "from_text", required=True, help="Configuration JSON.")
@click.option("--to", "to_text", required=True, help="Configuration JSON.")
def dist(from_text: str, to_text: str) -> None:
    """Word distance between two configurations (closed form)."""
    g = _parse_config(from_text, "--from")
    h = _parse_config(to_text, "--to")
    click.echo(str(word_distance(g, h)))


@main.command(name="ball")
@click.option("--radius", type=int, required=True)
@click.option("--center", default='{"cursor":0,"lamps":[]}', help="Configuration JSON.")
@click.option("--out", default="-")
@click.option("--max-radius", type=int, default=None,
              help=f"Raise the radius cap (default {DEFAULT_RADIUS_CAP}).")
@click.option("--member-cap", type=int, default=DEFAULT_MEMBER_CAP, show_default=True)
def ball_cmd(radius: int, center: str, out: str, max_radius: int | None, member_cap: int) -> None:
    """Enumerate a metric ball: summary header plus one member per line."""
    if radius < 0:
        raise click.UsageError("--radius must be nonnegative")
    _enforce_cap(radius, DEFAULT_RADIUS_CAP, max_radius, "radius", "--max-radius")
    center_cfg = _parse_config(center, "--center")
    try:
        b = ball(center_cfg, radius, member_cap=member_cap)
    except ResourceLimitError as exc:
        _resource_exit(exc)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    header = {
        "center": json.loads(encode_config(center_cfg)),
        "radius": radius,
        "members": b.member_count,
        "sphere_sizes": b.sphere_sizes(),
    }
    lines = [json.dumps(header, separators=(",", ":"))]
    for cfg, d in b.items():
        lines.append(json.dumps(
            {"d": d, "cursor": cfg.cursor, "lamps": cfg.sorted_lamps()},
            separators=(",", ":"),
        ))
    _write_output("\n".join(lines) + "\n", out)


@main.command()
@click.option("--kind", type=click.Choice(["N", "R", "I", "C"]), default=None)
@click.option("--n", type=int, default=None, help="Scale for kinds I and C.")
@click.option("--index-limit", type=int, default=2000, show_default=True)
@click.option("--m-max", type=int, default=4, show_default=True)
@click.option("--family", default=None,
              help="Comma-separated circle scales; emits the family profile.")
@click.option("--max-index", type=int, default=None,
              help=f"Raise the index cap (default {DEFAULT_INDEX_CAP}).")
@click.option("--max-radius", type=int, default=None,
              help=f"Raise the cap on --m-max, the radius of B(e, M) (default {DEFAULT_RADIUS_CAP}).")
@click.option("--out", default="-")
def profile(kind: str | None, n: int | None, index_limit: int, m_max: int,
            family: str | None, max_index: int | None, max_radius: int | None,
            out: str) -> None:
    """Distortion profile CSV: D(M) = max index gap at distance <= M.

    Circles are profiled over the whole cycle with the cyclic index
    metric; --index-limit applies to the open kinds.  D(M) is exact over
    all pairs; the cost grows as |B(e, M)| times the walk length."""
    try:
        check_m_max(m_max)
    except ValueError as exc:
        raise click.UsageError(f"--m-max: {exc}")
    _enforce_cap(m_max, DEFAULT_RADIUS_CAP, max_radius, "--m-max", "--max-radius")
    if family is not None:
        if kind not in (None, "C"):
            raise click.UsageError("--family profiles circles; drop --kind")
        try:
            ns = [int(x) for x in family.split(",")]
        except ValueError:
            raise click.UsageError(f"--family: not a comma-separated int list: {family!r}")
        try:
            fam = circle_family_distortion(ns, m_max)
        except ResourceLimitError as exc:
            _resource_exit(exc)
        except ValueError as exc:
            raise click.UsageError(f"--family: {exc}")
        _write_output(fam.csv_text(), out)
        return
    if kind is None:
        raise click.UsageError("need --kind or --family")
    if kind in ("N", "R", "I"):
        _enforce_cap(index_limit, DEFAULT_INDEX_CAP, max_index, "index limit", "--max-index")
    try:
        spec = PathSpec(kind, n)
        prof = distortion_profile(spec, index_limit, m_max)
    except ResourceLimitError as exc:
        _resource_exit(exc)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write_output(prof.csv_text(), out)


@main.command()
@click.option("--kind", type=click.Choice(["N", "R", "I", "C"]), required=True)
@click.option("--n", type=int, default=None, help="Scale for kinds I and C.")
@click.option("--k", "k_neighborhood", type=int, default=0, show_default=True,
              help="Neighborhood width removed around the obstacle.")
@click.option("--radius", type=int, required=True)
@click.option("--probe-n", type=int, default=None,
              help="Probe scale; defaults to the obstacle scale or 2.")
@click.option("--probe-a", default=None, help="Override probe A (configuration JSON).")
@click.option("--probe-b", default=None, help="Override probe B (configuration JSON).")
@click.option("--max-radius", type=int, default=None,
              help=f"Raise the radius cap (default {DEFAULT_RADIUS_CAP}).")
@click.option("--member-cap", type=int, default=DEFAULT_MEMBER_CAP, show_default=True)
@click.option("--out", default="-")
def separate(kind: str, n: int | None, k_neighborhood: int, radius: int,
             probe_n: int | None, probe_a: str | None, probe_b: str | None,
             max_radius: int | None, member_cap: int, out: str) -> None:
    """Remove an obstacle neighborhood from a ball and report components."""
    _enforce_cap(radius, DEFAULT_RADIUS_CAP, max_radius, "radius", "--max-radius")
    try:
        spec = PathSpec(kind, n)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    scale = probe_n if probe_n is not None else (n if n is not None else 2)
    if scale < 1:
        raise click.UsageError("--probe-n must be >= 1")
    ps = probes(scale)
    default_a, default_b = (
        (ps.x_n, ps.y_n) if kind in ("I", "C") else (ps.a_n, ps.b_n)
    )
    pa = _parse_config(probe_a, "--probe-a") if probe_a else default_a
    pb = _parse_config(probe_b, "--probe-b") if probe_b else default_b
    try:
        report = separation_report(
            spec, k_neighborhood, radius, pa, pb, member_cap=member_cap
        )
    except ResourceLimitError as exc:
        _resource_exit(exc)
    except (ProbeOutsideBallError, ProbeInsideObstacleError, ValueError) as exc:
        raise click.UsageError(str(exc))
    _write_output(json.dumps(report.to_dict(), indent=2) + "\n", out)


@main.command()
@click.option("--suite", default="all", show_default=True,
              help="'all' or a check id prefix such as 6.")
def verify(suite: str) -> None:
    """Run the verification suite; exit 1 if any check fails."""
    from .verify import run_checks

    try:
        results = run_checks(suite)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    failed = 0
    for result in results:
        click.echo(result.line())
        if not result.passed:
            failed += 1
    if failed:
        click.echo(f"{failed} of {len(results)} checks failed", err=True)
        sys.exit(1)
    click.echo(f"all {len(results)} checks passed")


if __name__ == "__main__":
    main()
