"""Command-line front door: walks, distances, balls, profiles,
separation reports, and the verification suite.

Exit codes: 0 success, 1 verification failure or a walk-cache entry
that changed while it was served, 2 usage error, 3 resource-limit
error.  All outputs are deterministic text.  Two things are cached in
LL_COARSE_CACHE_DIR (default ~/.cache/ll-coarse): generated walks,
under content-addressed names (kind, n, steps), each written, hashed,
checked and served in chunks of about 1 MiB at bounded memory; and, for
separate, the graph of each identity ball (ball-R.graph: sorted keys,
then toggle column), checked by digest, length, key order and toggle
range (every toggle in -1..members-1) before a query at the same radius
uses it.  An entry is committed only when its write ends
normally: its sha256 sidecar first, then the entry, renamed into place.
The ball-local layer (coarse, and with it numpy) is imported only by
the commands that use it, so walk, dist and --help start without numpy.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
from contextlib import ExitStack, contextmanager, nullcontext, suppress
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Iterable, Iterator

import click

from .group import (  # not coarse: it loads numpy, which walk, dist and --help never need
    DEFAULT_INDEX_CAP,
    DEFAULT_MEMBER_CAP,
    DEFAULT_RADIUS_CAP,
    IDENTITY,
    CodecError,
    Configuration,
    ProbeInsideObstacleError,
    ProbeOutsideBallError,
    ResourceLimitError,
    decode_config,
    encode_config,
    encode_vertices,
    sphere_sizes,
    word_distance,
)
from .walks import Walk, intrinsic_step_count, path_walk, probes

if TYPE_CHECKING:
    from .coarse import Ball


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


def _resource_exit(exc: ResourceLimitError) -> None:
    click.echo(f"resource limit: {exc}", err=True)
    sys.exit(3)


# ---------------------------------------------------------------- walks

# Walk files are built, hashed, checked and served in pieces of about this
# many bytes, so no command holds a whole walk file in memory.
_CHUNK = 1 << 20


def _line(obj: dict) -> bytes:
    return (json.dumps(obj, separators=(",", ":")) + "\n").encode()


def _batches(lines: Iterable[str]) -> Iterator[bytes]:
    """Text lines (without their newlines) in batches of about _CHUNK
    bytes, each line ending in a newline."""
    batch, size = [], 0
    for line in lines:
        batch.append(line)
        size += len(line)
        if size >= _CHUNK:
            batch.append("")  # ends the batch in a newline without copying it
            yield "\n".join(batch).encode()
            batch, size = [], 0
    if batch:
        batch.append("")
        yield "\n".join(batch).encode()


def _walk_chunks(walk: Walk) -> Iterator[bytes]:
    """The walk file of a walk: a header line, one vertex per line in
    batches of about _CHUNK bytes, then the milestones."""
    yield _line({"kind": walk.kind, "n": walk.n, "steps": walk.step_count})
    yield from _batches(encode_vertices(walk.start, walk.cursors))
    yield _line({"milestones": dict(walk.milestones)})


def _cache_dir() -> Path:
    return Path(os.environ.get("LL_COARSE_CACHE_DIR") or Path.home() / ".cache" / "ll-coarse")


def _kept_digest(entry: Path) -> str | None:
    """The sha256 of a cache entry's bytes as kept in its sidecar,
    entry.sha256; None (a mismatch) when the sidecar cannot be read."""
    try:
        return Path(f"{entry}.sha256").read_text().strip()
    except (OSError, UnicodeDecodeError):
        return None


def _cached_chunks(stack: ExitStack, path: Path, header: dict, prefix: int) -> Iterator[bytes] | None:
    """The walk file of the first prefix steps of a cache entry, in
    _CHUNK-byte pieces read from a file that stack closes; None when the
    entry fails a check.

    One pass of reads checks the sha256 in the sidecar (missing counts
    as a mismatch), counts lines and finds where the header, the vertex
    at index prefix and the last vertex end; the header and the trailer
    (milestones mapping labels to int indices) are then read back by
    offset and checked.  The whole entry is copied byte for byte; a
    shorter prefix gets a new header and the milestones it reaches."""
    import hashlib  # loads OpenSSL (about 3.5 MB); only the walk cache needs it

    try:
        handle = stack.enter_context(path.open("rb"))
    except OSError:
        return None
    cut = prefix + 2  # header and prefix + 1 vertices
    digest, pos, lines, body, cut_at = hashlib.sha256(), 0, 0, 0, 0
    prev = last = -1  # offsets of the last two newlines
    try:
        while chunk := handle.read(_CHUNK):
            digest.update(chunk)
            count = chunk.count(b"\n")
            if count:
                body = body or pos + chunk.index(b"\n") + 1
                if lines < cut <= lines + count:  # from the end: exact hits cut the last vertex
                    cut_at = pos + len(chunk.rsplit(b"\n", lines + count - cut + 1)[0]) + 1
                i = chunk.rindex(b"\n")
                j = chunk.rfind(b"\n", 0, i)
                prev, last = (pos + j if j >= 0 else last), pos + i
                lines += count
            pos += len(chunk)
        # header, steps + 1 vertices and milestones, each line ending in a newline
        if digest.hexdigest() != _kept_digest(path) or lines != header["steps"] + 3 or last != pos - 1:
            raise ValueError(path)
        handle.seek(0)
        if json.loads(handle.read(body)) != header:
            raise ValueError(path)
        handle.seek(prev + 1)
        trailer = json.loads(handle.read(last - prev))
        if not (isinstance(trailer, dict) and set(trailer) == {"milestones"}
                and isinstance(milestones := trailer["milestones"], dict)
                and set(map(type, milestones.values())) <= {int}):  # bools are not indices
            raise ValueError(path)
    except (OSError, ValueError):  # json and utf-8 errors are ValueErrors
        handle.close()
        return None
    if prefix == header["steps"]:
        return _file_chunks(handle, b"", 0, pos, b"")
    trimmed = {k: v for k, v in milestones.items() if v <= prefix}
    return _file_chunks(handle, _line({**header, "steps": prefix}), body, cut_at,
                        _line({"milestones": trimmed}))


def _file_chunks(handle: BinaryIO, head: bytes, start: int, stop: int, tail: bytes) -> Iterator[bytes]:
    """head, then the bytes [start, stop) of a checked cache entry _CHUNK
    at a time, then tail.  An entry that reads short or fails to read
    has changed since its check: a ClickException (exit 1) naming it."""
    yield head
    try:
        handle.seek(start)
        while start < stop:
            chunk = handle.read(min(_CHUNK, stop - start))
            if not chunk:
                raise OSError(f"it ended at {start}, before {stop}")
            start += len(chunk)
            yield chunk
    except OSError as exc:
        raise click.ClickException(
            f"cache entry {Path(handle.name).name} changed while it was served: {exc}")
    yield tail


def _cache_hit(stack: ExitStack, kind: str, n: int | None, steps: int
               ) -> tuple[Iterator[bytes] | None, bool]:
    """The walk file of the first steps steps of the shortest cached
    entry of this kind and scale that checks out, and whether that entry
    has exactly steps steps; (None, False) when none does.  Entries with
    steps steps qualify, and for kind N, the one prefix-stable walk,
    longer ones too.  Each entry that fails a check is reported."""
    name = re.compile(rf"{kind}-{n or 0}-([1-9]\d*)\.walk")
    found = (int(m[1]) for p in _cache_dir().glob(f"{kind}-{n or 0}-*.walk")
             if (m := name.fullmatch(p.name)))
    for cached in sorted(c for c in found if c == steps or kind == "N" and c > steps):
        path = _cache_dir() / f"{kind}-{n or 0}-{cached}.walk"
        chunks = _cached_chunks(stack, path, {"kind": kind, "n": n, "steps": cached}, steps)
        if chunks is not None:
            return chunks, cached == steps
        click.echo(f"warning: corrupt cache entry {path.name}, ignoring", err=True)
    return None, False


@contextmanager
def _stored(entry: Path) -> Iterator[Callable[[bytes | memoryview], None]]:
    """Store the cache entry that the with-block writes through the yielded
    function, each chunk to a temp file beside the entry and to a sha256.
    Only when the block ends normally is the sidecar written, then the
    temp file renamed into place.  A failure is one warning, after which
    writes are dropped; on any exit, whatever was not committed is gone."""
    import hashlib  # loads OpenSSL (about 3.5 MB); only the caches need it

    digest, failed, handle, tmp = hashlib.sha256(), False, None, None

    def fail(exc: OSError) -> None:
        nonlocal failed
        failed = True
        click.echo(f"warning: cache store failed: {exc}", err=True)

    def write(chunk: bytes | memoryview) -> None:
        if not failed:
            digest.update(chunk)
            try:
                handle.write(chunk)
            except OSError as exc:
                fail(exc)

    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
        handle = os.fdopen(fd, "wb")
    except OSError as exc:
        fail(exc)
    try:
        yield write
        if not failed:
            try:
                handle.close()
                with open(tmp + ".sha256", "w") as side:  # unique beside the unique tmp
                    side.write(digest.hexdigest() + "\n")
                os.replace(tmp + ".sha256", f"{entry}.sha256")
                os.replace(tmp, entry)
                tmp = None
            except OSError as exc:
                fail(exc)
    finally:
        if handle is not None:
            with suppress(OSError):  # a failed write may leave bytes it cannot flush
                handle.close()
        for path in () if tmp is None else (tmp, tmp + ".sha256"):
            with suppress(OSError):
                os.unlink(path)


def _write_output(chunks: Iterable[bytes], out: str, entry: Path | None = None) -> None:
    """Write the chunks to the output (- for stdout) and, when entry is
    given, store them in the cache on the way."""
    with _stored(entry) if entry is not None else nullcontext(lambda chunk: None) as store:
        try:
            with (nullcontext(click.get_binary_stream("stdout")) if out == "-"
                  else open(out, "wb")) as sink:
                for chunk in chunks:
                    sink.write(chunk)
                    store(chunk)
        except OSError as exc:
            raise click.UsageError(f"cannot write {out}: {exc}")


# ---------------------------------------------------------------- balls

def _cached_ball(entry: Path, radius: int, members: int) -> Ball | None:
    """ball(e, radius) from its cache entry, None when the entry fails a
    check.

    The entry holds the sorted key table (uint64), then the toggle
    column (int32), little-endian: 12 bytes per member.  Its length must
    match the closed-form member count and its bytes the sha256 in the
    sidecar (missing counts as a mismatch), and the keys must strictly
    increase and the toggles lie in -1..members - 1, before the ball is
    built from them; the right-neighbour links follow from the keys."""
    import hashlib

    import numpy as np

    from .coarse import Ball

    try:
        with entry.open("rb") as handle:
            data = np.empty(12 * members, dtype=np.uint8)
            if os.fstat(handle.fileno()).st_size != len(data) or handle.readinto(data) != len(data):
                return None
    except OSError:
        return None
    keys = data[:8 * members].view("<u8")
    toggles = data[8 * members:].view("<i4")
    if not (hashlib.sha256(data).hexdigest() == _kept_digest(entry)
            and np.all(keys[1:] > keys[:-1]) and toggles.min() >= -1 and toggles.max() < members):
        return None
    return Ball(IDENTITY, radius, keys, toggles)


def _identity_ball(radius: int, member_cap: int) -> Ball:
    """ball(e, radius) with its toggle column, served from the cache entry
    ball-R.graph when it checks out; otherwise built and stored there.
    The radius and member caps fail before any entry is read."""
    from .coarse import ball, ball_member_count

    members = ball_member_count(radius, member_cap)
    entry = _cache_dir() / f"ball-{radius}.graph"
    if os.path.exists(entry):
        b = _cached_ball(entry, radius, members)
        if b is not None:
            return b
        click.echo(f"warning: corrupt cache entry {entry.name}, ignoring", err=True)
    b = ball(IDENTITY, radius, member_cap=member_cap)
    with _stored(entry) as store:
        for column, dtype in ((b.keys, "<u8"), (b.toggles, "<i4")):
            store(memoryview(column.astype(dtype, copy=False)).cast("B"))
    return b


# ---------------------------------------------------------------- commands

@click.group()
def main() -> None:
    """Lamplighter word metric, explicit walks, and ball-local
    separation evidence."""
    # before any command imports numpy: no command makes a BLAS call, and
    # verify forks its workers, which is safe only while single-threaded
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


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
        steps = intrinsic_step_count(kind, n)
    with ExitStack() as stack:  # closes the cache entry that the output is read from
        chunks, exact = (None, False) if no_cache else _cache_hit(stack, kind, n, steps)
        if chunks is None:
            chunks = _walk_chunks(path_walk(kind, n, steps))
        # a miss or a prefix hit is stored under its content-addressed name
        entry = None if no_cache or exact else _cache_dir() / f"{kind}-{n or 0}-{steps}.walk"
        _write_output(chunks, out, entry)


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
    from .coarse import ball, encode_members
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
        "sphere_sizes": list(sphere_sizes(radius)),  # left-invariant: as at e
    }
    _write_output(chain([_line(header)], _batches(encode_members(b))), out)


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
    from .coarse import PathSpec, check_m_max, circle_family_distortion, distortion_profile
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
        _write_output([fam.csv_text().encode()], out)
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
    _write_output([prof.csv_text().encode()], out)


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
    from .coarse import PathSpec, separation_report
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
    if k_neighborhood < 0:  # before any ball is read or built
        raise click.UsageError("K must be nonnegative")
    try:
        b = _identity_ball(radius, member_cap)
        report = separation_report(spec, k_neighborhood, radius, pa, pb, prebuilt_ball=b)
    except ResourceLimitError as exc:
        _resource_exit(exc)
    except (ProbeOutsideBallError, ProbeInsideObstacleError, ValueError) as exc:
        raise click.UsageError(str(exc))
    _write_output([(json.dumps(report.to_dict(), indent=2) + "\n").encode()], out)


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
