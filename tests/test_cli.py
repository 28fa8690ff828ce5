"""CLI layer: command output formats, cache behavior, exit codes."""

import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from lamplighter import (
    IDENTITY,
    Configuration,
    PathSpec,
    ResourceLimitError,
    Walk,
    ball,
    circle_family_distortion,
    cli,
    decode_config,
    distance_to_path,
    distortion_profile,
    encode_config,
    half_quasi_line,
    path_in_ball,
    probes,
    quasi_circle,
    separation_report,
    verify,
)
from lamplighter import coarse
from lamplighter.cli import main
from lamplighter.walks import path_walk

from conftest import oracle_members

WALK_N12 = """\
{"kind":"N","n":null,"steps":12}
{"cursor":0,"lamps":[]}
{"cursor":0,"lamps":[0]}
{"cursor":-1,"lamps":[0]}
{"cursor":-1,"lamps":[-1,0]}
{"cursor":0,"lamps":[-1,0]}
{"cursor":0,"lamps":[-1]}
{"cursor":1,"lamps":[-1]}
{"cursor":1,"lamps":[-1,1]}
{"cursor":0,"lamps":[-1,1]}
{"cursor":-1,"lamps":[-1,1]}
{"cursor":-1,"lamps":[1]}
{"cursor":0,"lamps":[1]}
{"cursor":0,"lamps":[0,1]}
{"milestones":{"c0":0,"c1":1,"c2":11,"c3":12}}
"""


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def cache_env(tmp_path):
    return {"LL_COARSE_CACHE_DIR": str(tmp_path / "cache")}


def run(runner, env, *args, code=0):
    result = runner.invoke(main, list(args), env=env)
    assert result.exit_code == code, result.stderr or result.output
    return result


class FullAfterOneChunk(io.BufferedWriter):
    """A cache temp file whose disk fills after its first chunk."""
    chunks = 0

    def write(self, chunk):
        self.chunks += 1
        if self.chunks > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(chunk)


def fill_after_one_chunk(monkeypatch):
    monkeypatch.setattr(cli.os, "fdopen", lambda fd, mode: FullAfterOneChunk(io.FileIO(fd, "w")))


DISK_FULL = f"warning: cache store failed: {OSError(errno.ENOSPC, 'No space left on device')}\n"


class TestWalkCommand:
    def test_half_line_file_format(self, runner, cache_env):
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.output == WALK_N12

    def test_intrinsic_length_for_circles(self, runner, cache_env):
        r = run(runner, cache_env, "walk", "--kind", "C", "--n", "1", "--out", "-")
        lines = r.output.splitlines()
        assert lines[0] == '{"kind":"C","n":1,"steps":86}'
        assert len(lines) == 89  # header + 87 vertices + trailer
        assert lines[1] == lines[-2] == '{"cursor":0,"lamps":[0]}'
        assert json.loads(lines[-1])["milestones"]["closing_start"] == 82

    def test_line_starts_on_the_negative_ray(self, runner, cache_env):
        r = run(runner, cache_env, "walk", "--kind", "R", "--steps", "16", "--out", "-")
        lines = r.output.splitlines()
        assert lines[1] == '{"cursor":-4,"lamps":[-4,-3,-2,-1]}'
        assert json.loads(lines[-1])["milestones"]["origin"] == 8

    def test_writes_to_file(self, runner, cache_env, tmp_path):
        out = tmp_path / "walk.txt"
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", str(out))
        assert out.read_text() == WALK_N12

    def test_scaled_kinds_need_n(self, runner, cache_env):
        r = runner.invoke(main, ["walk", "--kind", "I"], env=cache_env)
        assert r.exit_code == 2
        assert "--n" in r.stderr

    def test_scaled_kinds_reject_steps(self, runner, cache_env):
        r = runner.invoke(main, ["walk", "--kind", "I", "--steps", "5"], env=cache_env)
        assert r.exit_code == 2


@pytest.mark.parametrize("args,message", [
    (["walk", "--kind", "N"], "kind N needs --steps >= 1"),
    (["walk", "--kind", "N", "--steps", "5", "--n", "2"], "kind N takes no --n"),
    (["walk", "--kind", "I", "--n", "2", "--steps", "5"], "kind I has intrinsic length; drop --steps"),
    (["ball", "--radius", "-1"], "--radius must be nonnegative"),
    (["profile", "--family", "1,2", "--kind", "N"], "--family profiles circles; drop --kind"),
    (["profile", "--family", "1,x"], "--family: not a comma-separated int list: '1,x'"),
    (["profile", "--family", "7"], "--family: circle scales must be within 1..6"),
    (["profile"], "need --kind or --family"),
    (["profile", "--kind", "I"], "kind I needs n >= 1"),
    (["separate", "--kind", "I", "--radius", "4"], "kind I needs n >= 1"),
    (["separate", "--kind", "N", "--n", "3", "--radius", "4"], "kind N takes no n"),
    (["separate", "--kind", "N", "--radius", "4", "--probe-n", "0"], "--probe-n must be >= 1"),
])
def test_usage_errors(runner, cache_env, args, message):
    r = runner.invoke(main, args, env=cache_env)
    assert r.exit_code == 2
    assert r.stdout == ""
    assert r.stderr.splitlines()[-1] == f"Error: {message}"
    assert not os.path.exists(cache_env["LL_COARSE_CACHE_DIR"])  # refused before any work


def reference_walk_text(walk):
    """The walk file written from Walk.vertices, one encode_config per vertex."""
    header = json.dumps({"kind": walk.kind, "n": walk.n, "steps": walk.step_count},
                        separators=(",", ":"))
    trailer = json.dumps({"milestones": walk.milestones}, separators=(",", ":"))
    return "\n".join([header, *(encode_config(v) for v in walk.vertices), trailer]) + "\n"


@pytest.mark.parametrize(
    "kind,n,steps",
    [("N", None, 5000), ("R", None, 400), ("R", None, 2000),
     ("I", 1, None), ("I", 2, None), ("I", 3, None),
     ("C", 1, None), ("C", 2, None), ("C", 3, None)],
    ids=["N5000", "R400", "R2000", "I1", "I2", "I3", "C1", "C2", "C3"],
)
def test_walk_text_matches_the_vertices(kind, n, steps):
    walk = path_walk(kind, n, steps)
    lines = b"".join(cli._walk_chunks(walk)).decode().splitlines(keepends=True)
    expected = reference_walk_text(walk).splitlines(keepends=True)
    assert len(lines) == len(expected)
    wrong = [i for i, (a, b) in enumerate(zip(lines, expected)) if a != b]
    assert not wrong, f"{len(wrong)} lines differ, first {wrong[0]}: {lines[wrong[0]]!r}"
    if kind == "C":  # closed: the last vertex line repeats the base
        assert lines[-2] == lines[1]


# sha256 of the `ll-coarse walk --out -` bytes, frozen from the walks as
# built from generator steps, before they were built as cursors
WALK_FILE_DIGESTS = {
    ("N", "--steps", 5000): "07c7aff9bd182027f04f8c8db42b2bbbb73c768ec1fa07355d2d4242da271b5e",
    ("R", "--steps", 2000): "869b930c9524347dc187dad2076e9f903beeeb99203644987a0b9a85ceb7b01d",
    ("I", "--n", 1): "3cec039a99ed660a55122586baaabde52ad7d961f7f422404215b62b189550c5",
    ("I", "--n", 2): "81d02efaf38747a499b834d4c88ed37d6fdcf5dd8153280ae542330008c288e1",
    ("I", "--n", 3): "31c7e5feb21483e4a2318115adcab1b10b4633f599b2647aa35d61fa4e4cf82e",
    ("I", "--n", 4): "78b28e1413f738fd8cd72f1258f9ebd1186fb953ee4a208835d2eb30315fd527",
    ("I", "--n", 5): "286199c744c2c52393819abb98abdcec898378ea92cb76b466ce649a614e1c04",
    ("I", "--n", 6): "f2ff613aaf0d0c6d7d55f8b7d55fec44ac43ab95849599deb69c141d6cf5887f",
    ("C", "--n", 1): "855f2e33f84ce7f7770b0e33ae2b6d620d56f3c666e55ff25dfda073aae0ebc8",
    ("C", "--n", 2): "8f1bd10426d88dc632e62552bf54b0238e83216bcbd7cd90e77841c23bb6405e",
    ("C", "--n", 3): "e71580bbebd76b8ea8a28af5babb1450d80da9eb4c017f2cbea0948a0e95f62b",
    ("C", "--n", 4): "fd9193498b710c9331ed549ea5c31d9ef70161ff781ef1ec2b4cebc13017f831",
    ("C", "--n", 5): "f7c3bc1e2fe881a7bb4b6521f0d91a10ce01d71179a47f7874cd63a3229ab830",
    ("C", "--n", 6): "3e1e744e2d396dcf41d1519fd30d692d20f80ade689d553769a477b00153fe25",
}


@pytest.mark.parametrize("kind,flag,value", WALK_FILE_DIGESTS,
                         ids=[f"{k}{v}" for k, _, v in WALK_FILE_DIGESTS])
def test_walk_file_bytes_are_frozen(runner, cache_env, kind, flag, value):
    r = run(runner, cache_env, "walk", "--kind", kind, flag, str(value), "--out", "-")
    assert hashlib.sha256(r.stdout_bytes).hexdigest() == WALK_FILE_DIGESTS[kind, flag, value]


def test_profiles_and_walk_files_do_not_build_vertices(runner, cache_env, monkeypatch):
    def no_vertices(self):
        raise AssertionError("Walk.vertices was built")

    monkeypatch.setattr(Walk, "vertices", property(no_vertices))
    with pytest.raises(AssertionError, match="Walk.vertices"):
        quasi_circle(1).vertices
    assert distortion_profile(PathSpec("N"), 2000, 4).entries == (0, 1, 6, 31, 32)
    distortion_profile(PathSpec("R"), 2000, 4)
    distortion_profile(PathSpec("I", 2), 2000, 4)
    circle_family_distortion([1, 2, 3], 4)
    b = ball(IDENTITY, 12)
    ps = probes(2)
    for spec, size, dists in ((PathSpec("I", 2), 324, [2, 2, 2, 7]),
                              (PathSpec("C", 2), 330, [2, 3, 1, 7]),
                              (PathSpec("R"), 155, [2, 1, 2, 0])):
        assert len(path_in_ball(spec, b)) == size
        report = separation_report(spec, 0, 12, ps.x_n, ps.y_n, prebuilt_ball=b)
        assert report.verdict == "separated-in-ball"
        probe_dists = [distance_to_path(v, spec, 12)
                       for v in (ps.x_n, ps.y_n, ps.a_n, Configuration([5], -3))]
        assert probe_dists == dists, spec
    miss = run(runner, cache_env, "walk", "--kind", "C", "--n", "2")
    assert len(os.listdir(cache_env["LL_COARSE_CACHE_DIR"])) == 2  # the walk and its digest
    hit = run(runner, cache_env, "walk", "--kind", "C", "--n", "2")
    assert hit.output == miss.output
    assert "warning" not in hit.stderr


class TestWalkCache:
    def cache_dir(self, env):
        return env["LL_COARSE_CACHE_DIR"]

    def test_stores_under_content_addressed_name(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        run(runner, cache_env, "walk", "--kind", "C", "--n", "1", "--out", "-")
        assert sorted(os.listdir(self.cache_dir(cache_env))) == [
            "C-1-86.walk",
            "C-1-86.walk.sha256",
            "N-0-12.walk",
            "N-0-12.walk.sha256",
        ]

    def test_cache_hit_is_byte_identical(self, runner, cache_env):
        first = run(runner, cache_env, "walk", "--kind", "N", "--steps", "200", "--out", "-")
        second = run(runner, cache_env, "walk", "--kind", "N", "--steps", "200", "--out", "-")
        assert first.output == second.output

    def test_longer_entry_serves_shorter_request(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "200", "--out", "-")
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.output == WALK_N12
        # The trimmed prefix materializes as its own entry.
        assert "N-0-12.walk" in os.listdir(self.cache_dir(cache_env))

    def test_corrupt_entry_is_regenerated(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        path = os.path.join(self.cache_dir(cache_env), "N-0-12.walk")
        with open(path, "w") as fh:
            fh.write("{garbage\n")
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert "corrupt" in r.stderr
        with open(path) as fh:
            assert fh.read() == WALK_N12

    def overwrite_vertex(self, env, name, index):
        """Replace vertex index of a cached walk by another valid vertex."""
        path = os.path.join(self.cache_dir(env), name)
        with open(path) as fh:
            lines = fh.readlines()
        replacement = '{"cursor":0,"lamps":[2]}\n'
        assert lines[1 + index] != replacement
        lines[1 + index] = replacement
        with open(path, "w") as fh:
            fh.writelines(lines)

    def test_overwritten_interior_vertex_is_regenerated(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        self.overwrite_vertex(cache_env, "N-0-12.walk", 6)
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert "corrupt cache entry N-0-12.walk" in r.stderr
        with open(os.path.join(self.cache_dir(cache_env), "N-0-12.walk")) as fh:
            assert fh.read() == WALK_N12

    def test_overwritten_interior_vertex_is_not_served_as_a_prefix(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "200", "--out", "-")
        self.overwrite_vertex(cache_env, "N-0-200.walk", 6)
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert "corrupt cache entry N-0-200.walk" in r.stderr

    def test_exact_entry_is_read_before_a_longer_one(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "200", "--out", "-")
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        self.overwrite_vertex(cache_env, "N-0-200.walk", 6)
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert r.stderr == ""

    def test_corrupt_exact_entry_is_served_from_a_longer_one_and_replaced(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "200", "--out", "-")
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        long_path = os.path.join(self.cache_dir(cache_env), "N-0-200.walk")
        with open(long_path, "rb") as fh:
            long_bytes = fh.read()
        path = os.path.join(self.cache_dir(cache_env), "N-0-12.walk")
        with open(path, "w") as fh:
            fh.write("{garbage\n")
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert r.stderr.count("N-0-12.walk") == 1
        with open(path) as fh:
            assert fh.read() == WALK_N12
        with open(long_path, "rb") as fh:
            assert fh.read() == long_bytes

    def test_line_is_never_served_as_a_prefix(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "R", "--steps", "40", "--out", "-")
        r = run(runner, cache_env, "walk", "--kind", "R", "--steps", "16", "--out", "-")
        assert r.stdout == reference_walk_text(path_walk("R", steps=16))
        assert "R-0-16.walk" in os.listdir(self.cache_dir(cache_env))

    def test_undecodable_entry_is_regenerated(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        with open(os.path.join(self.cache_dir(cache_env), "N-0-12.walk"), "wb") as fh:
            fh.write(b"\xff\xfe\n")
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert "corrupt" in r.stderr

    def test_entry_without_digest_is_regenerated(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        os.remove(os.path.join(self.cache_dir(cache_env), "N-0-12.walk.sha256"))
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert "corrupt" in r.stderr
        assert "N-0-12.walk.sha256" in os.listdir(self.cache_dir(cache_env))

    def test_entry_is_not_placed_without_its_digest(self, runner, cache_env, monkeypatch):
        replace = os.replace

        def failing_sidecar(src, dst):
            if str(dst).endswith(".sha256"):
                raise OSError("no space left")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", failing_sidecar)
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert "cache store failed: no space left" in r.stderr
        assert os.listdir(self.cache_dir(cache_env)) == []  # no entry and no temp file

    @pytest.mark.parametrize("kind", ["I", "C"])
    def test_scaled_hit_does_not_build_the_walk(self, runner, cache_env, monkeypatch, kind):
        miss = run(runner, cache_env, "walk", "--kind", kind, "--n", "2")

        def no_build(*args):
            raise AssertionError("the walk was built on a hit")

        monkeypatch.setattr(cli, "path_walk", no_build)
        hit = run(runner, cache_env, "walk", "--kind", kind, "--n", "2")
        assert hit.output == miss.output

    def test_no_cache_flag_skips_storage(self, runner, cache_env):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--no-cache", "--out", "-")
        assert not os.path.exists(os.path.join(self.cache_dir(cache_env), "N-0-12.walk"))

    def test_entry_with_another_header_is_regenerated(self, runner, cache_env):
        # R-0-12 under the name N-0-12 has a matching digest and line count,
        # so only the header check can catch it
        run(runner, cache_env, "walk", "--kind", "R", "--steps", "12", "--out", "-")
        cache = Path(self.cache_dir(cache_env))
        for suffix in ("", ".sha256"):
            (cache / f"N-0-12.walk{suffix}").write_bytes((cache / f"R-0-12.walk{suffix}").read_bytes())
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stderr == "warning: corrupt cache entry N-0-12.walk, ignoring\n"
        fresh = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--no-cache", "--out", "-")
        assert r.stdout_bytes == fresh.stdout_bytes == WALK_N12.encode()

    def test_output_into_a_missing_directory_leaves_no_temp_file(self, runner, cache_env, tmp_path):
        out = tmp_path / "missing" / "walk.txt"
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", str(out), code=2)
        assert f"cannot write {out}" in r.stderr
        assert os.listdir(self.cache_dir(cache_env)) == []  # the store dropped its open temp file

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_output_onto_a_full_device_leaves_no_entry(self, runner, cache_env):
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "/dev/full", code=2)
        assert "cannot write /dev/full" in r.stderr
        assert os.listdir(self.cache_dir(cache_env)) == []  # no entry, temp file or sidecar

    def test_failed_temp_file_write_is_one_warning(self, runner, cache_env, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK", 64)
        fill_after_one_chunk(monkeypatch)
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", "12", "--out", "-")
        assert r.stdout == WALK_N12
        assert r.stderr == DISK_FULL  # the later chunks are dropped without a warning
        assert os.listdir(self.cache_dir(cache_env)) == []

    @pytest.mark.parametrize("steps", [2000, 1000], ids=["exact", "prefix"])
    def test_entry_that_shrinks_while_served_exits_one(self, runner, cache_env, monkeypatch, steps):
        run(runner, cache_env, "walk", "--kind", "N", "--steps", "2000", "--out", "-")
        cache = self.cache_dir(cache_env)
        before = sorted(os.listdir(cache))
        checked = cli._cached_chunks

        def shrink_after_the_check(stack, path, header, prefix):
            chunks = checked(stack, path, header, prefix)
            os.truncate(path, 100)
            return chunks

        monkeypatch.setattr(cli, "_cached_chunks", shrink_after_the_check)
        r = run(runner, cache_env, "walk", "--kind", "N", "--steps", str(steps), "--out", "-", code=1)
        assert "cache entry N-0-2000.walk changed while it was served" in r.stderr
        assert "cannot write" not in r.stderr
        assert sorted(os.listdir(cache)) == before  # no new entry, temp file or sidecar


class TestWalkCacheChunks:
    """Entries are built, hashed, checked and served in cli._CHUNK-byte
    pieces; chunks of a few bytes put a boundary inside every line."""

    @pytest.fixture(params=[1, 7, 64], ids=["chunk1", "chunk7", "chunk64"])
    def chunk(self, request, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK", request.param)
        return request.param

    def walk(self, runner, env, steps, *extra):
        return run(runner, env, "walk", "--kind", "N", "--steps", str(steps), *extra)

    def entry(self, env, steps):
        return os.path.join(env["LL_COARSE_CACHE_DIR"], f"N-0-{steps}.walk")

    def assert_regenerated(self, runner, env, steps):
        r = self.walk(runner, env, steps)
        assert r.stdout == reference_walk_text(half_quasi_line(steps))
        assert f"corrupt cache entry N-0-{steps}.walk" in r.stderr
        with open(self.entry(env, steps)) as fh:
            assert fh.read() == r.stdout

    def test_miss_and_exact_hit(self, runner, cache_env, chunk):
        want = reference_walk_text(half_quasi_line(200))
        assert self.walk(runner, cache_env, 200).stdout == want
        hit = self.walk(runner, cache_env, 200)
        assert hit.stdout == want
        assert hit.stderr == ""

    def test_prefix_hit(self, runner, cache_env, chunk):
        self.walk(runner, cache_env, 200)
        r = self.walk(runner, cache_env, 12)
        assert r.stdout == WALK_N12 == reference_walk_text(half_quasi_line(12))
        with open(self.entry(cache_env, 12)) as fh:
            assert fh.read() == WALK_N12
        assert self.walk(runner, cache_env, 12).stdout == WALK_N12  # the new entry checks out

    def test_prefix_hit_with_a_trailer_over_several_chunks(self, runner, cache_env, chunk):
        self.walk(runner, cache_env, 3000)
        with open(self.entry(cache_env, 3000), "rb") as fh:
            trailer = fh.read().splitlines()[-1]
        assert len(trailer) > 2 * chunk
        r = self.walk(runner, cache_env, 2999)
        assert r.stdout == reference_walk_text(half_quasi_line(2999))
        assert r.stderr == ""

    def test_overwritten_interior_vertex(self, runner, cache_env, chunk):
        self.walk(runner, cache_env, 12)
        TestWalkCache().overwrite_vertex(cache_env, "N-0-12.walk", 6)
        self.assert_regenerated(runner, cache_env, 12)

    def test_undecodable_bytes(self, runner, cache_env, chunk):
        self.walk(runner, cache_env, 12)
        with open(self.entry(cache_env, 12), "wb") as fh:
            fh.write(b"\xff\xfe\n")
        self.assert_regenerated(runner, cache_env, 12)

    def replace_entry(self, env, steps, data):
        """Overwrite an entry and its sidecar, so that its digest matches."""
        path = self.entry(env, steps)
        with open(path, "wb") as fh:
            fh.write(data)
        with open(path + ".sha256", "w") as fh:
            fh.write(hashlib.sha256(data).hexdigest() + "\n")

    def test_undecodable_header_under_a_matching_digest(self, runner, cache_env, chunk):
        self.walk(runner, cache_env, 12)
        self.replace_entry(cache_env, 12, b"\xff\xfe" + WALK_N12[WALK_N12.index("\n"):].encode())
        self.assert_regenerated(runner, cache_env, 12)

    def test_unterminated_last_line_under_a_matching_digest(self, runner, cache_env, chunk):
        self.walk(runner, cache_env, 12)
        self.replace_entry(cache_env, 12, WALK_N12.encode() + b"junk")  # same line count
        self.assert_regenerated(runner, cache_env, 12)

    def test_missing_sidecar(self, runner, cache_env, chunk):
        self.walk(runner, cache_env, 12)
        os.remove(self.entry(cache_env, 12) + ".sha256")
        self.assert_regenerated(runner, cache_env, 12)

    @pytest.mark.parametrize("trailer", [b'{"milestones":[]}', b'{"milestones":{"c0":"x"}}',
                                         b'{"milestones":{"c0":true}}'],
                             ids=["list", "str-index", "bool-index"])
    @pytest.mark.parametrize("steps", [12, 5], ids=["exact", "prefix"])
    def test_malformed_milestones_under_a_matching_digest(self, runner, cache_env, chunk,
                                                           trailer, steps):
        self.walk(runner, cache_env, 12)
        body = WALK_N12.encode()
        self.replace_entry(cache_env, 12, body[:body.rindex(b"\n{") + 1] + trailer + b"\n")
        r = self.walk(runner, cache_env, steps)
        assert r.stdout == reference_walk_text(half_quasi_line(steps))
        assert r.stderr == "warning: corrupt cache entry N-0-12.walk, ignoring\n"
        with open(self.entry(cache_env, steps)) as fh:  # regenerated, or the prefix stored
            assert fh.read() == r.stdout

    def test_no_cache(self, runner, cache_env, chunk):
        r = self.walk(runner, cache_env, 200, "--no-cache")
        assert r.stdout == reference_walk_text(half_quasi_line(200))
        assert not os.path.exists(cache_env["LL_COARSE_CACHE_DIR"])


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("args", [
    ["walk", "--kind", "N", "--steps", "12", "--no-cache"],
    ["dist", "--from", '{"cursor":0,"lamps":[]}', "--to", '{"cursor":2,"lamps":[0,1]}'],
    ["--help"],
], ids=["walk", "dist", "help"])
def test_starts_without_numpy(args, tmp_path):
    """Without numpy, and without OpenSSL's _hashlib (about 3.5 MB)
    unless the walk cache is read or written."""
    code = (
        "import sys\n"
        "from lamplighter.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:], prog_name='ll-coarse')\n"
        "finally:\n"
        "    print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr)\n"
        "    print('_hashlib loaded:', '_hashlib' in sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "LL_COARSE_CACHE_DIR": str(tmp_path)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout
    lines = done.stderr.splitlines()
    assert lines[-2] == "numpy loaded: False"
    if args[0] != "walk" or "--no-cache" in args:
        assert lines[-1] == "_hashlib loaded: False"


ENTRY = "import sys; from lamplighter.cli import main; main(sys.argv[1:], prog_name='ll-coarse')"


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")], ids=["default", "preset"])
def test_openblas_threads_default(tmp_path, preset, want):
    """ll-coarse keeps numpy's OpenBLAS to one thread unless told otherwise,
    so that verify forks its workers from a single-threaded process."""
    code = (
        "import os, sys\n"
        "from lamplighter.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:], prog_name='ll-coarse')\n"
        "finally:\n"
        "    tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1\n"
        "    print(os.environ.get('OPENBLAS_NUM_THREADS'), tasks, file=sys.stderr)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env.update(PYTHONPATH=str(SRC), LL_COARSE_CACHE_DIR=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", code, "ball", "--radius", "2"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    value, tasks = done.stderr.splitlines()[-1].split()
    assert value == want
    if preset is None:  # numpy is loaded and no thread was started
        assert tasks == "1"


def test_verify_runs_clean_in_dev_mode(tmp_path):
    """Under -X dev -W error an unclosed pipe or a fork with threads
    running would be an error."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "LL_COARSE_CACHE_DIR": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", ENTRY, "verify", "--suite", "all"],
        env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == verify.check_ids()


def test_killed_verify_leaves_no_workers(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "LL_COARSE_CACHE_DIR": str(tmp_path)}
    proc = subprocess.Popen([sys.executable, "-c", ENTRY, "verify", "--suite", "all"], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    time.sleep(0.5)
    proc.kill()
    proc.wait(timeout=10)
    deadline = time.monotonic() + 10
    try:
        while True:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "verify workers outlived their killed parent"
            time.sleep(0.05)
    finally:
        with suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


def test_cache_hits_start_without_numpy(tmp_path):
    """A miss, its exact hit and a prefix hit, each in a fresh
    interpreter sharing one cache directory."""
    for steps in ("200", "200", "12"):
        test_starts_without_numpy(["walk", "--kind", "N", "--steps", steps], tmp_path)
    assert sorted(os.listdir(tmp_path)) == [  # the prefix hit stored its own entry
        "N-0-12.walk", "N-0-12.walk.sha256", "N-0-200.walk", "N-0-200.walk.sha256"]


def test_package_names_resolve_on_first_use():
    import lamplighter

    assert callable(lamplighter.ball)
    from lamplighter import separation_report

    assert separation_report is coarse.separation_report
    assert lamplighter.ResourceLimitError is coarse.ResourceLimitError
    assert lamplighter.__all__ == PACKAGE_NAMES
    assert all(getattr(lamplighter, name) is not None for name in lamplighter.__all__)
    with pytest.raises(AttributeError):
        lamplighter.no_such_name


PACKAGE_NAMES = """
EXCEEDS IDENTITY CodecError Configuration bfs_ball compose
decode_config dyadic_views encode_config invert neighbors word_distance
ProbeSet Walk half_quasi_line probes quasi_circle quasi_interval quasi_line
stage_config stage_cursors stage_walk trailing_ones Ball CircleFamilyDistortion
Component DistortionProfile PathSpec ProbeInsideObstacleError ProbeOutsideBallError
ProbePlacement ResourceLimitError SeparationReport ball circle_family_distortion
components_after_removal distance_to_path distortion_profile path_in_ball
separation_report
""".split()


class TestDistCommand:
    def test_prints_the_distance(self, runner):
        r = run(
            runner, None,
            "dist", "--from", '{"cursor":0,"lamps":[]}',
            "--to", '{"cursor":2,"lamps":[0,1,2,3]}',
        )
        assert r.output == "8\n"

    def test_rejects_malformed_config(self, runner):
        r = runner.invoke(main, ["dist", "--from", "{bad", "--to", '{"cursor":0,"lamps":[]}'])
        assert r.exit_code == 2
        assert "--from" in r.stderr


def ball_output(center, radius):
    """The bytes of `ball` by the Configuration route: a header whose
    sphere sizes count the oracle distances, then one line per member of
    the packed ball, in key order, formatted from its Configuration."""
    members = list(oracle_members(coarse.ball(center, radius)))
    sizes = [0] * (radius + 1)
    for _, d in members:
        sizes[d] += 1
    header = json.dumps({"center": json.loads(encode_config(center)), "radius": radius,
                         "members": len(members), "sphere_sizes": sizes},
                        separators=(",", ":"))
    lines = [json.dumps({"d": d, "cursor": g.cursor, "lamps": g.sorted_lamps()},
                        separators=(",", ":")) for g, d in members]
    return ("\n".join([header, *lines]) + "\n").encode()


class TestBallCommand:
    def test_output_layout(self, runner, cache_env):
        r = run(runner, cache_env, "ball", "--radius", "2", "--out", "-")
        lines = r.output.splitlines()
        assert json.loads(lines[0]) == {
            "center": {"cursor": 0, "lamps": []},
            "radius": 2,
            "members": 10,
            "sphere_sizes": [1, 3, 6],
        }
        assert lines[1] == '{"d":2,"cursor":-2,"lamps":[]}'
        assert len(lines) == 11

    def test_members_stream_in_batches(self, runner, cache_env, monkeypatch):
        sizes = []
        write = cli._write_output
        monkeypatch.setattr(cli, "_write_output", lambda chunks, out, entry=None: write(
            (sizes.append(len(chunk)) or chunk for chunk in chunks), out, entry))
        r = run(runner, cache_env, "ball", "--radius", "16", "--max-radius", "16", "--out", "-")
        assert r.stdout_bytes == ball_output(IDENTITY, 16)
        assert len(sizes) > 2 and max(sizes) < 2 * cli._CHUNK  # header, then batches

    @pytest.mark.parametrize("center", ['{"cursor":0,"lamps":[]}', '{"cursor":3,"lamps":[-2,0,5]}'])
    def test_members_match_the_configuration_route(self, runner, cache_env, center):
        # the recentred ball has lamps on both sides of its cursor, so the
        # key's lamp bits are shifted by the center's cursor and xored
        # with the center's lamps
        for radius in range(11):
            r = run(runner, cache_env, "ball", "--radius", str(radius), "--max-radius", "10",
                    "--center", center, "--out", "-")
            assert r.stdout_bytes == ball_output(decode_config(center), radius), radius

    def test_members_are_read_off_the_keys(self, runner, cache_env, monkeypatch):
        want = ball_output(IDENTITY, 8)

        def no_unpack(self, key):
            raise AssertionError("a ball member was unpacked into a Configuration")

        monkeypatch.setattr(coarse.Ball, "unpack", no_unpack)
        r = run(runner, cache_env, "ball", "--radius", "8", "--out", "-")
        assert r.stdout_bytes == want

    def test_center_option(self, runner, cache_env):
        r = run(runner, cache_env, "ball", "--radius", "1",
                "--center", '{"cursor":3,"lamps":[]}', "--out", "-")
        assert json.loads(r.output.splitlines()[0])["center"] == {"cursor": 3, "lamps": []}

    def test_radius_cap_names_the_override(self, runner, cache_env):
        r = runner.invoke(main, ["ball", "--radius", "13"], env=cache_env)
        assert r.exit_code == 2
        assert "--max-radius" in r.stderr

    def test_radius_cap_override(self, runner, cache_env):
        r = run(runner, cache_env, "ball", "--radius", "13", "--max-radius", "13", "--out", "-")
        assert json.loads(r.output.splitlines()[0])["members"] == 6974

    def test_member_cap_is_a_resource_exit(self, runner, cache_env):
        r = runner.invoke(main, ["ball", "--radius", "4", "--member-cap", "10"], env=cache_env)
        assert r.exit_code == 3
        assert "resource limit" in r.stderr

    def test_radius_past_the_packing_window_is_a_usage_error(self, runner, cache_env):
        r = runner.invoke(main, ["ball", "--radius", "29", "--max-radius", "29"], env=cache_env)
        assert r.exit_code == 2
        assert "packing window" in r.stderr
        assert "Traceback" not in r.output + r.stderr


class TestProfileCommand:
    def test_csv_output(self, runner, cache_env):
        r = run(runner, cache_env, "profile", "--kind", "C", "--n", "1",
                "--m-max", "3", "--out", "-")
        assert r.output == "M,D\n0,0\n1,13\n2,42\n3,43\n"

    def test_byte_deterministic(self, runner, cache_env):
        args = ("profile", "--kind", "N", "--index-limit", "500", "--m-max", "3", "--out", "-")
        assert run(runner, cache_env, *args).output == run(runner, cache_env, *args).output

    def test_family_csv(self, runner, cache_env):
        r = run(runner, cache_env, "profile", "--family", "1,2", "--m-max", "2", "--out", "-")
        assert r.output == "M,D,n_attaining\n0,0,1\n1,13,1\n2,46,2\n"

    def test_circle_ignores_the_index_limit(self, runner, cache_env):
        # a circle is profiled whole, so a limit below 2 is never applied
        args = ("profile", "--kind", "C", "--n", "2", "--out", "-")
        r = run(runner, cache_env, *args, "--index-limit", "1")
        assert r.output == run(runner, cache_env, *args).output

    def test_index_cap_names_the_override(self, runner, cache_env):
        r = runner.invoke(main, ["profile", "--kind", "N", "--index-limit", "20000"], env=cache_env)
        assert r.exit_code == 2
        assert "--max-index" in r.stderr

    @pytest.mark.parametrize("extra", [("--kind", "N"), ("--family", "1")])
    def test_m_max_past_the_packing_range_is_a_usage_error(self, runner, cache_env, extra):
        r = runner.invoke(main, ["profile", *extra, "--m-max", "29"], env=cache_env)
        assert r.exit_code == 2
        assert "29" in r.stderr
        assert "--m-max" in r.stderr

    @pytest.mark.parametrize("extra", [("--kind", "N"), ("--family", "1")])
    def test_m_max_cap_names_the_override(self, runner, cache_env, extra):
        r = runner.invoke(main, ["profile", *extra, "--m-max", "13"], env=cache_env)
        assert r.exit_code == 2
        assert "--max-radius" in r.stderr

    @pytest.mark.parametrize(
        "extra,last",
        [(("--kind", "N", "--index-limit", "100"), "13,100"), (("--family", "1"), "13,43,1")],
    )
    def test_m_max_cap_override(self, runner, cache_env, extra, last):
        r = run(runner, cache_env, "profile", *extra, "--m-max", "13", "--max-radius", "13",
                "--out", "-")
        assert r.output.splitlines()[-1] == last

    def test_resource_limit_is_a_resource_exit(self, runner, cache_env, monkeypatch):
        def exhausted(*args, **kwargs):
            raise ResourceLimitError("ball(radius=4) exceeds member cap 10")

        monkeypatch.setattr(coarse, "distortion_profile", exhausted)
        monkeypatch.setattr(coarse, "circle_family_distortion", exhausted)
        for args in (["--kind", "N"], ["--family", "1"]):
            r = runner.invoke(main, ["profile", *args, "--m-max", "4"], env=cache_env)
            assert r.exit_code == 3
            assert "resource limit" in r.stderr


class TestSeparateCommand:
    def test_report_fields(self, runner, cache_env):
        r = run(runner, cache_env, "separate", "--kind", "I", "--n", "1",
                "--radius", "9", "--out", "-")
        d = json.loads(r.output)
        assert d["verdict"] == "separated-in-ball"
        assert d["obstacle"] == {"kind": "I", "n": 1, "size_in_ball": 79}
        assert d["ball_size"] == 850
        assert d["probes"][0]["component"] != d["probes"][1]["component"]

    def test_probe_on_obstacle_is_a_usage_error(self, runner, cache_env):
        r = runner.invoke(
            main,
            ["separate", "--kind", "N", "--radius", "9",
             "--probe-a", '{"cursor":0,"lamps":[0]}'],
            env=cache_env,
        )
        assert r.exit_code == 2

    @pytest.mark.parametrize("probe,want", [
        ('{"cursor":-14,"lamps":[]}', 14),
        ('{"cursor":13,"lamps":[13]}', 13),
    ])
    def test_far_probe_distance(self, runner, cache_env, probe, want):
        r = run(runner, cache_env, "separate", "--kind", "N", "--radius", "14",
                "--max-radius", "14", "--probe-a", probe, "--out", "-")
        assert json.loads(r.output)["probes"][0]["distance_to_obstacle"] == want

    @pytest.mark.parametrize("k", [126, 127, 128, 300])
    def test_k_past_the_int8_range(self, runner, cache_env, k):
        # obstacle distances are held in one byte: every K >= 2R removes
        # the whole ball, so each answers as K = 2R + 1 does
        def answer(width):
            r = runner.invoke(main, ["separate", "--kind", "N", "--radius", "12",
                                     "--k", str(width),
                                     "--probe-a", '{"cursor":-6,"lamps":[]}',
                                     "--probe-b", '{"cursor":0,"lamps":[-3]}'], env=cache_env)
            return r.exit_code, r.stdout, r.stderr

        assert answer(k) == answer(25)

    @pytest.mark.parametrize("k,digest", [(0, "5607ba942420cfa09a05a8f4c323d417"),
                                          (300, "9a1879b46588cbd1580e8228bd1aa4a4")])
    def test_obstacle_missing_the_ball(self, runner, cache_env, k, digest):
        # C1 has no vertex in ball(e, 0): nothing is removed, the one
        # component and both probes have no distance to the obstacle
        # (null), and K past 2R removes no unreached member
        origin = '{"cursor":0,"lamps":[]}'
        r = run(runner, cache_env, "separate", "--kind", "C", "--n", "1", "--radius", "0",
                "--k", str(k), "--probe-a", origin, "--probe-b", origin)
        assert hashlib.md5(r.stdout_bytes).hexdigest() == digest


# probes in every ball of radius >= 9, at least 3 from N, R, I1 and C1
FAR_PROBES = ("--probe-a", '{"cursor":-5,"lamps":[]}', "--probe-b", '{"cursor":6,"lamps":[]}')


def rehash(path, data):
    """Write data to a cache entry under a matching digest."""
    path.write_bytes(data)
    Path(f"{path}.sha256").write_text(hashlib.sha256(data).hexdigest() + "\n")


BALL_CORRUPTIONS = {
    "flipped-byte": lambda path, data: path.write_bytes(
        data[:100] + bytes([data[100] ^ 1]) + data[101:]),
    "truncated": lambda path, data: path.write_bytes(data[:-4]),
    "no-sidecar": lambda path, data: Path(f"{path}.sha256").unlink(),
    "wrong-sidecar": lambda path, data: Path(f"{path}.sha256").write_text("0" * 64 + "\n"),
    "keys-out-of-order": lambda path, data: rehash(path, data[8:16] + data[:8] + data[16:]),
    "toggle-past-the-end": lambda path, data: rehash(
        path, data[:-4] + (len(data) // 12).to_bytes(4, "little")),
}


class TestBallCache:
    """separate keeps ball(e, R) and its toggle column in ball-R.graph."""

    def entry(self, env, radius):
        return Path(env["LL_COARSE_CACHE_DIR"]) / f"ball-{radius}.graph"

    def separate(self, runner, env, radius, *args, code=0):
        return run(runner, env, "separate", "--radius", str(radius), "--max-radius", str(radius),
                   *(args or ("--kind", "N")), *FAR_PROBES, code=code)

    def no_build(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("the ball graph was built on a hit")

        monkeypatch.setattr(coarse, "ball", build)
        monkeypatch.setattr(coarse, "_toggle_column", build)

    def test_hit_prints_the_miss_bytes_without_a_build(self, runner, cache_env, monkeypatch):
        for radius in range(9, 13):
            for kind in (["N"], ["R"], ["I", "--n", "1"], ["C", "--n", "1"]):
                for k in ("0", "1"):
                    args = ("--kind", *kind, "--k", k)
                    self.entry(cache_env, radius).unlink(missing_ok=True)
                    miss = self.separate(runner, cache_env, radius, *args)
                    with monkeypatch.context() as m:
                        self.no_build(m)
                        hit = self.separate(runner, cache_env, radius, *args)
                    assert hit.stdout_bytes == miss.stdout_bytes, (radius, args)
                    assert miss.stderr == hit.stderr == ""
            b = coarse.ball(IDENTITY, radius)
            path = self.entry(cache_env, radius)
            data = path.read_bytes()
            assert Path(f"{path}.sha256").read_text() == hashlib.sha256(data).hexdigest() + "\n"
            assert np.array_equal(np.frombuffer(data, "<u8", len(b)), b.keys)
            assert np.array_equal(np.frombuffer(data, "<i4", offset=8 * len(b)), b.toggles)

    @pytest.mark.parametrize("corrupt", BALL_CORRUPTIONS.values(), ids=BALL_CORRUPTIONS.keys())
    def test_corrupt_entry_is_reported_and_rewritten(self, runner, cache_env, corrupt):
        miss = self.separate(runner, cache_env, 9)
        path = self.entry(cache_env, 9)
        data, digest = path.read_bytes(), Path(f"{path}.sha256").read_text()
        corrupt(path, data)
        again = self.separate(runner, cache_env, 9)
        assert again.stdout_bytes == miss.stdout_bytes
        assert again.stderr == "warning: corrupt cache entry ball-9.graph, ignoring\n"
        assert path.read_bytes() == data
        assert Path(f"{path}.sha256").read_text() == digest

    def test_unwritable_cache_is_a_warning(self, runner, cache_env, tmp_path):
        want = self.separate(runner, cache_env, 9).stdout_bytes
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        r = self.separate(runner, {"LL_COARSE_CACHE_DIR": str(blocker / "cache")}, 9)
        assert r.stdout_bytes == want
        assert r.stderr.startswith("warning: cache store failed: ")
        assert r.stderr.count("\n") == 1

    def test_failed_store_leaves_no_temp_file(self, runner, cache_env, monkeypatch):
        replace = os.replace

        def failing_sidecar(src, dst):
            if str(dst).endswith(".sha256"):
                raise OSError("no space left")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", failing_sidecar)
        r = self.separate(runner, cache_env, 9)
        assert r.stderr == "warning: cache store failed: no space left\n"
        assert os.listdir(cache_env["LL_COARSE_CACHE_DIR"]) == []

    def test_failed_temp_file_write_is_one_warning(self, runner, cache_env, monkeypatch, tmp_path):
        want = self.separate(runner, {"LL_COARSE_CACHE_DIR": str(tmp_path / "other")}, 9).stdout_bytes
        fill_after_one_chunk(monkeypatch)  # the keys go in, the toggle column fails
        r = self.separate(runner, cache_env, 9)
        assert r.stdout_bytes == want
        assert r.stderr == DISK_FULL
        assert os.listdir(cache_env["LL_COARSE_CACHE_DIR"]) == []

    @pytest.mark.parametrize("args,code,message", [
        (["--radius", "12", "--max-radius", "12", "--member-cap", "100"], 3,
         "resource limit: ball(radius=12) exceeds member cap 100"),
        (["--radius", "13"], 2, "radius 13 exceeds the cap 12; raise it explicitly with --max-radius"),
        (["--radius", "29", "--max-radius", "29"], 2, "radius 29 exceeds the packing window (28)"),
        (["--radius", "12", "--max-radius", "12", "--k", "-1"], 2, "K must be nonnegative"),
    ], ids=["member-cap", "radius-cap", "packing-window", "negative-k"])
    def test_caps_fail_before_an_entry_is_read(self, runner, cache_env, monkeypatch,
                                               args, code, message):
        for radius in (12, 13):
            self.separate(runner, cache_env, radius)

        def no_read(*args):
            raise AssertionError("a cache entry was read")

        monkeypatch.setattr(cli, "_cached_ball", no_read)
        self.no_build(monkeypatch)
        r = run(runner, cache_env, "separate", "--kind", "N", *args, code=code)
        assert message in r.stderr


def test_ball_entry_through_the_real_entry(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "LL_COARSE_CACHE_DIR": str(tmp_path)}
    args = ["separate", "--kind", "N", "--radius", "12", "--max-radius", "12"]
    outputs = []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", ENTRY, *args], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0 and done.stderr == b"", done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1] and outputs[0]
    assert sorted(os.listdir(tmp_path)) == ["ball-12.graph", "ball-12.graph.sha256"]


class TestVerifyCommand:
    def test_single_suite_passes(self, runner, cache_env):
        r = run(runner, cache_env, "verify", "--suite", "2")
        assert r.output.startswith("PASS")
        assert "2-group-laws" in r.output

    def test_unknown_suite(self, runner, cache_env):
        r = runner.invoke(main, ["verify", "--suite", "zebra"], env=cache_env)
        assert r.exit_code == 2

    def test_failing_check_exits_one(self, runner, cache_env, monkeypatch):
        monkeypatch.setattr(
            verify, "_CHECKS", [("0-forced", "always fails", lambda: (False, "forced"))]
        )
        r = runner.invoke(main, ["verify", "--suite", "all"], env=cache_env)
        assert r.exit_code == 1
        assert "FAIL" in r.output

    def test_dead_worker_fails_its_check(self, runner, cache_env, monkeypatch, alarm):
        monkeypatch.setattr(verify, "_CHECKS", [
            ("1-fine", "passes", lambda: (True, "fine")),
            ("2-dies", "ends its worker", lambda: os._exit(3)),
        ])
        r = runner.invoke(main, ["verify", "--suite", "all"], env=cache_env)
        assert r.exit_code == 1
        assert r.stdout.splitlines() == [
            "PASS  1-fine  passes  (0.0s)  fine",
            "FAIL  2-dies  ends its worker  (0.0s)  worker exited with code 3 before reporting",
        ]
        assert r.stderr == "1 of 2 checks failed\n"

    def test_lines_come_in_table_order(self, runner, cache_env, monkeypatch, alarm):
        def sleeper(seconds):
            return lambda: (time.sleep(seconds), (True, f"slept {seconds}"))[1]

        # the later checks finish first
        checks = [(f"{i}-sleep", "sleeps", sleeper(0.04 * (7 - i))) for i in range(1, 7)]
        monkeypatch.setattr(verify, "_CHECKS", checks)
        r = run(runner, cache_env, "verify", "--suite", "all")
        lines = r.output.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == verify.check_ids()
        assert lines[-1] == "all 6 checks passed"

    def test_one_check_forks_nothing(self, runner, cache_env, monkeypatch):
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        r = run(runner, cache_env, "verify", "--suite", "1")
        assert r.output.startswith("PASS  1-metric-oracle")

    def test_each_check_runs_in_its_own_worker(self, monkeypatch, alarm):
        monkeypatch.setattr(verify, "_CHECKS", [
            (f"{i}-pid", "reports its pid", lambda: (True, str(os.getpid()))) for i in range(1, 5)
        ])
        pids = [result.detail for result in verify.run_checks("all")]
        assert len(set(pids)) == 4
        assert str(os.getpid()) not in pids

    def test_check_time_is_its_own_cpu_time(self, runner, cache_env, monkeypatch, alarm):
        def sleeper():
            time.sleep(0.3)
            return True, "slept"

        monkeypatch.setattr(verify, "_CHECKS", [("1-sleep", "sleeps", sleeper),
                                                ("2-sleep", "sleeps", sleeper)])
        r = run(runner, cache_env, "verify", "--suite", "all")
        assert r.output.splitlines()[:-1] == [
            f"PASS  {i}-sleep  sleeps  (0.0s)  slept" for i in (1, 2)]

    def test_failed_fork_reaps_the_started_workers(self, monkeypatch, alarm):
        real_fork, calls = os.fork, []

        def fork():
            calls.append(None)
            if len(calls) == 2:
                raise OSError("no more processes")
            return real_fork()

        monkeypatch.setattr(verify, "_CHECKS", [
            (f"{i}-sleep", "sleeps", lambda: (time.sleep(30), (True, "slept"))[1]) for i in (1, 2, 3)
        ])
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(OSError, match="no more processes"):
            verify.run_checks("all")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def alarm():
    """Fail a test that blocks for 60 s instead of hanging the run."""
    def expire(signum, frame):
        raise TimeoutError("the test blocked for 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
