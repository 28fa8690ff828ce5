"""Acceptance gate: every verification check runs and must pass.

Each criterion appears as one parametrized test so the pytest report shows
one pass/fail line per check; the check's own summary line is printed for
the record.  Each check's detail line is also pinned byte for byte: it is
what `ll-coarse verify` prints, so a change to it is a change of output.
"""

import numpy as np
import pytest

from lamplighter import coarse, verify
from lamplighter.verify import check_ids, run_checks
from lamplighter.walks import Walk, half_quasi_line

from conftest import traced_peak

FROZEN_DETAILS = {
    "1-metric-oracle": "B(e,8): 490 members, 0 mismatches",
    "2-group-laws": "10000 random triples, 0 failures",
    "3-line-well-formed": (
        "100001 vertices distinct=True, milestones c0..c4096 in order,"
        " 4097/4097 equal stage configs"
    ),
    "4-stage-depth": (
        "stages 1..4096 all >= floor(log2), min slack 1;"
        " path_in_ball stage-bound stable for r<=8: True"
    ),
    "5-line-distortion": "D(0..4)=[0, 1, 6, 31, 32], monotone=True, 2000 vs 4000 equal=True",
    "6-line-separation": (
        "n=2@R12:separated-in-ball,d=(2,2) n=3@R17:separated-in-ball,d=(3,3)"
        " n=4@R22:separated-in-ball,d=(4,4)"
    ),
    "7-quasi-line": "simple=True, D(0..4)=[0, 7, 8, 31, 32] stable=True, separation@R12=separated-in-ball",
    "8-intervals-circles": " ".join(
        f"n={n}:simple=True,mirror=True,end=True,d=({n},{n}),I/C sep=True" for n in (1, 2, 3)
    ),
    "9-circle-family": (
        "h{1..5}=[0, 13, 46, 117, 266] == h{1..4}=[0, 13, 46, 117, 266]: True;"
        " h{1..3} M<=3 [0, 13, 46, 117] agrees: True"
    ),
    "10-determinism-codec": (
        "codec round-trip on 155 members: 0 failures;"
        " repeated profile runs byte-identical: True"
    ),
}


@pytest.fixture(scope="module")
def results():
    return {r.check_id: r for r in run_checks("all")}


@pytest.mark.parametrize("check_id", check_ids())
def test_criterion(results, check_id):
    result = results[check_id]
    print(result.line())
    assert result.passed, result.line()


@pytest.mark.parametrize("check_id", check_ids())
def test_detail_is_frozen(results, check_id):
    assert results[check_id].detail == FROZEN_DETAILS[check_id]


def test_stage_depth_check_catches_a_missing_line_stage(monkeypatch):
    """Check 4 fails when the line enumeration drops the H = 3 branch (H
    = 3 and every H grown from it, whose binary starts 11; stage 6, min
    distance 6, is the first stage lost), a mutant that path-in-ball
    agrees with on every ball of radius r <= 8."""
    real = coarse._line_stages

    def in_branch(h):
        return h >= 3 and h >> (h.bit_length() - 2) == 3

    def without_branch(radius):
        return {k: np.array([s for s in stages.tolist() if not in_branch(s >> (k + 1))],
                            dtype=np.uint64)
                for k, stages in real(radius).items()}

    monkeypatch.setattr(coarse, "_line_stages", without_branch)
    monkeypatch.setattr(verify, "_line_stages", without_branch)
    passed, detail = verify._check_stage_depth()
    assert not passed
    assert detail == "stage 6: min distance 6 but not in _line_stages(6)"


def test_line_check_streams_the_replay():
    """Check 3 holds one key per vertex, not the 100,001 Configurations
    and a set of them (438 bytes per vertex under tracemalloc)."""
    assert traced_peak(verify._check_line_well_formed) <= 200 * 100_001


@pytest.mark.parametrize("check_id", ["3-line-well-formed", "7-quasi-line"])
def test_checks_build_no_vertex_tuple(monkeypatch, check_id):
    """Checks 3 and 7 stream their walks' vertices (Walk.iter_vertices)."""
    def no_vertices(self):
        raise AssertionError("Walk.vertices was built")

    monkeypatch.setattr(Walk, "vertices", property(no_vertices))
    [check] = [fn for cid, _, fn in verify._CHECKS if cid == check_id]
    assert check() == (True, FROZEN_DETAILS[check_id])


def test_line_check_catches_a_repeated_vertex(monkeypatch):
    """Two toggles appended under the last cursor bring the walk back to
    a vertex it has visited, and check 3 reports it."""
    real = half_quasi_line(100_000)
    c = real.cursors[-1]
    looped = Walk(real.start, [*real.cursors, c, c], real.milestones, kind="N")
    assert len(set(looped.vertices)) == len(looped.vertices) - 1
    monkeypatch.setattr(verify, "half_quasi_line", lambda num_steps: looped)
    passed, detail = verify._check_line_well_formed()
    assert not passed
    assert detail == (
        "100003 vertices distinct=False, milestones c0..c4096 in order,"
        " 4097/4097 equal stage configs"
    )


def test_interval_check_builds_one_ball_per_scale(monkeypatch):
    """Check 8's interval and circle reports at scale n share ball(e, 5n + 4)."""
    radii = []

    def counted(center, radius, *args, **kwargs):
        radii.append(radius)
        return real(center, radius, *args, **kwargs)

    real = coarse.ball
    monkeypatch.setattr(coarse, "ball", counted)
    monkeypatch.setattr(verify, "ball", counted)
    assert verify._check_intervals_circles() == (True, FROZEN_DETAILS["8-intervals-circles"])
    assert radii == [9, 14, 19]
