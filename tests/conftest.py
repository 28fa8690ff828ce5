import tracemalloc

from hypothesis import HealthCheck, settings

from lamplighter import word_distance

# Property tests share one slow box with BFS-heavy checks; wall-clock
# deadlines would make them flaky without catching anything real.
settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def oracle_members(b):
    """(member, distance from the center) for each key of ball b, in key
    order: the member from Ball.unpack, the distance from the
    Configuration oracle word_distance, not from the closed form on the
    keys."""
    for key in b.keys.tolist():
        g = b.unpack(key)
        yield g, word_distance(b.center, g)


def traced_peak(call):
    """Peak bytes tracemalloc counts while call runs, above its start.

    numpy reports every data buffer it requests to tracemalloc, so the
    peak does not depend on what the heap held before."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
