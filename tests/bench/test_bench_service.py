"""``bench_service``'s payload does not depend on process history."""

from repro.bench import bench_service, bench_simulator
from repro.cu.prepared import clear_prepared_cache
from repro.cu.timing import clear_timing_table_cache


def test_payload_is_the_same_before_and_after_the_simulator():
    # As in a fresh process: nothing prepared yet.
    clear_prepared_cache()
    clear_timing_table_cache()
    fresh = bench_service()
    # ``repro bench`` runs the simulator tables first, which warms the
    # process-global prepared-program and timing-table caches.
    bench_simulator()
    assert bench_service() == fresh
