"""The one-pass preseed install against the per-line loop it replaced."""

import pytest

from repro.experiments.config import TABLE1_1M, TABLE1_256K
from repro.experiments.runner import SCHEMES, apply_preseed, make_controller
from repro.workloads.spec import KNOWN_BENCHMARKS, build_workload

_MASK64 = (1 << 64) - 1


def per_line_preseed(controller, preseed):
    """Four calls per line: page number, page state, root, counter write."""
    table = controller.page_table
    address_map = controller.address_map
    backing = controller.backing
    for line, distance in preseed.items():
        page = address_map.page_number(line)
        root = table.state(page).mapping_root
        backing.write_seqnum(line, (root + distance) & _MASK64)


def controller_state(controller):
    """Backing counters and page table in order, plus the RNG state."""
    table = controller.page_table
    return (
        list(controller.backing._seqnums.items()),
        [(page, s.root, s.mapping_root) for page, s in table._pages.items()],
        list(table.rng._s),
    )


def assert_installs_agree(preseed, scheme="baseline", machine=TABLE1_256K, seed=1):
    bulk = make_controller(SCHEMES[scheme], machine, seed)
    reference = make_controller(SCHEMES[scheme], machine, seed)
    apply_preseed(bulk, preseed)
    per_line_preseed(reference, preseed)
    assert controller_state(bulk) == controller_state(reference)
    return bulk, reference


@pytest.mark.parametrize("model", KNOWN_BENCHMARKS)
def test_bulk_install_equals_per_line_loop(model):
    # The preseed is drawn before the trace: any length gives the same one.
    preseed = build_workload(model, references=1, seed=2).preseed
    bulk, reference = assert_installs_agree(preseed, "pred_context", TABLE1_1M, seed=2)
    # Later roots come from the same RNG position too.
    assert bulk.page_table.reset_root(7) == reference.page_table.reset_root(7)


def test_unaligned_lines_repeated_pages_and_prior_state():
    # Lines off their boundary, pages revisited after others, a counter
    # written twice, and a controller that already mapped a page and
    # holds counters: the same as writing line by line.
    preseed = {0x1005: 3, 0x3000: 1, 0x1020: 3, 0x1000: 9, 0x2FE0: 0, 0x3001: 1}
    bulk = make_controller(SCHEMES["baseline"], TABLE1_256K, 4)
    reference = make_controller(SCHEMES["baseline"], TABLE1_256K, 4)
    for controller in (bulk, reference):
        controller.page_table.state(3)
        controller.backing.write_seqnum(0x1020, 42)
        controller.backing.write_seqnum(0x9000, 7)
    apply_preseed(bulk, preseed)
    per_line_preseed(reference, preseed)
    assert controller_state(bulk) == controller_state(reference)


def test_empty_preseed_touches_nothing():
    bulk, _ = assert_installs_agree({})
    assert len(bulk.page_table) == 0
