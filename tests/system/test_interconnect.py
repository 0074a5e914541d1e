"""Unit tests for communication-cost models (§3.1)."""

import pytest

from repro.errors import PlatformError
from repro.system import ContentionBus, LinkTopology, SharedBus, ZeroCost


class TestSharedBus:
    def test_paper_model_one_unit_per_item(self):
        bus = SharedBus(1.0)
        assert bus.cost("p1", "p2", 5.0) == 5.0

    def test_intra_processor_is_free(self):
        assert SharedBus(1.0).cost("p1", "p1", 100.0) == 0.0

    def test_custom_delay(self):
        assert SharedBus(2.5).cost("p1", "p2", 4.0) == 10.0

    def test_negative_delay_rejected(self):
        with pytest.raises(PlatformError):
            SharedBus(-1.0)

    def test_transfer_is_nominal(self):
        bus = SharedBus(1.0)
        assert bus.transfer("p1", "p2", 3.0, ready=10.0) == 13.0
        # stateless: a second transfer doesn't queue
        assert bus.transfer("p1", "p2", 3.0, ready=10.0) == 13.0


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize(
    "build",
    [
        SharedBus,
        ContentionBus,
        lambda delay: LinkTopology([("a", "b", delay)]),
    ],
    ids=["SharedBus", "ContentionBus", "LinkTopology"],
)
def test_non_finite_delay_rejected(build, value):
    with pytest.raises(PlatformError, match="finite"):
        build(value)


class TestZeroCost:
    def test_always_free(self):
        assert ZeroCost().cost("p1", "p2", 100.0) == 0.0


class TestLinkTopology:
    def topo(self):
        # p1 -- p2 -- p3 with a slow direct p1--p3 shortcut
        return LinkTopology(
            [("p1", "p2", 1.0), ("p2", "p3", 1.0), ("p1", "p3", 5.0)]
        )

    def test_cheapest_route_wins(self):
        t = self.topo()
        assert t.per_item_delay("p1", "p3") == 2.0  # via p2, not direct 5
        assert t.cost("p1", "p3", 4.0) == 8.0

    def test_symmetric(self):
        t = self.topo()
        assert t.per_item_delay("p3", "p1") == t.per_item_delay("p1", "p3")

    def test_intra_processor_free(self):
        assert self.topo().cost("p1", "p1", 9.0) == 0.0

    def test_disconnected_raises(self):
        t = LinkTopology([("p1", "p2", 1.0), ("p3", "p4", 1.0)])
        with pytest.raises(PlatformError):
            t.per_item_delay("p1", "p3")

    def test_duplicate_links_keep_cheapest(self):
        t = LinkTopology([("a", "b", 5.0), ("a", "b", 2.0)])
        assert t.per_item_delay("a", "b") == 2.0

    def test_self_link_rejected(self):
        with pytest.raises(PlatformError):
            LinkTopology([("a", "a", 1.0)])

    def test_negative_delay_rejected(self):
        with pytest.raises(PlatformError):
            LinkTopology([("a", "b", -1.0)])


class TestContentionBus:
    def test_serializes_transfers(self):
        bus = ContentionBus(1.0)
        # First transfer: ready at 0, takes 5 -> done at 5.
        assert bus.transfer("p1", "p2", 5.0, ready=0.0) == 5.0
        # Second transfer ready at 2 must queue behind the first.
        assert bus.transfer("p2", "p3", 5.0, ready=2.0) == 10.0

    def test_idle_gap_not_reserved(self):
        bus = ContentionBus(1.0)
        bus.transfer("p1", "p2", 2.0, ready=0.0)  # busy [0, 2)
        # Ready long after the bus freed: starts at its ready time.
        assert bus.transfer("p1", "p2", 2.0, ready=10.0) == 12.0

    def test_reset_clears_state(self):
        bus = ContentionBus(1.0)
        bus.transfer("p1", "p2", 5.0, ready=0.0)
        bus.reset()
        assert bus.busy_until == 0.0
        assert bus.transfer("p1", "p2", 1.0, ready=0.0) == 1.0

    def test_intra_processor_bypasses_bus(self):
        bus = ContentionBus(1.0)
        assert bus.transfer("p1", "p1", 50.0, ready=3.0) == 3.0
        assert bus.busy_until == 0.0

    def test_empty_message_bypasses_bus(self):
        bus = ContentionBus(1.0)
        assert bus.transfer("p1", "p2", 0.0, ready=3.0) == 3.0
        assert bus.busy_until == 0.0
