"""MessageStats / TypeStats — the Figure 4 accounting."""

from repro.runtime.instrumentation import MessageStats, TypeStats


class TestTypeStats:
    def test_record(self):
        s = TypeStats()
        s.record(100, offnode=True)
        s.record(50, offnode=False)
        assert s.count == 2 and s.bytes == 150
        assert s.offnode_count == 1 and s.offnode_bytes == 100

    def test_merged(self):
        a = TypeStats(1, 10, 1, 10)
        b = TypeStats(2, 20, 0, 0)
        m = a.merged(b)
        assert (m.count, m.bytes, m.offnode_count, m.offnode_bytes) == (3, 30, 1, 10)


class TestMessageStats:
    def test_record_by_type(self):
        ms = MessageStats()
        ms.record("type1", 8, True)
        ms.record("type2+", 400, True)
        ms.record("type1", 8, False)
        assert ms.get("type1").count == 2
        assert ms.get("type2+").bytes == 400

    def test_totals(self):
        ms = MessageStats()
        ms.record("a", 10, True)
        ms.record("b", 20, False)
        assert ms.total_count() == 2
        assert ms.total_bytes() == 30
        assert ms.offnode_count() == 1
        assert ms.offnode_bytes() == 10

    def test_totals_filtered_by_type(self):
        ms = MessageStats()
        ms.record("type1", 10, True)
        ms.record("type2", 100, True)
        ms.record("type3", 5, True)
        assert ms.total_count(["type1", "type3"]) == 2
        assert ms.total_bytes(["type2"]) == 100

    def test_totals_accept_a_generator(self):
        """A one-shot iterable selects every type it names, not only the
        first type it is checked against."""
        ms = MessageStats()
        ms.record("type1", 10, True)
        ms.record("type2", 100, False)
        ms.record("type3", 5, True)
        wanted = ("type1", "type2", "type3")
        assert ms.total_count(t for t in wanted) == 3
        assert ms.total_bytes(t for t in wanted) == 115
        assert ms.offnode_count(t for t in wanted) == 2
        assert ms.offnode_bytes(t for t in wanted) == 15

    def test_unknown_type_empty(self):
        assert MessageStats().get("nope").count == 0

    def test_merged(self):
        a = MessageStats()
        a.record("x", 5, True)
        b = MessageStats()
        b.record("x", 5, False)
        b.record("y", 1, True)
        a.add(b)
        assert a.get("x").count == 2
        assert a.get("y").count == 1
        # the other side is untouched
        assert b.get("x").count == 1

    def test_snapshot(self):
        ms = MessageStats()
        ms.record("b", 2, True)
        ms.record("a", 1, False)
        assert ms.snapshot() == {"a": (1, 1), "b": (1, 2)}

    def test_reset(self):
        ms = MessageStats()
        ms.record("x", 1, True)
        ms.reset()
        assert ms.total_count() == 0

    def test_format_table_contains_total(self):
        ms = MessageStats()
        ms.record("type1", 8, True)
        text = ms.format_table("check")
        assert "check" in text and "TOTAL" in text and "type1" in text
