"""Unit tests for task-graph JSON serialization."""

import pytest

from repro.errors import SerializationError
from repro.graph import (
    GraphBuilder,
    canonical_graph_json,
    graph_digest,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)


def rich_graph():
    return (
        GraphBuilder()
        .task("a", {"fast": 8, "slow": 12}, phasing=2.0, resources=["bus"])
        .task("b", 20, relative_deadline=30.0, period=100.0)
        .task("c", 15)
        .edge("a", "b", message=2.5)
        .edge("b", "c")
        .e2e("a", "c", 120)
        .build()
    )


class TestRoundTrip:
    def test_dict_round_trip_preserves_everything(self):
        g = rich_graph()
        g2 = graph_from_dict(graph_to_dict(g))
        assert g2.task_ids() == g.task_ids()
        assert sorted(g2.edges()) == sorted(g.edges())
        assert g2.e2e_deadlines() == g.e2e_deadlines()
        a = g2.task("a")
        assert a.wcet == {"fast": 8.0, "slow": 12.0}
        assert a.phasing == 2.0
        assert a.resources == {"bus"}
        b = g2.task("b")
        assert b.relative_deadline == 30.0
        assert b.period == 100.0

    def test_file_round_trip(self, tmp_path):
        g = rich_graph()
        path = tmp_path / "g.json"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.n_tasks == g.n_tasks
        assert g2.n_edges == g.n_edges


def scrambled_graph():
    """The same structure as :func:`rich_graph`, built in another order."""
    return (
        GraphBuilder()
        .task("c", 15)
        .task("b", 20, relative_deadline=30.0, period=100.0)
        .task("a", {"slow": 12, "fast": 8}, phasing=2.0, resources=["bus"])
        .edge("b", "c")
        .edge("a", "b", message=2.5)
        .e2e("a", "c", 120)
        .build()
    )


class TestCanonicalForm:
    def test_construction_order_does_not_change_the_document(self):
        assert graph_to_dict(rich_graph()) == graph_to_dict(scrambled_graph())

    def test_tasks_and_edges_emitted_sorted(self):
        doc = graph_to_dict(scrambled_graph())
        assert [t["id"] for t in doc["tasks"]] == ["a", "b", "c"]
        assert [(e["src"], e["dst"]) for e in doc["edges"]] == [
            ("a", "b"),
            ("b", "c"),
        ]
        assert list(doc["tasks"][0]["wcet"]) == ["fast", "slow"]

    def test_canonical_json_is_compact_and_deterministic(self):
        text = canonical_graph_json(rich_graph())
        assert ": " not in text and ", " not in text
        assert text == canonical_graph_json(scrambled_graph())


class TestDigest:
    def test_digest_is_sha256_hex(self):
        digest = graph_digest(rich_graph())
        assert len(digest) == 64
        int(digest, 16)  # hex-parseable

    def test_equal_graphs_share_a_digest(self):
        assert graph_digest(rich_graph()) == graph_digest(scrambled_graph())

    def test_any_content_change_changes_the_digest(self):
        base = graph_digest(rich_graph())
        heavier = (
            GraphBuilder()
            .task("a", {"fast": 8, "slow": 12}, phasing=2.0, resources=["bus"])
            .task("b", 20, relative_deadline=30.0, period=100.0)
            .task("c", 16)  # one WCET nudged
            .edge("a", "b", message=2.5)
            .edge("b", "c")
            .e2e("a", "c", 120)
            .build()
        )
        assert graph_digest(heavier) != base

    def test_digest_survives_round_trip(self):
        g = rich_graph()
        assert graph_digest(graph_from_dict(graph_to_dict(g))) == graph_digest(g)


class TestMalformed:
    def test_wrong_format_marker(self):
        with pytest.raises(SerializationError):
            graph_from_dict({"format": "bogus/9", "tasks": []})

    def test_non_dict_document(self):
        with pytest.raises(SerializationError):
            graph_from_dict([1, 2, 3])

    def test_missing_fields(self):
        doc = {"format": "repro.taskgraph/1", "tasks": [{"id": "a"}]}
        with pytest.raises(SerializationError):
            graph_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_graph(path)


class TestMalformedTaskFields:
    """Fields of a task entry whose type is wrong are refused, not coerced
    into a graph the rest of the pipeline cannot handle."""

    @staticmethod
    def doc():
        return graph_to_dict(rich_graph())

    def test_wcet_list_is_refused(self):
        doc = self.doc()
        doc["tasks"][0]["wcet"] = [1, 2]
        with pytest.raises(SerializationError, match="'wcet' must be an object"):
            graph_from_dict(doc)

    def test_integer_task_id_is_refused(self):
        doc = self.doc()
        old = doc["tasks"][0]["id"]
        doc["tasks"][0]["id"] = 7
        for ref in doc["edges"] + doc["e2e_deadlines"]:
            for end in ("src", "dst"):
                if ref[end] == old:
                    ref[end] = 7
        with pytest.raises(SerializationError, match="task id must be a string"):
            graph_from_dict(doc)

    @pytest.mark.parametrize("resources", ["abc", [1, 2], {"bus": 1}])
    def test_resources_must_be_a_list_of_strings(self, resources):
        doc = self.doc()
        doc["tasks"][0]["resources"] = resources
        with pytest.raises(SerializationError, match="list of strings"):
            graph_from_dict(doc)

    def test_list_of_strings_still_loads(self):
        doc = self.doc()
        doc["tasks"][0]["resources"] = ["bus", "dma"]
        graph = graph_from_dict(doc)
        assert graph.task(doc["tasks"][0]["id"]).resources == {"bus", "dma"}
