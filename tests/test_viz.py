"""Unit tests for SVG rendering."""

import xml.etree.ElementTree as ET

from repro.core import distribute_deadlines
from repro.sched import EdfListScheduler, schedule_edf
from repro.viz import gantt_svg, graph_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse(svg: str) -> ET.Element:
    return ET.fromstring(svg)


class TestGanttSvg:
    def test_well_formed_with_all_tasks(self, chain3, uni2):
        a = distribute_deadlines(chain3, uni2, "PURE")
        s = schedule_edf(chain3, uni2, a)
        root = parse(gantt_svg(s, uni2, a))
        assert root.tag == f"{SVG_NS}svg"
        rects = root.findall(f".//{SVG_NS}rect")
        # 3 task boxes + 3 window underlays
        assert len(rects) == 6
        text = ET.tostring(root, encoding="unicode")
        assert "feasible" in text

    def test_windows_optional(self, chain3, uni2):
        a = distribute_deadlines(chain3, uni2, "PURE")
        s = schedule_edf(chain3, uni2, a)
        root = parse(gantt_svg(s, uni2))
        assert len(root.findall(f".//{SVG_NS}rect")) == 3

    def test_misses_highlighted(self, chain3, uni2):
        from repro.core import DeadlineAssignment, TaskWindow

        a = DeadlineAssignment(
            windows={t: TaskWindow(0.0, 1.0, 1.0) for t in chain3.task_ids()}
        )
        s = EdfListScheduler(continue_on_miss=True).schedule(chain3, uni2, a)
        svg = gantt_svg(s, uni2, a)
        assert "#d62728" in svg  # the miss colour
        assert "INFEASIBLE" in svg

    def test_escapes_ids(self, uni2):
        from repro.core import DeadlineAssignment, TaskWindow
        from repro.graph import GraphBuilder

        g = GraphBuilder().task("a<b&c", 10).build()
        a = DeadlineAssignment(windows={"a<b&c": TaskWindow(0.0, 20.0, 20.0)})
        s = schedule_edf(g, uni2, a)
        parse(gantt_svg(s, uni2, a))  # must stay well-formed


class TestGraphSvg:
    def test_well_formed(self, diamond):
        root = parse(graph_svg(diamond))
        rects = root.findall(f".//{SVG_NS}rect")
        lines = root.findall(f".//{SVG_NS}line")
        assert len(rects) == diamond.n_tasks
        assert len(lines) == diamond.n_edges

    def test_layered_rows(self, diamond):
        root = parse(graph_svg(diamond))
        ys = sorted(
            {float(r.get("y")) for r in root.findall(f".//{SVG_NS}rect")}
        )
        assert len(ys) == 3  # three levels

    def test_generated_graph_renders(self):
        from repro.rng import make_rng
        from repro.workload import WorkloadParams, generate_workload

        wl = generate_workload(
            WorkloadParams(m=3, n_tasks_range=(15, 20), depth_range=(4, 6)),
            make_rng(2),
        )
        root = parse(graph_svg(wl.graph))
        assert len(root.findall(f".//{SVG_NS}rect")) == wl.graph.n_tasks


class TestStableColors:
    """Fills must not depend on the per-process string-hash salt."""

    SCRIPT = """
from repro.core import distribute_deadlines
from repro.rng import make_rng
from repro.sched import schedule_edf
from repro.viz import gantt_svg, graph_svg
from repro.workload import WorkloadParams, generate_workload

wl = generate_workload(
    WorkloadParams(m=2, n_tasks_range=(16, 20), depth_range=(5, 7)),
    make_rng(4),
)
a = distribute_deadlines(wl.graph, wl.platform, "ADAPT-L")
s = schedule_edf(wl.graph, wl.platform, a)
print(graph_svg(wl.graph))
print(gantt_svg(s, wl.platform, a))
"""

    def render(self, hash_seed: str) -> str:
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout

    def test_same_bytes_under_two_hash_seeds(self):
        first = self.render("1")
        assert "<svg" in first
        assert first == self.render("2")
