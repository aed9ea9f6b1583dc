import numpy as np
import pytest

from semmap.grid import CellState, ClassifiedGrid
from semmap.render import (
    COLOR_DOOR,
    COLOR_FREE,
    COLOR_OBJECT,
    COLOR_OCCUPIED,
    COLOR_SAMPLE,
    COLOR_UNKNOWN,
    COLOR_WALL,
    render_graph,
    render_samples,
    render_world,
)
from semmap.world import (
    Component,
    Door,
    Unit,
    UnitType,
    World,
    abstract_graph,
    detect_relations,
)


def tiny_grid():
    states = np.full((24, 30), CellState.UNKNOWN, dtype=np.int8)
    states[4:20, 4:26] = CellState.FREE
    states[4:6, 4:26] = CellState.OCCUPIED
    return ClassifiedGrid(states)


def one_unit_world():
    unit = Unit(0, 15.0, 12.0, 9.0, 7.0)
    return World(units=(unit,), types=(UnitType.ROOM,))


def read_ppm(path):
    data = open(path, "rb").read()
    assert data.startswith(b"P6\n")
    header, rest = data.split(b"\n255\n", 1)
    dims = header.split(b"\n")[1].split()
    w, h = int(dims[0]), int(dims[1])
    arr = np.frombuffer(rest, dtype=np.uint8).reshape(h, w, 3)
    return arr


def test_empty_world_renders_classified_palette(tmp_path):
    grid = tiny_grid()
    world = World(units=(), types=())
    path = tmp_path / "w.ppm"
    rgb = render_world(grid, world, path)
    img = read_ppm(path)
    assert np.array_equal(img, rgb)
    assert tuple(img[0, 0]) == COLOR_UNKNOWN
    assert tuple(img[10, 10]) == COLOR_FREE
    assert tuple(img[4, 10]) == COLOR_OCCUPIED
    used = {tuple(c) for c in img.reshape(-1, 3)}
    assert used <= {COLOR_UNKNOWN, COLOR_FREE, COLOR_OCCUPIED}


def test_world_render_has_walls_objects_doors(tmp_path):
    states = np.full((30, 30), CellState.FREE, dtype=np.int8)
    states[12:16, 12:16] = CellState.UNKNOWN  # object blob
    grid = ClassifiedGrid(states)
    unit = Unit(0, 15.0, 15.0, 11.0, 11.0)
    door = Door(0, 1, (13.0, 4.0), (18.0, 4.0), 5.0)
    world = World(units=(unit,), types=(UnitType.ROOM,), doors=(door,))
    rgb = render_world(grid, world, tmp_path / "w.ppm")
    colors = {tuple(c) for c in rgb.reshape(-1, 3)}
    assert COLOR_WALL in colors
    assert COLOR_OBJECT in colors
    assert COLOR_DOOR in colors
    # exactly one cyan horizontal run (one door)
    cyan_rows = np.unique(np.nonzero((rgb == COLOR_DOOR).all(axis=2))[0])
    assert cyan_rows.size >= 1


def test_render_samples_order_independent(tmp_path):
    grid = tiny_grid()
    a = (Unit(0, 15.0, 12.0, 9.0, 7.0),)
    b = (Unit(0, 16.0, 12.0, 9.0, 7.0),)
    s1 = render_samples(grid, [a, b], tmp_path / "s1.ppm")
    s2 = render_samples(grid, [b, a], tmp_path / "s2.ppm")
    assert s1 == s2
    assert open(tmp_path / "s1.ppm", "rb").read() == open(tmp_path / "s2.ppm", "rb").read()


def test_render_samples_dispersion_statistic(tmp_path):
    grid = tiny_grid()
    tight = [(Unit(0, 15.0, 12.0, 9.0, 7.0),) for _ in range(40)]
    stats_tight = render_samples(grid, tight, tmp_path / "t.ppm")
    assert stats_tight["dispersion"] == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    loose = [
        (Unit(0, 15.0 + float(rng.integers(-3, 4)), 12.0, 9.0, 7.0),)
        for _ in range(40)
    ]
    stats_loose = render_samples(grid, loose, tmp_path / "l.ppm")
    assert stats_loose["dispersion"] > stats_tight["dispersion"]
    img = read_ppm(tmp_path / "t.ppm")
    assert COLOR_SAMPLE in {tuple(c) for c in img.reshape(-1, 3)}


def test_render_samples_single_sample_outline(tmp_path):
    grid = tiny_grid()
    stats = render_samples(grid, [one_unit_world()], tmp_path / "one.ppm")
    assert stats["samples"] == 1
    assert stats["union_outline_cells"] == stats["mean_outline_cells"]


def test_render_graph_dot_structure(tmp_path):
    u1 = Unit(0, 10.0, 10.0, 6.0, 6.0)
    u2 = Unit(1, 22.0, 10.0, 6.0, 6.0)
    rel = detect_relations([u1, u2], (30, 40))
    door = Door(0, 1, (16.0, 8.0), (16.0, 12.0), 4.0)
    obj = Component(1, 0, 9, (8, 8, 10, 10), (9.0, 9.0))
    world = World(
        units=(u1, u2), types=(UnitType.ROOM, UnitType.CORRIDOR),
        relations=rel, doors=(door,), objects=(obj,),
    )
    text = render_graph(abstract_graph(world), tmp_path / "g.dot")
    assert text.startswith("graph abstract_world {")
    assert text.rstrip().endswith("}")
    assert '"u0" [shape=ellipse label="R0"];' in text
    assert '"u1" [shape=ellipse label="C1"];' in text
    assert '"o1" [shape=box color=blue label="O1"];' in text
    assert '"u0" -- "u1" [style=solid];' in text
    assert '"u0" -- "o1" [style=dotted];' in text


def test_render_graph_dashed_for_doorless_adjacency(tmp_path):
    u1 = Unit(0, 10.0, 10.0, 6.0, 6.0)
    u2 = Unit(1, 22.0, 10.0, 6.0, 6.0)
    rel = detect_relations([u1, u2], (30, 40))
    world = World(units=(u1, u2), types=(UnitType.ROOM, UnitType.ROOM), relations=rel)
    text = render_graph(abstract_graph(world), tmp_path / "g.dot")
    assert '[style=dashed];' in text


def test_render_graph_empty_world_valid_dot(tmp_path):
    world = World(units=(), types=())
    text = render_graph(abstract_graph(world), tmp_path / "empty.dot")
    assert text == "graph abstract_world {\n}\n"
