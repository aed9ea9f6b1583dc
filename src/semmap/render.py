"""Figure emission: classified-map overlays (PPM P6), thin-line
posterior sample overlays, and Graphviz DOT export of the abstract graph.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SemmapError
from .grid import CellState, ClassifiedGrid
from .world import (
    AbstractGraph,
    World,
    WorldCell,
    detect_objects,
    rasterize,
    unit_window,
    _segment_mask,
    _wall_band_in_window,
)

# the fixed overlay palette
COLOR_OCCUPIED = (0, 0, 0)
COLOR_UNKNOWN = (128, 128, 128)
COLOR_FREE = (255, 255, 255)
COLOR_WALL = (0, 0, 255)
COLOR_DOOR = (0, 255, 255)
COLOR_OBJECT = (0, 255, 0)
COLOR_MAGENTA = (255, 0, 255)
COLOR_TEXT = (0, 0, 0)
COLOR_SAMPLE = (0, 0, 255)

# 3x5 bitmap glyphs for unit labels
_FONT = {
    "0": ("111", "101", "101", "101", "111"),
    "1": ("010", "110", "010", "010", "111"),
    "2": ("111", "001", "111", "100", "111"),
    "3": ("111", "001", "111", "001", "111"),
    "4": ("101", "101", "111", "001", "001"),
    "5": ("111", "100", "111", "001", "111"),
    "6": ("111", "100", "111", "101", "111"),
    "7": ("111", "001", "001", "010", "010"),
    "8": ("111", "101", "111", "101", "111"),
    "9": ("111", "101", "111", "001", "111"),
    "R": ("110", "101", "110", "110", "101"),
    "C": ("111", "100", "100", "100", "111"),
    "H": ("101", "101", "111", "101", "101"),
    "E": ("111", "100", "111", "100", "111"),
    "N": ("101", "111", "111", "101", "101"),
    "O": ("111", "101", "101", "101", "111"),
}


def write_ppm(rgb: np.ndarray, path):
    h, w, _ = rgb.shape
    try:
        with open(path, "wb") as fh:
            fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            fh.write(rgb.astype(np.uint8).tobytes())
    except OSError as exc:
        raise SemmapError(f"cannot write {path}: {exc}") from exc


def _base_image(input_grid: ClassifiedGrid) -> np.ndarray:
    lut = np.zeros((3, 3), dtype=np.uint8)
    lut[CellState.OCCUPIED] = COLOR_OCCUPIED
    lut[CellState.UNKNOWN] = COLOR_UNKNOWN
    lut[CellState.FREE] = COLOR_FREE
    return lut[input_grid.states]


def _draw_text(rgb: np.ndarray, text: str, cx: float, cy: float, color):
    h, w, _ = rgb.shape
    width = 4 * len(text) - 1
    x = int(round(cx - width / 2.0))
    y = int(round(cy - 2.5))
    for ch in text:
        glyph = _FONT.get(ch.upper())
        if glyph is None:
            x += 4
            continue
        for r, row in enumerate(glyph):
            for c, bit in enumerate(row):
                if bit == "1":
                    yy, xx = y + r, x + c
                    if 0 <= yy < h and 0 <= xx < w:
                        rgb[yy, xx] = color
        x += 4


def _draw_segment(rgb: np.ndarray, p0, p1, color, halfwidth: float = 1.0):
    h, w, _ = rgb.shape
    x0 = int(math.floor(min(p0[0], p1[0]) - halfwidth - 1))
    x1 = int(math.ceil(max(p0[0], p1[0]) + halfwidth + 1))
    y0 = int(math.floor(min(p0[1], p1[1]) - halfwidth - 1))
    y1 = int(math.ceil(max(p0[1], p1[1]) + halfwidth + 1))
    x0, y0 = max(0, x0), max(0, y0)
    x1, y1 = min(w, x1), min(h, y1)
    if x0 >= x1 or y0 >= y1:
        return
    rgb[y0:y1, x0:x1][_segment_mask(p0, p1, halfwidth, (x0, y0, x1, y1))] = color


def render_world(
    input_grid: ClassifiedGrid,
    world: World,
    path,
    states=None,
    wall_thickness: float = 2.0,
    min_object_cells: int = 4,
    object_from_occupied: bool = True,
) -> np.ndarray:
    """Overlay the world on the classified map and write a PPM.

    Palette: black=occupied, gray=unknown, white=free (input classes);
    blue=wall, cyan=door, green=object (world states). Unit labels (type
    letter + id) at unit centers, magenta N markers on unexplored areas.
    """
    if states is None:
        raw = rasterize(
            world.units,
            input_grid,
            wall_thickness=wall_thickness,
            doors=world.doors,
            object_from_occupied=object_from_occupied,
        )
        _, states = detect_objects(raw, min_object_cells=min_object_cells)
    rgb = _base_image(input_grid)
    rgb[states.states == WorldCell.WALL] = COLOR_WALL
    rgb[states.states == WorldCell.OBJECT] = COLOR_OBJECT
    for door in world.doors:
        _draw_segment(rgb, door.p0, door.p1, COLOR_DOOR, halfwidth=wall_thickness)
    for i, u in enumerate(world.units):
        letter = world.types[i].letter if i < len(world.types) else "E"
        _draw_text(rgb, f"{letter}{u.uid}", u.cx, u.cy, COLOR_TEXT)
    for comp in world.unexplored:
        _draw_text(rgb, f"N{comp.ident}", comp.centroid[0], comp.centroid[1], COLOR_MAGENTA)
    write_ppm(rgb, path)
    return rgb


def render_samples(input_grid: ClassifiedGrid, samples, path) -> dict:
    """Thin-outline overlay of sample worlds on the classified map.

    Accepts World instances or plain unit tuples. Returns a dispersion
    summary: the union outline cell count over the mean per-sample outline
    (1.0 means all samples coincide). Output depends only on the sample set,
    not its order.
    """
    sample_units = []
    for s in samples:
        sample_units.append(tuple(s.units) if isinstance(s, World) else tuple(s))
    if not sample_units:
        raise ValueError("need at least one sample")
    shape = input_grid.states.shape
    rgb = _base_image(input_grid)
    union = np.zeros(shape, dtype=bool)
    per_sample = []
    for units in sample_units:
        outline = np.zeros(shape, dtype=bool)
        for u in units:
            win = unit_window(u, shape)
            if win[0] >= win[2] or win[1] >= win[3]:
                continue
            _, band = _wall_band_in_window(u, win, 1.0)
            outline[win[1] : win[3], win[0] : win[2]] |= band
        union |= outline
        per_sample.append(int(outline.sum()))
    rgb[union] = COLOR_SAMPLE
    write_ppm(rgb, path)
    mean_outline = float(np.mean(per_sample)) if per_sample else 0.0
    union_cells = int(union.sum())
    return {
        "samples": len(sample_units),
        "union_outline_cells": union_cells,
        "mean_outline_cells": mean_outline,
        "dispersion": union_cells / mean_outline if mean_outline > 0 else 0.0,
    }


def render_graph(graph: AbstractGraph, path) -> str:
    """Write the abstract graph as Graphviz DOT: ellipse unit nodes, blue box
    object nodes, magenta box unexplored nodes; solid edges for doors, dashed
    for plain adjacency, dotted attachment edges."""
    lines = ["graph abstract_world {"]
    for node in graph.nodes:
        if node.kind == "unit":
            attrs = f'shape=ellipse label="{node.label}"'
        elif node.kind == "object":
            attrs = f'shape=box color=blue label="{node.label}"'
        else:
            attrs = f'shape=box color=magenta label="{node.label}"'
        lines.append(f'  "{node.name}" [{attrs}];')
    for edge in graph.edges:
        if edge.kind == "door":
            style = "solid"
        elif edge.kind == "adjacent":
            style = "dashed"
        else:
            style = "dotted"
        lines.append(f'  "{edge.a}" -- "{edge.b}" [style={style}];')
    lines.append("}")
    text = "\n".join(lines) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SemmapError(f"cannot write {path}: {exc}") from exc
    return text
