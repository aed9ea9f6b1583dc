"""Independent re-computations that the benchmark checks `semmap` against.

Nothing here imports `semmap`: the rasterizer, the likelihood, the strict
cell prediction rate, the object cleaning, the relation test and the
world.json invariants are written from the definitions in the README of the
repository, so a fault in the program's own code cannot also hide in its
check. Cell classes and world states use the program's integer codes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

# input cell classes
OCCUPIED, UNKNOWN, FREE = 0, 1, 2
# world cell states (sensor-table columns)
WALL, OBJECT, FREE_IN, UNKNOWN_OUT = 0, 1, 2, 3
# the input class each world state predicts under the strict CPR variant
STRICT_CLASS = np.array([OCCUPIED, UNKNOWN, FREE, UNKNOWN], dtype=np.int8)

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def cos_sin(angle: float):
    """cos/sin snapped to exact values near the axes, as the program's unit
    geometry defines them."""
    c, s = math.cos(angle), math.sin(angle)
    if abs(c) < 1e-9:
        c = 0.0
    elif abs(abs(c) - 1.0) < 1e-9:
        c = math.copysign(1.0, c)
    if abs(s) < 1e-9:
        s = 0.0
    elif abs(abs(s) - 1.0) < 1e-9:
        s = math.copysign(1.0, s)
    return c, s


def read_pgm_classes(path, free_below: float, occupied_above: float) -> np.ndarray:
    """Tri-state classes of a binary (P5, 8-bit) PGM: occupancy is
    1 - pixel / maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM")
    fields, pos = [], 2
    while len(fields) < 3:
        while data[pos : pos + 1].isspace():
            pos += 1
        end = pos
        while not data[end : end + 1].isspace():
            end += 1
        fields.append(int(data[pos:end]))
        pos = end
    width, height, maxval = fields
    pixels = np.frombuffer(data[pos + 1 : pos + 1 + width * height], dtype=np.uint8)
    occ = 1.0 - pixels.reshape(height, width).astype(np.float64) / float(maxval)
    classes = np.full(occ.shape, UNKNOWN, dtype=np.int8)
    classes[occ < free_below] = FREE
    classes[occ > occupied_above] = OCCUPIED
    return classes


def _local(unit, shape, window=None):
    """(du, dv) of the cell centers in the unit's frame, over the window
    (x0, y0, x1, y1) or the full frame."""
    cx, cy, _, _, angle = unit[1:]
    x0, y0, x1, y1 = window if window is not None else (0, 0, shape[1], shape[0])
    xs = np.arange(x0, x1, dtype=np.float64) + 0.5 - cx
    ys = np.arange(y0, y1, dtype=np.float64) + 0.5 - cy
    c, s = cos_sin(angle)
    du = xs[None, :] * c + ys[:, None] * s
    dv = -xs[None, :] * s + ys[:, None] * c
    return du, dv


def footprint(unit, shape) -> np.ndarray:
    """Cells whose centers lie inside the unit; unit = (uid, cx, cy, hu, hv, angle)."""
    du, dv = _local(unit, shape)
    return (np.abs(du) <= unit[3]) & (np.abs(dv) <= unit[4])


def _band(unit, shape, thickness: float, window=None):
    du, dv = _local(unit, shape, window)
    adu, adv = np.abs(du), np.abs(dv)
    inside = (adu <= unit[3]) & (adv <= unit[4])
    return inside, inside & ((adu > unit[3] - thickness) | (adv > unit[4] - thickness))


def _door_carve(door, shape) -> np.ndarray:
    (px, py), (qx, qy), halfwidth = door
    h, w = shape
    dx, dy = qx - px, qy - py
    length = math.hypot(dx, dy)
    if length <= 0:
        return np.zeros(shape, dtype=bool)
    dx, dy = dx / length, dy / length
    rx = np.arange(w, dtype=np.float64)[None, :] + 0.5 - px
    ry = np.arange(h, dtype=np.float64)[:, None] + 0.5 - py
    t = rx * dx + ry * dy
    perp = np.abs(-rx * dy + ry * dx)
    return (t >= 0) & (t <= length) & (perp <= halfwidth)


def rasterize(units, classes, wall_thickness, doors=(), object_from_occupied=True):
    """World states, membership counts and owners over the full frame.

    units: (uid, cx, cy, hu, hv, angle) tuples; doors: (p0, p1, halfwidth).
    A cell inside a unit and within wall_thickness of that unit's edge is
    WALL unless a door carves it; other inside cells are OBJECT when the
    input is unknown (or occupied, if enabled), else FREE_IN; cells in no
    unit are UNKNOWN_OUT. The owner is the lowest containing uid.
    """
    shape = classes.shape
    membership = np.zeros(shape, dtype=np.int32)
    owner = np.full(shape, -1, dtype=np.int64)
    wall = np.zeros(shape, dtype=bool)
    for unit in units:
        inside, band = _band(unit, shape, wall_thickness)
        membership += inside
        wall |= band
        take = inside & ((owner == -1) | (unit[0] < owner))
        owner[take] = unit[0]
    carve = np.zeros(shape, dtype=bool)
    for door in doors:
        carve |= _door_carve(door, shape)
    obj = classes == UNKNOWN
    if object_from_occupied:
        obj |= classes == OCCUPIED
    states = np.full(shape, UNKNOWN_OUT, dtype=np.int8)
    inside_any = membership > 0
    states[inside_any] = FREE_IN
    states[inside_any & obj] = OBJECT
    states[wall & ~carve] = WALL
    return states, membership, owner


def clean_objects(states, min_object_cells: int) -> np.ndarray:
    """Object components (4-connected) smaller than min_object_cells become
    FREE_IN."""
    labels, count = ndimage.label(states == OBJECT, structure=FOUR_CONNECTED)
    cleaned = states.copy()
    if count:
        sizes = np.bincount(labels.ravel())
        small = sizes < min_object_cells
        small[0] = False
        cleaned[small[labels]] = FREE_IN
    return cleaned


def strict_hits(classes, cleaned_states, roi) -> int:
    """Number of ROI cells whose input class equals the strict class of their
    world state; roi = (x0, y0, x1, y1), end-exclusive."""
    x0, y0, x1, y1 = roi
    expected = STRICT_CLASS[cleaned_states[y0:y1, x0:x1]]
    return int(np.count_nonzero(classes[y0:y1, x0:x1] == expected))


def log_likelihood(classes, units, corridor_uids, doors, tables, psi, wall_thickness, object_from_occupied):
    """From-scratch log-likelihood: per cell, the log sensor-table entry for
    (input class, world state) -- the corridor table where the owning unit is
    a corridor -- plus max(membership - 1, 0) * log(psi).

    tables = (noncorridor, corridor), each 3x4 rows=input class, columns=world
    state, normalised here so that every column sums to one.
    """
    states, membership, owner = rasterize(units, classes, wall_thickness, doors, object_from_occupied)
    logs = []
    for table in tables:
        t = np.asarray(table, dtype=np.float64)
        logs.append(np.log(t / t.sum(axis=0, keepdims=True)))
    terms = logs[0][classes, states]
    if corridor_uids:
        corridor = np.isin(owner, np.array(sorted(corridor_uids), dtype=np.int64))
        terms = np.where(corridor, logs[1][classes, states], terms)
    terms = terms + np.maximum(membership - 1, 0) * math.log(psi)
    return float(terms.sum())


def adjacent(a, b, shape, radius: int, min_overlap: int) -> bool:
    """The program's adjacency definition: the one-cell boundary rings of the
    two units, each dilated by a (2r+1)-square, share >= min_overlap cells."""
    # an overlap cell lies within `radius` of both bounding boxes, and the
    # ring cells it grows from lie within `radius` of it
    pad = 2 * radius + 2
    boxes = [_aabb(u) for u in (a, b)]
    x0 = max(0, int(math.floor(max(bx[0] for bx in boxes))) - pad)
    y0 = max(0, int(math.floor(max(bx[1] for bx in boxes))) - pad)
    x1 = min(shape[1], int(math.ceil(min(bx[2] for bx in boxes))) + 1 + pad)
    y1 = min(shape[0], int(math.ceil(min(bx[3] for bx in boxes))) + 1 + pad)
    if x0 >= x1 or y0 >= y1:
        return False
    size = 2 * radius + 1
    _, ring_a = _band(a, shape, 1.0, (x0, y0, x1, y1))
    _, ring_b = _band(b, shape, 1.0, (x0, y0, x1, y1))
    grown_a = ndimage.maximum_filter(ring_a, size=size, mode="constant", cval=False)
    grown_b = ndimage.maximum_filter(ring_b, size=size, mode="constant", cval=False)
    return int(np.count_nonzero(grown_a & grown_b)) >= min_overlap


def _aabb(unit):
    _, cx, cy, hu, hv, angle = unit
    c, s = cos_sin(angle)
    ex, ey = abs(hu * c) + abs(hv * s), abs(hu * s) + abs(hv * c)
    return cx - ex, cy - ey, cx + ex, cy + ey


def iou(a, b, shape) -> float:
    fa, fb = footprint(a, shape), footprint(b, shape)
    union = int(np.count_nonzero(fa | fb))
    return int(np.count_nonzero(fa & fb)) / union if union else 0.0


def match_units(pred, truth, shape, min_iou: float = 0.5) -> dict:
    """Greedy one-to-one matching of predicted to truth units by IoU;
    returns {pred index: truth index}."""
    scored = []
    for i, p in enumerate(pred):
        for j, t in enumerate(truth):
            v = iou(p, t, shape)
            if v >= min_iou:
                scored.append((-v, i, j))
    match, taken = {}, set()
    for _, i, j in sorted(scored):
        if i not in match and j not in taken:
            match[i] = j
            taken.add(j)
    return match


# ---------------------------------------------------------------------------
# world.json invariants


def units_of(doc) -> list:
    return [
        (u["id"], u["center"][0], u["center"][1], u["half_extent"][0], u["half_extent"][1], u["angle"])
        for u in doc["units"]
    ]


def doors_of(doc, halfwidth: float) -> list:
    return [(tuple(d["p0"]), tuple(d["p1"]), halfwidth) for d in doc["doors"]]


def geometry_class(hu, hv, resolution, hall_area_min, corridor_ratio_min) -> str:
    """RoLi / CoLi / HaLi evidence predicate of a unit, by area then aspect."""
    if 4.0 * hu * hv * resolution * resolution >= hall_area_min:
        return "HaLi"
    if max(hu, hv) / min(hu, hv) >= corridor_ratio_min:
        return "CoLi"
    return "RoLi"


_TYPE_OF_PRED = {"Room": "room", "Corr": "corridor", "Hall": "hall", "Other": "other"}
_UNARY_EVIDENCE = ("RoLi", "CoLi", "HaLi", "MulDoor")


def forcing_rules(rules_text: str) -> list:
    """Hard rules whose antecedent is unary evidence on one variable and whose
    consequent is one type literal on it: (antecedent [(pred, positive)],
    type name, positive)."""
    out = []
    for raw in rules_text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "::" not in line:
            continue
        weight, body = (s.strip() for s in line.split("::", 1))
        if weight != "hard" or "->" not in body:
            continue
        lhs, rhs = (s.strip() for s in body.split("->", 1))
        lits = []
        for text in lhs.split("&"):
            text = text.strip()
            positive = not text.startswith("!")
            name, args = text.lstrip("!").rstrip(")").split("(")
            lits.append((name.strip(), positive, args.strip()))
        positive = not rhs.startswith("!")
        name, args = rhs.lstrip("!").rstrip(")").split("(")
        name, args = name.strip(), args.strip()
        if name not in _TYPE_OF_PRED or "," in args:
            continue
        if all(p in _UNARY_EVIDENCE and a == args for p, _, a in lits):
            out.append(([(p, pos) for p, pos, _ in lits], _TYPE_OF_PRED[name], positive))
    return out


def world_violations(doc, shape, cfg, rules_text: str, knowledge_active: bool) -> list:
    """Invariants every world.json must hold; returns a list of messages.

    cfg holds min_half_extent, door_min_m, door_max_m, hall_area_min_m2 and
    corridor_ratio_min as the run used them.
    """
    bad = []
    h, w = shape
    res = doc["resolution"]
    units = doc["units"]
    n = len(units)
    ids = [u["id"] for u in units]
    for u in units:
        hu, hv = u["half_extent"]
        ax0, ay0, ax1, ay1 = _aabb((u["id"], *u["center"], hu, hv, u["angle"]))
        if ax0 < 0 or ay0 < 0 or ax1 > w or ay1 > h:
            bad.append(f"unit {u['id']} leaves the {w}x{h} frame")
        if min(hu, hv) < cfg["min_half_extent"]:
            bad.append(f"unit {u['id']} has a half extent below {cfg['min_half_extent']}")
    rel = doc["relations"]
    if n and (rel is None or len(rel) != n or any(len(r) != n for r in rel)):
        bad.append("relation matrix missing or misshapen")
        rel = None
    if rel is not None and n:
        for p in range(n):
            if rel[p][p]:
                bad.append(f"unit {ids[p]} is related to itself")
            for q in range(p + 1, n):
                if bool(rel[p][q]) != bool(rel[q][p]):
                    bad.append(f"relation {ids[p]}-{ids[q]} is not symmetric")
    door_count = {i: 0 for i in ids}
    lo, hi = cfg["door_min_m"] / res, cfg["door_max_m"] / res
    for d in doc["doors"]:
        a, b = d["units"]
        if a not in door_count or b not in door_count:
            bad.append(f"door {a}-{b} names a missing unit")
            continue
        door_count[a] += 1
        door_count[b] += 1
        if rel is not None and not rel[ids.index(a)][ids.index(b)]:
            bad.append(f"door {a}-{b} joins a non-adjacent pair")
        if not lo <= d["width"] <= hi:
            bad.append(f"door {a}-{b} width {d['width']} outside [{lo}, {hi}]")
    if knowledge_active:
        rules = forcing_rules(rules_text)
        for u in units:
            truth = {p: False for p in _UNARY_EVIDENCE}
            truth[geometry_class(*u["half_extent"], res, cfg["hall_area_min_m2"], cfg["corridor_ratio_min"])] = True
            truth["MulDoor"] = door_count[u["id"]] >= 2
            for antecedent, type_name, positive in rules:
                if all(truth[p] == pos for p, pos in antecedent):
                    if (u["type"] == type_name) != positive:
                        bad.append(f"unit {u['id']} typed {u['type']} breaks a hard rule on {type_name}")
    return bad
