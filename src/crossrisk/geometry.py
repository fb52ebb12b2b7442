"""Planar geometry: pixel-to-world projective maps over a tile grid, zone
membership for the intersection layout, and target-line distance helpers.

All world coordinates are meters on the ground plane. Every type here is
immutable after construction and every operation is a pure function, so the
whole module is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DegenerateAnchors, ManifestError, ProjectiveSingularity
from .files import read_json, write_json

# Homogeneous scale below this is treated as a projective singularity.
W_TOLERANCE = 1e-12


@dataclass(frozen=True)
class PixelPoint:
    """Image-plane point in pixels (u right, v down)."""

    u: float
    v: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError(f"pixel point must be finite, got ({self.u}, {self.v})")


@dataclass(frozen=True)
class WorldPoint:
    """Ground-plane point in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"world point must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "WorldPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)


def _collinearity_scale(points: Sequence[tuple[float, float]]) -> float:
    return max(1.0, max(abs(c) for p in points for c in p))


def _any_degenerate(points: Sequence[tuple[float, float]]) -> bool:
    """True when any two points coincide or any three are collinear."""
    scale = _collinearity_scale(points)
    ids = range(len(points))
    for i in ids:
        for j in ids:
            if j <= i:
                continue
            dx = points[i][0] - points[j][0]
            dy = points[i][1] - points[j][1]
            if math.hypot(dx, dy) < 1e-9 * scale:
                return True
    for i in ids:
        for j in ids:
            for k in ids:
                if not (i < j < k):
                    continue
                ax, ay = points[j][0] - points[i][0], points[j][1] - points[i][1]
                bx, by = points[k][0] - points[i][0], points[k][1] - points[i][1]
                if abs(ax * by - ay * bx) < 1e-9 * scale * scale:
                    return True
    return False


def solve_homography(
    pixel_pts: Sequence[PixelPoint], world_pts: Sequence[WorldPoint]
) -> np.ndarray:
    """Solve the 3x3 projective map sending four pixel anchors to four world
    anchors.

    The eight unknowns are solved exactly from the linear system built from
    the four correspondences (LU with partial pivoting); the bottom-right
    entry is fixed at 1. Raises DegenerateAnchors when either quadruple has
    duplicate or collinear points, or when the system is singular anyway.
    """
    if len(pixel_pts) != 4 or len(world_pts) != 4:
        raise DegenerateAnchors("exactly four anchor pairs are required")
    px = [(p.u, p.v) for p in pixel_pts]
    wd = [(p.x, p.y) for p in world_pts]
    if _any_degenerate(px):
        raise DegenerateAnchors(f"degenerate pixel anchors: {px}")
    if _any_degenerate(wd):
        raise DegenerateAnchors(f"degenerate world anchors: {wd}")

    a = np.zeros((8, 8))
    b = np.zeros(8)
    for k, ((u, v), (x, y)) in enumerate(zip(px, wd)):
        a[2 * k] = [u, v, 1.0, 0.0, 0.0, 0.0, -x * u, -x * v]
        a[2 * k + 1] = [0.0, 0.0, 0.0, u, v, 1.0, -y * u, -y * v]
        b[2 * k] = x
        b[2 * k + 1] = y
    try:
        h = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise DegenerateAnchors(f"anchor system is singular: {exc}") from exc
    matrix = np.append(h, 1.0).reshape(3, 3)
    if not np.all(np.isfinite(matrix)):
        raise DegenerateAnchors("anchor system produced non-finite matrix")
    return matrix


def project_point(matrix: np.ndarray, u: float, v: float) -> tuple[float, float]:
    """Apply a 3x3 projective matrix to (u, v) with homogeneous normalization."""
    vec = matrix @ np.array([u, v, 1.0])
    w = vec[2]
    if abs(w) < W_TOLERANCE:
        raise ProjectiveSingularity(f"homogeneous scale {w!r} at ({u}, {v})")
    return float(vec[0] / w), float(vec[1] / w)


def _on_segment(x: float, y: float, ax: float, ay: float, bx: float, by: float) -> bool:
    cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
    length = math.hypot(bx - ax, by - ay)
    if abs(cross) > 1e-9 * max(1.0, length):
        return False
    dot = (x - ax) * (bx - ax) + (y - ay) * (by - ay)
    return -1e-12 <= dot <= length * length + 1e-12


def point_in_polygon(x: float, y: float, vertices: Sequence[tuple[float, float]]) -> bool:
    """Winding-number membership test; boundary points count as inside."""
    wn = 0
    n = len(vertices)
    for i in range(n):
        ax, ay = vertices[i]
        bx, by = vertices[(i + 1) % n]
        if _on_segment(x, y, ax, ay, bx, by):
            return True
        if ay <= y:
            if by > y and (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                wn += 1
        elif by <= y and (bx - ax) * (y - ay) - (by - ay) * (x - ax) < 0:
            wn -= 1
    return wn != 0


def _distance_to_segment(x: float, y: float, ax: float, ay: float, bx: float, by: float) -> float:
    vx, vy = bx - ax, by - ay
    ll = vx * vx + vy * vy
    if ll < 1e-18:
        return math.hypot(x - ax, y - ay)
    t = ((x - ax) * vx + (y - ay) * vy) / ll
    t = min(1.0, max(0.0, t))
    return math.hypot(x - (ax + t * vx), y - (ay + t * vy))


@dataclass(frozen=True, eq=False)
class HomographyTile:
    """One calibrated square: a pixel quadrilateral and its projective map.

    world_region, when given, is the declared world quadrilateral in the same
    corner order; construction then verifies the anchor round trip to 1e-6 m.
    """

    pixel_region: tuple[PixelPoint, ...]
    matrix: np.ndarray
    world_region: tuple[WorldPoint, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.pixel_region) != 4:
            raise ValueError("tile pixel region must have exactly 4 corners")
        matrix = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        if matrix.shape != (3, 3):
            raise ValueError(f"tile matrix must be 3x3, got {matrix.shape}")
        if abs(np.linalg.det(matrix)) < 1e-15:
            raise ValueError("tile matrix is singular")
        if self.world_region is not None:
            if len(self.world_region) != 4:
                raise ValueError("tile world region must have exactly 4 corners")
            for corner, expect in zip(self.pixel_region, self.world_region):
                x, y = project_point(matrix, corner.u, corner.v)
                if math.hypot(x - expect.x, y - expect.y) > 1e-6:
                    raise ValueError(
                        f"tile matrix maps corner ({corner.u}, {corner.v}) to "
                        f"({x}, {y}), expected ({expect.x}, {expect.y})"
                    )
        corners = tuple((c.u, c.v) for c in self.pixel_region)
        edges = tuple(corners[i] + corners[(i + 1) % 4] for i in range(4))
        # A point more than 1 px outside the corners' bounding box is not in
        # the polygon, and it is farther from each edge than _on_segment's
        # tolerance once every edge is longer than 1e-6 px. A shorter edge
        # can be within tolerance of any point: such a tile skips no point.
        pad = 1.0 if min(math.hypot(bx - ax, by - ay) for ax, ay, bx, by in edges) > 1e-6 else math.inf
        us, vs = [u for u, _ in corners], [v for _, v in corners]
        object.__setattr__(self, "_corners", corners)
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_box", (min(us) - pad, max(us) + pad, min(vs) - pad, max(vs) + pad))

    def contains(self, p: PixelPoint) -> bool:
        u_min, u_max, v_min, v_max = self._box
        if not (u_min <= p.u <= u_max and v_min <= p.v <= v_max):
            return False
        return point_in_polygon(p.u, p.v, self._corners)

    def edge_distance(self, p: PixelPoint) -> float:
        """Pixel distance from p to the nearest point of the tile's edges."""
        return min(_distance_to_segment(p.u, p.v, *edge) for edge in self._edges)

    def transform(self, p: PixelPoint) -> WorldPoint:
        x, y = project_point(self.matrix, p.u, p.v)
        return WorldPoint(x, y)


def tile_from_anchors(
    pixel_pts: Sequence[PixelPoint], world_pts: Sequence[WorldPoint]
) -> HomographyTile:
    matrix = solve_homography(pixel_pts, world_pts)
    return HomographyTile(tuple(pixel_pts), matrix, tuple(world_pts))


@dataclass(frozen=True, eq=False)
class TileGrid:
    """Ordered tiles covering the calibrated image region.

    Tile order is meaningful: a pixel on a shared edge belongs to the first
    tile in the list that contains it, which makes every lookup deterministic.
    """

    tiles: tuple[HomographyTile, ...]

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ValueError("tile grid must contain at least one tile")
        # rows u_min, u_max, v_min, v_max, one column per tile: the padded
        # boxes outside which a tile contains no point, and the corners'
        # own boxes, which hold every point of a tile's edges
        boxes = np.array([tile._box for tile in self.tiles]).T.copy()
        corners = np.array([tile._corners for tile in self.tiles])
        corner_boxes = np.stack([corners[:, :, 0].min(1), corners[:, :, 0].max(1),
                                 corners[:, :, 1].min(1), corners[:, :, 1].max(1)])
        object.__setattr__(self, "_boxes", boxes)
        object.__setattr__(self, "_corner_boxes", corner_boxes)
        object.__setattr__(self, "_scale", max(1.0, float(np.abs(corners).max())))
        # cheap overlap guard: a tile center must not sit inside another tile
        centers = [
            (sum(c.u for c in t.pixel_region) / 4.0, sum(c.v for c in t.pixel_region) / 4.0)
            for t in self.tiles
        ]
        for i, (cu, cv) in enumerate(centers):
            for j in self._held_by(cu, cv):
                if i != j and point_in_polygon(cu, cv, self.tiles[j]._corners):
                    raise ValueError(f"tile {i} overlaps tile {j} beyond a shared edge")

    def _held_by(self, u: float, v: float) -> list[int]:
        """Indices, in tile order, of the tiles whose padded box holds (u, v):
        the only ones that can contain it."""
        b = self._boxes
        return np.flatnonzero((b[0] <= u) & (u <= b[1]) & (b[2] <= v) & (v <= b[3])).tolist()


def transform_point(grid: TileGrid, p: PixelPoint) -> WorldPoint:
    """Map a pixel point to world coordinates through its owning tile.

    The owning tile is the first one containing the point; a point outside
    every tile takes the nearest tile by pixel distance to its edges (the
    first of equal ones).
    """
    for k in grid._held_by(p.u, p.v):
        if grid.tiles[k].contains(p):
            return grid.tiles[k].transform(p)
    # No tile contains p, so its distance to a tile is the one to the tile's
    # edges: the first tile of least edge distance. The distance to a tile's
    # corner box is a lower bound of it, so only tiles whose bound comes
    # within a margin, far above rounding error, of one tile's exact
    # distance can be nearest; min over them in tile order keeps ties.
    c = grid._corner_boxes
    bound = np.hypot(np.maximum(np.maximum(c[0] - p.u, p.u - c[1]), 0.0),
                     np.maximum(np.maximum(c[2] - p.v, p.v - c[3]), 0.0))
    reach = grid.tiles[int(np.argmin(bound))].edge_distance(p)
    reach += 1e-9 * (grid._scale + abs(p.u) + abs(p.v))
    near = (grid.tiles[k] for k in np.flatnonzero(bound <= reach).tolist())
    return min(near, key=lambda tile: tile.edge_distance(p)).transform(p)


@dataclass(frozen=True)
class TargetLine:
    """Oriented target segment with a unit inward normal.

    The inward normal points where crossing agents are headed; signed
    distances are positive on the approach side.
    """

    p0: WorldPoint
    p1: WorldPoint
    normal: tuple[float, float]

    def __post_init__(self) -> None:
        nx, ny = self.normal
        norm = math.hypot(nx, ny)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"target line normal must be unit length, got {norm}")


def signed_distance_to_line(p: WorldPoint, line: TargetLine) -> float:
    """Distance from p to the target line, positive on the approach side."""
    nx, ny = line.normal
    return (line.p0.x - p.x) * nx + (line.p0.y - p.y) * ny


def first_crossing_time(
    positions: np.ndarray, times: np.ndarray, line: TargetLine
) -> float | None:
    """First time the sampled path crosses the line from its approach side.

    positions is (N, 2); the crossing instant is linearly interpolated between
    the straddling samples. Returns None when the path never reaches the line
    (or started past it).
    """
    nx, ny = line.normal
    d = (line.p0.x - positions[:, 0]) * nx + (line.p0.y - positions[:, 1]) * ny
    if d[0] <= 0.0:
        return float(times[0]) if d[0] == 0.0 else None
    below = np.nonzero(d <= 0.0)[0]
    if below.size == 0:
        return None
    k = int(below[0])
    d0, d1 = d[k - 1], d[k]
    t0, t1 = times[k - 1], times[k]
    return float(t0 + (t1 - t0) * d0 / (d0 - d1))


def _segments_properly_intersect(
    a: tuple[float, float], b: tuple[float, float],
    c: tuple[float, float], d: tuple[float, float],
) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


def _polygon_is_simple(vertices: Sequence[tuple[float, float]]) -> bool:
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = vertices[j], vertices[(j + 1) % n]
            if _segments_properly_intersect(a, b, c, d):
                return False
    return True


# Boundary points resolve to the first match in this order: conflict areas
# take precedence (fail toward caution), then react, vehicle, approach zones.
AREA_PRIORITY = ("3.1", "3.2", "2.1", "2.2", "4.1", "4.2", "1.1", "1.2")


@dataclass(frozen=True, eq=False)
class AreaMap:
    """Named world-coordinate polygons plus the target lines they imply.

    areas maps names like "3.1" to polygon vertex tuples. target_lines holds
    the pedestrian lines per crossing direction (ped_ltr_q0..q2, ped_rtl_q0..q2)
    and vehicle lines per conflict area (veh_<area>_enter / veh_<area>_leave).
    """

    areas: Mapping[str, tuple[WorldPoint, ...]]
    target_lines: Mapping[str, TargetLine]

    def __post_init__(self) -> None:
        object.__setattr__(self, "areas", dict(self.areas))
        object.__setattr__(self, "target_lines", dict(self.target_lines))
        for name, poly in self.areas.items():
            if len(poly) < 3:
                raise ValueError(f"area {name} needs at least 3 vertices")
            if not _polygon_is_simple([(p.x, p.y) for p in poly]):
                raise ValueError(f"area {name} polygon self-intersects")
        self._check_conflict_areas_disjoint()
        order = [name for name in AREA_PRIORITY if name in self.areas]
        order += [name for name in self.areas if name not in AREA_PRIORITY]
        object.__setattr__(self, "_lookup_order", tuple(order))
        object.__setattr__(self, "_edges", _compile_edges([self.areas[name] for name in order]))

    def _check_conflict_areas_disjoint(self) -> None:
        if "3.1" not in self.areas or "3.2" not in self.areas:
            return
        a = [(p.x, p.y) for p in self.areas["3.1"]]
        b = [(p.x, p.y) for p in self.areas["3.2"]]
        for (x, y) in a:
            if point_in_polygon(x, y, b) and not any(
                _on_segment(x, y, *b[i], *b[(i + 1) % len(b)]) for i in range(len(b))
            ):
                raise ValueError("conflict areas 3.1 and 3.2 overlap")
        for i in range(len(a)):
            for j in range(len(b)):
                if _segments_properly_intersect(
                    a[i], a[(i + 1) % len(a)], b[j], b[(j + 1) % len(b)]
                ):
                    raise ValueError("conflict areas 3.1 and 3.2 overlap")

    def line(self, name: str) -> TargetLine:
        try:
            return self.target_lines[name]
        except KeyError:
            raise KeyError(f"area map has no target line {name!r}") from None


def pedestrian_line_name(direction_code: str, q: int) -> str:
    """Target-line key for a pedestrian: direction code is "ltr" or "rtl"."""
    return f"ped_{direction_code}_q{q}"


def vehicle_line_name(area: str, enter: bool) -> str:
    """Target-line key for a vehicle serving a conflict area."""
    return f"veh_{area}_{'enter' if enter else 'leave'}"


@dataclass(frozen=True, eq=False)
class _Edges:
    """Every polygon edge (a -> b) of an area map as arrays, polygons in lookup
    order, edge k of polygon j at starts[j] + k, with e = b - a. tol and top
    are _on_segment's cross-product tolerance and upper dot-product bound."""

    ax: np.ndarray
    ay: np.ndarray
    by: np.ndarray
    ex: np.ndarray
    ey: np.ndarray
    tol: np.ndarray
    top: np.ndarray
    starts: np.ndarray


def _compile_edges(polygons: Sequence[Sequence[WorldPoint]]) -> _Edges:
    rows, starts = [], []
    for poly in polygons:
        starts.append(len(rows))
        for i, a in enumerate(poly):
            b = poly[(i + 1) % len(poly)]
            ex, ey = b.x - a.x, b.y - a.y
            length = math.hypot(ex, ey)
            rows.append((a.x, a.y, b.y, ex, ey, 1e-9 * max(1.0, length), length * length + 1e-12))
    columns = np.array(rows).T.copy()
    return _Edges(*columns, starts=np.array(starts))


def locate_areas(area_map: AreaMap, xs: Sequence[float], ys: Sequence[float]) -> list[str | None]:
    """Name of the area containing each point (xs[i], ys[i]), or None when it
    lies outside all polygons: locate_area for many points in one pass.

    Every observation x edge pair evaluates point_in_polygon's expressions in
    its operation order, so each answer is locate_area's, bit for bit.
    """
    if not len(xs):
        return []
    e = area_map._edges
    x = np.asarray(xs, dtype=float)[:, None]
    y = np.asarray(ys, dtype=float)[:, None]
    dx, dy = x - e.ax, y - e.ay
    cross = e.ex * dy - e.ey * dx
    # winding number: +1 for an edge crossing the point's level upward with
    # the point on its left (cross > 0), -1 for one crossing downward with
    # the point on its right (cross < 0)
    up = (e.ay <= y).astype(np.intp) - (e.by <= y)
    inside = np.add.reduceat(up * (np.sign(cross) == up), e.starts, axis=1) != 0
    # _on_segment: not farther than tol from the edge's line (`not >` keeps
    # its answer for a NaN cross product), and between the edge's ends
    near = ~(np.abs(cross) > e.tol)
    if near.any():
        dot = dx * e.ex + dy * e.ey
        on_edge = near & (dot >= -1e-12) & (dot <= e.top)
        inside |= np.logical_or.reduceat(on_edge, e.starts, axis=1)
    names = area_map._lookup_order
    return [names[row.index(True)] if True in row else None for row in inside.tolist()]


def locate_area(area_map: AreaMap, p: WorldPoint) -> str | None:
    """Name of the area containing p, or None when outside all polygons."""
    return locate_areas(area_map, (p.x,), (p.y,))[0]


# --- file formats -------------------------------------------------------------

def load_tile_grid(path: str) -> TileGrid:
    """Read a tile-grid JSON file (list of {"pixel": ..., "world": ...}).

    Entries may carry a precomputed "matrix", kept once it maps the pixel
    corners onto the world corners; otherwise the map is solved from the
    anchor pairs. An entry with a matrix may leave "world" out or null (as
    save_tile_grid writes for a tile built without one). A malformed or
    degenerate tile, an entry with neither a matrix nor world corners, or
    overlapping tiles raise ManifestError naming the file (and the tile).
    """
    return read_json(path, "tile grid", lambda raw: _parse_tile_grid(path, raw))


def _parse_tile_grid(path: str, raw: list) -> TileGrid:
    if not isinstance(raw, list) or not raw:
        raise ValueError("expected a non-empty JSON array of tiles")
    tiles = []
    for idx, entry in enumerate(raw):
        try:
            pixel = tuple(PixelPoint(float(u), float(v)) for u, v in entry["pixel"])
            world = entry.get("world")
            if world is not None:
                world = tuple(WorldPoint(float(x), float(y)) for x, y in world)
            if "matrix" in entry:
                tiles.append(HomographyTile(pixel, np.asarray(entry["matrix"], dtype=float), world))
            elif world is None:
                raise ValueError('an entry needs a "matrix" or "world" corners')
            else:
                tiles.append(tile_from_anchors(pixel, world))
        except (KeyError, TypeError, ValueError, DegenerateAnchors) as exc:
            raise ManifestError(f"tile {idx} in {path} is malformed: {exc}") from exc
    return TileGrid(tuple(tiles))


def save_tile_grid(path: str, grid: TileGrid) -> None:
    entries = [
        {
            "pixel": [[c.u, c.v] for c in tile.pixel_region],
            "world": [[c.x, c.y] for c in tile.world_region] if tile.world_region else None,
            "matrix": tile.matrix.tolist(),
        }
        for tile in grid.tiles
    ]
    write_json(path, entries, indent=2)


def load_area_map(path: str) -> AreaMap:
    return read_json(path, "area map", _parse_area_map)


def _parse_area_map(raw: Mapping) -> AreaMap:
    areas = {
        name: tuple(WorldPoint(float(x), float(y)) for x, y in poly)
        for name, poly in raw["areas"].items()
    }
    lines = {
        name: TargetLine(
            WorldPoint(*map(float, spec["p0"])),
            WorldPoint(*map(float, spec["p1"])),
            (float(spec["normal"][0]), float(spec["normal"][1])),
        )
        for name, spec in raw["target_lines"].items()
    }
    return AreaMap(areas, lines)


def save_area_map(path: str, area_map: AreaMap) -> None:
    doc = {
        "areas": {name: [[p.x, p.y] for p in poly] for name, poly in area_map.areas.items()},
        "target_lines": {
            name: {"p0": [ln.p0.x, ln.p0.y], "p1": [ln.p1.x, ln.p1.y], "normal": list(ln.normal)}
            for name, ln in area_map.target_lines.items()
        },
    }
    write_json(path, doc, indent=2)
