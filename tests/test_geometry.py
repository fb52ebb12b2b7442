import json
import math

import numpy as np
import pytest

from crossrisk.errors import DegenerateAnchors, OutsideCalibratedRegion, ProjectiveSingularity
from crossrisk.geometry import (
    AreaMap,
    FallbackPolicy,
    HomographyTile,
    PixelPoint,
    TargetLine,
    TileGrid,
    WorldPoint,
    first_crossing_time,
    locate_area,
    point_in_polygon,
    project_point,
    signed_distance_to_line,
    solve_homography,
    transform_point,
)

from conftest import vertical_line


def _px(points):
    return [PixelPoint(u, v) for u, v in points]


def _wd(points):
    return [WorldPoint(x, y) for x, y in points]


UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


# --- oracle: direct linear transform via homogeneous least squares (SVD) -------

def dlt_oracle(pixel_pts, world_pts) -> np.ndarray:
    """Independent 9-unknown homogeneous DLT solved by SVD; h33 normalized."""
    a = []
    for (u, v), (x, y) in zip(pixel_pts, world_pts):
        a.append([u, v, 1, 0, 0, 0, -x * u, -x * v, -x])
        a.append([0, 0, 0, u, v, 1, -y * u, -y * v, -y])
    _, _, vt = np.linalg.svd(np.asarray(a, dtype=float))
    h = vt[-1].reshape(3, 3)
    return h / h[2, 2]


def ray_cast_oracle(x, y, poly) -> bool:
    """Classic even-odd ray casting (open boundary)."""
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = (x2 - x1) * (y - y1) / (y2 - y1) + x1
            if x < x_cross:
                inside = not inside
    return inside


class TestSolveHomography:
    def test_identity(self):
        m = solve_homography(_px(UNIT_SQUARE), _wd(UNIT_SQUARE))
        assert np.allclose(m, np.eye(3), atol=1e-12)

    def test_pure_scale(self):
        doubled = [(2 * x, 2 * y) for x, y in UNIT_SQUARE]
        m = solve_homography(_px(UNIT_SQUARE), _wd(doubled))
        assert np.allclose(m, np.diag([2.0, 2.0, 1.0]), atol=1e-12)

    def test_matches_dlt_oracle_on_spec_quad(self):
        pixel = [(100.0, 50.0), (300.0, 60.0), (310.0, 260.0), (90.0, 250.0)]
        world = [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)]
        m = solve_homography(_px(pixel), _wd(world))
        oracle = dlt_oracle(pixel, world)
        assert np.allclose(m, oracle, rtol=1e-9, atol=1e-12)
        for (u, v), (x, y) in zip(pixel, world):
            px, py = project_point(m, u, v)
            assert math.hypot(px - x, py - y) < 1e-9

    def test_bottom_right_entry_is_one(self):
        rng = np.random.default_rng(3)
        pixel = [(0, 0), (200, 10), (220, 180), (5, 170)]
        world = [tuple(rng.uniform(0, 4, 2)) for _ in range(4)]
        m = solve_homography(_px(pixel), _wd(world))
        assert m[2, 2] == 1.0

    def test_random_quads_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            pixel = [
                (rng.uniform(0, 100), rng.uniform(0, 100)),
                (rng.uniform(200, 300), rng.uniform(0, 100)),
                (rng.uniform(200, 300), rng.uniform(200, 300)),
                (rng.uniform(0, 100), rng.uniform(200, 300)),
            ]
            world = [
                (rng.uniform(0, 1), rng.uniform(0, 1)),
                (rng.uniform(3, 4), rng.uniform(0, 1)),
                (rng.uniform(3, 4), rng.uniform(3, 4)),
                (rng.uniform(0, 1), rng.uniform(3, 4)),
            ]
            m = solve_homography(_px(pixel), _wd(world))
            for (u, v), (x, y) in zip(pixel, world):
                px, py = project_point(m, u, v)
                assert math.hypot(px - x, py - y) < 1e-9

    def test_collinear_pixels_raise(self):
        pixel = [(0, 0), (1, 1), (2, 2), (0, 5)]
        with pytest.raises(DegenerateAnchors):
            solve_homography(_px(pixel), _wd(UNIT_SQUARE))

    def test_duplicate_world_points_raise(self):
        world = [(0, 0), (1, 0), (1, 0), (0, 1)]
        with pytest.raises(DegenerateAnchors):
            solve_homography(_px(UNIT_SQUARE), _wd(world))


class TestTransformPoint:
    def _identity_tile(self, region=((0, 0), (100, 0), (100, 100), (0, 100))):
        return HomographyTile(tuple(_px(region)), np.eye(3))

    def test_identity_tile(self):
        grid = TileGrid((self._identity_tile(),))
        out = transform_point(grid, PixelPoint(10, 20))
        assert (out.x, out.y) == (10.0, 20.0)

    def test_scale_tile(self):
        tile = HomographyTile(tuple(_px(((0, 0), (10, 0), (10, 10), (0, 10)))), np.diag([2.0, 2.0, 1.0]))
        out = transform_point(TileGrid((tile,)), PixelPoint(3, 4))
        assert (out.x, out.y) == (6.0, 8.0)

    def test_four_tile_grid_matches_per_tile_oracle(self):
        rng = np.random.default_rng(5)
        tiles = []
        cells = [((0, 0), (50, 50)), ((50, 0), (100, 50)), ((0, 50), (50, 100)), ((50, 50), (100, 100))]
        mats = []
        for k, ((x0, y0), (x1, y1)) in enumerate(cells):
            m = np.array([[1.0 + k, 0.0, k * 10.0], [0.0, 2.0 + k, -k * 5.0], [0.0, 0.0, 1.0]])
            mats.append(m)
            region = tuple(_px(((x0, y0), (x1, y0), (x1, y1), (x0, y1))))
            tiles.append(HomographyTile(region, m))
        grid = TileGrid(tuple(tiles))
        for _ in range(100):
            k = int(rng.integers(0, 4))
            (x0, y0), (x1, y1) = cells[k]
            p = PixelPoint(float(rng.uniform(x0 + 1e-6, x1 - 1e-6)), float(rng.uniform(y0 + 1e-6, y1 - 1e-6)))
            expect = mats[k] @ np.array([p.u, p.v, 1.0])
            out = transform_point(grid, p)
            assert math.isclose(out.x, expect[0], abs_tol=1e-12)
            assert math.isclose(out.y, expect[1], abs_tol=1e-12)

    def test_reject_policy(self):
        grid = TileGrid((self._identity_tile(),), FallbackPolicy.REJECT)
        with pytest.raises(OutsideCalibratedRegion):
            transform_point(grid, PixelPoint(500, 500))

    def test_nearest_tile_fallback(self):
        near = self._identity_tile(((0, 0), (10, 0), (10, 10), (0, 10)))
        far = HomographyTile(tuple(_px(((100, 100), (110, 100), (110, 110), (100, 110)))), np.diag([3.0, 3.0, 1.0]))
        grid = TileGrid((far, near), FallbackPolicy.NEAREST_TILE)
        out = transform_point(grid, PixelPoint(12, 5))  # closest to `near`
        assert (out.x, out.y) == (12.0, 5.0)

    def test_equal_nearest_tiles_resolve_to_the_first(self):
        left = self._identity_tile(((0, 0), (10, 0), (10, 10), (0, 10)))
        right = HomographyTile(tuple(_px(((20, 0), (30, 0), (30, 10), (20, 10)))), np.diag([3.0, 3.0, 1.0]))
        out = transform_point(TileGrid((left, right)), PixelPoint(15, 5))  # 5 px from both
        assert (out.x, out.y) == (15.0, 5.0)

    def test_degenerate_edge_tile_keeps_containing_every_point(self):
        """A zero-length edge is within tolerance of any point, so such a tile
        contains everything; the bounding-box shortcut must not change that."""
        tile = HomographyTile(tuple(_px(((0, 0), (10, 0), (10, 10), (10, 10)))), np.eye(3))
        assert tile.contains(PixelPoint(500, -300))
        assert point_in_polygon(500, -300, [(0, 0), (10, 0), (10, 10), (10, 10)])

    def test_projective_singularity(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -0.1, 1.0]])
        with pytest.raises(ProjectiveSingularity):
            project_point(m, 3.0, 10.0)

    def test_scale_invariance_of_matrix(self):
        rng = np.random.default_rng(17)
        pixel = _px([(100, 50), (300, 60), (310, 260), (90, 250)])
        world = _wd([(0, 0), (2, 0), (2, 2), (0, 2)])
        m = solve_homography(pixel, world)
        for scale in (0.3, -2.0, 1e4):
            for _ in range(20):
                u, v = rng.uniform(90, 310), rng.uniform(50, 260)
                x1, y1 = project_point(m, u, v)
                x2, y2 = project_point(m * scale, u, v)
                assert math.isclose(x1, x2, abs_tol=1e-9)
                assert math.isclose(y1, y2, abs_tol=1e-9)


class TestTileValidation:
    def test_round_trip_validation_rejects_wrong_matrix(self):
        with pytest.raises(ValueError):
            HomographyTile(
                tuple(_px(UNIT_SQUARE)),
                np.diag([2.0, 2.0, 1.0]),
                tuple(_wd(UNIT_SQUARE)),
            )

    def test_reference_grid_round_trip(self, tile_grid):
        worst = 0.0
        for tile in tile_grid.tiles:
            for pc, wc in zip(tile.pixel_region, tile.world_region):
                out = tile.transform(pc)
                worst = max(worst, out.distance_to(wc))
        assert worst < 1e-6


class TestLocateArea:
    def test_centroid_of_each_area(self, area_map):
        for name, poly in area_map.areas.items():
            cx = sum(p.x for p in poly) / len(poly)
            cy = sum(p.y for p in poly) / len(poly)
            assert locate_area(area_map, WorldPoint(cx, cy)) == name

    def test_outside_returns_none(self, area_map):
        assert locate_area(area_map, WorldPoint(100.0, 100.0)) is None

    def test_matches_ray_casting_oracle(self, area_map):
        rng = np.random.default_rng(23)
        polys = {name: [(p.x, p.y) for p in poly] for name, poly in area_map.areas.items()}
        order = [n for n in ("3.1", "3.2", "2.1", "2.2", "4.1", "4.2", "1.1", "1.2") if n in polys]
        for _ in range(1000):
            x = float(rng.uniform(-10, 22))
            y = float(rng.uniform(-5, 25))
            expected = None
            for name in order:
                if ray_cast_oracle(x, y, polys[name]):
                    expected = name
                    break
            got = locate_area(area_map, WorldPoint(x, y))
            assert got == expected, f"({x}, {y}): {got} != {expected}"

    def test_boundary_priority_conflict_first(self, area_map):
        # x = 0 is shared between 2.1 and 3.1; the conflict area wins
        assert locate_area(area_map, WorldPoint(0.0, 1.0)) == "3.1"
        # center line shared between 3.1 and 3.2; declaration order wins
        assert locate_area(area_map, WorldPoint(5.5, 1.0)) == "3.1"

    def test_partition_near_shared_edges(self, area_map):
        rng = np.random.default_rng(41)
        hits = []
        for _ in range(500):
            x = 0.0 + float(rng.normal(0, 1e-9))
            y = float(rng.uniform(-0.5, 2.5))
            area = locate_area(area_map, WorldPoint(x, y))
            hits.append(area)
            assert area in ("2.1", "3.1")
        assert "3.1" in hits

    def test_self_intersecting_polygon_rejected(self):
        bowtie = (
            WorldPoint(0, 0), WorldPoint(1, 1), WorldPoint(1, 0), WorldPoint(0, 1),
        )
        with pytest.raises(ValueError):
            AreaMap({"1.1": bowtie}, {}, (WorldPoint(0, 0), WorldPoint(1, 0)))


class TestSignedDistance:
    def test_vertical_line_ahead(self):
        assert signed_distance_to_line(WorldPoint(3.0, 0.0), vertical_line(5.0)) == 2.0

    def test_on_line(self):
        assert signed_distance_to_line(WorldPoint(5.0, 2.0), vertical_line(5.0)) == 0.0

    def test_matches_dot_product_oracle(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            p = WorldPoint(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)))
            p0 = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10)])
            angle = float(rng.uniform(0, 2 * math.pi))
            normal = (math.cos(angle), math.sin(angle))
            line = TargetLine(WorldPoint(*p0), WorldPoint(*(p0 + [math.sin(angle), -math.cos(angle)])), normal)
            oracle = float(np.dot([p.x - p0[0], p.y - p0[1]], [-normal[0], -normal[1]]))
            assert math.isclose(signed_distance_to_line(p, line), oracle, abs_tol=1e-12)

    def test_normal_must_be_unit(self):
        with pytest.raises(ValueError):
            TargetLine(WorldPoint(0, 0), WorldPoint(0, 1), (2.0, 0.0))


class TestFirstCrossing:
    def test_interpolated_crossing(self):
        times = np.arange(5) * 0.5
        positions = np.column_stack([np.array([0.0, 1.0, 2.0, 3.0, 4.0]), np.zeros(5)])
        t = first_crossing_time(positions, times, vertical_line(2.5))
        assert math.isclose(t, 1.25, abs_tol=1e-12)

    def test_never_crossing(self):
        times = np.arange(3) * 1.0
        positions = np.column_stack([np.array([0.0, 0.5, 1.0]), np.zeros(3)])
        assert first_crossing_time(positions, times, vertical_line(5.0)) is None

    def test_started_past_line(self):
        times = np.arange(3) * 1.0
        positions = np.column_stack([np.array([6.0, 7.0, 8.0]), np.zeros(3)])
        assert first_crossing_time(positions, times, vertical_line(5.0)) is None


def test_point_in_polygon_boundary_inclusive():
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    assert point_in_polygon(1.0, 0.0, square)
    assert point_in_polygon(0.0, 0.0, square)
    assert point_in_polygon(1.0, 1.0, square)
    assert not point_in_polygon(3.0, 1.0, square)


def reference_transform(grid: TileGrid):
    """transform_point as first written: every tile's full polygon test, then
    the nearest tile by distance to its edges (the first of equal ones)."""
    from crossrisk.geometry import _distance_to_segment

    corners = [[(c.u, c.v) for c in tile.pixel_region] for tile in grid.tiles]

    def transform(p: PixelPoint) -> WorldPoint:
        for tile, cs in zip(grid.tiles, corners):
            if point_in_polygon(p.u, p.v, cs):
                return tile.transform(p)

        def distance(k):
            cs = corners[k]
            return min(_distance_to_segment(p.u, p.v, *cs[i], *cs[(i + 1) % 4]) for i in range(4))

        return grid.tiles[min(range(len(corners)), key=distance)].transform(p)

    return transform


def test_transform_point_bits_on_the_benchmark_pixels_corners_and_edges(tile_grid, monkeypatch):
    """Every pixel of the seed-7 pixel recordings (a quarter of them outside
    every tile), every tile corner, points along and just off every edge
    (shared edges included): the bounding-box skip, the cached corners and
    the nearest-tile scan without a second polygon test give the bits of
    the first-written path."""
    from pathlib import Path

    from crossrisk.synthgen import ScenarioSpec, camera_pixel_of, generate

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from common import CONFIG_DIR, WORKLOADS

    workload = WORKLOADS["stream-pixel-gru"]
    points = []
    for spec, seed in zip(workload.specs, workload.sub_seeds(7)):
        spec = ScenarioSpec.from_dict({**json.loads((CONFIG_DIR / spec).read_text()), "seed": seed})
        frames, _ = generate(spec)
        points += [camera_pixel_of(o.position) for obs in frames.values() for o in obs]
    assert len(points) > 10000
    for tile in tile_grid.tiles:
        cs = tile.pixel_region
        for a, b in zip(cs, cs[1:] + cs[:1]):
            du, dv = b.u - a.u, b.v - a.v
            length = math.hypot(du, dv)
            nu, nv = dv / length, -du / length
            for f in (0.0, 0.3, 0.5, 1.0):
                for off in (0.0, 1e-9, -1e-9, 1.0, -1.0, 1.5, -1.5):
                    points.append(PixelPoint(a.u + f * du + off * nu, a.v + f * dv + off * nv))
    reference = reference_transform(tile_grid)
    for p in points:
        got, expect = transform_point(tile_grid, p), reference(p)
        assert (got.x, got.y) == (expect.x, expect.y), p
