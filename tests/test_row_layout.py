"""Per-row objects of the stream and trace paths: no instance dict, values
that repeat shared, and the copies pickle and deepcopy make."""

import copy
import dataclasses
import math
import pickle
from array import array

import numpy as np
import pytest

from crossrisk.geometry import PixelPoint, TargetLine, WorldPoint
from crossrisk.pipeline import TraceRow
from crossrisk.predictors.dataset import Awareness, LabeledSample
from crossrisk.risk import AreaRole
from crossrisk.stream import WINDOW_SIZE, AgentCategory, SlidingWindowTrajectory, read_frames


def _window(read_end=False):
    times = np.arange(WINDOW_SIZE) / 30.0
    positions = np.column_stack([np.linspace(-3.0, -1.5, WINDOW_SIZE), np.full(WINDOW_SIZE, 1.0)])
    window = SlidingWindowTrajectory("a7", AgentCategory.KID, 412, times, positions)
    if read_end:
        window.end_position  # the first read fills the slot
    return window


def _rows():
    line = TargetLine(WorldPoint(0.0, -5.0), WorldPoint(0.0, 5.0), (1.0, 0.0))
    return {
        "WorldPoint": WorldPoint(1.25, -0.5),
        "PixelPoint": PixelPoint(640.5, 300.0),
        "TraceRow": TraceRow(1201, "p3", "v9", AreaRole.FURTHER, -0.75, None),
        "SlidingWindowTrajectory": _window(),
        "SlidingWindowTrajectory, end read": _window(read_end=True),
        "LabeledSample": LabeledSample(_window(), 1.5, 1, line, Awareness.NOTICED),
    }


def _same(a, b) -> bool:
    """Field by field equality, arrays by value, nested dataclasses too."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    return a == b


@pytest.mark.parametrize("name", list(_rows()))
def test_row_types_have_no_instance_dict(name):
    row = _rows()[name]
    assert not hasattr(row, "__dict__")
    assert "__slots__" in vars(type(row))


@pytest.mark.parametrize("name", list(_rows()))
@pytest.mark.parametrize("how", ["pickle", "deepcopy"])
def test_row_types_copy_whole(name, how):
    row = _rows()[name]
    back = pickle.loads(pickle.dumps(row)) if how == "pickle" else copy.deepcopy(row)
    assert back is not row
    assert _same(back, row)


def test_end_position_is_the_last_point_read_once():
    window = _window()
    end = window.end_position
    assert end == WorldPoint(*window.positions[-1].tolist())
    assert window.end_position is end
    with pytest.raises(dataclasses.FrozenInstanceError):
        window.agent_id = "b0"


def _stream(tmp_path, body):
    path = tmp_path / "stream.csv"
    path.write_text("frame,t,id,category,x,y\n" + body, encoding="utf-8")
    return str(path)


def test_read_frames_shares_ids_frames_and_repeated_times(tmp_path):
    """Every row of one agent carries one id object, and every row of a
    frame that frame's int and, where the text repeats, one time float."""
    body = "".join(
        f"{frame},{frame / 30.0!r},{agent},0,{x:.2f},1.0\n"
        for frame in range(1000, 1004)
        for agent, x in (("ped-17", 0.5 + frame % 7), ("veh-203", 2.5), ("ped-5", -1.0))
    )
    frames, _ = read_frames(_stream(tmp_path, body))
    frames = list(frames)
    assert [frame for frame, _ in frames] == [1000, 1001, 1002, 1003]
    by_id = {}
    for frame, observations in frames:
        assert len(observations) == 3
        assert all(o.frame is frame for o in observations)
        assert all(o.t is observations[0].t for o in observations)
        for o in observations:
            assert by_id.setdefault(o.agent_id, o.agent_id) is o.agent_id
    assert sorted(by_id) == ["ped-17", "ped-5", "veh-203"]


@pytest.mark.parametrize("texts", [("0.0", "-0.0"), ("-0.0", "0.0"), ("-0.0", "-0.0", "0.0", "0.0")])
def test_a_frame_of_signed_zero_times_keeps_each_sign(tmp_path, texts):
    body = "".join(f"4,{t},a{i},0,{i}.0,1.0\n" for i, t in enumerate(texts))
    frames, _ = read_frames(_stream(tmp_path, body))
    [(frame, observations)] = list(frames)
    assert [math.copysign(1.0, o.t) for o in observations] == [math.copysign(1.0, float(t)) for t in texts]


def test_read_frames_keeps_transform_times_in_a_double_array(tmp_path):
    """One 8-byte double per frame with rows, not a list of float objects."""
    frames, transform_ms = read_frames(_stream(tmp_path, "0,0.0,a0,0,1.0,1.0\n2,0.0667,a0,0,1.1,1.0\n"))
    assert [frame for frame, _ in frames] == [0, 2]
    assert type(transform_ms) is array and transform_ms.typecode == "d"
    assert len(transform_ms) == 2
