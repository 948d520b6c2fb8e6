"""Tests for draw-call trace record/replay (APITrace substitute)."""

import numpy as np
import pytest

from repro.geometry.models import cube, triangles
from repro.gl.context import GLContext
from repro.gl.state import DepthFunc
from repro.gl.textures import checkerboard
from repro.gl.trace import RegionOfInterest, TraceRecorder, replay

VS = "void main() { gl_Position = vec4(position, 1.0); }"
FS = "void main() { gl_FragColor = vec4(1.0, 0.0, 0.0, 1.0); }"


def record_two_frames():
    ctx = GLContext(32, 32)
    ctx.use_program(VS, FS)
    ctx.set_uniform("mvp", np.eye(4))
    ctx.bind_texture("albedo", checkerboard(size=8, squares=2))
    recorder = TraceRecorder()
    ctx.draw_mesh(cube(), name="c0")
    ctx.draw_mesh(triangles(), name="t0")
    recorder.record_frame(ctx.end_frame())
    ctx.set_state(depth_func=DepthFunc.LEQUAL)
    ctx.draw_mesh(cube(), name="c1")
    recorder.record_frame(ctx.end_frame())
    return recorder


class TestRoundtrip:
    def test_frame_and_call_counts(self):
        trace = record_two_frames().to_json()
        frames = replay(trace)
        assert len(frames) == 2
        assert [len(f.draw_calls) for f in frames] == [2, 1]

    def test_geometry_preserved(self):
        trace = record_two_frames().to_json()
        frames = replay(trace)
        call = frames[0].draw_calls[0]
        original = cube()
        assert call.vbo.num_vertices == original.num_vertices
        assert np.allclose(call.vbo.fetch("position", np.arange(3)),
                           original.positions[:3])

    def test_state_preserved(self):
        trace = record_two_frames().to_json()
        frames = replay(trace)
        assert frames[0].draw_calls[0].state.depth_func is DepthFunc.LESS
        assert frames[1].draw_calls[0].state.depth_func is DepthFunc.LEQUAL

    def test_uniforms_and_textures_preserved(self):
        trace = record_two_frames().to_json()
        call = replay(trace)[0].draw_calls[0]
        assert np.allclose(call.uniforms["mvp"], np.eye(4))
        assert "albedo" in call.textures
        assert call.textures["albedo"].width == 8

    def test_shader_sources_preserved(self):
        call = replay(record_two_frames().to_json())[0].draw_calls[0]
        assert call.vs_source == VS
        assert call.fs_source == FS

    def test_repeated_meshes_share_buffers(self):
        trace = record_two_frames().to_json()
        frames = replay(trace)
        addr0 = frames[0].draw_calls[0].vbo.base_address
        addr1 = frames[1].draw_calls[0].vbo.base_address
        assert addr0 == addr1    # same mesh -> cached VBO

    def test_stencil_state_roundtrip(self):
        import numpy as np
        from repro.gl.state import StencilOp
        from repro.geometry.models import cube
        ctx = GLContext(16, 16)
        ctx.use_program(VS, FS)
        ctx.set_state(stencil_test=True, stencil_func=DepthFunc.EQUAL,
                      stencil_ref=9, stencil_pass_op=StencilOp.INCR,
                      clear_stencil=2)
        ctx.draw_mesh(cube(), name="s")
        recorder = TraceRecorder()
        recorder.record_frame(ctx.end_frame())
        frames = replay(recorder.to_json())
        state = frames[0].draw_calls[0].state
        assert state.stencil_test
        assert state.stencil_func is DepthFunc.EQUAL
        assert state.stencil_ref == 9
        assert state.stencil_pass_op is StencilOp.INCR
        assert frames[0].clear_stencil == 2

    def test_save_and_load(self, tmp_path):
        from repro.gl.trace import load
        path = tmp_path / "trace.json"
        record_two_frames().save(str(path))
        frames = load(str(path))
        assert len(frames) == 2


class TestRegionOfInterest:
    def test_frame_window(self):
        trace = record_two_frames().to_json()
        frames = replay(trace, RegionOfInterest(first_frame=1))
        assert len(frames) == 1
        assert len(frames[0].draw_calls) == 1

    def test_draw_window(self):
        trace = record_two_frames().to_json()
        frames = replay(trace, RegionOfInterest(last_draw=0))
        assert [len(f.draw_calls) for f in frames] == [1, 1]
        assert frames[0].draw_calls[0].name == "c0"

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            replay('{"version": 99, "frames": []}')


def inline_v1(trace_json: str) -> str:
    """Down-convert a v2 trace to the retired v1 inline format."""
    import json
    doc = json.loads(trace_json)
    assert doc["version"] == 2
    buffers, textures = doc.pop("buffers"), doc.pop("textures")
    for frame_doc in doc["frames"]:
        for call_doc in frame_doc["draw_calls"]:
            call_doc["attributes"] = {
                k: buffers[ref] for k, ref in call_doc["attributes"].items()
            }
            call_doc["indices"] = buffers[call_doc["indices"]]
            call_doc["textures"] = {
                k: textures[ref] for k, ref in call_doc["textures"].items()
            }
    doc["version"] = 1
    return json.dumps(doc)


class TestTraceFormatV2:
    """Content-interned trace format: dedupe, determinism, v1 refusal."""

    def test_recorder_emits_v2_with_resolvable_tables(self):
        import json
        doc = json.loads(record_two_frames().to_json())
        assert doc["version"] == 2
        for frame_doc in doc["frames"]:
            for call_doc in frame_doc["draw_calls"]:
                for ref in call_doc["attributes"].values():
                    assert ref in doc["buffers"]
                assert call_doc["indices"] in doc["buffers"]
                for ref in call_doc["textures"].values():
                    assert ref in doc["textures"]

    def test_repeated_assets_intern_once(self):
        # The cube is drawn in both frames: its attribute and index
        # arrays must appear in the table once, referenced twice.
        import json
        doc = json.loads(record_two_frames().to_json())
        cube_calls = [call for frame_doc in doc["frames"]
                      for call in frame_doc["draw_calls"]
                      if call["name"].startswith("c")]
        assert len(cube_calls) == 2
        assert cube_calls[0]["attributes"] == cube_calls[1]["attributes"]
        assert cube_calls[0]["indices"] == cube_calls[1]["indices"]
        # And the trace grows with distinct assets, not with draw calls:
        # 2 meshes x (position/normal/uv/color slices + indices) bounds
        # the buffer table.
        assert len(doc["buffers"]) <= 10

    def test_capture_is_deterministic(self):
        from repro.gl.trace import trace_digest
        first = record_two_frames().to_json()
        second = record_two_frames().to_json()
        assert first == second
        assert trace_digest(first) == trace_digest(second)

    def test_replay_recapture_is_a_digest_fixed_point(self):
        from repro.gl.trace import trace_digest
        trace = record_two_frames().to_json()
        recorder = TraceRecorder()
        for frame in replay(trace):
            recorder.record_frame(frame)
        assert trace_digest(recorder.to_json()) == trace_digest(trace)

    def test_v1_inline_documents_are_refused(self):
        from repro.gl.trace import TraceDecodeError
        with pytest.raises(TraceDecodeError) as info:
            replay(inline_v1(record_two_frames().to_json()))
        assert info.value.detail == "version"


class TestTraceDecodeErrors:
    """Corrupt or truncated traces die with one typed error."""

    def decode_error(self):
        from repro.gl.trace import TraceDecodeError
        return TraceDecodeError

    def test_truncated_json_rejected(self):
        trace = record_two_frames().to_json()
        with pytest.raises(self.decode_error()):
            replay(trace[:len(trace) // 2])

    def test_non_object_root_rejected(self):
        with pytest.raises(self.decode_error()):
            replay('[1, 2, 3]')

    @pytest.mark.parametrize("table", ["buffers", "textures"])
    def test_v2_requires_intern_tables(self, table):
        import json
        doc = json.loads(record_two_frames().to_json())
        del doc[table]
        with pytest.raises(self.decode_error()) as excinfo:
            replay(json.dumps(doc))
        assert excinfo.value.detail == table

    def test_unknown_buffer_ref_names_its_location(self):
        import json
        doc = json.loads(record_two_frames().to_json())
        doc["frames"][0]["draw_calls"][0]["indices"] = "feedfacedeadbeef"
        with pytest.raises(self.decode_error()) as excinfo:
            replay(json.dumps(doc))
        assert excinfo.value.detail == "frames[0].draw_calls[0].indices"

    def test_unknown_texture_ref_names_its_location(self):
        import json
        doc = json.loads(record_two_frames().to_json())
        doc["frames"][0]["draw_calls"][0]["textures"]["albedo"] = "nope"
        with pytest.raises(self.decode_error()) as excinfo:
            replay(json.dumps(doc))
        assert excinfo.value.detail \
            == "frames[0].draw_calls[0].textures.albedo"

    @pytest.mark.parametrize("key", ["indices", "mode", "name", "state",
                                     "vs_source", "fs_source", "uniforms",
                                     "textures"])
    def test_missing_draw_key_names_its_location(self, key):
        import json
        doc = json.loads(record_two_frames().to_json())
        del doc["frames"][0]["draw_calls"][0][key]
        with pytest.raises(self.decode_error()) as excinfo:
            replay(json.dumps(doc))
        assert excinfo.value.detail == f"frames[0].draw_calls[0].{key}"

    @pytest.mark.parametrize("key", ["uniforms", "textures"])
    def test_draw_tables_must_be_objects(self, key):
        import json
        doc = json.loads(record_two_frames().to_json())
        doc["frames"][0]["draw_calls"][0][key] = []
        with pytest.raises(self.decode_error()) as excinfo:
            replay(json.dumps(doc))
        assert excinfo.value.detail == f"frames[0].draw_calls[0].{key}"

    def test_texture_without_its_data_names_its_location(self):
        import json
        doc = json.loads(record_two_frames().to_json())
        ref = doc["frames"][0]["draw_calls"][0]["textures"]["albedo"]
        del doc["textures"][ref]["data"]
        with pytest.raises(self.decode_error()) as excinfo:
            replay(json.dumps(doc))
        assert excinfo.value.detail == f"textures.{ref}.data"

    def test_missing_frame_fields_rejected(self):
        import json
        doc = json.loads(record_two_frames().to_json())
        del doc["frames"][1]["draw_calls"]
        with pytest.raises(self.decode_error()) as excinfo:
            replay(json.dumps(doc))
        assert "frames[1]" in excinfo.value.detail

    def test_non_call_object_rejected(self):
        import json
        doc = json.loads(record_two_frames().to_json())
        doc["frames"][0]["draw_calls"][0] = 17
        with pytest.raises(self.decode_error()):
            replay(json.dumps(doc))
