"""Flat key = value configuration parsing and binding."""

import numpy as np
import pytest

from lidar_graph_slam.cli import main as cli_main
from lidar_graph_slam.config import (PipelineConfig, _parse_bool,
                                     parse_config_text)


class TestParser:
    def test_basic_lines(self):
        text = """
        # a comment
        floor_enabled = true

        max_iterations = 32   # trailing comment
        """
        kv = parse_config_text(text)
        assert kv == {"floor_enabled": "true", "max_iterations": "32"}

    def test_equals_in_value_preserved(self):
        assert parse_config_text("a = b=c") == {"a": "b=c"}

    def test_missing_equals_raises(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config_text("just words")

    @pytest.mark.parametrize("second", ["48", "32"])
    def test_key_set_twice_raises_naming_both_lines(self, second):
        # the same value twice is refused too
        text = f"max_iterations = 32\n# a comment\n max_iterations= {second}\n"
        with pytest.raises(ValueError, match=r"line 3: key 'max_iterations' "
                                             r"already set on line 1"):
            parse_config_text(text)

    def test_parse_bool(self):
        assert _parse_bool("True") and _parse_bool("1") and _parse_bool("on")
        assert not _parse_bool("false") and not _parse_bool("no")
        with pytest.raises(ValueError):
            _parse_bool("maybe")


class TestBinding:
    def test_defaults_without_file(self):
        cfg = PipelineConfig()
        assert cfg.pretracker_enabled and cfg.floor_enabled
        assert cfg.optimize_every_n_keyframes == 3

    def test_values_reach_their_modules(self):
        cfg = PipelineConfig.from_dict({
            "downsample_resolution": "0.5",
            "outlier_removal_method": "RADIUS",
            "radius": "0.8",
            "min_neighbors": "3",
            "max_iterations": "48",
            "transformation_epsilon": "0.01",
            "max_correspondence_distance": "1.5",
            "pretracker_enabled": "false",
            "phase1_keep_fraction": "0.04",
            "phase2_keep_fraction": "0.3",
            "keyframe_delta_trans": "2.0",
            "keyframe_delta_angle": "0.5",
            "keyframe_delta_time": "3.0",
            "floor_enabled": "true",
            "floor_clip_min_z": "-3.0",
            "floor_clip_max_z": "-0.5",
            "floor_normal_max_angle": "30",
            "floor_ransac_threshold": "0.05",
            "loop_search_radius": "25",
            "loop_min_accum_distance": "40",
            "loop_fitness_threshold": "0.2",
            "sc_rings": "16",
            "sc_sectors": "72",
            "sc_max_range": "60",
            "optimize_every_n_keyframes": "5",
            "incline_threshold_deg": "8",
            "map_resolution": "0.1",
        })
        assert cfg.prefilter.downsample_resolution == 0.5
        assert cfg.prefilter.radius == 0.8
        assert cfg.prefilter.min_neighbors == 3
        assert cfg.registration.max_iterations == 48
        assert not cfg.pretracker_enabled
        assert cfg.pretracker.phase1_keep_fraction == 0.04
        assert cfg.keyframes.delta_trans == 2.0
        assert cfg.floor.clip_min_z == -3.0
        # angle comes in degrees and is stored in radians
        assert cfg.floor.normal_vertical_max_angle == pytest.approx(
            np.deg2rad(30.0))
        assert cfg.scan_context.sectors == 72
        assert cfg.optimize_every_n_keyframes == 5
        assert cfg.incline_threshold_deg == 8.0
        assert cfg.map_resolution == 0.1

    def test_unknown_key_raises(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            PipelineConfig.from_dict({"warp_drive": "engaged"})

    @pytest.mark.parametrize("key, value", [
        ("floor_mode", "ROUGH"), ("floor_rough_clip_radius", "3.0")])
    def test_removed_floor_keys_are_unknown(self, key, value):
        # the floor has one detector, so a file that still picks a mode
        # fails as one that sets any unknown key
        with pytest.raises(ValueError,
                           match=rf"unknown config keys: \['{key}'\]"):
            PipelineConfig.from_dict({key: value})

    def test_removed_loop_keys_are_unknown(self):
        # one candidate is verified per query, so there is no count to set
        with pytest.raises(ValueError,
                           match=r"unknown config keys: \['loop_top_k'\]"):
            PipelineConfig.from_dict({"loop_top_k": "5"})

    def test_from_file(self, tmp_path):
        path = tmp_path / "slam.conf"
        path.write_text("keyframe_delta_trans = 1.25\n")
        cfg = PipelineConfig.from_file(str(path))
        assert cfg.keyframes.delta_trans == 1.25


# each value breaks a check of the section it belongs to, or is a number
# the file's converter refuses (nan, inf); registration_method, floor_mode,
# floor_rough_clip_radius, loop_top_k and downsample_method are no longer
# keys, so a file that still sets one fails as an unknown key
BAD_VALUES = [
    ("max_iterations", "0"),
    ("downsample_resolution", "-1"),
    ("min_neighbors", "0"),
    ("loop_top_k", "0"),
    ("floor_clip_min_z", "5"),
    ("registration_method", "FOO"),
    ("registration_method", "ICP_P2PLANE"),
    ("downsample_method", "VOXELGRIDD"),
    ("outlier_removal_method", "RADIUSS"),
    ("floor_mode", "BANANA"),
    ("floor_rough_clip_radius", "3.0"),
    ("sc_rings", "0"),
    ("sc_sectors", "0"),
    ("sc_max_range", "-1"),
    ("map_resolution", "0"),
    ("radius", "nan"),
    ("downsample_resolution", "inf"),
    ("max_correspondence_distance", "nan"),
    ("keyframe_delta_trans", "nan"),
    ("map_resolution", "nan"),
    ("optimize_every_n_keyframes", "0"),
    ("optimize_every_n_keyframes", "-3"),
    ("floor_min_inlier_fraction", "1.5"),
    ("floor_min_inlier_fraction", "-1"),
    ("incline_threshold_deg", "-5"),
]


class TestRejection:
    @pytest.mark.parametrize("key, value", BAD_VALUES)
    def test_from_dict_raises(self, key, value):
        with pytest.raises(ValueError):
            PipelineConfig.from_dict({key: value})

    @pytest.mark.parametrize("key, value", BAD_VALUES)
    def test_cli_exits_with_code_2(self, key, value, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text(f"{key} = {value}\n")
        # the dataset directory is empty: the config must fail first
        code = cli_main(["run", "--config", str(conf), "--dataset",
                         str(tmp_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and "velodyne" not in err

    def test_cli_key_set_twice_exits_with_code_2(self, tmp_path, capsys):
        conf = tmp_path / "twice.conf"
        conf.write_text("radius = 0.8\nradius = 0.5\n")
        code = cli_main(["run", "--config", str(conf), "--dataset",
                         str(tmp_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2: key 'radius' already set on line 1" in err
