"""The bundled ``paper`` preset reproduces the published targets that
``tools/calibrate_preset.py`` fits its source parameters to, with the tool's
own noise-free observables."""

from pathlib import Path

import pytest

from dlczsim.config import config_from_dict, preset_dict
from helpers import load_script

CALIBRATE = Path(__file__).resolve().parents[1] / "tools" / "calibrate_preset.py"


def test_paper_preset_reproduces_its_calibration_targets():
    tool = load_script(CALIBRATE, "calibrate_preset")
    config = config_from_dict(preset_dict("paper"))
    params = (config.left.chi, config.right.chi, config.left.xi, config.right.xi, config.interferometer.overlap)
    targets = (tool.TARGET_P10, tool.TARGET_P01, tool.TARGET_P11, tool.TARGET_V)
    assert tool.observables(params) == pytest.approx(targets, rel=1e-3)
