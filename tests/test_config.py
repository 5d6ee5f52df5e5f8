"""Run-configuration parsing."""

import pytest

from distilldet.config import ConfigError, parse_config


def test_removed_roi_source_key_is_unknown():
    # region and logit matching always run on proposals; the old switch is gone
    with pytest.raises(ConfigError, match="unknown key 'distill.roi_source'"):
        parse_config("distill.roi_source = proposals\n")
