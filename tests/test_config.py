"""DEFAULT_CONFIG is the one source of the config defaults."""

import dataclasses

import pytest

from densemble.attacks import AttackedSet, AttackSpec
from densemble.config import arch_from_config, attack_cells, resolve_config, train_from_config
from densemble.decorrelation import DecorConfig
from densemble.ensemble import AdamConfig, TrainConfig
from densemble.model import ArchConfig
from densemble.signals import SynthConfig


@pytest.mark.parametrize("cls", [SynthConfig, TrainConfig, DecorConfig, AttackSpec, AttackedSet])
def test_typed_configs_have_no_defaults(cls):
    defaulted = [f.name for f in dataclasses.fields(cls)
                 if f.default is not dataclasses.MISSING
                 or f.default_factory is not dataclasses.MISSING]
    assert defaulted == []


def test_pinned_mirrors_equal_default_config():
    # ArchConfig, AdamConfig and AttackSpec.make keep defaults because the
    # benchmark calls them without arguments; they must say what the config says
    cfg = resolve_config({})
    assert ArchConfig() == arch_from_config(cfg)
    assert AdamConfig() == train_from_config(cfg).adam
    for _, spec in attack_cells(cfg):
        assert AttackSpec.make(spec.family, spec.eps) == spec
