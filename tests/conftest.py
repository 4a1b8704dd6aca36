"""Session-scoped world: one pretrained backbone, fitted maps, and task data.

Building the world takes a couple of minutes, so it is created once and
shared by every test that needs realistic traces. Tests that only need
shapes or algebra build their own tiny states instead.
"""

import json

import pytest

from bridgetune.backbone import save_backbone
from bridgetune.latent_map import save_mapnet
from bridgetune.study import build_world
from bridgetune.tasks import write_jsonl


@pytest.fixture(scope="session")
def world():
    return build_world()


@pytest.fixture(scope="session")
def world_dir(world, tmp_path_factory):
    """World artifacts on disk, for CLI-level tests."""
    d = tmp_path_factory.mktemp("world")
    save_backbone(d / "backbone.bin", world.state)
    save_mapnet(d / "map-pdf.bin", world.pdf_map, "pdf", world.endpoints)
    save_mapnet(d / "map-sde.bin", world.sde_map, "sde", world.endpoints)
    write_jsonl(d / "task.jsonl", world.pool)
    with open(d / "corpus.json", "w", encoding="utf-8") as f:
        json.dump(world.corpus, f)
    return d
