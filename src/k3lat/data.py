"""Access to the bundled data files.

The environment variable ``K3LAT_DATA`` overrides the bundled directory, so
alternative datasets can be dropped in without reinstalling.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

_PACKAGE_DIR = Path(__file__).resolve().parent / "data"


def data_dir() -> Path:
    override = os.environ.get("K3LAT_DATA")
    if override:
        return Path(override)
    return _PACKAGE_DIR


def load_json(name: str):
    path = data_dir() / name
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
