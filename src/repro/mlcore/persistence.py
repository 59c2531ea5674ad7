"""Pickle-free model persistence and a versioned on-disk registry.

Plays the role skops.io plays in the paper's deployment (§III-E): trained
model instances are written to the filesystem so different versions can be
kept and reloaded, without the arbitrary-code-execution risk of pickle.

Format: a directory with ``manifest.json`` (model class, metadata, nested
child references) and one ``.npy``-in-``.npz`` archive per state level.
A model participates by implementing ``get_state() -> dict`` with keys
``meta`` (JSON-serializable), ``arrays`` (name -> ndarray) and optionally
``children`` (name -> nested state), plus a ``from_state`` classmethod.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import uuid
from pathlib import Path

import numpy as np

__all__ = ["save_model", "load_model", "ModelRegistry", "registered_model_classes"]


def _model_classes() -> dict:
    # Imported lazily to avoid import cycles at package init.
    from repro.mlcore.baseline import LookupTableBaseline
    from repro.mlcore.forest import RandomForestClassifier
    from repro.mlcore.knn import KNeighborsClassifier, KNeighborsRegressor
    from repro.mlcore.naive_bayes import GaussianNBClassifier
    from repro.mlcore.tree import DecisionTreeClassifier

    return {
        "DecisionTreeClassifier": DecisionTreeClassifier,
        "RandomForestClassifier": RandomForestClassifier,
        "KNeighborsClassifier": KNeighborsClassifier,
        "KNeighborsRegressor": KNeighborsRegressor,
        "GaussianNBClassifier": GaussianNBClassifier,
        "LookupTableBaseline": LookupTableBaseline,
    }


def registered_model_classes() -> tuple[str, ...]:
    """Names of the model classes save/load understands."""
    return tuple(_model_classes())


def _flatten_state(state: dict, prefix: str, manifest: dict, arrays: dict) -> None:
    manifest["meta"] = state.get("meta", {})
    manifest["arrays"] = []
    for name, arr in state.get("arrays", {}).items():
        key = f"{prefix}{name}"
        arrays[key] = np.asarray(arr)
        manifest["arrays"].append(name)
    manifest["children"] = {}
    for name, child in state.get("children", {}).items():
        child_manifest: dict = {}
        _flatten_state(child, f"{prefix}{name}.", child_manifest, arrays)
        manifest["children"][name] = child_manifest


def _unflatten_state(manifest: dict, prefix: str, arrays) -> dict:
    state = {
        "meta": manifest.get("meta", {}),
        "arrays": {name: arrays[f"{prefix}{name}"] for name in manifest.get("arrays", [])},
    }
    children = manifest.get("children", {})
    if children:
        state["children"] = {
            name: _unflatten_state(child, f"{prefix}{name}.", arrays)
            for name, child in children.items()
        }
    return state


def save_model(model, path: str | Path) -> Path:
    """Serialize a model to directory ``path`` (created/overwritten)."""
    classes = _model_classes()
    cls_name = type(model).__name__
    if cls_name not in classes:
        raise TypeError(f"{cls_name} is not a registered persistable model")
    state = model.get_state()
    path = Path(path)
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    manifest: dict = {"model_class": cls_name, "format_version": 1}
    arrays: dict[str, np.ndarray] = {}
    _flatten_state(state, "", manifest, arrays)
    (path / "manifest.json").write_text(json.dumps(manifest))
    np.savez_compressed(path / "arrays.npz", **arrays)
    return path


def load_model(path: str | Path):
    """Load a model saved by :func:`save_model`."""
    path = Path(path)
    manifest = json.loads((path / "manifest.json").read_text())
    cls = _model_classes().get(manifest.get("model_class"))
    if cls is None:
        raise TypeError(f"unknown model class {manifest.get('model_class')!r}")
    with np.load(path / "arrays.npz", allow_pickle=False) as npz:
        arrays = {k: npz[k] for k in npz.files}
    state = _unflatten_state(manifest, "", arrays)
    return cls.from_state(state)


_VERSION_RE = re.compile(r"^v(\d{8})$")


class ModelRegistry:
    """Versioned store of trained models under one root directory.

    Every :meth:`publish` writes a new ``v<number>`` directory and updates
    ``LATEST``; :meth:`load_latest` reads the version ``LATEST`` names.
    This is how the Training Workflow hands a freshly retrained model to
    the Inference Workflow (paper Fig. 1).

    A version is written into a private directory and renamed into place
    whole, so a process killed mid-publish leaves no ``v*`` directory
    behind (only a ``.publish-*`` one, which nothing reads), and
    concurrent publishers each get their own version number.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _versions(self) -> list[int]:
        out = []
        for p in self.root.iterdir():
            m = _VERSION_RE.match(p.name)
            if m and p.is_dir():
                out.append(int(m.group(1)))
        return sorted(out)

    @property
    def latest_version(self) -> int | None:
        try:
            return int((self.root / "LATEST").read_text())
        except FileNotFoundError:
            return None

    def publish(self, model, *, metadata: dict | None = None) -> int:
        """Save ``model`` as the next version; returns the version number."""
        tmp = self.root / f".publish-{uuid.uuid4().hex}"
        try:
            save_model(model, tmp)
            if metadata is not None:
                (tmp / "metadata.json").write_text(json.dumps(metadata))
            version = max(self._versions(), default=0) + 1
            while True:
                try:
                    os.replace(tmp, self.root / f"v{version:08d}")
                    break
                except OSError as exc:  # another publisher took this number
                    if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                        raise
                    version += 1
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._point_latest_at_newest()
        return version

    def _point_latest_at_newest(self) -> None:
        """Atomically point ``LATEST`` at the newest version directory.

        Every ``v*`` directory is complete, because it appears by rename.
        Checking again after each write makes concurrent publishers settle
        on the newest one, rather than on whichever of them wrote last.
        """
        while True:
            newest = self._versions()[-1]
            tmp = self.root / f".LATEST-{uuid.uuid4().hex}"
            tmp.write_text(str(newest))
            os.replace(tmp, self.root / "LATEST")
            if self._versions()[-1] == newest:
                return

    def load(self, version: int):
        """Load a specific version."""
        vdir = self.root / f"v{version:08d}"
        if not vdir.exists():
            raise FileNotFoundError(f"no model version {version} in {self.root}")
        return load_model(vdir)

    def load_latest(self):
        """Load the newest published model (raises if none)."""
        v = self.latest_version
        if v is None:
            raise FileNotFoundError(f"registry {self.root} is empty")
        return self.load(v)

    def metadata(self, version: int) -> dict:
        """Metadata recorded at publish time (empty dict if none)."""
        mpath = self.root / f"v{version:08d}" / "metadata.json"
        if not mpath.exists():
            return {}
        return json.loads(mpath.read_text())
