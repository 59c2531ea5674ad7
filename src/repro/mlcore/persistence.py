"""Pickle-free model persistence and a versioned on-disk registry.

Plays the role skops.io plays in the paper's deployment (§III-E): trained
model instances are written to the filesystem so different versions can be
kept and reloaded, without the arbitrary-code-execution risk of pickle.

Format: a directory with ``manifest.json`` (model class, metadata, nested
child references) and ``arrays.npz``, one zip holding every state level's
arrays as ``.npy`` members, deflated at level 1; ``np.load`` reads it as
it reads any ``.npz``.  A model participates by implementing
``get_state() -> dict`` with keys ``meta`` (JSON-serializable), ``arrays``
(name -> ndarray) and optionally ``children`` (name -> nested state),
plus a ``from_state`` classmethod.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
import uuid
import zipfile
from pathlib import Path

import numpy as np

__all__ = ["save_model", "load_model", "ModelRegistry", "registered_model_classes"]


def _model_classes() -> dict:
    # Imported lazily to avoid import cycles at package init.
    from repro.mlcore.baseline import LookupTableBaseline
    from repro.mlcore.forest import RandomForestClassifier
    from repro.mlcore.knn import KNeighborsClassifier
    from repro.mlcore.tree import DecisionTreeClassifier

    return {
        "DecisionTreeClassifier": DecisionTreeClassifier,
        "RandomForestClassifier": RandomForestClassifier,
        "KNeighborsClassifier": KNeighborsClassifier,
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


def _write_archive(file: Path, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` to ``file`` as an ``.npz``: one ``.npy`` member per
    array, deflated at level 1, which on a served KNN takes a third of the
    time of ``np.savez_compressed``'s level 6."""
    with zipfile.ZipFile(file, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as zf:
        for key, arr in arrays.items():
            # zip64 as np.savez forces it: a member's size is unknown upfront
            with zf.open(f"{key}.npy", "w", force_zip64=True) as f:
                np.lib.format.write_array(f, arr, allow_pickle=False)


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
    _write_archive(path / "arrays.npz", arrays)
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

    def _vdir(self, version: int) -> Path:
        return self.root / f"v{version:08d}"

    @property
    def latest_version(self) -> int | None:
        try:
            return int((self.root / "LATEST").read_text())
        except FileNotFoundError:
            return None

    def publish(self, model, *, metadata: dict | None = None) -> int:
        """Save ``model`` as the next version; returns the version number.

        The version is one past ``LATEST``, moved up past any number a
        rename finds taken, so publish never lists the root directory.
        """
        tmp = self.root / f".publish-{uuid.uuid4().hex}"
        try:
            save_model(model, tmp)
            if metadata is not None:
                (tmp / "metadata.json").write_text(json.dumps(metadata))
            version = (self.latest_version or 0) + 1
            while True:
                try:
                    os.replace(tmp, self._vdir(version))
                    break
                except OSError as exc:  # taken by a concurrent or killed publisher
                    if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                        raise
                    version += 1
        except BaseException:
            shutil.rmtree(tmp, ignore_errors=True)
            raise
        self._point_latest_at_newest(version)
        return version

    def _point_latest_at_newest(self, newest: int) -> None:
        """Atomically point ``LATEST`` at the newest version directory,
        found by probing ``v<N+1>`` upward from the one just published.

        Versions are taken in order from ``LATEST + 1``, so the numbers
        present have no gaps, and every ``v*`` directory is complete,
        because it appears by rename.  Probing again after each write
        makes concurrent publishers settle on the newest version, rather
        than on whichever of them wrote last.
        """
        while True:
            while self._vdir(newest + 1).is_dir():
                newest += 1
            tmp = self.root / f".LATEST-{uuid.uuid4().hex}"
            tmp.write_text(str(newest))
            os.replace(tmp, self.root / "LATEST")
            if not self._vdir(newest + 1).is_dir():
                return

    def load(self, version: int):
        """Load a specific version."""
        vdir = self._vdir(version)
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
        mpath = self._vdir(version) / "metadata.json"
        if not mpath.exists():
            return {}
        return json.loads(mpath.read_text())
