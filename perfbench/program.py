"""The program under test, run in its own process by ``run.py``.

It generates the same trace as the benchmark from the seed, then answers
one JSON command per line on stdin with one JSON line on stdout:

- ``{"cmd": "setup"}``: a fresh set-up (ingest, framework, first train,
  and ``repro.web.serve()`` on a free port).  The previous server is
  stopped and its model store removed.  Answers ``{"setup_s", "port"}``.
- ``{"cmd": "record"}``: wrap every layer (``spans.instrument``) and
  start recording spans from now on.
- ``{"cmd": "rss"}``: answer the peak RSS so far.
- ``{"cmd": "finish"}``: stop, answer peak RSS, the spans and the model
  store's size, and exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.core import MCBound, build_app, load_trace_into_db  # noqa: E402
from repro.web import serve  # noqa: E402

import spans  # noqa: E402
from workloads import DAY, WARM_DAY, deployed_config, make_trace  # noqa: E402


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


class Program:
    def __init__(self, seed: int, scale: float, store_root: Path) -> None:
        self.config = deployed_config()
        self.trace = make_trace(seed, scale)
        self.store_root = store_root
        self.setups = 0
        self.framework: MCBound | None = None
        self.server = None
        self.store_dir: Path | None = None
        self.recorder: spans.Recorder | None = None

    def _teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.framework = None
        gc.collect()  # free the previous framework before the next peak
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def setup(self) -> dict:
        self._teardown()
        self.setups += 1
        self.store_dir = self.store_root / f"store{self.setups}"
        t0 = time.perf_counter()
        db = load_trace_into_db(self.trace)
        framework = MCBound(self.config, db, model_store_root=self.store_dir)
        framework.train(WARM_DAY * DAY)
        self.server = serve(build_app(framework))
        setup_s = time.perf_counter() - t0
        self.framework = framework
        return {"setup_s": setup_s, "port": self.server.port}

    def record(self) -> dict:
        if self.recorder is None:
            self.recorder = spans.Recorder()
            spans.instrument(self.recorder)
        self.recorder.clear()
        return {}

    def rss(self) -> dict:
        return {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}

    def finish(self) -> dict:
        store_bytes = _dir_bytes(self.store_dir) if self.store_dir else 0
        versions = self.framework.store.latest_version if self.framework else 0
        self._teardown()
        rec = self.recorder
        return {
            **self.rss(),
            "store_bytes": store_bytes,
            "store_versions": versions or 0,
            "spans": rec.spans if rec else [],
            "tallies": rec.tallies if rec else {},
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--store-root", type=Path, required=True)
    args = parser.parse_args()
    program = Program(args.seed, args.scale, args.store_root)
    commands = {"setup": program.setup, "record": program.record, "rss": program.rss}
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        name = json.loads(line)["cmd"]
        if name == "finish":
            print(json.dumps(program.finish()), flush=True)
            return 0
        print(json.dumps(commands[name]()), flush=True)
    return 1


if __name__ == "__main__":
    sys.exit(main())
