"""Deploy MCBound as an HTTP backend (paper artifact A1).

Boots the full deployment story of §III-E: loads a trace into the jobs
data storage, runs the first Training Workflow, starts the HTTP app on a
local port, and exercises the API over real sockets — then keeps serving
until interrupted (pass --once to exit after the smoke test).

Run:  python examples/deploy_server.py [--once] [--port 8080]
"""

import argparse
import json
import urllib.request

from repro.core import MCBound, MCBoundConfig, build_app, load_trace_into_db
from repro.fugaku import generate_trace
from repro.fugaku.workload import DAY_SECONDS
from repro.web import serve


def call(url, payload=None):
    if payload is None:
        req = urllib.request.Request(url)
    else:
        req = urllib.request.Request(
            url, data=json.dumps(payload).encode(), method="POST",
            headers={"Content-Type": "application/json"},
        )
    with urllib.request.urlopen(req, timeout=30) as resp:
        return json.loads(resp.read())


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--once", action="store_true", help="exit after the smoke test")
    parser.add_argument("--port", type=int, default=0, help="port (0 = auto)")
    args = parser.parse_args()

    trace = generate_trace(scale=1 / 400, seed=7)
    framework = MCBound(
        MCBoundConfig(
            algorithm="KNN",
            model_params={"n_neighbors": 5},
            alpha_days=30.0,
        ),
        load_trace_into_db(trace),
    )

    handle = serve(build_app(framework), port=args.port)
    print(f"MCBound backend listening on {handle.url}")

    # deploy script behaviour: first Training Workflow, then live API
    now = 62 * DAY_SECONDS
    summary = call(f"{handle.url}/train", {"now": now})
    print(f"initial training: {summary['n_jobs']:,} jobs, "
          f"classes {summary['class_counts']}")

    health = call(f"{handle.url}/health")
    print(f"health: {health}")

    pred = call(
        f"{handle.url}/predict",
        {"start_time": now, "end_time": now + DAY_SECONDS / 4},
    )
    shown = list(zip(pred["job_ids"], pred["label_names"]))[:5]
    print(f"predicted {len(pred['labels'])} new jobs; first few: {shown}")

    if args.once:
        handle.stop()
        print("smoke test complete; server stopped")
        return

    print("serving... Ctrl-C to stop")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        handle.stop()


if __name__ == "__main__":
    main()
