"""Walk a shard worker's boot steps in a fresh interpreter and time them.

``python3 perfbench/boot_probe.py --src SRC --dir INDEX_DIR --dim D`` imports
what ``repro serve-shard`` imports, loads the saved index the way the
worker does, answers one search message through the worker's
protocol handler, and prints one JSON line: import,
load and first-search milliseconds, the number of modules imported,
and whether ``scipy`` is among them (1) or not (0).
"""

import argparse
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--dim", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the worker's entry module)
    from repro.serving.net.worker import ShardService

    t1 = time.perf_counter()
    service = ShardService.from_dir(args.dir)
    t2 = time.perf_counter()
    import numpy as np
    from repro.serving.net import framing

    request = framing.encode_search(np.zeros((1, args.dim)), 10, 32, {})
    reply = service.handle(framing.decode_message(request))
    kind, _ = framing.reply_payload(framing.decode_message(reply))
    if kind != "result":
        raise RuntimeError(f"first search answered {kind!r}")
    t3 = time.perf_counter()
    print(json.dumps({
        "import_ms": (t1 - t0) * 1e3,
        "load_index_ms": (t2 - t1) * 1e3,
        "first_search_ms": (t3 - t2) * 1e3,
        "modules_imported": len(sys.modules),
        "scipy_loaded": int(any(m == "scipy" or m.startswith("scipy.")
                                for m in sys.modules)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
