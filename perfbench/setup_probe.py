"""Time the set-up a user pays before the first unit of work, in a fresh process.

    python3 perfbench/setup_probe.py train_cnn <seed>
    python3 perfbench/setup_probe.py infer_detect <model.femo> <cascade.json>
    python3 perfbench/setup_probe.py ingest_tree

The clock starts before ``fer_forge`` (and so numpy) is imported and stops
when the networks are built, or the model is loaded and the cascade
parsed. Interpreter start-up is not counted. Prints {"seconds": ...}.
The caller puts ``src/`` on PYTHONPATH.
"""

import json
import sys
import time

STARTED = time.perf_counter()


def main(workload: str, args: list[str]):
    if workload == "train_cnn":
        from fer_forge import models, train  # noqa: F401

        seed = int(args[0])
        models.build_proposed_cnn(seed=seed)
        models.build_simple_cnn(seed=seed)
        models.build_feedforward(seed=seed)
    elif workload == "infer_detect":
        from fer_forge import facedetect, models, train  # noqa: F401

        models.load_model(args[0])
        facedetect.load_cascade(args[1])
    elif workload == "ingest_tree":
        from fer_forge import data, tree  # noqa: F401
    else:
        raise SystemExit(f"unknown workload {workload!r}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
    print(json.dumps({"seconds": time.perf_counter() - STARTED}))
