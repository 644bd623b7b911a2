"""Set-up of one training run, in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <config file> <reference passes>

Imports ``abel_sched`` from <src dir>, parses the config, builds the
dataset and initialises the parameters. Then it times the given number of
host-speed reference passes (hostspeed.py), in the same process and so on
the same vCPU as the set-up, and prints the time of the first three phases
and of each pass in milliseconds as one JSON object.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    t0 = time.perf_counter()
    src, config_path, passes = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import abel_sched
    from abel_sched.datasets import dataset_meta

    t1 = time.perf_counter()
    config = abel_sched.parse_config(Path(config_path).read_text())
    t2 = time.perf_counter()
    train, _ = abel_sched.make_dataset(config.dataset)
    t3 = time.perf_counter()
    meta = dataset_meta(config.dataset, train)
    m = config.model
    model = abel_sched.Model(abel_sched.ModelArch(
        input_dim=meta["input_dim"], hidden=m.hidden, classes=meta["classes"],
        kind=m.kind, activation=m.activation, normalize=m.normalize,
        init_scale=m.init_scale, input_shape=m.input_shape))
    model.init_params(config.seed)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from hostspeed import timed_passes

    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "parse_ms": (t2 - t1) * 1e3,
                      "dataset_ms": (t3 - t2) * 1e3, "ref_ms": timed_passes(passes)}))


if __name__ == "__main__":
    main()
