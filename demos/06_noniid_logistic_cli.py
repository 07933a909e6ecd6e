"""Drive the CLI end to end: config file, run, bounds, check, topology sweep.

This is the harness surface a shell user sees: write a config, produce trace
and bounds CSVs, verify domination, then sweep topologies on an iid versus a
label-skewed partition of a synthetic classification dataset.  The sparser
the topology, the earlier it degrades at an aggressive step size.  All files
go to a temporary directory that is removed when the script ends.
"""

import os
import tempfile

from dmsgd.harness import main

CONFIG = """\
topology.kind = full
topology.n = 4
topology.laziness = 0.2
objective.kind = logistic
objective.dataset = synthetic
objective.dataset_seed = 7
objective.samples = 400
objective.features = 5
objective.classes = 2
objective.agents = 4
objective.partition = iid
objective.partition_seed = 7
objective.reg = 0.1
oracle.mode = minibatch
oracle.batch = full
hp.option = I
hp.alpha = 0.5
hp.beta = 0.5
hp.omega = 0.5
hp.iters = 120
hp.seed = 7
"""

with tempfile.TemporaryDirectory(prefix="dmsgd_demo_") as work:
    cfg = os.path.join(work, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(CONFIG)

    print("== dmsgd run ==")
    main(["run", "--config", cfg, "--out", work])
    print("== dmsgd bounds ==")
    main(["bounds", "--config", cfg, "--out", work])
    print("== dmsgd check ==")
    code = main(["check", "--trace", os.path.join(work, "trace_seed7.csv"),
                 "--bounds", os.path.join(work, "bounds.csv"), "--slack", "0"])
    print(f"check exit code: {code}")

    print()
    print("== dmsgd sweep: topologies x partition strategies ==")
    for partition in ("iid", "noniid"):
        sweep_cfg = os.path.join(work, f"sweep_{partition}.cfg")
        with open(sweep_cfg, "w", encoding="utf-8") as fh:
            fh.write(CONFIG.replace("objective.partition = iid", f"objective.partition = {partition}")
                     .replace("hp.alpha = 0.5", "hp.alpha = 2.0")
                     + "sweep.topology = full,ring,bipartite\n")
        out = os.path.join(work, f"sweep_{partition}")
        main(["sweep", "--config", sweep_cfg, "--out", out])
        print(f"-- {partition} --")
        with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
            for line in fh:
                if not line.startswith("#"):
                    print("  " + line.rstrip())

    print()
    written = sorted(os.path.relpath(os.path.join(d, f), work) for d, _, files in os.walk(work) for f in files)
    print(f"wrote {', '.join(written)} (removed when the demo ends)")
