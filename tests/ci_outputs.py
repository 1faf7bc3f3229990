"""Run a casim command over the packaged configs and check its outputs.

    python tests/ci_outputs.py OUT_DIR DIGESTS_JSON CASIM_COMMAND...

CASIM_COMMAND is the console script, ``casim``, or ``python -m casim.cli``.
The script runs ``suite --out OUT_DIR/suite``, then ``run --trace`` (into
``OUT_DIR/run/<config name>``), ``plan`` and ``prefix`` on each packaged
config, all without CASIM_SEED; each must exit 0 and print, through a pipe,
output that ends in a newline (so the console script is shown to deliver
what it prints before it ends the process).  It then checks every
``run/unseeded/...`` and ``suite/...`` digest in DIGESTS_JSON (normally
``tests/output_digests.json``) against the file it names, and exits nonzero
naming each file that is missing or differs.  pytest does not collect this
file; ``tests/test_output_digests.py`` runs it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from casim.cli import bundled_scenario_dir


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        sys.exit(__doc__)
    out, digests, *command = argv
    out = Path(out)
    env = {key: value for key, value in os.environ.items() if key != "CASIM_SEED"}

    def casim(*args: str) -> None:
        shown = " ".join([*command, *args])
        proc = subprocess.run([*command, *args], env=env, stdout=subprocess.PIPE)
        if proc.returncode:
            sys.exit(f"{shown} exited {proc.returncode}")
        if not proc.stdout.endswith(b"\n"):
            sys.exit(f"{shown} printed {'nothing' if not proc.stdout else 'no final newline'}")

    casim("suite", "--out", str(out / "suite"))
    for config in sorted(bundled_scenario_dir().glob("*.cfg")):
        casim("run", "--config", str(config), "--out", str(out / "run" / config.stem), "--trace")
        casim("plan", "--config", str(config))
        casim("prefix", "--config", str(config))

    wrong = []
    for key, digest in json.loads(Path(digests).read_text()).items():
        if key.startswith(("run/unseeded/", "suite/")):
            path = out / key.replace("/unseeded", "")
            if not path.is_file() or hashlib.sha256(path.read_bytes()).hexdigest() != digest:
                wrong.append(key)
    if wrong:
        sys.exit(f"outputs differ from their digests: {', '.join(wrong)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
